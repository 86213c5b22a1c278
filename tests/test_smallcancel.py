"""Pieces, cancellation conditions, Dehn reduction, bounded word-problem oracle.

Every structural claim is checked against a slow independent recomputation
before the frozen constants are asserted.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cakelab.words
from cakelab.artin import artin_from_graph, braid_presentation, random_tree
from cakelab.diffusion import DisguiseBudget, disguise
from cakelab.presentations import (
    Presentation,
    SymmetrizedSet,
    format_presentation,
    parse_presentation,
    symmetrize,
)
from cakelab.smallcancel import (
    WspWitness,
    bounded_wp_oracle,
    build_report,
    check_C,
    check_Cprime,
    check_T4,
    cprime_sup,
    dehn_reduce,
    enumerate_pieces,
    format_witness,
    min_piece_count,
    parse_witness,
    replay_witness,
)
from cakelab.words import (
    Alphabet,
    Word,
    from_codes,
    parse_word,
    random_reduced_word,
)

X = Alphabet(("x1", "x2", "x3"))
EX = Presentation(
    X,
    (parse_word(X, "x1^2 x2 x3^2 x2^-1"), parse_word(X, "x2^2 x3 x1^2 x3^-1")),
)

AB = Alphabet(("a", "b"))
ZSQ = Presentation(AB, (parse_word(AB, "a b a^-1 b^-1"),))

SURF = Alphabet(("a", "b", "c", "d"))
GENUS2 = Presentation(SURF, (parse_word(SURF, "a b a^-1 b^-1 c d c^-1 d^-1"),))

# the level-3 tree platform: |S| = 184, 138 pieces
L3 = artin_from_graph(random_tree(3, 4, 7, seed=11).graph)
L5 = artin_from_graph(random_tree(5, 4, 7, seed=11).graph)  # |S| = 640

ORACLE_CASES = [
    pytest.param(EX, id="EX"),
    pytest.param(ZSQ, id="ZSQ"),
    pytest.param(GENUS2, id="GENUS2"),
    pytest.param(braid_presentation(4), id="braid4"),
    pytest.param(L3, id="L3"),
]


def random_presentation(rng, gens=4, rels=3, length=6):
    """1-gens generators, 1-rels distinct cyclically reduced relators of
    length 1-length."""
    alphabet = Alphabet(tuple(f"g{i}" for i in range(1, rng.randint(1, gens) + 1)))
    relators = []
    for _ in range(rng.randint(1, rels)):
        while True:
            r = random_reduced_word(alphabet, rng.randint(1, length), rng)
            if r.is_cyclically_reduced and r not in relators:
                relators.append(r)
                break
    return Presentation(alphabet, tuple(relators))


_T4_RNG = random.Random(2024)
RANDOM_T4 = [random_presentation(_T4_RNG) for _ in range(40)]

T4_CASES = [
    pytest.param(EX, id="EX"),
    pytest.param(ZSQ, id="ZSQ"),
    pytest.param(GENUS2, id="GENUS2"),
] + [pytest.param(braid_presentation(n), id=f"braid{n}") for n in (3, 4, 5)] + [
    pytest.param(p, id=f"random{i}") for i, p in enumerate(RANDOM_T4)
]


# ---------------------------------------------------------------- oracles

def pieces_oracle(p):
    """Code tuples of the pieces: a proper prefix u is a piece iff two
    distinct closure elements share it."""
    closure = [w.codes for w in symmetrize(p).ordered]
    found = set()
    for r, s in itertools.permutations(closure, 2):
        for k in range(1, min(len(r), len(s)) + 1):
            if r[:k] == s[:k]:
                found.add(r[:k])
            else:
                break
    return found


def min_pieces_oracle(r, pieces):
    """Exhaustive search for the fewest pieces concatenating letterwise to r."""
    best = [None]
    letters = r.codes

    def go(i, used):
        if best[0] is not None and used >= best[0]:
            return
        if i == len(r):
            best[0] = used
            return
        for k in range(len(r) - i, 0, -1):
            if letters[i : i + k] in pieces:
                go(i + k, used + 1)

    go(0, 0)
    return best[0]


def cprime_sup_oracle(p):
    """Largest |u|/|r| over every oracle piece u that is a prefix of an element r."""
    pieces = pieces_oracle(p)
    ratios = [
        Fraction(len(u), len(r))
        for r in [w.codes for w in symmetrize(p).elements]
        for u in pieces
        if r[: len(u)] == u
    ]
    return max(ratios, default=None)


def t4_oracle(p):
    """Brute force: search for r1, r2, r3 with all three seams cancelling."""
    closure = symmetrize(p).ordered
    for r1, r2, r3 in itertools.product(closure, repeat=3):
        if r1 == ~r2 or r2 == ~r3 or r3 == ~r1:
            continue
        if (
            r1[-1] == r2[0].inverse()
            and r2[-1] == r3[0].inverse()
            and r3[-1] == r1[0].inverse()
        ):
            return False, (r1, r2, r3)
    return True, None


def common_prefix_len(a, b):
    """Length of the longest common prefix of the sequences a and b."""
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def symmetrize_reference(p):
    """The symmetrized set as it was built before it was compiled in letter
    codes: every rotation a Word, sorted by length and then codes, and piece
    lengths from neighbours in an order of Letter tuples."""
    closure = set()
    for r in p.relators:
        for w in (r, r.inverse()):
            closure |= {w[k:] * w[:k] for k in range(len(w))}
    ordered = tuple(sorted(closure, key=lambda w: (len(w), w.codes)))
    letters = [tuple(w) for w in ordered]
    lex = sorted(range(len(ordered)), key=letters.__getitem__)
    lengths = [0] * len(lex)
    for i, j in zip(lex, lex[1:]):
        k = common_prefix_len(letters[i], letters[j])
        lengths[i] = max(lengths[i], k)
        lengths[j] = max(lengths[j], k)
    return ordered, tuple(lengths)


def min_piece_count_reference(r, pieces):
    """The greedy walk over a frozenset of pieces, growing tuple slices."""
    n, letters = len(r), tuple(r)
    count = pos = 0
    while pos < n:
        longest = 0
        while pos + longest < n and letters[pos : pos + longest + 1] in pieces:
            longest += 1
        if not longest:
            return None
        count += 1
        pos += longest
    return count


# ---------------------------------------------------------------- pieces

@pytest.mark.parametrize("p", ORACLE_CASES)
def test_pieces_match_oracle(p):
    assert enumerate_pieces(symmetrize(p)) == frozenset(pieces_oracle(p))


def test_pieces_built_once_per_presentation():
    s = symmetrize(L3)
    assert len(enumerate_pieces(s)) == 138
    assert enumerate_pieces(s) is enumerate_pieces(symmetrize(L3))


def test_pieces_frozen_values():
    ps = enumerate_pieces(symmetrize(EX))
    assert len(ps) == 10
    names = {str(from_codes(X, u)) for u in ps}
    assert names == {
        "x1", "x1^-1", "x1^2", "x1^-2",
        "x2", "x2^-1", "x3", "x3^-1",
        "x2 x3", "x3^-1 x2^-1",
    }
    # squares of x2, x3 never appear as shared prefixes
    assert "x2^2" not in names and "x3^2" not in names


def test_pieces_closed_under_inverse_and_prefix():
    ps = enumerate_pieces(symmetrize(EX))
    for u in ps:
        assert (~from_codes(X, u)).codes in ps
        if len(u) > 1:
            assert u[:-1] in ps
            # S is closed under rotation, so pieces are closed under suffixes
            assert u[1:] in ps


def test_genus2_pieces_are_single_letters():
    ps = enumerate_pieces(symmetrize(GENUS2))
    assert all(len(u) == 1 for u in ps)
    assert len(ps) == 8


# ------------------------------------------------------- min piece count

# pieces up to 13 letters long: a^k and a^7 b a^5 among them
LONG_PIECES = Presentation(AB, (parse_word(AB, "a^12 b"), parse_word(AB, "a^7 b a^5 b^-1")))


@pytest.mark.parametrize("p", ORACLE_CASES + [
    pytest.param(Presentation(AB, (parse_word(AB, "a^12 b"),)), id="a12b"),
    pytest.param(LONG_PIECES, id="long_pieces"),
])
def test_min_piece_count_matches_oracle(p):
    ps = enumerate_pieces(symmetrize(p))
    for r in symmetrize(p).ordered:
        assert min_piece_count(r, ps) == min_pieces_oracle(r, ps)


def test_min_piece_count_frozen():
    ps = enumerate_pieces(symmetrize(EX))
    assert [min_piece_count(r, ps) for r in EX.relators] == [4, 4]
    gps = enumerate_pieces(symmetrize(GENUS2))
    assert min_piece_count(GENUS2.relators[0], gps) == 8


def test_min_piece_count_none_when_not_coverable():
    # a lone relator has no pieces at all
    p = Presentation(AB, (parse_word(AB, "a b"),))
    ps = enumerate_pieces(symmetrize(p))
    assert ps == frozenset()
    assert min_piece_count(p.relators[0], ps) is None


# ---------------------------------------------------------- C, C', T(4)

def test_c_condition_frozen():
    assert check_C(EX, 4) is True
    assert check_C(EX, 5) is False
    assert check_C(GENUS2, 8) is True
    assert check_C(GENUS2, 9) is False


def test_c_condition_vacuous_without_pieces():
    p = Presentation(AB, (parse_word(AB, "a b"),))
    assert check_C(p, 4) is True


def test_c_requires_sane_bound():
    with pytest.raises(ValueError):
        check_C(EX, 1)


def test_cprime_frozen():
    assert check_Cprime(EX, Fraction(1, 6)) is False
    assert cprime_sup(EX) == Fraction(1, 3)
    assert check_Cprime(GENUS2, Fraction(1, 6)) is True
    assert cprime_sup(GENUS2) == Fraction(1, 8)


@pytest.mark.parametrize("p", ORACLE_CASES)
def test_cprime_sup_matches_oracle(p):
    assert cprime_sup(p) == cprime_sup_oracle(p)


def test_cprime_is_strict():
    # sup ratio 1/3: the condition at exactly 1/3 must fail, above 1/3 hold
    assert check_Cprime(EX, Fraction(1, 3)) is False
    assert check_Cprime(EX, Fraction(34, 100)) is True


def test_cprime_sup_none_without_pieces():
    p = Presentation(AB, (parse_word(AB, "a b"),))
    assert cprime_sup(p) is None
    assert check_Cprime(p, Fraction(1, 6)) is True


@pytest.mark.parametrize("p", T4_CASES)
def test_t4_matches_oracle_on_examples(p):
    # check_T4 tests no adjacency exclusion: it rests on this
    assert all(r.is_cyclically_reduced for r in symmetrize(p).ordered)
    verdict, triple = t4_oracle(p)
    assert check_T4(p) is verdict, (p, triple)


def t4_walk_reference(p):
    """The element walk over the first-letter index: for each r1, the r2
    starting with the inverse of r1's last letter, then the r3 starting with
    the inverse of r2's last letter, looking for one that ends in the
    inverse of r1's first letter."""
    s = symmetrize(p)
    lasts = [w.codes[-1] for w in s.ordered]
    nexts = [s.first_letters[c ^ 1] for c in lasts]
    for i, r in enumerate(s.ordered):
        closing = r.codes[0] ^ 1
        if any(lasts[k] == closing for j in nexts[i] for k in nexts[j]):
            return False
    return True


@pytest.mark.parametrize("p", T4_CASES + [
    pytest.param(Presentation(AB, (parse_word(AB, "a^12 b"),)), id="a12b"),
    pytest.param(Presentation(AB, (parse_word(AB, "a^7 b a^5 b^-1"),)), id="a7ba5b-1"),
    pytest.param(LONG_PIECES, id="long_pieces"),
])
def test_t4_matches_element_walk(p):
    # the (first, last) pair walk gives the verdict of the element walk
    assert check_T4(p) is t4_walk_reference(p)


def test_t4_random_batch_has_both_verdicts():
    assert {check_T4(p) for p in RANDOM_T4} == {True, False}


@pytest.mark.parametrize("levels", [4, 5])
def test_t4_holds_on_deeper_trees(levels):
    assert check_T4(artin_from_graph(random_tree(levels, 4, 7, seed=11).graph)) is True


def test_t4_frozen_values():
    assert check_T4(ZSQ) is True
    assert check_T4(GENUS2) is True
    # the two-relator example admits a fully cancelling seam triple
    assert check_T4(EX) is False


def test_t4_known_counterexample_triple():
    s = symmetrize(EX)
    r1 = parse_word(X, "x1^2 x2 x3^2 x2^-1")
    r2 = parse_word(X, "x2 x3^2 x2^-1 x1^2")
    r3 = parse_word(X, "x1^-1 x3^-1 x2^-2 x3 x1^-1")
    for r in (r1, r2, r3):
        assert r in s
    assert r1 != ~r2 and r2 != ~r3 and r3 != ~r1
    assert r1[-1] == r2[0].inverse()
    assert r2[-1] == r3[0].inverse()
    assert r3[-1] == r1[0].inverse()


# rotations that collide: proper powers repeat a rotation within their cycle,
# and relators that are rotations or inverses of each other share elements
COLLIDING = [
    "gens: a\nrel: a\n",
    "gens: a\nrel: a^3\n",
    "gens: a b\nrel: a b a b\n",
    "gens: a b\nrel: a b a^-1 b^-1\n",
    "gens: a b\nrel: a b\nrel: b a\n",
    "gens: a b\nrel: a b\nrel: a^-1 b^-1\n",
    "gens: a b\nrel: a^2 b^2\nrel: b^-2 a^-2\nrel: a b a b\nrel: b a b a\n",
    "gens: a b c\nrel: a b c a b c\nrel: c^-1 b^-1 a^-1 c^-1 b^-1 a^-1\nrel: a b a^-1 b^-1\n",
]


def verdict_corpus():
    rng = random.Random(1313)
    cases = [random_presentation(rng, gens=3, rels=4, length=14) for _ in range(600)]
    cases += [braid_presentation(n) for n in (3, 4, 5)]
    cases += [parse_presentation(text) for text in COLLIDING]
    return cases + [artin_from_graph(random_tree(lv, 4, 7, seed=11).graph) for lv in (3, 4, 5)]


def test_verdict_table_matches_references():
    # the compiled table against the Word-and-frozenset build it replaced
    for p in verdict_corpus():
        ordered, lengths = symmetrize_reference(p)
        s = symmetrize(p)
        assert (s.ordered, s.piece_lengths) == (ordered, lengths), p
        pieces = frozenset(lts[:k] for lts, m in zip([tuple(r) for r in ordered], lengths)
                           for k in range(1, m + 1))
        mins = [min_piece_count_reference(r, pieces) for r in ordered]
        lex = sorted(range(len(ordered)), key=lambda i: ordered[i].codes)  # the table's order
        report = build_report(p)
        assert "pieces" not in s.__dict__
        assert report.piece_count == len(pieces)
        assert s._lex == [ordered[i].codes for i in lex]
        assert list(s.verdicts.min_pieces) == [mins[i] for i in lex]
        assert report.min_piece_decomposition == tuple(
            min_piece_count_reference(r, pieces) for r in p.relators)
        assert [check_C(p, b) for b in range(2, 9)] == [
            all(k is None or k >= b for k in mins) for b in range(2, 9)]
        assert report.c_verdicts == {4: check_C(p, 4)}
        assert report.cprime_sup == max(
            (Fraction(m, len(r)) for r, m in zip(ordered, lengths) if m), default=None)
        assert report.t4 is t4_walk_reference(p)


def full_walk_reference(s):
    """Fewest pieces per element in lex order and the C' supremum, walked
    over every cycle, the inverses' as well as the relators'."""
    fewest, sup = [None] * len(s), None
    for at in s._lex_at:
        n = len(at)
        ahead = [s._lex_pieces[i] for i in at] * 2
        for k in range(n):
            count = pos = 0
            while pos < n and ahead[k + pos]:
                pos += ahead[k + pos]
                count += 1
            fewest[at[k]] = count if pos >= n else None
        if max(ahead) and (sup is None or Fraction(max(ahead), n) > sup):
            sup = Fraction(max(ahead), n)
    return tuple(fewest), sup


# no non-trivial free-group word is conjugate to its inverse, so the nearest
# cases pair a relator with a rotation of another's inverse, or of itself
MIRRORED = COLLIDING + [
    "gens: a b\nrel: a b a^-1 b^2\nrel: b^-1 a^-1 b^-2 a\n",
    "gens: a b c\nrel: a b c\nrel: c^-1 b^-1 a^-1\nrel: b c a\n",
    "gens: a b c\nrel: a b c a b c\nrel: b c a b c a\n",
    "gens: a b\nrel: a^2 b^-1 a^2 b^-1 a^2 b^-1\nrel: b a^-2\n",
]


def test_mirrored_verdict_walk_matches_the_full_walk():
    # the walk over the relators' cycles, mirrored to their inverses, against
    # the walk over every cycle
    rng = random.Random(35)
    corpus = verdict_corpus() + [parse_presentation(text) for text in MIRRORED] + [EX]
    corpus += [random_presentation(rng, gens=2, rels=3, length=8) for _ in range(300)]
    for p in corpus:
        s = SymmetrizedSet(p)
        fewest, sup = full_walk_reference(s)
        v = s.verdicts
        assert (v.min_pieces, v.cprime_sup) == (fewest, sup), format_presentation(p)
        assert v.relator_pieces == tuple(fewest[at[0]] for at in s._lex_at[::2])


def test_inverse_elements_match_a_lookup_by_codes():
    # rotation -k of r^-1 against the inverse of each element
    for p in verdict_corpus():
        s = symmetrize(p)
        assert s.inverted == tuple((~w).codes for w in s.ordered), p


def test_element_lengths_match_the_elements():
    for p in verdict_corpus():
        s = symmetrize(p)
        assert s.lengths == tuple(len(w) for w in symmetrize_reference(p)[0]), p


@pytest.mark.parametrize("level", [None, 3, 4, 5])
def test_verdicts_build_no_element_words(level):
    # what check computes reads the lex arrays; the canonical order and the
    # element Words are built on first read
    p = EX if level is None else artin_from_graph(random_tree(level, 4, 7, seed=11).graph)
    p = Presentation(p.alphabet, p.relators)  # a fresh compiled set
    build_report(p)
    check_Cprime(p, Fraction(1, 6))
    s = symmetrize(p)
    assert len(s) == len(symmetrize_reference(p)[0])
    assert "verdicts" in s.__dict__
    for name in ("_codes", "lengths", "piece_lengths", "_at", "first_letters", "inverted", "ordered"):
        assert name not in s.__dict__, name
    assert s.ordered == symmetrize_reference(p)[0]


def test_canonical_order_does_not_depend_on_what_is_read_first():
    # one set reads its verdicts first, the other a scan or its Words
    for n, p in enumerate(verdict_corpus()):
        first, second = SymmetrizedSet(p), SymmetrizedSet(p)
        v = first.verdicts
        assert "_codes" not in first.__dict__
        if n % 2:
            list(second.matches(p.relators[0].codes))
        else:
            second.ordered
        assert {"_codes", "lengths", "piece_lengths", "_at"} <= second.__dict__.keys()
        assert first.ordered == second.ordered, format_presentation(p)
        assert (first.lengths, first.piece_lengths, first.inverted, first.first_letters) == (
            second.lengths, second.piece_lengths, second.inverted, second.first_letters)
        assert second.verdicts == v


def test_report_bundle():
    rep = build_report(EX)
    assert rep.piece_count == 10
    assert rep.min_piece_decomposition == (4, 4)
    assert rep.c_verdicts == {4: True}
    assert rep.cprime_sup == Fraction(1, 3)
    assert rep.t4 is False


# ----------------------------------------------------------------- Dehn

def test_dehn_reduces_relator_and_conjugates():
    for r in GENUS2.relators + EX.relators:
        p = GENUS2 if r.alphabet is SURF else EX
        assert len(dehn_reduce(r, p)) == 0
    w = parse_word(SURF, "c a b a^-1 b^-1 c d c^-1 d^-1 c^-1")
    assert len(dehn_reduce(w, GENUS2)) == 0


def test_dehn_fixed_point_on_short_words():
    for text in ("a", "a b", "a b a"):
        w = parse_word(SURF, text)
        assert dehn_reduce(w, GENUS2) == w


def test_dehn_never_increases_length():
    rng = random.Random(12)
    for _ in range(80):
        w = random_reduced_word(SURF, rng.randint(0, 14), rng)
        assert len(dehn_reduce(w, GENUS2)) <= len(w)


def test_dehn_on_product_of_conjugates():
    rng = random.Random(77)
    r = GENUS2.relators[0]
    for _ in range(40):
        w = Word(SURF, ())
        for _ in range(rng.randint(1, 3)):
            c = random_reduced_word(SURF, rng.randint(0, 4), rng)
            w = w * (c * (r ** rng.choice((1, -1))) * ~c)
        assert len(dehn_reduce(w, GENUS2)) == 0


def dehn_table_reference(w, p):
    """Dehn's algorithm by table lookup.  The table maps each prefix u of an
    element u v with 2|u| > |u v| to v^-1, the earliest element in canonical
    order winning a shared prefix; each step rewrites the longest key at the
    leftmost position holding one."""
    table = {}
    for r in symmetrize(p).ordered:
        letters = tuple(r)
        for take in range(len(r), len(r) // 2, -1):
            table.setdefault(letters[:take], ~r[take:])
    cur = w
    while True:
        n, letters = len(cur), tuple(cur)
        hit = next(
            ((pos, take) for pos in range(n) for take in range(n - pos, 0, -1)
             if letters[pos : pos + take] in table),
            None,
        )
        if hit is None:
            return cur
        pos, take = hit
        cur = cur[:pos] * table[letters[pos : pos + take]] * cur[pos + take :]


# Which element Dehn's algorithm rewrites by matters only where two elements
# share a prefix longer than half of one of them: on none of the first four,
# on 22 of 28 elements of random33, 4 of 26 of random1 and 8 of 16 of random4.
@pytest.mark.parametrize("p", [
    pytest.param(EX, id="EX"),
    pytest.param(GENUS2, id="GENUS2"),
    pytest.param(braid_presentation(4), id="braid4"),
    pytest.param(L3, id="L3"),
] + [pytest.param(RANDOM_T4[i], id=f"random{i}") for i in (1, 4, 33)])
def test_dehn_matches_table_reference(p):
    # pins the rewrite order: leftmost position, longest match, earliest element
    rng = random.Random(41)
    elems = symmetrize(p).ordered
    for trial in range(90):
        if trial % 3 == 0:
            w = random_reduced_word(p.alphabet, rng.randint(0, 24), rng)
        elif trial % 3 == 1:
            r = elems[rng.randrange(len(elems))]
            w = (random_reduced_word(p.alphabet, rng.randint(0, 4), rng) * r[: rng.randint(0, len(r))]
                 * random_reduced_word(p.alphabet, rng.randint(0, 4), rng))
        else:
            w = Word(p.alphabet, ())
            for _ in range(rng.randint(1, 3)):
                c = random_reduced_word(p.alphabet, rng.randint(0, 4), rng)
                w = w * (c * (elems[rng.randrange(len(elems))] ** rng.choice((1, -1))) * ~c)
        assert dehn_reduce(w, p) == dehn_table_reference(w, p), w


def test_dehn_raises_past_its_swap_bound():
    # with every element's length read as 1 each match is a majority, so the
    # swaps no longer shorten: a b and b a swap into each other without end
    p = Presentation(AB, ZSQ.relators)
    s = symmetrize(p)
    object.__setattr__(s, "lengths", (1,) * len(s.lengths))  # read first: its first read builds the order
    with pytest.raises(RuntimeError, match="more swaps"):
        dehn_reduce(parse_word(AB, "a b"), p)


@pytest.mark.parametrize("names, text", [
    (("a", "b", "c"), "a c a^-1 c^-1"),  # codes past the set's letters
    (("b", "a"), "b a b^-1 a^-1"),  # the same codes, read as other letters
])
def test_rewrites_refuse_a_word_over_another_alphabet(names, text):
    w = parse_word(Alphabet(names), text)
    for rewrite in (lambda: dehn_reduce(w, ZSQ), lambda: bounded_wp_oracle(w, ZSQ, 2),
                    lambda: disguise(w, ZSQ, DisguiseBudget(2), 0)):
        with pytest.raises(ValueError, match="alphabets differ"):
            rewrite()


def test_dehn_builds_no_element_words():
    # Dehn reads element lengths from the codes; the table reference reads the Words
    rng = random.Random(17)
    for p in (EX, L3):
        fresh = Presentation(p.alphabet, p.relators)
        words = [random_reduced_word(p.alphabet, 24, rng) for _ in range(20)]
        conj = [random_reduced_word(p.alphabet, 3, rng) for _ in p.relators]
        words += [c * r * ~c for c, r in zip(conj, p.relators)]  # conjugated relators
        reduced = [dehn_reduce(w, fresh) for w in words]
        assert "ordered" not in symmetrize(fresh).__dict__
        assert reduced == [dehn_table_reference(w, p) for w in words]


# --------------------------------------------------------------- oracle

def naive_swap_moves(x, s):
    """Every element tried at every position, matched letter by letter; one
    candidate per match."""
    for pos in range(len(x)):
        for r in s.ordered:
            take = 0
            while (pos + take < len(x) and take < len(r)
                   and x[pos + take] == r[take]):
                take += 1
            if take:
                yield (x[:pos] * ~r[take:]) * x[pos + take :], x[:pos], r


def swap_search_reference(w, p, depth, node_budget):
    """The oracle's search with each candidate built by ``s.swap`` over
    ``s.matches``: the same breadth-first order, budget, ``seen`` and
    ``max_len``, and no abelian exit.  Returns the witness or None."""
    if not w:
        return WspWitness(())
    s = symmetrize(p)
    max_len = 2 * len(w) + s.lengths[-1]
    seen, frontier, count = {w.codes}, [(w.codes, ())], 0
    for _ in range(depth):
        nxt = []
        for x, path in frontier:
            for pos, i, k in s.matches(x):
                count += 1
                post = s.swap(x, pos, i, k)
                step = path + ((cakelab.words._word(p.alphabet, x[:pos]), s.ordered[i], 1),)
                if not post:
                    return WspWitness(step)
                if len(post) <= max_len and post not in seen:
                    seen.add(post)
                    nxt.append((post, step))
                if count >= node_budget:
                    return None
        frontier = nxt
    return None


@pytest.mark.parametrize("p", [
    pytest.param(EX, id="EX"),
    pytest.param(braid_presentation(4), id="braid4"),
    pytest.param(L3, id="L3"),
    pytest.param(L5, id="L5"),
])
def test_oracle_search_matches_a_swap_reference(monkeypatch, p):
    # the oracle walks swap's seams inline; with the abelian exit lifted, so
    # that every word is searched, it must give the witness or None, expand
    # the nodes and spend the candidates a search over matches and swap gives
    rng = random.Random(19)
    s = symmetrize(p)
    nodes, count, matches = [], [0], SymmetrizedSet.matches

    def spy(self, x):  # each node a search expands, and one count per candidate
        nodes.append(x)
        for match in matches(self, x):
            count[0] += 1
            yield match

    monkeypatch.setattr(SymmetrizedSet, "matches", spy)
    monkeypatch.setattr(SymmetrizedSet, "abelian_trivial", lambda self, w: True)
    runs = []
    for t in range(36):
        r = s.ordered[rng.randrange(len(s))]
        if t < 12:
            x = (random_reduced_word(p.alphabet, rng.randint(0, 4), rng) * r[: rng.randint(0, len(r))]
                 * random_reduced_word(p.alphabet, rng.randint(0, 4), rng))
        else:  # swaps that cancel into the conjugator, or all but one letter
            c = random_reduced_word(p.alphabet, rng.randint(1, 3), rng)
            x = c * (r if t < 24 else r[:-1]) * ~c
        runs.append((x, 2000))
    if p is EX:  # three factors at depth 3, so the witness walks its whole path
        r1, r2 = EX.relators
        runs += [(r1 * r2 * r1, 5000), (r2 * ~r1 * r2, 5000), (r1 * r1 * r2, 5000)]
        # a budget that runs out inside level 2: level 1 spent, then 5 more
        x = r1 * r2 * r1
        first = list(matches(s, x.codes))
        level1 = {s.swap(x.codes, *m) for m in first} - {x.codes}
        runs.append((x, len(first) + 5))
    capped = run_on = found = spent_all = longest = 0
    for x, budget in runs:
        searches = []
        for search in (swap_search_reference, bounded_wp_oracle):
            nodes.clear()
            count[0] = 0
            searches.append((search(x, p, 3, node_budget=budget), nodes[:], count[0]))
        (ref, ref_nodes, ref_count), (wit, wit_nodes, wit_count) = searches
        assert (wit_nodes, wit_count) == (ref_nodes, ref_count), x
        assert (wit is None) == (ref is None), x
        if ref is not None:
            assert len(wit.factors) == len(ref.factors), x
            for wit_factor, ref_factor in zip(wit.factors, ref.factors):
                assert wit_factor == ref_factor, x
            longest = max(longest, len(ref.factors))
        found += ref is not None
        spent_all += count[0] == budget
        if budget < 2000:  # stopped with level-1 words left to expand
            assert ref is None and count[0] == budget and len(wit_nodes) - 1 < len(level1)
        # matches and swap against every element tried at every position;
        # unchecked, so an unreduced code tuple would not compare equal
        got = [(s.swap(x.codes, pos, i, k), pos, i, k) for pos, i, k in s.matches(x.codes)]
        moves = [(cakelab.words._word(p.alphabet, post), x[:pos], s.ordered[i])
                 for post, pos, i, _ in got]
        assert moves == list(naive_swap_moves(x, s))
        for post, pos, i, k in got:
            n = s.lengths[i]
            capped += pos + k == len(x) < pos + n  # the match ran to the word's end
            # all n - k inserted letters cancelled, and the seam ran on into x
            run_on += k < n and len(post) < len(x) - n
    assert capped and run_on and found and spent_all
    if p is EX:
        assert longest == 3


def test_oracle_empty_word_is_trivial_with_empty_witness():
    wit = bounded_wp_oracle(Word(X, ()), EX, 1)
    assert isinstance(wit, WspWitness)
    assert wit.factors == ()


def test_oracle_relator_at_depth_one():
    wit = bounded_wp_oracle(EX.relators[0], EX, 1)
    assert wit is not None
    assert len(wit.factors) == 1
    assert replay_witness(wit, X) == EX.relators[0]


def test_oracle_spends_budget_once_per_swap_match():
    # a swap of any take up to the match length gives one word; one
    # candidate per match leaves budget for the second factor
    w = parse_word(X, "x3 x1^-2 x3^-1 x2^-2 x3 x2^2 x3 x1^2 x3^-2")
    wit = bounded_wp_oracle(w, EX, 2, node_budget=1000)
    assert wit is not None and len(wit.factors) == 2
    assert replay_witness(wit, X) == w


def test_oracle_x1_depth_three_unknown():
    assert bounded_wp_oracle(parse_word(X, "x1"), EX, 3) is None


def test_oracle_depth_zero_only_accepts_empty():
    assert bounded_wp_oracle(EX.relators[0], EX, 0) is None
    assert bounded_wp_oracle(Word(X, ()), EX, 0).factors == ()


def test_oracle_stops_when_its_frontier_empties(monkeypatch):
    # the commutator's exponent sums are 0, so the search runs: 20
    # candidates over three levels, none new at the third, after which a
    # huge depth must cost what a small one does and give the same answer
    p = parse_presentation("gens: a b c\nrel: a^5\n")
    w = parse_word(p.alphabet, "a b a^-1 b^-1")
    count = spy_moves(monkeypatch)
    assert bounded_wp_oracle(w, p, 3) is None and count[0] == 20
    start = time.perf_counter()
    assert bounded_wp_oracle(w, p, 10**8) is None
    assert time.perf_counter() - start < 1.0  # 7-9 s when every level is walked
    assert count[0] == 40


def test_oracle_finds_conjugates_and_witness_replays():
    rng = random.Random(3)
    for i in range(20):
        r = EX.relators[i % 2]
        c = random_reduced_word(X, rng.randint(0, 3), rng)
        w = c * (r ** rng.choice((1, -1))) * ~c
        wit = bounded_wp_oracle(w, EX, 2)
        assert wit is not None
        assert replay_witness(wit, X) == w


def test_oracle_insert_only_case():
    # ~r is an element of S: one whole-element swap empties it, no insert needed
    w = ~EX.relators[0]
    wit = bounded_wp_oracle(w, EX, 1)
    assert wit is not None
    assert replay_witness(wit, X) == w


def test_oracle_product_of_two_relators():
    w = EX.relators[0] * EX.relators[1]
    wit = bounded_wp_oracle(w, EX, 2)
    assert wit is not None
    assert len(wit.factors) <= 2
    assert replay_witness(wit, X) == w


def test_oracle_never_trivial_on_free_group():
    free = Presentation(X, ())
    rng = random.Random(41)
    for _ in range(100):
        w = random_reduced_word(X, rng.randint(1, 12), rng)
        assert bounded_wp_oracle(w, free, 3) is None


def test_oracle_respects_node_budget_determinism(monkeypatch):
    # the commutator's exponent sums are 0, in the relator lattice: the
    # search runs, unlike for x1, which the abelianization decides first
    count = spy_moves(monkeypatch)
    w = parse_word(X, "x1 x2 x1^-1 x2^-1")
    a = bounded_wp_oracle(w, EX, 3, node_budget=500)
    first = count[0]
    b = bounded_wp_oracle(w, EX, 3, node_budget=500)
    assert a == b and count[0] == 2 * first > 0
    w = parse_word(X, "x3 x1^-2 x3^-1 x2^-2 x3 x2^2 x3 x1^2 x3^-2")
    a = bounded_wp_oracle(w, EX, 2, node_budget=1000)
    assert a is not None and a == bounded_wp_oracle(w, EX, 2, node_budget=1000)


def spy_moves(monkeypatch):
    """Count the candidates the oracle's search generates: one per match."""
    count = [0]
    matches = SymmetrizedSet.matches

    def spy(s, x):
        for match in matches(s, x):
            count[0] += 1
            yield match

    monkeypatch.setattr(SymmetrizedSet, "matches", spy)
    return count


def test_oracle_commutator_spends_whole_budget(monkeypatch):
    # its exponent sums are 0, in the relator lattice: the search runs
    count = spy_moves(monkeypatch)
    w = parse_word(X, "x1 x2 x1^-1 x2^-1")
    assert bounded_wp_oracle(w, EX, 3, node_budget=500) is None and count[0] == 500
    assert bounded_wp_oracle(w, EX, 3, node_budget=500) is None and count[0] == 1000


def test_oracle_skips_search_outside_relator_lattice(monkeypatch):
    # u x1 u^-1 maps to a unit vector; every EX relator vector has even entries
    count = spy_moves(monkeypatch)
    u = parse_word(X, "x2 x3^-1 x1")
    assert bounded_wp_oracle(u * parse_word(X, "x1") * ~u, EX, 3) is None
    assert count[0] == 0
    # a relator is in the lattice, and the search finds it
    assert bounded_wp_oracle(EX.relators[0], EX, 1) is not None and count[0] > 0


@pytest.mark.parametrize("level", [3, 5])
def test_oracle_builds_no_element_words_without_a_witness(monkeypatch, level):
    # an unknown from the abelianization and one that spends its whole budget
    # read the codes alone; the element Words are built only for a witness
    count = spy_moves(monkeypatch)
    p = artin_from_graph(random_tree(level, 4, 7, seed=11).graph)
    p = Presentation(p.alphabet, p.relators)  # a fresh compiled set
    assert bounded_wp_oracle(parse_word(p.alphabet, "a1"), p, 3) is None and count[0] == 0
    w = parse_word(p.alphabet, "a1 a2 a1^-1 a2^-1")
    assert bounded_wp_oracle(w, p, 3, node_budget=300) is None and count[0] == 300
    assert "ordered" not in symmetrize(p).__dict__


def insert_and_swap_reference(w, p, depth, node_budget):
    """The oracle's search as it was with relator insertions: each node's
    swaps, then every element of S inserted at every position, both spending
    budget."""
    if not w:
        return WspWitness(())
    s = symmetrize(p)
    if not s.ordered or not s.abelian_trivial(w):
        return None
    max_len = 2 * len(w) + max(len(r) for r in s.ordered)
    seen = {w}
    frontier = [(w, ())]
    budget = node_budget
    for _ in range(depth):
        nxt = []
        for x, path in frontier:
            swaps = ((post, c, r, 1) for post, c, r in naive_swap_moves(x, s))
            inserts = ((x[:pos] * r * x[pos:], x[:pos], r, -1)
                       for pos in range(len(x) + 1) for r in s.ordered)
            for post, c, r, e in itertools.chain(swaps, inserts):
                budget -= 1
                if not post:
                    return WspWitness(path + ((c, r, e),))
                if len(post) <= max_len and post not in seen:
                    seen.add(post)
                    nxt.append((post, path + ((c, r, e),)))
                if budget <= 0:
                    return None
        frontier = nxt
    return None


def oracle_corpus(p, rng, n):
    """(is a relator product, word): products of one or two conjugated
    relators, random words, and a conjugated relator times one letter;
    conjugators have at most 2 letters."""
    def conjugate():
        c = random_reduced_word(p.alphabet, rng.randint(0, 2), rng)
        return c * (rng.choice(p.relators) ** rng.choice((1, -1))) * ~c

    for i in range(n):
        if i % 3 == 0:
            yield True, conjugate() * (conjugate() if rng.random() < 0.5 else Word(p.alphabet))
        elif i % 3 == 1:
            yield False, random_reduced_word(p.alphabet, rng.randint(1, 10), rng)
        else:
            letter = parse_word(p.alphabet, rng.choice(p.alphabet.names) + rng.choice(("", "^-1")))
            yield False, conjugate() * letter


@pytest.mark.parametrize("p, products_decided", [
    pytest.param(EX, True, id="EX"),
    pytest.param(GENUS2, True, id="GENUS2"),
    pytest.param(braid_presentation(4), True, id="braid4"),
    pytest.param(L3, False, id="L3"),
])
def test_swap_only_oracle_loses_no_answer(p, products_decided):
    # every word the insert-and-swap search decides is decided, with the
    # same witness; over the first three, every relator product is decided
    rng = random.Random(7)
    for product, w in oracle_corpus(p, rng, 30):
        ref = insert_and_swap_reference(w, p, 2, 3000)
        got = bounded_wp_oracle(w, p, 2, node_budget=3000)
        if ref is not None:
            assert got == ref, w
        if got is not None:
            assert replay_witness(got, p.alphabet) == w
        if product and products_decided:
            assert got is not None, w


def test_abelian_rows_one_per_relator_built_once():
    for p in (EX, GENUS2, braid_presentation(4), L3):
        s = symmetrize(p)
        assert len(s.abelian_rows) <= len(p.relators)
        assert s.abelian_rows is symmetrize(p).abelian_rows
        pivots = [col for col, _ in s.abelian_rows]
        assert pivots == sorted(set(pivots))
        assert all(row[col] and not any(row[:col]) for col, row in s.abelian_rows)


def test_abelian_lattice_is_integral_not_rational():
    # <a | a^2>: Z/2
    a = Alphabet(("a",))
    s = symmetrize(Presentation(a, (parse_word(a, "a^2"),)))
    assert [s.abelian_trivial(parse_word(a, t)) for t in ("a", "a^2", "a^4", "a^-3")] == [
        False, True, True, False]
    # a^2 b^2 and a^2 b^-2 span (2, 2) and (2, -2): rationally all of Q^2,
    # integrally a lattice of index 8 that holds neither (2, 0) nor (0, 2)
    s = symmetrize(Presentation(AB, (parse_word(AB, "a^2 b^2"), parse_word(AB, "a^2 b^-2"))))
    for text, inside in [("b^2", False), ("a^2", False), ("a", False), ("a b", False),
                         ("a^4", True), ("b^4", True), ("a^2 b^2", True),
                         ("b a^3 b^-1 a", True), ("a^2 b^-2 a^2", False)]:
        assert s.abelian_trivial(parse_word(AB, text)) is inside, text


_RANDOM_LATTICE_RNG = random.Random(808)
LATTICE_CASES = [EX, GENUS2, braid_presentation(4), L3] + [
    random_presentation(_RANDOM_LATTICE_RNG) for _ in range(4)
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(LATTICE_CASES), st.data())
def test_abelian_exit_never_prunes_relator_products(p, data):
    # every oracle move multiplies by a conjugated relator; a product of them
    # is trivial, so the quotient test must let it through
    w = Word(p.alphabet, ())
    for _ in range(data.draw(st.integers(0, 4))):
        r = data.draw(st.sampled_from(p.relators))
        c = Word(p.alphabet, ())
        for _ in range(data.draw(st.integers(0, 4))):
            c = c * parse_word(p.alphabet, data.draw(st.sampled_from(p.alphabet.names))
                                    + data.draw(st.sampled_from(("", "^-1"))))
        w = w * c * (r ** data.draw(st.sampled_from((1, -1)))) * ~c
    assert symmetrize(p).abelian_trivial(w)
    assert symmetrize(p).abelian_trivial(~w)


def test_witness_file_round_trip():
    rng = random.Random(8)
    c = random_reduced_word(X, 2, rng)
    w = c * EX.relators[1] * ~c
    wit = bounded_wp_oracle(w, EX, 2)
    text = format_witness(wit)
    back = parse_witness(text, X)
    assert back == wit
    assert format_witness(back) == text


def test_parse_witness_caps_letters_in_total(monkeypatch):
    # each factor holds a 6-letter relator; the second adds a 1-letter conjugator
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 12)
    line = "factor: conj={} rel=x1^2 x2 x3^2 x2^-1 exp=1\n"
    assert len(parse_witness(line.format("1") * 2, X).factors) == 2
    with pytest.raises(ValueError, match=r"^line 2: witness longer than 12 letters in total"):
        parse_witness(line.format("1") + line.format("x2"), X)


def test_witness_matches_rejects_wrong_word():
    wit = bounded_wp_oracle(EX.relators[0], EX, 1)
    assert replay_witness(wit, X) == EX.relators[0] != parse_word(X, "x1")
