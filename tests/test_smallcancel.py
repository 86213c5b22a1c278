"""Pieces, cancellation conditions, Dehn reduction, bounded word-problem oracle.

Every structural claim is checked against a slow independent recomputation
before the frozen constants are asserted.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakelab import smallcancel
from cakelab.artin import artin_from_graph, random_tree
from cakelab.presentations import (
    Presentation,
    braid_presentation,
    parse_presentation,
    symmetrize,
)
from cakelab.smallcancel import (
    WspWitness,
    _swap_moves,
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
    witness_matches,
)
from cakelab.words import Alphabet, Word, parse_word, random_reduced_word

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

ORACLE_CASES = [
    pytest.param(EX, id="EX"),
    pytest.param(ZSQ, id="ZSQ"),
    pytest.param(GENUS2, id="GENUS2"),
    pytest.param(braid_presentation(4), id="braid4"),
    pytest.param(L3, id="L3"),
]


def random_presentation(rng):
    """1-4 generators, 1-3 distinct cyclically reduced relators of length 1-6."""
    alphabet = Alphabet(tuple(f"g{i}" for i in range(1, rng.randint(1, 4) + 1)))
    relators = []
    for _ in range(rng.randint(1, 3)):
        while True:
            r = random_reduced_word(alphabet, rng.randint(1, 6), rng)
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
    """Letter tuples of the pieces: a proper prefix u is a piece iff two
    distinct closure elements share it."""
    closure = symmetrize(p).ordered
    found = set()
    for r, s in itertools.permutations(closure, 2):
        for k in range(1, min(len(r), len(s)) + 1):
            if r.letters[:k] == s.letters[:k]:
                found.add(r.letters[:k])
            else:
                break
    return found


def min_pieces_oracle(r, pieces):
    """Exhaustive search for the fewest pieces concatenating letterwise to r."""
    best = [None]

    def go(i, used):
        if best[0] is not None and used >= best[0]:
            return
        if i == len(r):
            best[0] = used
            return
        for k in range(len(r) - i, 0, -1):
            if r.letters[i : i + k] in pieces:
                go(i + k, used + 1)

    go(0, 0)
    return best[0]


def cprime_sup_oracle(p):
    """Largest |u|/|r| over every oracle piece u that is a prefix of an element r."""
    pieces = pieces_oracle(p)
    ratios = [
        Fraction(len(u), len(r))
        for r in symmetrize(p).elements
        for u in pieces
        if r.letters[: len(u)] == u
    ]
    return max(ratios, default=None)


def t4_oracle(p):
    """Brute force: search for r1, r2, r3 with all three seams cancelling."""
    closure = symmetrize(p).ordered
    for r1, r2, r3 in itertools.product(closure, repeat=3):
        if r1 == ~r2 or r2 == ~r3 or r3 == ~r1:
            continue
        if (
            r1.letters[-1] == r2.letters[0].inverse()
            and r2.letters[-1] == r3.letters[0].inverse()
            and r3.letters[-1] == r1.letters[0].inverse()
        ):
            return False, (r1, r2, r3)
    return True, None


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
    names = {str(Word(X, u)) for u in ps}
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
        assert (~Word(X, u)).letters in ps
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
    lasts = [w.letters[-1] for w in s.ordered]
    nexts = [s.first_letters.get(lt.inverse(), ()) for lt in lasts]
    for i, r in enumerate(s.ordered):
        closing = r.letters[0].inverse()
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
    assert r1.letters[-1] == r2.letters[0].inverse()
    assert r2.letters[-1] == r3.letters[0].inverse()
    assert r3.letters[-1] == r1.letters[0].inverse()


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
        for take in range(len(r), len(r) // 2, -1):
            table.setdefault(r.letters[:take], ~r[take:])
    cur = w
    while True:
        n = len(cur)
        hit = next(
            ((pos, take) for pos in range(n) for take in range(n - pos, 0, -1)
             if cur.letters[pos : pos + take] in table),
            None,
        )
        if hit is None:
            return cur
        pos, take = hit
        cur = cur[:pos] * table[cur.letters[pos : pos + take]] * cur[pos + take :]


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


# --------------------------------------------------------------- oracle

def naive_swap_moves(x, s):
    """Every element tried at every position, matched letter by letter; one
    candidate per match."""
    for pos in range(len(x)):
        for r in s.ordered:
            take = 0
            while (pos + take < len(x) and take < len(r)
                   and x.letters[pos + take] == r.letters[take]):
                take += 1
            if take:
                yield (x[:pos] * ~r[take:]) * x[pos + take :], x[:pos], r, -1


@pytest.mark.parametrize("p", [
    pytest.param(EX, id="EX"),
    pytest.param(braid_presentation(4), id="braid4"),
    pytest.param(L3, id="L3"),
])
def test_swap_moves_match_naive_scan_in_order(p):
    # the oracle's node order, and so its budget use, rests on this order
    rng = random.Random(19)
    s = symmetrize(p)
    for _ in range(12):
        r = s.ordered[rng.randrange(len(s))]
        x = (random_reduced_word(p.alphabet, rng.randint(0, 4), rng) * r[: rng.randint(0, len(r))]
             * random_reduced_word(p.alphabet, rng.randint(0, 4), rng))
        assert list(_swap_moves(x, s)) == list(naive_swap_moves(x, s))


def test_oracle_empty_word_is_trivial_with_empty_witness():
    wit = bounded_wp_oracle(Word(X, ()), EX, 1)
    assert isinstance(wit, WspWitness)
    assert wit.factors == ()


def test_oracle_relator_at_depth_one():
    wit = bounded_wp_oracle(EX.relators[0], EX, 1)
    assert wit is not None
    assert len(wit.factors) == 1
    assert replay_witness(wit) == EX.relators[0]


def test_oracle_spends_budget_once_per_swap_match():
    # a swap of any take up to the match length gives one word; one
    # candidate per match leaves budget for the second factor
    w = parse_word(X, "x3 x1^-2 x3^-1 x2^-2 x3 x2^2 x3 x1^2 x3^-2")
    wit = bounded_wp_oracle(w, EX, 2, node_budget=1000)
    assert wit is not None and len(wit.factors) == 2
    assert replay_witness(wit) == w


def test_oracle_x1_depth_three_unknown():
    assert bounded_wp_oracle(parse_word(X, "x1"), EX, 3) is None


def test_oracle_depth_zero_only_accepts_empty():
    assert bounded_wp_oracle(EX.relators[0], EX, 0) is None
    assert bounded_wp_oracle(Word(X, ()), EX, 0).factors == ()


def test_oracle_finds_conjugates_and_witness_replays():
    rng = random.Random(3)
    for i in range(20):
        r = EX.relators[i % 2]
        c = random_reduced_word(X, rng.randint(0, 3), rng)
        w = c * (r ** rng.choice((1, -1))) * ~c
        wit = bounded_wp_oracle(w, EX, 2)
        assert wit is not None
        assert replay_witness(wit, X) == w
        assert witness_matches(wit, w)


def test_oracle_insert_only_case():
    # the inverse relator needs an insert move, not a swap
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


def test_oracle_respects_node_budget_determinism():
    w = parse_word(X, "x1")
    a = bounded_wp_oracle(w, EX, 3, node_budget=500)
    b = bounded_wp_oracle(w, EX, 3, node_budget=500)
    assert a is b is None


def spy_moves(monkeypatch):
    """Count the candidates the oracle's search generates."""
    count = [0]
    moves = smallcancel._moves

    def spy(x, s):
        for move in moves(x, s):
            count[0] += 1
            yield move

    monkeypatch.setattr(smallcancel, "_moves", spy)
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
            c = c * p.alphabet.letter(data.draw(st.sampled_from(p.alphabet.names)),
                                      data.draw(st.sampled_from((1, -1))))
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


def test_witness_matches_rejects_wrong_word():
    wit = bounded_wp_oracle(EX.relators[0], EX, 1)
    assert not witness_matches(wit, parse_word(X, "x1"))
