"""Words as letter codes: differential tests of the code-tuple Dehn reduction
and oracle against their Letter-tuple forms, the Letter boundary, the
oracle's letter bound, and a guard that the hot paths build no Letter."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cakelab import cake, smallcancel
from cakelab.artin import artin_from_graph, braid_presentation, random_tree
from cakelab.cake import bitstream_encode, equality_oracle, run_exchange
from cakelab.diffusion import DisguiseBudget, disguise, format_move_log, parse_move_log
from cakelab.presentations import Presentation, SymmetrizedSet, _exponent_sums, symmetrize
from cakelab.smallcancel import WspWitness, bounded_wp_oracle, dehn_reduce, format_witness
from cakelab.words import Alphabet, Letter, Word, parse_word, random_reduced_word

X = Alphabet(("x1", "x2", "x3"))
EX = Presentation(X, (parse_word(X, "x1^2 x2 x3^2 x2^-1"), parse_word(X, "x2^2 x3 x1^2 x3^-1")))
SURF = Alphabet(("a", "b", "c", "d"))
GENUS2 = Presentation(SURF, (parse_word(SURF, "a b a^-1 b^-1 c d c^-1 d^-1"),))
L3 = artin_from_graph(random_tree(3, 4, 7, seed=11).graph)
L4 = artin_from_graph(random_tree(4, 4, 7, seed=11).graph)
L5 = artin_from_graph(random_tree(5, 4, 7, seed=11).graph)
U = parse_word(X, "x1 x2^-1")


# -- the Letter-tuple forms the code tuples replaced -----------------------

def letters_reduce(letters):
    out = []
    for lt in letters:
        if out and out[-1] == lt.inverse():
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def letters_swap(x, pos, r, take):
    """x[:pos] . r[take:]^-1 . x[pos+take:] on Letter tuples."""
    return letters_reduce(x[:pos] + tuple(lt.inverse() for lt in reversed(r[take:])) + x[pos + take:])


def letter_index(s):
    """The elements as Letter tuples, and a first-letter index keyed by Letter."""
    elems = [tuple(r) for r in s.ordered]
    starting = {}
    for i, r in enumerate(elems):
        starting.setdefault(r[0], []).append(i)
    return elems, starting


def letters_matches(x, index):
    """(pos, element index, k) by position, then in canonical order."""
    elems, starting = index
    for pos, lt in enumerate(x):
        for i in starting.get(lt, ()):
            r, k = elems[i], 0
            while pos + k < len(x) and k < len(r) and x[pos + k] == r[k]:
                k += 1
            yield pos, i, k


def letters_dehn(w, p):
    s = symmetrize(p)
    index = letter_index(s)
    cur = tuple(w)
    while True:
        best = None
        for pos, i, k in letters_matches(cur, index):
            if best is not None and best[0] < pos:
                break
            if 2 * k > len(s.ordered[i]) and (best is None or k > best[2]):
                best = pos, i, k
        if best is None:
            return cur
        pos, i, k = best
        cur = letters_swap(cur, pos, index[0][i], k)


def letters_oracle(w, p, depth, node_budget=50_000):
    """The breadth-first swap search on Letter tuples, each path carrying its
    witness factors."""
    if not w:
        return WspWitness(())
    s = symmetrize(p)
    if not s.ordered or not s.abelian_trivial(w):
        return None
    max_len = 2 * len(w) + max(len(r) for r in s.ordered)
    index = letter_index(s)
    seen = {tuple(w)}
    frontier = [(tuple(w), ())]
    budget = node_budget
    for _ in range(depth):
        nxt = []
        for x, path in frontier:
            for pos, i, k in letters_matches(x, index):
                post = letters_swap(x, pos, index[0][i], k)
                step = path + ((Word(w.alphabet, x[:pos]), s.ordered[i], 1),)
                budget -= 1
                if not post:
                    return WspWitness(step)
                if len(post) <= max_len and post not in seen:
                    seen.add(post)
                    nxt.append((post, step))
                if budget <= 0:
                    return None
        frontier = nxt
    return None


def same_answer(w, p, depth, node_budget):
    got = bounded_wp_oracle(w, p, depth, node_budget=node_budget)
    ref = letters_oracle(w, p, depth, node_budget)
    assert (got is None) == (ref is None), w
    if got is not None:
        assert format_witness(got) == format_witness(ref), w
    return got


# -- inputs ---------------------------------------------------------------------

def decode_quotients():
    """The bench's decode stream: four 1-bits and eight 0-bits over the
    README presentation, each sent word times u^-1."""
    rng = random.Random(0)
    bits = [1] * 4 + [0] * 8
    rng.shuffle(bits)
    seeds = [rng.getrandbits(32) for _ in bits]
    budget = DisguiseBudget(2, 2, 128)
    return [(b, bitstream_encode(U, [b], EX, seed, budget)[0] * U.inverse())
            for b, seed in zip(bits, seeds)]


def random_quotients(p, rng, n):
    """Conjugated relator products, random words, and a conjugated relator
    times one letter."""
    def conjugate():
        c = random_reduced_word(p.alphabet, rng.randint(0, 2), rng)
        return c * (rng.choice(p.relators) ** rng.choice((1, -1))) * ~c

    for i in range(n):
        if i % 3 == 0:
            yield conjugate() * conjugate()
        elif i % 3 == 1:
            yield random_reduced_word(p.alphabet, rng.randint(1, 10), rng)
        else:
            yield conjugate() * random_reduced_word(p.alphabet, 1, rng)


# -- differential tests -----------------------------------------------------------

@pytest.mark.filterwarnings("ignore:0-bit words")
def test_oracle_matches_letter_search_on_the_decode_stream():
    decided = [same_answer(x, EX, 3, 50_000) is not None for _, x in decode_quotients()]
    assert sum(decided) == 4


@pytest.mark.parametrize("pair", [(0, 1), (1, 3), (2, 4)])
def test_oracle_matches_letter_search_on_l3_commutators(pair):
    a, b = (parse_word(L3.alphabet, L3.alphabet.names[g]) for g in pair)
    assert same_answer(a * b * ~a * ~b, L3, 3, 2_000) is None


@pytest.mark.parametrize("p", [EX, L3], ids=["EX", "L3"])
def test_oracle_matches_letter_search_on_random_quotients(p):
    rng = random.Random(16)
    found = [same_answer(w, p, 2, 1_000) is not None for w in random_quotients(p, rng, 24)]
    assert any(found)


@pytest.mark.parametrize("p", [EX, GENUS2, L3], ids=["EX", "GENUS2", "L3"])
def test_dehn_matches_letter_reduction(p):
    rng = random.Random(17)
    words = list(random_quotients(p, rng, 45))
    words += [random_reduced_word(p.alphabet, rng.randint(0, 30), rng) for _ in range(30)]
    for w in words:
        assert tuple(dehn_reduce(w, p)) == letters_dehn(w, p), w


letters_st = st.lists(st.builds(Letter, st.integers(0, 2), st.sampled_from((1, -1))), max_size=20)


@given(letters_st)
def test_letters_round_trip_through_codes(raw):
    letters = letters_reduce(raw)
    w = Word(X, letters)
    assert tuple(w) == letters
    assert all(type(lt) is Letter for lt in w)
    assert [w[i] for i in range(len(w))] == list(letters)


@given(st.lists(letters_st, max_size=12))
def test_sort_key_orders_as_generator_then_sign(raws):
    ws = [Word(X, letters_reduce(raw)) for raw in raws]

    def letter_key(w):
        return len(w), tuple((lt.gen, 0 if lt.sign > 0 else 1) for lt in w)

    assert sorted(ws, key=lambda w: (len(w), w.codes)) == sorted(ws, key=letter_key)


# -- the relator-prefix scan ----------------------------------------------------

@pytest.mark.parametrize("p", [EX, braid_presentation(4), L3, L5], ids=["EX", "braid4", "L3", "L5"])
def test_scan_matches_letter_scan(p):
    # random words of 0-30 letters, random quotients, and words that end inside a match
    s = symmetrize(p)
    index = letter_index(s)
    rng = random.Random(18)
    words = [random_reduced_word(p.alphabet, rng.randint(0, 30), rng) for _ in range(60)]
    words += list(random_quotients(p, rng, 30))
    for _ in range(30):
        r = rng.choice(s.ordered)
        words.append(random_reduced_word(p.alphabet, rng.randint(0, 8), rng) * r[: rng.randint(1, len(r))])
    short = cut = 0
    for w in words:
        got = list(s.matches(w.codes))
        assert got == list(letters_matches(tuple(w), index)), w
        short += len(w) < min(s.lengths)
        cut += any(pos + k == len(w) < pos + s.lengths[i] for pos, i, k in got)
    assert short and cut


# -- the oracle's letter bound ------------------------------------------------

def count_moves(monkeypatch):
    count = [0]
    matches = SymmetrizedSet.matches

    def spy(s, x):
        for match in matches(s, x):
            count[0] += 1
            yield match

    monkeypatch.setattr(SymmetrizedSet, "matches", spy)
    return count


def test_oracle_stops_as_unknown_past_its_letter_bound(monkeypatch):
    w = parse_word(X, "x3 x1^-2 x3^-1 x2^-2 x3 x2^2 x3 x1^2 x3^-2")
    count = count_moves(monkeypatch)
    assert bounded_wp_oracle(w, EX, 2, node_budget=1000) is not None
    unbounded = count[0]
    monkeypatch.setattr(smallcancel, "MAX_SEARCH_LETTERS", 4 * len(w))
    count[0] = 0
    assert bounded_wp_oracle(w, EX, 2, node_budget=1000) is None
    assert 0 < count[0] < unbounded


def test_a_full_l3_search_stays_far_below_the_bound(monkeypatch):
    # a whole budget of L3 candidates at depth 3 holds under 2 M letters,
    # an eighth of the default bound
    assert 8 * 2_000_000 <= smallcancel.MAX_SEARCH_LETTERS
    count = count_moves(monkeypatch)
    monkeypatch.setattr(smallcancel, "MAX_SEARCH_LETTERS", 2_000_000)
    a, b = parse_word(L3.alphabet, "a1"), parse_word(L3.alphabet, "a2")
    assert bounded_wp_oracle(a * b * ~a * ~b, L3, 3) is None
    assert count[0] == 50_000


# -- the abelian exit and the oracle's quotient --------------------------------

def counter_exponent_sums(w):
    """The exponent sums as a Counter of the codes read per generator."""
    n = Counter(w.codes)
    return [n[2 * g] - n[2 * g + 1] for g in range(len(w.alphabet))]


def counter_abelian_rows(p):
    """``abelian_rows``' echelon basis, over the Counter exponent sums."""
    pivots = {}
    for r in p.relators:
        v = counter_exponent_sums(r)
        for col in range(len(v)):
            if v[col] and col not in pivots:
                pivots[col] = v
                break
            while v[col]:
                q = pivots[col][col] // v[col]
                pivots[col], v = v, [a - q * b for a, b in zip(pivots[col], v)]
    return sorted(pivots.items())


def counter_abelian_trivial(rows, w):
    """``abelian_trivial``'s reduction by ``rows``, over the Counter exponent sums."""
    v = counter_exponent_sums(w)
    for col, row in rows:
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


@pytest.mark.parametrize("n", [1, 3, 31, 2000])
def test_exponent_sums_match_the_counter(n):
    alphabet = Alphabet(tuple(f"g{i}" for i in range(n)))
    rng = random.Random(n)
    words = [Word(alphabet, ())] + [random_reduced_word(alphabet, rng.randint(1, 3 * n + 20), rng)
                                    for _ in range(40)]
    for w in words:
        assert _exponent_sums(w) == counter_exponent_sums(w), w
    assert _exponent_sums(words[0]) == [0] * n


def two_generator_presentations(rng, n):
    AB = Alphabet(("a", "b"))
    for _ in range(n):
        relators = []
        for _ in range(rng.randint(1, 3)):
            r = random_reduced_word(AB, rng.randint(1, 8), rng)
            if r.is_cyclically_reduced and r not in relators:
                relators.append(r)
        yield Presentation(AB, tuple(relators))


ABELIAN_CASES = {
    "EX": [EX], "braid4": [braid_presentation(4)], "L3": [L3], "L4": [L4], "L5": [L5],
    "free": [Presentation(X, ())],
    "two_generators": list(two_generator_presentations(random.Random(19), 200)),
}


@pytest.mark.parametrize("case", ABELIAN_CASES)
def test_abelian_trivial_matches_the_counter_reduction(case):
    rng, answers = random.Random(20), []
    for p in ABELIAN_CASES[case]:
        s = symmetrize(p)
        rows = counter_abelian_rows(p)
        assert list(s.abelian_rows) == rows
        words = [Word(p.alphabet, ())]
        words += [random_reduced_word(p.alphabet, rng.randint(1, 12), rng) for _ in range(6)]
        if p.relators:
            words += list(random_quotients(p, rng, 6))
        got = [s.abelian_trivial(w) for w in words]
        assert got == [counter_abelian_trivial(rows, w) for w in words], p
        answers += got
    # the empty word and relator products pass the exit, and most random words do not
    assert any(answers) and not all(answers)


def product_oracle(p, depth):
    """The equality oracle on the quotient built as ``a * b.inverse()``."""
    def eq(a, b):
        x = a * b.inverse()
        if not x:
            return True
        return True if bounded_wp_oracle(x, p, depth) is not None else None

    return eq


@pytest.mark.filterwarnings("ignore:0-bit words")
def test_equality_oracle_quotient_is_the_product(monkeypatch):
    searched = []
    search = cake.bounded_wp_oracle

    def spy(w, p, depth):
        searched.append(w)
        return search(w, p, depth)

    monkeypatch.setattr(cake, "bounded_wp_oracle", spy)
    eq, ref = equality_oracle(EX, 3), product_oracle(EX, 3)
    rng = random.Random(21)
    sent = [x * U for _, x in decode_quotients()]
    sent += [disguise(U, EX, DisguiseBudget(2, 2, 128), rng.getrandbits(32))[0] for _ in range(200)]
    pairs = [(w, U) for w in sent] + [(U, w) for w in sent[:20]] + [(U, U), (Word(X, ()), Word(X, ()))]
    decided = 0
    for a, b in pairs:
        searched.clear()
        got = eq(a, b)
        assert got == ref(a, b), (a, b)
        quotient = a * b.inverse()
        assert searched == ([quotient] if quotient else []), (a, b)
        decided += got is True
    assert 4 < decided < len(pairs)
    other = parse_word(Alphabet(("x1", "x2")), "x1")
    for a, b in [(other, U), (U, other)]:
        with pytest.raises(ValueError, match="alphabet mismatch"):
            eq(a, b)


# -- no Letter on the hot paths ------------------------------------------------

@pytest.mark.filterwarnings("ignore:0-bit words")
def test_hot_paths_build_no_letter(monkeypatch):
    one_bit = next(x for b, x in decode_quotients() if b == 1)
    start = random_reduced_word(L3.alphabet, 16, random.Random(3))
    symmetrize(L3), symmetrize(EX)
    built = [0]
    new = Letter.__new__

    def counting(cls, gen, sign):
        built[0] += 1
        return new(cls, gen, sign)

    monkeypatch.setattr(Letter, "__new__", counting)
    assert bounded_wp_oracle(one_bit, EX, 3) is not None
    dehn_reduce(one_bit, EX)
    dehn_reduce(start * start, L3)
    word, log = disguise(start, L3, DisguiseBudget(3), 5)
    assert parse_move_log(format_move_log(log), L3, start)[-1].post_word == word
    bitstream_encode(U, [1, 0, 1], EX, 4)
    run_exchange(9000, 100, 200)
    assert built[0] == 0
    # the view builds Letters, and the count sees them
    assert len(tuple(one_bit)) == built[0] == len(one_bit)
