"""Word disguise: move primitives, logs, witnesses, oracle consistency."""

import random
import warnings

import pytest

import cakelab.words
from cakelab import diffusion
from cakelab.diffusion import (
    DisguiseBudget,
    RewriteMove,
    disguise,
    format_move_log,
    move_log_to_witness,
    parse_move_log,
)
from cakelab.artin import artin_from_graph, braid_presentation, random_tree
from cakelab.presentations import Presentation, symmetrize
from cakelab.smallcancel import bounded_wp_oracle, dehn_reduce, replay_witness
from cakelab.words import Alphabet, Word, parse_word, random_reduced_word

X = Alphabet(("x1", "x2", "x3"))
EX = Presentation(
    X,
    (parse_word(X, "x1^2 x2 x3^2 x2^-1"), parse_word(X, "x2^2 x3 x1^2 x3^-1")),
)

SURF = Alphabet(("a", "b", "c", "d"))
GENUS2 = Presentation(SURF, (parse_word(SURF, "a b a^-1 b^-1 c d c^-1 d^-1"),))

L3 = artin_from_graph(random_tree(3, 4, 7, seed=11).graph)
L4 = artin_from_graph(random_tree(4, 4, 7, seed=11).graph)
L5 = artin_from_graph(random_tree(5, 4, 7, seed=11).graph)


# ------------------------------------------------------------ primitives

def swap_reference(w, pos, r, take):
    """The Word-level swap that the package no longer has: the matched
    prefix ``r[:take]`` of w at pos replaced by the inverted complement, or
    at take 0 ``r^-1`` inserted, as a product of Words."""
    return w[:pos] * r[take:].inverse() * w[pos + take:]


def test_insert_conjugate_preserves_group_element():
    w = parse_word(X, "x3 x1 x2^-1")
    r = EX.relators[0]
    c = parse_word(X, "x2")
    v = RewriteMove("insert-conjugate", 1, r, 1, c, w).post_word
    # v differs as a free word but v w^-1 is a conjugate of the relator
    assert v != w
    assert len(dehn_reduce(v * ~w, EX)) == 0


def test_insert_conjugate_validates_inputs():
    w = parse_word(X, "x3")
    # a logged insert by a word outside the symmetrized set is refused on reading
    with pytest.raises(ValueError, match="not in the symmetrized set"):
        parse_move_log("move: insert-conjugate @ 0 rel=x1 exp=1 conj=1\n", EX, w)
    with pytest.raises(ValueError, match="position out of range"):
        RewriteMove("insert-conjugate", 9, EX.relators[0], 1, Word(X, ()), w)
    with pytest.raises(ValueError, match="exponent must be"):
        RewriteMove("insert-conjugate", 0, EX.relators[0], 2, Word(X, ()), w)


def test_subword_swap_exchanges_relator_halves():
    r = EX.relators[0]  # x1^2 x2 x3^2 x2^-1
    w = parse_word(X, "x3^-1") * r * parse_word(X, "x1")
    v = swap_reference(w, 1, r, 4)
    assert v != w
    assert len(dehn_reduce(v * ~w, EX)) == 0
    # every take up to the match swaps to one word, the logged move's
    assert RewriteMove("subword-swap", 1, r, -1, Word(X, ()), w).post_word == v
    # taking the whole relator erases it
    v_all = swap_reference(w, 1, r, len(r))
    assert v_all == parse_word(X, "x3^-1 x1")


def test_subword_swap_validates_match():
    r = EX.relators[0]
    w = parse_word(X, "x2 x1")
    with pytest.raises(ValueError, match="does not match"):
        RewriteMove("subword-swap", 0, r, -1, Word(X, ()), w)
    # positions count from the start only: w ends with r's first letter
    with pytest.raises(ValueError, match="position out of range"):
        RewriteMove("subword-swap", -1, r, -1, Word(X, ()), w)
    with pytest.raises(ValueError, match="does not match"):
        RewriteMove("subword-swap", len(w), r, -1, Word(X, ()), w)
    assert RewriteMove("subword-swap", 1, r, -1, Word(X, ()), w).post_word == swap_reference(w, 1, r, 1)


def naive_growth_swaps(w, s):
    """Every element tried at every position, matched code by code; an
    element whose first letter differs matches nothing, so it is skipped."""
    by_first = {}
    for r in s.ordered:  # canonical order within each first letter
        by_first.setdefault(r.codes[0], []).append(r)
    x, out = w.codes, []
    for pos in range(len(x)):
        for r in by_first.get(x[pos], ()):
            c, take = r.codes, 0
            while pos + take < len(x) and 2 * (take + 1) < len(c) and x[pos + take] == c[take]:
                take += 1
            out.extend((pos, r, t) for t in range(1, take + 1))
    return out


def test_growth_swaps_grow_before_seam_cancellation():
    rng = random.Random(6)
    s = symmetrize(EX)
    for _ in range(25):
        w = random_reduced_word(X, rng.randint(1, 10), rng)
        for pos, r, take in naive_growth_swaps(w, s):
            assert 2 * take < len(r)
            assert w.codes[pos : pos + take] == r.codes[:take]
            v = swap_reference(w, pos, r, take)
            # raw replacement grows; seams may cancel some of it back
            raw = len(w) + len(r) - 2 * take
            assert len(v) <= raw and (raw - len(v)) % 2 == 0
            assert len(dehn_reduce(v * ~w, EX)) == 0


def test_rewrite_move_replay_validation():
    w = parse_word(X, "x3")
    r = EX.relators[0]  # x1^2 x2 x3^2 x2^-1
    mv = RewriteMove("insert-conjugate", 0, r, 1, Word(X, ()), w)
    assert mv.post_word == r * w
    with pytest.raises(ValueError):
        RewriteMove("subword-swap", 0, r, -1, parse_word(X, "x2"), w)
    with pytest.raises(ValueError):
        RewriteMove("teleport", 0, r, 1, Word(X, ()), w)
    # a swap's relator must match at its position, by exponent -1
    u = parse_word(X, "x1 x3")
    swap_move = RewriteMove("subword-swap", 0, r, -1, Word(X, ()), u)
    assert swap_move.post_word == swap_reference(u, 0, r, 1)
    with pytest.raises(ValueError, match="exponent -1"):
        RewriteMove("subword-swap", 0, r, 1, Word(X, ()), u)
    with pytest.raises(ValueError, match="does not match"):
        RewriteMove("subword-swap", 1, r, -1, Word(X, ()), u)
    with pytest.raises(ValueError, match="does not match"):
        RewriteMove("subword-swap", len(u), r, -1, Word(X, ()), u)


def four_product_reference(mv):
    """A move replayed by its own four-product algebra, independent of
    ``swap``: C r^e C^-1 * pre, with C the prefix before the position times
    the conjugator."""
    c = mv.pre_word[: mv.position] * mv.conjugator
    return c * mv.relator ** mv.exponent * c.inverse() * mv.pre_word


@pytest.mark.parametrize("p", [EX, L3, L5], ids=["EX", "L3", "L5"])
def test_rewrite_move_replays_as_the_four_product_algebra(p):
    s = symmetrize(p)
    empty = Word(p.alphabet)
    rng = random.Random(15)
    seen = set()
    for _ in range(400):
        w = random_reduced_word(p.alphabet, rng.randint(0, 20), rng)
        swaps = [(pos, s.ordered[i]) for pos, i, _ in s.matches(w.codes)]
        if swaps and rng.random() < 0.4:
            pos, r = rng.choice(swaps)
            mv = RewriteMove("subword-swap", pos, r, -1, empty, w)
        else:
            conj = random_reduced_word(p.alphabet, rng.randint(0, 2), rng)
            mv = RewriteMove("insert-conjugate", rng.randint(0, len(w)), rng.choice(s.ordered),
                             rng.choice((1, -1)), conj, w)
        assert mv.post_word == four_product_reference(mv)
        seen.add((mv.kind, mv.exponent, len(mv.conjugator)))
    inserts = {("insert-conjugate", e, n) for e in (1, -1) for n in (0, 1, 2)}
    assert seen == inserts | {("subword-swap", -1, 0)}


# --------------------------------------------------------------- disguise

def list_one_pass(w, p, budget, rng):
    """The pass as it drew before it counted its slots: it listed every growth
    swap in the order of ``naive_growth_swaps``, then every (position,
    element) insert, and drew one by index.  Also returns how many draws the
    length cap rejected."""
    s = symmetrize(p)
    cur, log, rejected = w, [], 0
    for _ in range(budget.moves):
        swaps = naive_growth_swaps(cur, s)
        n_slots = len(swaps) + (len(cur) + 1) * len(s.ordered)
        for _ in range(16):
            k = rng.randrange(n_slots)
            if k < len(swaps):
                pos, rel, _take = swaps[k]
                move = RewriteMove("subword-swap", pos, rel, -1, Word(cur.alphabet), cur)
            else:
                pos, i = divmod(k - len(swaps), len(s.ordered))
                conj = random_reduced_word(cur.alphabet, rng.randint(0, budget.max_conjugator_len), rng)
                move = RewriteMove("insert-conjugate", pos, s.ordered[i], 1, conj, cur)
            if len(move.post_word) <= budget.max_word_len:
                break
            rejected += 1
        else:
            break
        log.append(move)
        cur = move.post_word
    return cur, log, rejected


@pytest.mark.parametrize("p", [EX, braid_presentation(4), L3, L4, L5],
                         ids=["EX", "braid4", "L3", "L4", "L5"])
def test_counted_slots_draw_as_the_listed_slots(p):
    # same seed, same word, same log and the same RNG draws as the listed pass;
    # a 24-letter cap forces resampling and passes whose every draw is rejected
    rng = random.Random(43)
    swaps = rejected = cut = 0
    for budget in (DisguiseBudget(1), DisguiseBudget(3), DisguiseBudget(8), DisguiseBudget(8, 2, 24)):
        for _ in range(12):
            w = random_reduced_word(p.alphabet, rng.randint(0, 24), rng)
            seed = rng.getrandbits(32)
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            v, log = diffusion._one_pass(w, p, budget, new_rng)
            old_v, old_log, n_rejected = list_one_pass(w, p, budget, old_rng)
            assert (str(v), format_move_log(log)) == (str(old_v), format_move_log(old_log))
            assert new_rng.getstate() == old_rng.getstate()
            swaps += sum(mv.kind == "subword-swap" for mv in log)
            rejected += n_rejected
            cut += len(log) < budget.moves
    assert swaps and rejected and cut


def test_disguise_changes_word_and_preserves_element():
    w = parse_word(X, "x3 x1 x2^-1 x3")
    for seed in range(10):
        v, log = disguise(w, EX, DisguiseBudget(3), seed=seed)
        assert v != w
        assert log
        assert len(dehn_reduce(v * ~w, EX)) == 0 or _oracle_equal(v, w)


def _oracle_equal(v, w):
    wit = bounded_wp_oracle(v * ~w, EX, 4)
    return wit is not None


def test_disguise_log_chains():
    w = parse_word(X, "x3 x1 x2^-1 x3")
    v, log = disguise(w, EX, DisguiseBudget(4), seed=5)
    assert log[0].pre_word == w
    assert log[-1].post_word == v
    for prev, nxt in zip(log, log[1:]):
        assert prev.post_word == nxt.pre_word


def test_disguise_zero_moves_silent_identity():
    w = parse_word(X, "x3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, log = disguise(w, EX, DisguiseBudget(0), seed=1)
    assert v == w and log == []


def test_disguise_free_presentation_warns():
    free = Presentation(X, ())
    w = parse_word(X, "x3")
    with pytest.warns(UserWarning):
        v, log = disguise(w, free, DisguiseBudget(3), seed=1)
    assert v == w and log == []


def test_disguise_deterministic():
    w = parse_word(X, "x1 x3^-1")
    a = disguise(w, EX, DisguiseBudget(3), seed=9)
    b = disguise(w, EX, DisguiseBudget(3), seed=9)
    assert a == b


def test_disguise_respects_word_cap():
    w = parse_word(X, "x1 x3^-1")
    budget = DisguiseBudget(5, 2, 24)
    for seed in range(8):
        v, log = disguise(w, EX, budget, seed=seed)
        assert len(v) <= 24
        for mv in log:
            assert len(mv.post_word) <= 24


def test_disguise_of_empty_word():
    v, log = disguise(Word(X, ()), EX, DisguiseBudget(2), seed=3)
    assert len(v) > 0
    assert len(dehn_reduce(v, EX)) == 0


# ------------------------------------------------------------- witnesses

def test_move_log_witness_replays_to_quotient():
    w = parse_word(X, "x3 x1 x2^-1")
    for seed in (0, 4, 11):
        v, log = disguise(w, EX, DisguiseBudget(3), seed=seed)
        wit = move_log_to_witness(log)
        # the witness factors multiply to v w^-1 exactly
        assert replay_witness(wit, X) == v * ~w


def test_move_log_round_trip():
    w = parse_word(X, "x3 x1 x2^-1")
    v, log = disguise(w, EX, DisguiseBudget(3), seed=2)
    text = format_move_log(log)
    back = parse_move_log(text, EX, w)
    assert back == list(log)
    assert format_move_log(back) == text


def test_move_log_lines_are_single_format():
    w = parse_word(X, "x3 x1 x2^-1")
    _, log = disguise(w, EX, DisguiseBudget(3), seed=2)
    for line in format_move_log(log).splitlines():
        assert line.startswith("move: ")
        assert " rel=" in line and " exp=" in line and " conj=" in line


def test_parse_move_log_rejects_tampered_positions():
    w = parse_word(X, "x3 x1 x2^-1")
    _, log = disguise(w, EX, DisguiseBudget(2), seed=2)
    text = format_move_log(log)
    bad = text.replace("@ ", "@ 9", 1)
    with pytest.raises(ValueError):
        parse_move_log(bad, EX, w)


def test_parse_move_log_rejects_foreign_relator():
    # c is not a relator: replaying this line would take a b to c a b,
    # a different element, and its witness would prove a false equality
    w = parse_word(SURF, "a b")
    with pytest.raises(ValueError):
        parse_move_log("move: insert-conjugate @ 0 rel=c exp=1 conj=1\n", GENUS2, w)


@pytest.mark.parametrize("start", ["x3", "x1 x3"])
def test_parse_move_log_rejects_swap_that_inserts(start):
    # exp=1 inserts the whole relator, a move no swap makes; over x3 the
    # relator does not match at 0 either
    line = "move: subword-swap @ 0 rel=x1^2 x2 x3^2 x2^-1 exp=1 conj=1\n"
    with pytest.raises(ValueError, match="line 1: "):
        parse_move_log(line, EX, parse_word(X, start))


def test_parse_move_log_caps_letters_in_total(monkeypatch):
    # line 1 holds 6 + 5 relator and conjugator letters and a 17-letter post
    # word; line 2 holds only the relator, but replays to a 23-letter post word
    text = (
        "move: insert-conjugate @ 0 rel=x1^2 x2 x3^2 x2^-1 exp=1 conj=x1^5\n"
        "move: insert-conjugate @ 0 rel=x1^2 x2 x3^2 x2^-1 exp=1 conj=1\n"
    )
    start = parse_word(X, "x3")
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 57)
    assert [len(mv.post_word) for mv in parse_move_log(text, EX, start)] == [17, 23]
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 56)
    with pytest.raises(ValueError, match=r"^line 2: move log longer than 56 letters in total"):
        parse_move_log(text, EX, start)


# --------------------------------------------- oracle and dehn consistency

def test_oracle_undoes_short_disguises():
    rng = random.Random(21)
    for moves in (1, 2):
        for trial in range(12):
            w = random_reduced_word(X, rng.randint(1, 6), rng)
            v, log = disguise(w, EX, DisguiseBudget(moves, 1, 96), seed=300 + trial)
            if not log:
                continue
            wit = bounded_wp_oracle(v * ~w, EX, len(log) + 1)
            assert wit is not None
            assert replay_witness(wit, X) == v * ~w


def test_genus2_disguise_dehn_closes():
    r = GENUS2.relators[0]
    rng = random.Random(31)
    for trial in range(60):
        c = random_reduced_word(SURF, rng.randint(0, 3), rng)
        w = c * (r ** rng.choice((1, -1))) * ~c if trial % 2 else Word(SURF, ())
        v, _ = disguise(w, GENUS2, DisguiseBudget(4), seed=900 + trial)
        assert len(dehn_reduce(v, GENUS2)) == 0
