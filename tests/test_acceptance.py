"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Run with -s (or read the captured output) to see the verdict lines; each
check also enforces its stated time budget on the queried hardware.
"""

import random
import time
import warnings
from fractions import Fraction

from cakelab.artin import braid_presentation, random_endo, split_at_root
from cakelab.cake import (
    bitstream_decode,
    bitstream_encode,
    equality_dehn,
    run_exchange,
    setup,
)
from cakelab.diffusion import DisguiseBudget, disguise
from cakelab.presentations import (
    Presentation,
    lift_word,
    shorten_all,
)
from cakelab.smallcancel import (
    bounded_wp_oracle,
    check_C,
    check_Cprime,
    check_T4,
    dehn_reduce,
    enumerate_pieces,
    min_piece_count,
    replay_witness,
)
from cakelab.presentations import symmetrize
from cakelab.words import Alphabet, Word, parse_word, random_reduced_word

X = Alphabet(("x1", "x2", "x3"))
TWO_RELATOR = Presentation(
    X,
    (parse_word(X, "x1^2 x2 x3^2 x2^-1"), parse_word(X, "x2^2 x3 x1^2 x3^-1")),
)

SURF = Alphabet(("a", "b", "c", "d"))
GENUS2 = Presentation(SURF, (parse_word(SURF, "a b a^-1 b^-1 c d c^-1 d^-1"),))


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_two_relator_checker_verdicts():
    t0 = time.monotonic()
    c4 = check_C(TWO_RELATOR, 4)
    cp = check_Cprime(TWO_RELATOR, Fraction(1, 6))
    ps = enumerate_pieces(symmetrize(TWO_RELATOR))
    counts = [min_piece_count(r, ps) for r in TWO_RELATOR.relators]
    dt = time.monotonic() - t0
    ok = c4 is True and cp is False and counts == [4, 4] and dt < 1.0
    verdict(1, ok, f"C(4)={c4} C'(1/6)={cp} min-pieces={counts} {dt:.3f}s")


def test_criterion_2_two_relator_t4():
    t0 = time.monotonic()
    t4 = check_T4(TWO_RELATOR)
    dt = time.monotonic() - t0
    ok = t4 is True and dt < 5.0
    verdict(2, ok, f"T(4)={t4} {dt:.3f}s")


def test_criterion_3_hundred_exchanges():
    t0 = time.monotonic()
    good = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(100):
            levels = 3 + i % 3
            transcript, ka, kb = run_exchange(9000 + i, 100 + i, 200 + i,
                                              levels=levels, max_degree=4)
            cfg = setup(9000 + i, levels, 4, 7, 16)
            if ka == kb and all(m != cfg.public_word for _, m in transcript.messages):
                good += 1
    dt = time.monotonic() - t0
    ok = good == 100 and dt < 10.0
    verdict(3, ok, f"{good}/100 exchanges {dt:.2f}s")


def test_criterion_4_hundred_commuting_pairs():
    good = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checked = 0
        i = 0
        while checked < 100:
            cfg = setup(5000 + i, 3 + i % 3, 4, 7, 16)
            plat = cfg.platform
            ea = random_endo(plat, "A", seed=60 + i)
            eb = random_endo(plat, "B", seed=61 + i)
            from cakelab.artin import endos_commute

            if endos_commute(ea, eb):
                good += 1
            checked += 1
            i += 1
    verdict(4, good == 100, f"{good}/100 pairs commute")


def test_criterion_5_tietze_soundness():
    cases = [TWO_RELATOR] + [braid_presentation(n) for n in range(3, 7)]
    all_ok = True
    details = []
    for pres in cases:
        h = shorten_all(pres)
        expect = sum(max(0, len(r) - 3) for r in pres.relators)
        ok = len(h.steps) == expect and all(len(r) <= 3 for r in h.end.relators)
        for r in h.end.relators:
            lifted = lift_word(r, h)
            wit = bounded_wp_oracle(lifted, pres, 2)
            if wit is None or replay_witness(wit, pres.alphabet) != lifted:
                ok = False
        details.append(f"{len(pres.relators)}rel:{len(h.steps)}steps:{'ok' if ok else 'BAD'}")
        all_ok = all_ok and ok
    verdict(5, all_ok, " ".join(details))


def test_criterion_6_disguise_dehn_equivalence():
    assert check_Cprime(GENUS2, Fraction(1, 6)) is True
    t0 = time.monotonic()
    r = GENUS2.relators[0]
    good = 0
    budget = DisguiseBudget(4)
    for i in range(200):
        rng = random.Random(7000 + i)
        if i % 2 == 0:
            w = Word(SURF, ())
        else:
            c = random_reduced_word(SURF, rng.randint(0, 3), rng)
            w = c * (r ** rng.choice((1, -1))) * ~c
        v, _ = disguise(w, GENUS2, budget, seed=3000 + i)
        if len(dehn_reduce(v, GENUS2)) == 0:
            good += 1
    dt = time.monotonic() - t0
    ok = good == 200 and dt < 10.0
    verdict(6, ok, f"{good}/200 reduce to the empty word {dt:.2f}s")


def test_criterion_7_oracle_soundness_fuzz():
    free = Presentation(X, ())
    false_trivials = 0
    replays_ok = True
    rng = random.Random(400)
    for _ in range(100):
        w = random_reduced_word(X, rng.randint(1, 12), rng)
        wit = bounded_wp_oracle(w, free, 3)
        if wit is not None:
            false_trivials += 1
    # witnesses that are returned (on a presentation with relators) replay
    for i in range(20):
        rng2 = random.Random(500 + i)
        c = random_reduced_word(X, rng2.randint(0, 3), rng2)
        w = c * TWO_RELATOR.relators[i % 2] * ~c
        wit = bounded_wp_oracle(w, TWO_RELATOR, 2)
        if wit is None or replay_witness(wit, X) != w:
            replays_ok = False
    ok = false_trivials == 0 and replays_ok
    verdict(7, ok, f"false-trivials={false_trivials}/100 replays={'ok' if replays_ok else 'BAD'}")


def test_criterion_8_bitstream_round_trip():
    free = Presentation(Alphabet(("g1", "g2", "g3")), ())
    u = parse_word(free.alphabet, "g1 g2 g3^-1 g1")
    bits = [random.Random(99).getrandbits(1) for _ in range(64)]
    sent = bitstream_encode(u, bits, free, seed=31337)
    decoded = bitstream_decode(u, sent, equality_dehn(free))
    unknowns = decoded.count(None)
    ok = decoded == bits and unknowns == 0
    verdict(8, ok, f"64-bit round-trip exact, unknowns={unknowns}")
