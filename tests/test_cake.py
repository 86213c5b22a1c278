"""Key exchange: tree platform, sandwich variant, bitstream transport."""

import random
import warnings

import pytest

from cakelab.artin import apply_endo, split_at_root
from cakelab.cake import (
    ProtocolIntegrityError,
    ProtocolSetupError,
    SandwichConfig,
    bitstream_decode,
    bitstream_encode,
    config_digest,
    derive_key,
    equality_dehn,
    equality_free,
    equality_oracle,
    finalize,
    format_transcript,
    parse_transcript,
    party_step,
    run_exchange,
    sandwich_exchange,
    sandwich_key,
    sandwich_message,
    sandwich_normal_form,
    sandwich_setup,
    setup,
)
from cakelab.artin import LabeledGraph
from cakelab.diffusion import DisguiseBudget
from cakelab.presentations import Presentation, parse_word
from cakelab.words import Alphabet, Word, random_reduced_word


# ------------------------------------------------------------- exchange

def test_setup_is_deterministic_and_viable():
    a = setup(5)
    b = setup(5)
    assert a == b
    assert config_digest(a) == config_digest(b)
    support = {lt.gen for lt in a.public_word.letters}
    assert support & set(a.platform.side_a)
    assert support & set(a.platform.side_b)
    assert a.moves("A") and a.moves("B")


def test_setup_different_seeds_differ():
    assert config_digest(setup(5)) != config_digest(setup(6))


def test_party_step_changes_the_word():
    cfg = setup(5)
    endo_a, msg_a = party_step(cfg, "A", 1001)
    assert msg_a != cfg.public_word
    assert apply_endo(cfg.public_word, endo_a) == msg_a


def test_finalize_agreement_by_commutation():
    cfg = setup(5)
    ea, ma = party_step(cfg, "A", 1001)
    eb, mb = party_step(cfg, "B", 2002)
    ka = finalize(cfg, ea, mb)
    kb = finalize(cfg, eb, ma)
    assert ka == kb
    assert ka.key_word == apply_endo(apply_endo(cfg.public_word, eb), ea)


def test_finalize_rejects_foreign_alphabet():
    cfg = setup(5)
    ea, _ = party_step(cfg, "A", 1001)
    other = Alphabet(("z1", "z2"))
    with pytest.raises(ValueError):
        finalize(cfg, ea, parse_word(other, "z1"))


def test_run_exchange_keys_agree_and_messages_move():
    transcript, ka, kb = run_exchange(5, 1001, 2002)
    assert ka == kb
    assert len(ka.key_bytes) == 32
    cfg = setup(5)
    senders = [s for s, _ in transcript.messages]
    assert senders == ["alice", "bob"]
    for _, payload in transcript.messages:
        assert payload != cfg.public_word


def test_run_exchange_seed_sensitivity():
    # small platforms have few distinct endomorphisms, so single seed pairs
    # can collide; across a handful of seeds several keys must appear
    keys = {run_exchange(5, 1000 + s, 2002)[1].key_bytes for s in range(8)}
    assert len(keys) >= 2


def test_exchange_battery_across_levels():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(30):
            levels = 3 + i % 3
            _, ka, kb = run_exchange(800 + i, 10 + i, 20 + i, levels=levels)
            assert ka == kb


def test_derive_key_is_word_determined():
    a = Alphabet(("a", "b"))
    w = parse_word(a, "a b^-1")
    assert derive_key(w) == derive_key(w)
    assert derive_key(w) != derive_key(~w)


def test_transcript_file_round_trip():
    transcript, ka, kb = run_exchange(5, 1001, 2002)
    cfg = setup(5)
    alphabet = cfg.platform.presentation.alphabet
    text = format_transcript(alphabet, transcript, ka, kb)
    back_alpha, back_tr, ha, hb = parse_transcript(text)
    assert back_alpha == alphabet
    assert back_tr == transcript
    assert ha == ka.key_bytes.hex() and hb == kb.key_bytes.hex()
    assert format_transcript(back_alpha, back_tr, ha, hb) == text


# ------------------------------------------------------------- sandwich

def test_sandwich_setup_structure():
    cfg = sandwich_setup(3)
    assert cfg.graph.vertices == ("a1", "a2", "b1", "b2")
    assert all(m == 2 for _, _, m in cfg.graph.edges)
    assert len(cfg.graph.edges) == 4
    support = {lt.gen for lt in cfg.public_word.letters}
    assert support & set(cfg.side_a) and support & set(cfg.side_b)


def test_sandwich_config_rejects_bad_platforms():
    g_within = LabeledGraph(("a1", "a2", "b1"),
                            frozenset({(0, 1, 2), (0, 2, 2), (1, 2, 2)}))
    w = parse_word(g_within.alphabet(), "a1 b1")
    from cakelab.artin import artin_from_graph

    with pytest.raises(ValueError):
        SandwichConfig(g_within, (0, 1), (2,), w, artin_from_graph(g_within))
    g_sparse = LabeledGraph(("a1", "a2", "b1"), frozenset({(0, 2, 2)}))
    with pytest.raises(ValueError):
        SandwichConfig(g_sparse, (0, 1), (2,), w, artin_from_graph(g_sparse))


def test_sandwich_normal_form_separates_sides():
    cfg = sandwich_setup(3)
    a = cfg.presentation.alphabet
    w = parse_word(a, "b1 a1 b2 a2^-1 b1")
    nf = sandwich_normal_form(cfg, w)
    assert str(nf) == "a1 a2^-1 b1 b2 b1"


def test_sandwich_normal_form_identifies_commuted_words():
    cfg = sandwich_setup(3)
    a = cfg.presentation.alphabet
    x = parse_word(a, "a1 b1 a2 b2")
    y = parse_word(a, "b1 b2 a1 a2")
    assert sandwich_normal_form(cfg, x) == sandwich_normal_form(cfg, y)


def test_sandwich_exchange_agreement():
    for i in range(20):
        _, ka, kb = sandwich_exchange(100 + i, 7 + i, 9 + i)
        assert ka == kb


def test_sandwich_key_with_inverse_pair_sides():
    # a private pair may multiply to the identity; keys still agree
    cfg = sandwich_setup(3)
    a = cfg.presentation.alphabet
    s = parse_word(a, "a1 a2")
    pair_a = (s, ~s)
    msg_a = s * cfg.public_word * ~s
    pair_b, msg_b = sandwich_message(cfg, "B", 23)
    ka = sandwich_key(cfg, pair_a, msg_b)
    kb = sandwich_key(cfg, pair_b, msg_a)
    assert ka == kb


def test_sandwich_messages_hide_but_determine_key():
    _, ka, _ = sandwich_exchange(3, 17, 23)
    _, kc, _ = sandwich_exchange(3, 18, 23)
    assert ka != kc


# ------------------------------------------------------------ bitstream

FREE = Presentation(Alphabet(("g1", "g2", "g3")), ())


def test_bitstream_round_trip_free():
    u = parse_word(FREE.alphabet, "g1 g2 g3^-1")
    rng = random.Random(7)
    bits = [rng.getrandbits(1) for _ in range(64)]
    sent = bitstream_encode(u, bits, FREE, seed=99)
    assert len(sent) == 64
    decoded = bitstream_decode(u, sent, equality_free())
    assert decoded == bits
    assert None not in decoded


def test_bitstream_zero_bits_extend_the_word():
    u = parse_word(FREE.alphabet, "g1 g2")
    sent = bitstream_encode(u, [0, 1, 0], FREE, seed=4)
    assert len(sent[0]) == len(u) + 1
    assert sent[1] == u
    assert len(sent[2]) == len(u) + 1
    assert sent[0] != sent[2] or True  # zero-words need not differ


def test_bitstream_one_bits_disguised_over_relators():
    x = Alphabet(("x1", "x2", "x3"))
    p = Presentation(
        x,
        (parse_word(x, "x1^2 x2 x3^2 x2^-1"), parse_word(x, "x2^2 x3 x1^2 x3^-1")),
    )
    u = parse_word(x, "x1 x2^-1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sent = bitstream_encode(u, [1, 1, 1, 1], p, seed=11,
                                budget=DisguiseBudget(3, 2, 128))
    assert any(w != u for w in sent)
    decoded = bitstream_decode(u, sent, equality_oracle(p, 4))
    assert all(b in (1, None) for b in decoded)


def test_bitstream_warns_on_zero_bits_with_relators():
    x = Alphabet(("x1", "x2", "x3"))
    p = Presentation(x, (parse_word(x, "x1^2 x2 x3^2 x2^-1"),))
    u = parse_word(x, "x2")
    with pytest.warns(UserWarning):
        bitstream_encode(u, [0, 0], p, seed=2)


def test_bitstream_oracle_strategy_reports_unknowns():
    x = Alphabet(("x1", "x2", "x3"))
    p = Presentation(
        x,
        (parse_word(x, "x1^2 x2 x3^2 x2^-1"), parse_word(x, "x2^2 x3 x1^2 x3^-1")),
    )
    u = parse_word(x, "x1")
    # a word the depth-0 oracle cannot decide decodes to None, not a guess
    oracle = equality_oracle(p, 0)
    got = bitstream_decode(u, [u * p.relators[0]], oracle)
    assert got == [None]
    assert bitstream_decode(u, [u], oracle) == [1]


def test_equality_strategies_agree_where_decided():
    surf = Alphabet(("a", "b", "c", "d"))
    p = Presentation(surf, (parse_word(surf, "a b a^-1 b^-1 c d c^-1 d^-1"),))
    u = parse_word(surf, "a c")
    r = p.relators[0]
    same = u * r
    diff = u * parse_word(surf, "d")
    dehn = equality_dehn(p)
    assert dehn(u, same) is True
    assert dehn(u, diff) is False
    oracle = equality_oracle(p, 2)
    assert oracle(u, same) is True
    assert oracle(u, diff) in (False, None)
    # off C'(1/6) a word Dehn cannot shorten to 1 is unknown, not different
    x = Alphabet(("x1", "x2", "x3"))
    ex = Presentation(
        x,
        (parse_word(x, "x1^2 x2 x3^2 x2^-1"), parse_word(x, "x2^2 x3 x1^2 x3^-1")),
    )
    v = parse_word(x, "x1 x2^-1")
    ex_dehn = equality_dehn(ex)
    assert ex_dehn(v * parse_word(x, "x3"), v) is None
    assert ex_dehn(v * ex.relators[0], v) is True


def test_setup_raises_when_viability_is_impossible():
    # max_degree 2 gives a path; the two sides are bare chains with
    # distinct random labels most of the time, but the loop must either
    # succeed or raise the dedicated error, never hang
    try:
        cfg = setup(1, levels=2, max_degree=2)
    except ProtocolSetupError:
        return
    assert cfg.moves("A") and cfg.moves("B")
