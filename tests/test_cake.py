"""Key exchange: tree platform, bitstream transport."""

import hashlib
import os
import random
import warnings
from pathlib import Path

import pytest

import cakelab.artin
import cakelab.cake
import cakelab.words
from cakelab.artin import (
    apply_endo, artin_from_graph, enumerate_side_moves, move_endomorphism, random_tree, split_at_root,
)
from cakelab.cake import (
    ProtocolConfig,
    ProtocolIntegrityError,
    ProtocolSetupError,
    bitstream_decode,
    bitstream_encode,
    config_digest,
    derive_key,
    equality_dehn,
    equality_oracle,
    finalize,
    format_transcript,
    parse_transcript,
    party_step,
    run_exchange,
    setup,
)
from cakelab.diffusion import DisguiseBudget
from cakelab.presentations import Presentation
from cakelab.words import Alphabet, Word, parse_word, random_reduced_word


# ------------------------------------------------------------- exchange

def test_setup_is_deterministic_and_viable():
    a = setup(5)
    b = setup(5)
    assert a == b
    assert config_digest(a) == config_digest(b)
    support = {lt.gen for lt in a.public_word}
    assert support & set(a.platform.side_a)
    assert support & set(a.platform.side_b)
    assert a.platform.moves("A") and a.platform.moves("B")


def test_setup_checks_no_generated_name(monkeypatch):
    # build_tree names its vertices a1..an, so the sampler's alphabets skip the name check
    checked = []
    check = cakelab.words._check_name
    monkeypatch.setattr(cakelab.words, "_check_name", lambda name: checked.append(name) or check(name))
    cakelab.artin._tree_alphabet.cache_clear()
    configs = [setup(seed, levels=3 + seed % 3) for seed in range(12)]
    for cfg in configs:
        party_step(cfg, "A", 1001)
        assert cfg.platform.alphabet.names
    assert checked == []
    # parsed trees keep the check, and both alphabets are the same
    for cfg in configs:
        names = cfg.platform.tree.graph.vertices
        parsed = cakelab.artin.parse_tree(cakelab.artin.format_tree(cfg.platform.tree))
        assert parsed.graph.alphabet == Alphabet(names) == cfg.platform.alphabet
        assert names == tuple(f"a{i}" for i in range(1, len(names) + 1))
    assert len(checked) == 2 * sum(len(cfg.platform.alphabet) for cfg in configs)


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


# run_exchange(9000 + i, 100 + i, 200 + i, levels=3 + i % 3, max_degree=4) for
# i = 0..29: each key, and the SHA-256 of the 30 format_transcript texts in order
PINNED_KEYS = (
    "32b30ea12f898b5602dc629b90ef0885dd31dfc8752cab3f32f602d24ed8203e",
    "a3c00c90c68a39396e997f714d074b4cec0378249d5b0aad85e4bb5f1ebee737",
    "5d3afe70c248f198b81f49933ab3ffe9311c1a3a8963ef6edd179e1c58f39ea9",
    "a7f1d9ead52929f5f549b52ffda2ba75c4b648d2cfa0cd9881c3a58d7d2d5b94",
    "e0d7ba735abd70e43688e0a11d8f1802b759daffc5ac31a9dae9737daab34761",
    "fdf8b6317ce24c56085cd2166a8fa2db2163812cc4a8e79e3c15cbfbafd7009b",
    "fa9cf6f9bc03b11c8a24300c2de6ec9aeab0c799da9563e57c45ab8137269d50",
    "5cdb5c784ddafb2472b3b660653ac779bbec820d3f25439a233a72a6bd1cd12f",
    "d453e91a898447745bd7cfdb7bf0efba8b43d4c26107228290fc9b1f2ca98100",
    "c0e7c6b5710fccd5a944c9b425b2835838008b6ff567d9ca1f3b6ae22e2206d6",
    "4844be766494f9ff812e2eccfa21174bfc23fe573e054eca17fd534a961f250f",
    "0c60dc7843c7a664a69300f05c6b2aa21492924fb342656a71a55326899d5946",
    "3f7738cc86677ebc151255650f1e29a872f93ee76f1f1c9f16d116014a5c2c03",
    "6c8f1c23c4acd1816e48fada0e151b43bccc39d10ff704422ed022c35073c37f",
    "83b46fc17187f66a0d468e6116fff6a6fd96ba2e7bdc50803cabe4e2c74650bb",
    "63281947ed9e532b683f2942a357709321ffaf4ef415f3d163ecf79188cd5683",
    "efb9b228f90634f51da4359d61190a40962f238ecc435b43d7a3fa3ade988934",
    "18becffb281b59180017f32bcb391acb78bc7f0afa7a8d3d8e9ff6bacfe94ea9",
    "23bb85d84bb68886aceae73a50528415852ff8f70f62067590c796b60c28683b",
    "1df678ad8af4459ce38f9c3c413deb56e079e0e8fd4275525660c914691acebd",
    "a541dc36da8f8e11a71652d01f8fac8dafd84ac685537cdbd83d1097addac30b",
    "a008b3811fac3e5a9b0ce5fc63c71fadf036f709c0eacdf0902f4932c0da001f",
    "8ce2429197b5832d7cb0d63131d5b08a933ad4dab0a30d166a18def4c7a905ba",
    "f4474ec3ea4be95e4f2fc887e928e6cd4380893e06c34bbcd93f34fd7e881b0e",
    "2cd969375fada147d2a64090f9735083b23520d99938a3e2e236c8a1dace0577",
    "a101fd6c42fef5f4e8da8b88777e0d740621c2ff0efd314578a1044a5a57a5c8",
    "bf9ae606e85ddac78f5f46f788759a1bb55eb953c28a20567752ce5f91728ed8",
    "9aad56afaa3bb8388f392412c293a24e3c6791f65b4ecbf619c919a507cc7b0b",
    "86179e5e56bc5e4fc6efc3fbda5427ed1039243de3eaf66b6a6426201bd1d5f7",
    "18a613c8ea9dd25dedc83639172e08f0be81c936988d05afe43aff235b8920a9",
)
PINNED_TRANSCRIPTS_SHA256 = "c9fac3bbd4b57b14e114552fb5e4d537aaa03a3d07c346e940c7afdb94ec65ff"


def test_exchange_keys_and_transcripts_are_pinned():
    digest = hashlib.sha256()
    for i, pinned in enumerate(PINNED_KEYS):
        transcript, ka, kb = run_exchange(9000 + i, 100 + i, 200 + i,
                                          levels=3 + i % 3, max_degree=4)
        assert ka.key_bytes.hex() == pinned, i
        alphabet = transcript.messages[0][1].alphabet
        digest.update(format_transcript(alphabet, transcript, ka, kb).encode())
    assert digest.hexdigest() == PINNED_TRANSCRIPTS_SHA256


def test_setup_builds_only_the_kept_presentation(monkeypatch):
    # an exchange compiles no relators; the kept platform builds its
    # presentation once, when it is read
    built = []

    def spy(g):
        built.append(g)
        return artin_from_graph(g)

    monkeypatch.setattr(cakelab.artin, "artin_from_graph", spy)
    run_exchange(9000, 100, 200)
    assert built == []
    cfg = setup(9000, levels=3)
    assert built == []
    assert cfg.platform.presentation is cfg.platform.presentation
    assert built == [cfg.platform.tree.graph]


def test_setup_builds_nothing_for_a_rejected_draw(monkeypatch):
    # rejected draws are decided on the sampler's arrays: labels are drawn
    # only for child counts that branch on both sides, one tree is built,
    # from the arrays and the shapes the move rule computed for them, and
    # split, and each side's moves are enumerated once for the whole
    # exchange, however many trees were drawn and however often the parties
    # draw their endomorphisms
    calls = {"build_tree": 0, "split_at_root": 0}
    for name in calls:
        def spy(*args, _name=name, _real=getattr(cakelab.cake, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cakelab.cake, name, spy)
    ruled = []

    def spy_rule(parent, labels):
        ruled.append(cakelab.artin.both_sides_move(parent, labels))
        return ruled[-1]

    def spy_build(parent, labels, shapes, _counted=cakelab.cake.build_tree):
        # the kept tree is built from the arrays and the rule's shapes
        assert shapes is ruled[-1] is not None
        return _counted(parent, labels, shapes)

    monkeypatch.setattr(cakelab.cake, "both_sides_move", spy_rule)
    monkeypatch.setattr(cakelab.cake, "build_tree", spy_build)
    counted, labelled = [], []

    def spy_counts(*args):
        counted.append(cakelab.artin.draw_counts(*args))
        return counted[-1]

    def spy_labels(bits, size, label_hi):
        assert size == len(counted[-1])
        assert cakelab.artin.branching_sides(counted[-1]) == {1, 2}
        labelled.append(size)
        return cakelab.artin.draw_labels(bits, size, label_hi)

    monkeypatch.setattr(cakelab.cake, "draw_counts", spy_counts)
    monkeypatch.setattr(cakelab.cake, "draw_labels", spy_labels)
    sides = []

    def spy_moves(platform, side):
        sides.append(side)
        return enumerate_side_moves(platform, side)

    monkeypatch.setattr(cakelab.artin, "enumerate_side_moves", spy_moves)
    run_exchange(9000, 100, 200)
    assert len(counted) > len(labelled) >= 1
    assert len(ruled) == len(labelled) and ruled.count(None) == len(ruled) - 1
    assert calls["build_tree"] == calls["split_at_root"] == 1
    assert sorted(sides) == ["A", "B"]


def setup_reference(seed, levels, max_degree=4, label_hi=7, word_len=16):
    """The setup loop that built, split and enumerated every drawn tree."""
    rng = random.Random(seed)
    for _ in range(1000):
        tree = random_tree(levels, max_degree, label_hi, seed=rng.getrandbits(48))
        platform = split_at_root(tree)
        moves_a = enumerate_side_moves(platform, "A")
        moves_b = enumerate_side_moves(platform, "B")
        if not moves_a or not moves_b:
            continue
        endos_a = [move_endomorphism(platform, m) for m in moves_a]
        endos_b = [move_endomorphism(platform, m) for m in moves_b]
        for _ in range(20):
            w = random_reduced_word(platform.alphabet, word_len, rng)
            sup = {lt.gen for lt in w}
            if not (sup & set(platform.side_a)) or not (sup & set(platform.side_b)):
                continue
            if any(apply_endo(w, e) != w for e in endos_a) and \
                    any(apply_endo(w, e) != w for e in endos_b):
                return ProtocolConfig(platform, w)
    raise ProtocolSetupError("could not sample a viable platform")


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_setup_matches_the_build_everything_loop(levels):
    # max_degree 3 and 5 and label_hi 4, 5 and 8 draw counts and labels
    # from ranges of other sizes, where the redraw loop runs differently
    for max_degree, label_hi, seeds in [(4, 7, 200), (3, 4, 40), (3, 8, 40), (5, 5, 40), (5, 8, 40)]:
        for seed in range(seeds):
            assert setup(seed, levels, max_degree, label_hi) == \
                setup_reference(seed, levels, max_degree, label_hi), (max_degree, label_hi, seed)


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_a_move_moves_a_word_exactly_when_it_moves_one_of_its_generators(levels):
    # setup keeps a word by its support instead of applying every move to it
    rng = random.Random(levels)
    pairs = moved = 0
    for seed in range(20):
        platform = setup(seed, levels=levels).platform
        for e in platform.move_endos("A") + platform.move_endos("B"):
            for _ in range(10):
                w = random_reduced_word(platform.alphabet, rng.randint(0, 16), rng)
                support = {lt.gen for lt in w}
                assert (apply_endo(w, e) != w) == bool(e.moved & support), (seed, e, w)
                moved += apply_endo(w, e) != w
                pairs += 1
    assert pairs > 1000 and 0.2 < moved / pairs < 0.8


def test_sha256_is_hashlibs_digest():
    # keys and config digests hash with the interpreter's built-in SHA-256
    texts = [cakelab.cake.config_text(setup(seed, levels=3 + seed % 3)) for seed in range(50)]
    texts += ["", "ключ · 鍵 · \U0001f511 · a1 a2^-1"]
    for text in texts:
        assert cakelab.cake._sha256(text) == hashlib.sha256(text.encode()).digest(), text


def test_an_exchange_never_loads_openssl():
    # hashlib's _hashlib maps OpenSSL's libcrypto; with a built-in sha256 an
    # exchange and a transcript round trip must not import it
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent("""
        import importlib.util, sys
        from cakelab.cake import format_transcript, parse_transcript, run_exchange
        transcript, ka, kb = run_exchange(5, 1001, 2002, levels=4)
        alphabet = transcript.messages[0][1].alphabet
        assert parse_transcript(format_transcript(alphabet, transcript, ka, kb))[1] == transcript
        builtin = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
        print(builtin, "_hashlib" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    builtin, loaded = proc.stdout.split()
    if builtin == "True":
        assert loaded == "False"


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


def test_parse_transcript_caps_letters_in_total(monkeypatch):
    # each message is under the cap; together they pass it on line 4
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 5)
    head = "gens: a b\nconfig: 00\nmsg 1 alice: a^2 b\n"
    assert len(parse_transcript(head + "msg 2 bob: a b\n")[1].messages) == 2
    with pytest.raises(ValueError, match=r"^line 4: messages longer than 5 letters in total"):
        parse_transcript(head + "msg 2 bob: a^2 b\n")


@pytest.mark.parametrize("n", ["3", "x", "02", "1"])
def test_parse_transcript_numbers_its_messages_in_order(n):
    # the k-th message line reads "msg k"; a renumbered or non-numeric one is refused
    head = "gens: a b\nconfig: 00\nmsg 1 alice: a^2 b\n"
    assert [s for s, _ in parse_transcript(head + "msg 2 bob: a\n")[1].messages] == ["alice", "bob"]
    with pytest.raises(ValueError, match=f"^line 4: message '{n}' where 2 was expected$"):
        parse_transcript(head + f"msg {n} bob: a\n")


def test_parse_transcript_names_the_config_line():
    # the config body is read as hex after the file, so its error names the record
    with pytest.raises(ValueError, match=r"^config line: non-hexadecimal"):
        parse_transcript("gens: a b\nconfig: 0g\nmsg 1 alice: a\n")


# ------------------------------------------------------------ bitstream

FREE = Presentation(Alphabet(("g1", "g2", "g3")), ())


@pytest.mark.filterwarnings("ignore:nothing to disguise")
def test_bitstream_round_trip_free():
    u = parse_word(FREE.alphabet, "g1 g2 g3^-1")
    rng = random.Random(7)
    bits = [rng.getrandbits(1) for _ in range(64)]
    sent = bitstream_encode(u, bits, FREE, seed=99)
    assert len(sent) == 64
    decoded = bitstream_decode(u, sent, equality_dehn(FREE))
    assert decoded == bits
    assert None not in decoded


def test_dehn_equality_is_literal_equality_without_relators():
    # no relators: C'(1/6) holds vacuously and Dehn reduction is free
    # reduction, so Dehn decides exactly what literal equality decides
    rng = random.Random(34)
    checked = {True: 0, False: 0}
    for n in (1, 2, 3, 4):
        p = Presentation(Alphabet(tuple(f"g{i}" for i in range(1, n + 1))), ())
        eq = equality_dehn(p)
        for _ in range(100):
            a = random_reduced_word(p.alphabet, rng.randint(0, 8), rng)
            if rng.getrandbits(1):  # an equal pair, built as another product
                c = random_reduced_word(p.alphabet, rng.randint(0, 4), rng)
                b = a * c * c.inverse()
            else:
                b = random_reduced_word(p.alphabet, rng.randint(0, 8), rng)
            assert eq(a, b) is (a == b), (a, b)
            checked[a == b] += 1
    assert min(checked.values()) > 100


def test_both_equality_oracles_refuse_words_over_another_alphabet():
    # the one quotient build checks the two words' alphabets before any reduction or search
    ab = Alphabet(("a", "b"))
    p = Presentation(ab, (parse_word(ab, "a b a^-1 b^-1"),))
    a, other = parse_word(ab, "a"), parse_word(Alphabet(("a",)), "a")
    for eq in (equality_dehn(p), equality_oracle(p, 2)):
        for pair in ((other, a), (a, other)):
            with pytest.raises(ValueError, match="^alphabet mismatch$"):
                eq(*pair)


def test_dehn_and_the_oracle_each_decide_what_the_other_cannot():
    # why bits keeps two strategies: the search never proves "different",
    # and off C'(1/6) Dehn can stop short of 1 on a trivial word
    ab = Alphabet(("a", "b"))
    one = Word(ab, ())
    zsq = Presentation(ab, (parse_word(ab, "a b a^-1 b^-1"),))  # C(4)-T(4), not C'(1/6)
    w = parse_word(ab, "a^2 b^2 a^-2 b^-2")
    assert (equality_dehn(zsq)(w, one), equality_oracle(zsq, 4)(w, one)) == (None, True)
    surface = Alphabet(("a", "b", "c", "d"))
    genus2 = Presentation(surface, (parse_word(surface, "a b a^-1 b^-1 c d c^-1 d^-1"),))
    w, v = parse_word(surface, "a c"), parse_word(surface, "c^-1 a^-1")
    assert (equality_dehn(genus2)(w, v), equality_oracle(genus2, 4)(w, v)) == (False, None)


@pytest.mark.filterwarnings("ignore:nothing to disguise")
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


def test_bitstream_warns_once_when_one_bits_go_undisguised():
    # with nothing to disguise with, a 1-bit is u verbatim: said once per call
    x = Alphabet(("x1", "x2", "x3"))
    p = Presentation(x, (parse_word(x, "x1^2 x2 x3^2 x2^-1"),))
    u = parse_word(x, "x2")
    for q, budget in ((Presentation(x, ()), None), (p, DisguiseBudget(0, 2, 64))):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            sent = bitstream_encode(u, [1, 1, 1], q, seed=5, budget=budget)
        assert sent == [u, u, u]
        assert [str(w.message) for w in seen] == [
            "nothing to disguise with; 1-bit words are the reference word itself"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bitstream_encode(u, [0, 0], Presentation(x, ()), seed=5)  # no 1-bit, no warning
        bitstream_encode(u, [1], p, seed=5)  # disguised


def test_bitstream_default_budget_stays_under_the_letter_cap(monkeypatch):
    # the default word cap is 4|u| letters, at least 64 and at most
    # MAX_WORD_LETTERS, which a budget may not pass
    x = Alphabet(("x1", "x2", "x3"))
    p = Presentation(x, (parse_word(x, "x1^2 x2 x3^2 x2^-1"),))
    u = random_reduced_word(x, 30, random.Random(3))
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 80)
    sent = bitstream_encode(u, [1] * 8, p, seed=5)
    assert all(w != u and len(w) <= 80 for w in sent)


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
    # two levels leave each side one bare vertex, and max_degree 2 at three
    # levels gives each side a path: no vertex has two children, so no side
    # ever has a move and all 1,000 draws are rejected
    with pytest.raises(ProtocolSetupError):
        setup(1, levels=2, max_degree=4)
    with pytest.raises(ProtocolSetupError):
        setup(1, levels=3, max_degree=2)
