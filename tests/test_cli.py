"""Command-line surface: output formats, exit codes, determinism."""

import argparse
import hashlib
import itertools
import os
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import cakelab.words
from cakelab import cli
from cakelab.artin import artin_from_graph, random_tree
from cakelab.cli import main
from cakelab.presentations import format_presentation, parse_presentation, symmetrize
from cakelab.smallcancel import build_report, check_Cprime, parse_witness, replay_witness
from cakelab.words import parse_word

# a child ``python -m cakelab`` imports this checkout's package, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

EX_TEXT = """\
gens: x1 x2 x3
rel: x1^2 x2 x3^2 x2^-1
rel: x2^2 x3 x1^2 x3^-1
"""

SURFACE_TEXT = "gens: a b c d\nrel: a b a^-1 b^-1 c d c^-1 d^-1\n"


@pytest.fixture
def ex_file(tmp_path):
    f = tmp_path / "ex.txt"
    f.write_text(EX_TEXT)
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- check

def test_check_output_lines(capsys, ex_file):
    code, out, err = run(capsys, ["check", "--presentation", ex_file])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "C(4): true",
        "C'(1/6): false",
        "T(4): false",
        "pieces: 10",
        "min-pieces: 4",
        "min-pieces: 4",
    ]


def test_check_output_on_level3_tree(capsys, tmp_path):
    pres_f = str(tmp_path / "l3.txt")
    run(capsys, ["gen", "--levels", "3", "--max-degree", "4", "--seed", "11",
                 "--out-pres", pres_f])
    code, out, err = run(capsys, ["check", "--presentation", pres_f])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "C(4): true",
        "C'(1/6): false",
        "T(4): true",
        "pieces: 138",
    ] + ["min-pieces: 4"] * 8


@pytest.mark.parametrize("levels, pieces, relators", [(4, 252, 17), (5, 462, 30)])
def test_check_output_on_deeper_trees(capsys, tmp_path, levels, pieces, relators):
    pres_f = str(tmp_path / f"l{levels}.txt")
    run(capsys, ["gen", "--levels", str(levels), "--max-degree", "4", "--seed", "11",
                 "--out-pres", pres_f])
    code, out, err = run(capsys, ["check", "--presentation", pres_f])
    assert (code, err) == (0, "")
    assert out == (f"C(4): true\nC'(1/6): false\nT(4): true\npieces: {pieces}\n"
                   + "min-pieces: 4\n" * relators)


def test_check_output_on_long_relator(capsys, tmp_path):
    # 1002 elements of 501 letters, with pieces up to 499 letters long
    f = tmp_path / "long.txt"
    f.write_text("gens: a b\nrel: a^500 b\n")
    code, out, err = run(capsys, ["check", "--presentation", str(f)])
    assert (code, err) == (0, "")
    assert out == ("C(4): true\nC'(1/6): false\nT(4): true\npieces: 998\n"
                   "min-pieces: not-a-piece-product\n")


def test_check_verdicts_build_no_piece_set():
    # what check computes reads the verdict table, never the piece set
    p = parse_presentation(EX_TEXT)
    build_report(p)
    check_Cprime(p, Fraction(1, 6))
    assert "verdicts" in symmetrize(p).__dict__
    assert "pieces" not in symmetrize(p).__dict__


def test_check_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, ["check", "--presentation", "/no/such/file"])
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_check_refuses_file_over_size_cap(capsys, ex_file, monkeypatch):
    size = len(EX_TEXT.encode())
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
    code, out, _ = run(capsys, ["check", "--presentation", ex_file])
    assert code == 0 and out.startswith("C(4): true")
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
    code, out, err = run(capsys, ["check", "--presentation", ex_file])
    assert code == 2 and out == ""
    assert err == f"error: {ex_file} is larger than {size - 1} bytes\n"


def test_check_names_a_file_that_is_not_utf8(capsys, tmp_path):
    f = tmp_path / "utf16.txt"
    f.write_bytes(EX_TEXT.encode("utf-16"))  # starts with the byte-order mark ff fe
    code, out, err = run(capsys, ["check", "--presentation", str(f)])
    assert (code, out) == (2, "")
    assert err == f"error: {f} is not UTF-8: invalid start byte at byte 0\n"


def test_check_caps_relator_letters_in_total(capsys, tmp_path, monkeypatch):
    # the cap is the words module's, read when the file is parsed
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 10)
    f = tmp_path / "long.txt"
    f.write_text("gens: a b\nrel: a^4 b\nrel: a^4 b^-1\nrel: a^4 b^2\n")
    code, out, err = run(capsys, ["check", "--presentation", str(f)])
    assert code == 2 and out == ""
    assert err == "error: line 4: relators longer than 10 letters in total\n"


def test_check_caps_symmetrized_set(capsys, tmp_path, monkeypatch, ex_file):
    # 27 bytes, but 2 * 800^2 letters of symmetrized set: refused unbuilt
    f = tmp_path / "square.txt"
    f.write_text("gens: a b\nrel: a^400 b^400\n")
    code, out, err = run(capsys, ["check", "--presentation", str(f)])
    assert code == 2 and out == ""
    assert err == "error: symmetrized set longer than 1000000 letters\n"
    # the cap is read when the set is built; EX needs 144 letters
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 143)
    code, out, err = run(capsys, ["check", "--presentation", ex_file])
    assert code == 2 and out == ""
    assert err == "error: symmetrized set longer than 143 letters\n"


def test_check_malformed_line_names_it(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text(EX_TEXT.replace("x3^2", "x3^two"))
    code, out, err = run(capsys, ["check", "--presentation", str(f)])
    assert code == 2 and out == ""
    assert err == "error: line 2: bad exponent in token 'x3^two'\n"


# ------------------------------------------------------------------- gen

def test_gen_deterministic_and_writes_files(capsys, tmp_path):
    tree_f = str(tmp_path / "t.txt")
    pres_f = str(tmp_path / "p.txt")
    args = ["gen", "--levels", "3", "--max-degree", "4", "--seed", "11",
            "--out-tree", tree_f, "--out-pres", pres_f]
    code, out1, _ = run(capsys, args)
    assert code == 0
    code, out2, _ = run(capsys, args)
    assert out1 == out2
    assert out1.startswith("root: a1\n")
    assert "gens: " in out1
    with open(tree_f) as fh:
        assert out1.startswith(fh.read())
    with open(pres_f) as fh:
        body = fh.read()
    assert parse_presentation(body).relators


GEN_L4_SEED11 = """\
root: a1
edge: a1 a2 7
edge: a1 a3 6
edge: a2 a4 5
edge: a2 a5 4
edge: a2 a6 4
edge: a3 a7 7
edge: a3 a8 7
edge: a3 a9 5
edge: a4 a10 4
edge: a4 a11 4
edge: a4 a12 4
edge: a5 a13 4
edge: a6 a14 5
edge: a7 a15 5
edge: a7 a16 4
edge: a7 a17 7
edge: a8 a18 6
gens: a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11 a12 a13 a14 a15 a16 a17 a18
rel: a1 a2 a1 a2 a1 a2 a1 a2^-1 a1^-1 a2^-1 a1^-1 a2^-1 a1^-1 a2^-1
rel: a1 a3 a1 a3 a1 a3 a1^-1 a3^-1 a1^-1 a3^-1 a1^-1 a3^-1
rel: a2 a4 a2 a4 a2 a4^-1 a2^-1 a4^-1 a2^-1 a4^-1
rel: a2 a5 a2 a5 a2^-1 a5^-1 a2^-1 a5^-1
rel: a2 a6 a2 a6 a2^-1 a6^-1 a2^-1 a6^-1
rel: a3 a7 a3 a7 a3 a7 a3 a7^-1 a3^-1 a7^-1 a3^-1 a7^-1 a3^-1 a7^-1
rel: a3 a8 a3 a8 a3 a8 a3 a8^-1 a3^-1 a8^-1 a3^-1 a8^-1 a3^-1 a8^-1
rel: a3 a9 a3 a9 a3 a9^-1 a3^-1 a9^-1 a3^-1 a9^-1
rel: a4 a10 a4 a10 a4^-1 a10^-1 a4^-1 a10^-1
rel: a4 a11 a4 a11 a4^-1 a11^-1 a4^-1 a11^-1
rel: a4 a12 a4 a12 a4^-1 a12^-1 a4^-1 a12^-1
rel: a5 a13 a5 a13 a5^-1 a13^-1 a5^-1 a13^-1
rel: a6 a14 a6 a14 a6 a14^-1 a6^-1 a14^-1 a6^-1 a14^-1
rel: a7 a15 a7 a15 a7 a15^-1 a7^-1 a15^-1 a7^-1 a15^-1
rel: a7 a16 a7 a16 a7^-1 a16^-1 a7^-1 a16^-1
rel: a7 a17 a7 a17 a7 a17 a7 a17^-1 a7^-1 a17^-1 a7^-1 a17^-1 a7^-1 a17^-1
rel: a8 a18 a8 a18 a8 a18 a8^-1 a18^-1 a8^-1 a18^-1 a8^-1 a18^-1
"""


def test_gen_output_is_pinned(capsys):
    code, out, err = run(capsys, ["gen", "--levels", "4", "--max-degree", "4", "--seed", "11"])
    assert (code, err) == (0, "")
    assert out == GEN_L4_SEED11


def test_gen_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--levels", "3", "--max-degree", "4"])


# ---------------------------------------------------------------- tietze

def test_tietze_steps_and_end_presentation(capsys, ex_file, tmp_path):
    hist_f = str(tmp_path / "h.txt")
    code, out, _ = run(capsys, ["tietze", "--presentation", ex_file,
                                "--out", hist_f, "--lift", "t3 x3 x2^-1"])
    assert code == 0
    lines = out.splitlines()
    steps = [l for l in lines if l.startswith("step: ")]
    assert len(steps) == 6
    assert steps[0] == "step: t1 = x1 x1 @ 0"
    assert any(l.startswith("gens: x1 x2 x3 t1") for l in lines)
    lift_lines = [l for l in lines if l.startswith("lift: ")]
    assert lift_lines == ["lift: x1^2 x2 x3^2 x2^-1"]
    from cakelab.presentations import parse_history

    with open(hist_f) as fh:
        h = parse_history(fh.read())
    assert len(h.steps) == 6


@pytest.mark.parametrize("word", ["", "   "])
def test_tietze_prints_the_lift_of_an_empty_word(capsys, ex_file, word):
    # an empty --lift is a word, the identity, as blank space is
    code, out, err = run(capsys, ["tietze", "--presentation", ex_file, "--lift", word])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "lift: 1"
    assert out.count("lift: ") == 1


LONG_RELATOR = "gens: a b\nrel: a^100000 b\n"  # 26 bytes, 99,998 splits


def run_module(argv, timeout=60):
    import subprocess
    import sys
    import time

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cakelab", *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=timeout)
    return proc, time.perf_counter() - start


def test_tietze_on_a_long_relator_is_linear(tmp_path):
    # a split rewrites one relator in place, so 99,998 splits take seconds;
    # rebuilding the presentation at each split was quadratic (8 s at a^2000)
    from cakelab.presentations import parse_history, shorten_all

    pres, hist = tmp_path / "long.txt", tmp_path / "h.txt"
    pres.write_text(LONG_RELATOR)
    proc, seconds = run_module(["tietze", "--presentation", str(pres), "--out", str(hist),
                                "--lift", "t99997"])
    assert seconds < 30
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "step: t1 = a a @ 0" and lines[99997] == "step: t99998 = t99997 a @ 0"
    assert lines[99998] == "gens: a b " + " ".join(f"t{k}" for k in range(1, 99999))
    assert lines[99999:] == ["rel: t99998 a b", "rel: t1^-1 a^2"] + [
        f"rel: t{k}^-1 t{k - 1} a" for k in range(2, 99999)] + ["lift: a^99998"]
    assert parse_history(hist.read_text()) == shorten_all(parse_presentation(LONG_RELATOR))


def test_tietze_refuses_a_lift_past_the_letter_cap(capsys, tmp_path):
    # t9997 lifts to a^9998, so its 200th power would be 1,999,600 letters;
    # the lift is refused before the history file is written
    pres, hist = tmp_path / "p.txt", tmp_path / "h.txt"
    pres.write_text("gens: a b\nrel: a^10000 b\n")
    code, out, err = run(capsys, ["tietze", "--presentation", str(pres), "--out", str(hist),
                                  "--lift", "t9997^200"])
    assert (code, out, err) == (2, "", "error: word longer than 1000000 letters\n")
    assert not hist.exists()


def test_disguise_length3_on_a_long_relator_is_refused_in_time(tmp_path):
    # the split presentation is built in seconds; its symmetrized set would
    # pass the letter cap, so disguise refuses it with one error line
    pres = tmp_path / "long.txt"
    pres.write_text(LONG_RELATOR)
    proc, seconds = run_module(["disguise", "--presentation", str(pres), "--word", "a b",
                                "--moves", "3", "--seed", "1", "--length3"])
    assert seconds < 30
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: symmetrized set longer than 1000000 letters\n"


# ------------------------------------------------------------------ cake

def test_cake_run_output_and_transcript(capsys, tmp_path):
    trans_f = str(tmp_path / "trans.txt")
    args = ["cake", "run", "--levels", "3", "--max-degree", "4",
            "--seed", "5", "--seed-a", "1001", "--seed-b", "2002",
            "--transcript", trans_f]
    code, out, _ = run(capsys, args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "root: a1"
    assert sum(1 for l in lines if l.startswith("msg 1 alice: ")) == 1
    assert sum(1 for l in lines if l.startswith("msg 2 bob: ")) == 1
    key_lines = [l for l in lines if l.startswith("key-")]
    assert len(key_lines) == 2
    ka = key_lines[0].split(": ")[1]
    kb = key_lines[1].split(": ")[1]
    assert ka == kb and len(ka) == 64
    from cakelab.cake import parse_transcript

    with open(trans_f) as fh:
        _, tr, ha, hb = parse_transcript(fh.read())
    assert ha == ka and hb == kb
    assert [s for s, _ in tr.messages] == ["alice", "bob"]


def test_cake_run_deterministic(capsys):
    args = ["cake", "run", "--seed", "5", "--seed-a", "1", "--seed-b", "2"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


# SHA-256 of the 39-line stdout: the tree, its presentation, the public
# word, both messages and both keys.
CAKE_RUN_L4_SEED11_SHA256 = "251df305437822401413254543bbfa5d98f2cee7eab722077a5343c67c461897"


def test_cake_run_output_is_pinned(capsys):
    code, out, err = run(capsys, ["cake", "run", "--levels", "4", "--max-degree", "4",
                                  "--seed", "11", "--seed-a", "7", "--seed-b", "8"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "key-b: e55fd584ec008997d2d111d687efd7c14d2f595d731e92d23354dab46b111157")
    assert hashlib.sha256(out.encode()).hexdigest() == CAKE_RUN_L4_SEED11_SHA256


# -------------------------------------------------------------- disguise

def test_disguise_prints_word_and_witness(capsys, ex_file):
    code, out, _ = run(capsys, ["disguise", "--presentation", ex_file,
                                "--word", "x3 x1 x2^-1", "--moves", "3",
                                "--seed", "42", "--witness"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("disguised: ")
    moves = [l for l in lines[1:] if l.startswith("move: ")]
    assert 1 <= len(moves) <= 3
    for l in moves:
        assert "@" in l and "rel=" in l and "exp=" in l and "conj=" in l


def test_disguise_deterministic(capsys, ex_file):
    args = ["disguise", "--presentation", ex_file, "--word", "x1",
            "--moves", "2", "--seed", "7"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


def test_disguise_length3_reprints_alphabet(capsys, ex_file):
    code, out, _ = run(capsys, ["disguise", "--presentation", ex_file,
                                "--word", "x1 x3", "--moves", "2",
                                "--seed", "1", "--length3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("gens: x1 x2 x3 t1")
    assert lines[1].startswith("disguised: ")
    # disguised word may use the split generators
    gens = set(lines[0].removeprefix("gens: ").split())
    used = {tok.split("^")[0] for tok in lines[1].removeprefix("disguised: ").split()}
    assert used <= gens | {"1"}


def test_disguise_rejects_foreign_word(capsys, ex_file):
    code, out, err = run(capsys, ["disguise", "--presentation", ex_file,
                                  "--word", "z", "--moves", "1", "--seed", "1"])
    assert code == 2
    assert err.startswith("error: ")


# -------------------------------------------------------------------- wp

def test_wp_trivial_with_witness_file(capsys, ex_file, tmp_path):
    wit_f = str(tmp_path / "w.txt")
    code, out, _ = run(capsys, ["wp", "--presentation", ex_file,
                                "--word", "x2 x1^2 x2 x3^2 x2^-2",
                                "--depth", "2", "--witness", wit_f])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trivial"
    assert all(l.startswith("factor: ") for l in lines[1:])
    alphabet = parse_presentation(EX_TEXT).alphabet
    with open(wit_f) as fh:
        wit = parse_witness(fh.read(), alphabet)
    assert replay_witness(wit, alphabet) == parse_word(alphabet, "x2 x1^2 x2 x3^2 x2^-2")


def test_wp_oversized_word_is_input_error(capsys, ex_file):
    # refused by the word-size cap before a single letter is built
    code, out, err = run(capsys, ["wp", "--presentation", ex_file,
                                  "--word", "x1^100000000000000000000", "--depth", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_wp_unknown_exits_one(capsys, ex_file):
    code, out, _ = run(capsys, ["wp", "--presentation", ex_file,
                                "--word", "x1", "--depth", "3"])
    assert code == 1
    assert out.splitlines() == ["unknown"]


@pytest.mark.parametrize("word, flags", [
    ("a b a^-1 b^-1", ["--node-budget", "0"]),
    ("a", ["--node-budget", "-5"]),
    ("a b a^-1 b^-1", ["--max-len", "-1"]),
])
def test_wp_refuses_budgets_below_their_floor(capsys, tmp_path, word, flags):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    argv = ["wp", "--presentation", str(pres), "--word", word, "--depth", "1"]
    code, out, err = run(capsys, argv + flags)
    assert (code, out) == (2, "")
    assert err == "error: depth and max_len must be non-negative, node_budget at least 1\n"
    # the floors themselves are accepted: one candidate decides the commutator
    code, out, _ = run(capsys, ["wp", "--presentation", str(pres), "--word", "a b a^-1 b^-1",
                                "--depth", "1", "--node-budget", "1", "--max-len", "0"])
    assert (code, out.splitlines()[0]) == (0, "trivial")


# ------------------------------------------------------------------ bits

UNDISGUISED = "warning: nothing to disguise with; 1-bit words are the reference word itself\n"


def test_bits_round_trip_free_gens(capsys):
    args = ["bits", "--gens", "g1 g2", "--word", "g1 g2", "--bits", "1011001",
            "--seed", "7"]
    code, out, err = run(capsys, args)
    assert (code, err) == (0, UNDISGUISED)
    lines = out.splitlines()
    sent = [l for l in lines if l.startswith("sent ")]
    assert len(sent) == 7
    assert "decoded: 1011001" in lines
    assert lines[-1] == "bits: ok"


@pytest.mark.filterwarnings("ignore:0-bit words")
def test_bits_with_presentation_and_dehn(capsys, tmp_path):
    f = tmp_path / "surf.txt"
    f.write_text(SURFACE_TEXT)
    args = ["bits", "--presentation", str(f), "--word", "a c", "--bits", "101",
            "--seed", "3"]
    code, out, _ = run(capsys, args)
    assert code == 0
    assert "decoded: 101" in out.splitlines()


@pytest.mark.filterwarnings("ignore:0-bit words")
def test_bits_oracle_decodes_ones_and_leaves_zeros_unknown(capsys, ex_file):
    args = ["bits", "--presentation", ex_file, "--word", "x2 x3", "--bits", "1001",
            "--seed", "16", "--depth", "3"]
    code, out, err = run(capsys, args)
    assert code == 1
    assert out == (
        "sent 1: x2^3 x3 x1^2\n"
        "sent 2: x2 x3 x2^-1\n"
        "sent 3: x2 x3 x2\n"
        "sent 4: x1^2 x2 x3^3\n"
        "decoded: 1??1\n"
    )
    assert err == "bits: mismatch\n"


def test_bits_refuses_a_negative_depth_before_sending(capsys, ex_file):
    # refused on every presentation, also where Dehn decides every bit
    for source in (["--presentation", ex_file], ["--gens", "x1 x2 x3"]):
        args = ["bits", *source, "--word", "x1 x2^-1", "--bits", "10", "--seed", "7", "--depth", "-1"]
        code, out, err = run(capsys, args)
        assert (code, out) == (2, "")
        assert err == "error: depth and max_len must be non-negative, node_budget at least 1\n"


def test_bits_refuses_every_strategy_option(capsys, ex_file, tmp_path):
    # bits has one decoding order, so any --strategy is a usage error
    args = ["bits", "--presentation", ex_file, "--word", "x1 x2^-1", "--bits", "101",
            "--seed", "1"]
    for strategy in ("free", "dehn", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--strategy", strategy])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"unrecognized arguments: --strategy {strategy}" in err and "Traceback" not in err
    # Dehn decodes the disguised 1-bits, and the search leaves the 0-bit unknown
    code, out, _ = run(capsys, args)
    assert code == 1 and "decoded: 1?1\n" in out
    # a file with no relators decodes as --gens does, and warns that the
    # 1-bits go undisguised
    gens_only = tmp_path / "gens.txt"
    gens_only.write_text("gens: g1 g2\n")
    args = ["--word", "g1 g2", "--bits", "1011001", "--seed", "7"]
    code, out, err = run(capsys, ["bits", "--presentation", str(gens_only), *args])
    assert (code, err) == (0, UNDISGUISED) and out.endswith("decoded: 1011001\nbits: ok\n")
    assert run(capsys, ["bits", "--gens", "g1 g2", *args]) == (code, out, err)


@pytest.mark.filterwarnings("ignore:0-bit words")
def test_bits_decodes_with_dehn_then_the_search_where_dehn_cannot_tell(capsys, tmp_path, monkeypatch):
    # each received word goes to Dehn first, and to the search only when Dehn answers unknown
    calls = []

    def logged(name, make):
        def build(*args):
            decide = make(*args)

            def eq(a, b):
                calls.append((name, decide(a, b)))
                return calls[-1][1]
            return eq
        return build

    monkeypatch.setattr(cli, "equality_dehn", logged("dehn", cli.equality_dehn))
    monkeypatch.setattr(cli, "equality_oracle", logged("search", cli.equality_oracle))
    # a 0-bit over the genus-2 surface, C'(1/6): Dehn proves it different,
    # where the search, which never answers False, could not tell
    surface = tmp_path / "surface.txt"
    surface.write_text(SURFACE_TEXT)
    code, out, _ = run(capsys, ["bits", "--presentation", str(surface), "--word", "a c",
                                "--bits", "0", "--seed", "1", "--depth", "4"])
    assert (code, out.splitlines()[1:], calls) == (0, ["decoded: 0", "bits: ok"], [("dehn", False)])
    p = parse_presentation(SURFACE_TEXT)
    sent = parse_word(p.alphabet, out.splitlines()[0].split(": ", 1)[1])
    assert cli.equality_oracle(p, 4)(sent, parse_word(p.alphabet, "a c")) is None
    # over <a, b | [a, b]>, not C'(1/6), Dehn leaves [a^2, b^2] as it is, and
    # the search proves it trivial at depth 4 but not at depth 3
    zsq = tmp_path / "zsq.txt"
    zsq.write_text("gens: a b\nrel: a b a^-1 b^-1\n")
    monkeypatch.setattr(cli, "bitstream_encode",
                        lambda u, bits, p, seed: [parse_word(p.alphabet, "a^2 b^2 a^-2 b^-2") * u])
    for depth, decoded in (("4", "1"), ("3", "?")):
        calls.clear()
        code, out, _ = run(capsys, ["bits", "--presentation", str(zsq), "--word", "a", "--bits", "1",
                                    "--seed", "1", "--depth", depth])
        assert out.startswith("sent 1: a^2 b^2 a^-2 b^-2 a\n")
        assert (code, f"decoded: {decoded}\n" in out) == (0 if decoded == "1" else 1, True)
        assert calls == [("dehn", None), ("search", True if decoded == "1" else None)]


def test_bits_requires_exactly_one_alphabet_source(capsys, ex_file):
    code, _, err = run(capsys, ["bits", "--word", "x1", "--bits", "1", "--seed", "1"])
    assert code == 2 and err.startswith("error: ")
    code, _, err = run(capsys, ["bits", "--gens", "g1", "--presentation", ex_file,
                                "--word", "g1", "--bits", "1", "--seed", "1"])
    assert code == 2 and err.startswith("error: ")


def test_bits_rejects_non_binary(capsys):
    code, _, err = run(capsys, ["bits", "--gens", "g1", "--word", "g1",
                                "--bits", "10x", "--seed", "1"])
    assert code == 2 and err.startswith("error: ")


# ----------------------------------------------------------------- misc

def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cakelab", "check", "--presentation", "/no/file"],
        env=CHILD_ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_closed_stdout_exits_one_without_traceback(ex_file):
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cakelab", "check", "--presentation", ex_file],
            stdout=write_end, stderr=subprocess.PIPE, env=CHILD_ENV, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["gen", "--levels", "40", "--max-degree", "4", "--seed", "1"],
    ["cake", "run", "--levels", "30", "--seed", "1", "--seed-a", "1", "--seed-b", "2"],
    ["gen", "--levels", "3", "--max-degree", "4", "--label-hi", "1000000000", "--seed", "1"],
])
def test_oversized_trees_are_input_errors(argv):
    # the first two trees would pass the vertex cap and the third one's
    # labels the letter cap; each is refused before it is built
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "cakelab", *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_setup_refuses_shapes_without_moves_before_drawing():
    # max_degree 2 makes each side a path with no sibling pair; drawing and
    # rejecting 1,000 such trees of 10,000 levels took about a minute
    import subprocess
    import sys
    import time

    argv = ["cake", "run", "--levels", "10000", "--max-degree", "2",
            "--seed", "1", "--seed-a", "2", "--seed-b", "3"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cakelab", *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_cake_run_refuses_label_hi_below_4_before_drawing():
    # label_hi 3 leaves no label to draw, and a label draw over an empty
    # range would redraw forever: setup refuses it before the first tree
    import subprocess
    import sys
    import time

    argv = ["cake", "run", "--label-hi", "3", "--seed", "1", "--seed-a", "2", "--seed-b", "3"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cakelab", *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: label_hi must be at least 4\n")


@pytest.mark.parametrize("argv, message", [
    (["cake", "run", "--word-len", "2000000"], "word longer than 1000000 letters"),
])
def test_oversized_words_are_input_errors(tmp_path, argv, message):
    # a public word of 2 million letters is refused before a letter is drawn
    import subprocess
    import sys
    import time

    path = tmp_path / "transcript.txt"
    argv = argv + ["--seed", "0", "--seed-a", "1", "--seed-b", "2", "--transcript", str(path)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cakelab", *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not path.exists()


def test_disguise_refuses_a_budget_past_the_letter_cap(ex_file):
    # 3,000 moves under a 10^9-letter word cap printed nothing in 15 s;
    # each budget is refused before the first move
    import subprocess
    import sys

    for budget in (["--moves", "3000", "--max-len", "1000000000", "--max-conj", "200000"],
                   ["--moves", "3", "--max-conj", "100000000"]):
        proc = subprocess.run([sys.executable, "-m", "cakelab", "disguise", "--presentation", ex_file,
                               "--word", "x1", "--seed", "1", *budget],
                              env=CHILD_ENV, capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: budget lengths must be at most 1000000 letters\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--levels", "3", "--max-degree", "4", "--seed", "11", "--out-tree", "{missing}"],
    ["tietze", "--presentation", "{ex}", "--out", "{missing}"],
    ["tietze", "--presentation", "{ex}", "--out", "{tmp}/h.txt", "--lift", "zz"],
    ["wp", "--presentation", "{ex}", "--word", "x1^2 x2 x3^2 x2^-1", "--depth", "2",
     "--witness", "{missing}"],
    ["cake", "run", "--seed", "0", "--seed-a", "1", "--seed-b", "2", "--transcript", "{missing}"],
    ["disguise", "--presentation", "{ex}", "--word", "x1", "--moves", "-1", "--seed", "1",
     "--length3"],
], ids=["gen-out-tree", "tietze-out", "tietze-lift", "wp-witness", "cake-run-transcript",
        "disguise-length3-moves"])
def test_input_errors_leave_stdout_empty(capsys, ex_file, tmp_path, argv):
    # a bad word or an unwritable path is refused before the first byte of
    # the result, and no file is left behind
    names = {"ex": ex_file, "tmp": str(tmp_path), "missing": str(tmp_path / "no" / "f.txt")}
    code, out, err = run(capsys, [a.format(**names) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [f.name for f in tmp_path.iterdir()] == ["ex.txt"]


@pytest.mark.parametrize("argv, stdout, warning", [
    (["bits", "--presentation", "{surface}", "--word", "a c", "--bits", "00", "--seed", "1"],
     "sent 1: a c b\nsent 2: a c^2\ndecoded: 00\nbits: ok\n",
     "0-bit words are only best-effort distinct once relators exist"),
    (["disguise", "--presentation", "{gens_only}", "--word", "a b", "--moves", "3", "--seed", "1"],
     "disguised: a b\n", "presentation has no relators; nothing to disguise with"),
    (["disguise", "--presentation", "{ex}", "--word", "x1 x2", "--moves", "3", "--seed", "1",
      "--max-len", "0"],
     "disguised: x1 x2\n", "disguise could not produce a textually different word"),
], ids=["bits-zero", "disguise-no-relators", "disguise-max-len-0"])
def test_library_warnings_print_as_one_line(capsys, ex_file, tmp_path, argv, stdout, warning):
    # stderr names no source file or line, so every checkout prints the same
    # bytes; a second run in the same process prints its warning again
    gens_only, surface = tmp_path / "gens.txt", tmp_path / "surface.txt"
    gens_only.write_text("gens: a b\n")
    surface.write_text(SURFACE_TEXT)  # C'(1/6), so Dehn proves each 0-bit different
    argv = [a.format(ex=ex_file, gens_only=gens_only, surface=surface) for a in argv]
    for _ in range(2):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (0, stdout, f"warning: {warning}\n")


def test_removed_sandwich_run_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sandwich-run", "--seed", "3", "--seed-a", "17", "--seed-b", "23"])
    assert exc.value.code == 2
    assert "invalid choice: 'sandwich-run'" in capsys.readouterr().err


def _command_paths(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path}
    return set().union(*(_command_paths(p, path + (name,)) for name, p in subs[0].choices.items()))


def test_readme_command_block_parses_and_covers_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(l)[1:] for l in block.splitlines() if l.startswith("cakelab ")]
    parser = cli.build_parser()
    used = set()
    for argv in lines:
        parser.parse_args(argv)
        used.add(tuple(itertools.takewhile(lambda a: not a.startswith("-"), argv)))
    assert used == _command_paths(parser)


# ---------------------------------------------------------------- golden

# SHA-256 of (exit code, stdout, stderr, written files) for a fixed command
# table, so a refactor that must keep every output byte is checked here.
# Inputs: {ex} the README pair, {surface} the genus-2 surface, {l3} the
# level-3 presentation of `gen --levels 3 --max-degree 4 --seed 11`; {out} is
# an empty directory whose files are hashed by name.
GOLDEN = {
    "gen-L3": ("gen --levels 3 --max-degree 4 --seed 11"
               " --out-tree {out}/tree.txt --out-pres {out}/pres.txt",
               "467515d4e6b0bf29cc145def008bb3c91e8042ae89a84942b0f0bf13525610f9"),
    "gen-L4": ("gen --levels 4 --max-degree 4 --seed 11"
               " --out-tree {out}/tree.txt --out-pres {out}/pres.txt",
               "7c35fbf8cef11887dc697063d23a79722e4ecf2cb347148a2d57fd4e31fd34d4"),
    "check-readme": ("check --presentation {ex}",
                    "ff06449ee42e332e2e9ef5ccf63251c708fba54de46587e0d8a5537772ec85ee"),
    "check-L3": ("check --presentation {l3}",
                "43dcf002289e5bc65e1d49c6bf95526278346864e955a7385165b4f098c0432c"),
    "check-surface": ("check --presentation {surface}",
                     "6b1b9dc8ec51a6dbac767efd3ef7bdea9ab928ec657047e121a8c0a9526a8671"),
    "tietze-lift": ("tietze --presentation {ex} --out {out}/history.txt --lift 't3 t6^-1 x2'",
                    "6e715e181c153f9ab76df8490bfee19b3eac9bfcc65d1e671b85c03688656b1c"),
    "cake-run-L3": ("cake run --levels 3 --max-degree 4 --seed 11 --seed-a 1001 --seed-b 2002"
                    " --transcript {out}/transcript.txt",
                    "d32a5bd3318c48280f3661794262e4f29cd46b6a4e849fb04ad97806f9b5b670"),
    "disguise-witness": ("disguise --presentation {ex} --word 'x1 x2^-1' --moves 6 --seed 3"
                         " --witness",
                         "ab4e7513753da29f9d4b074d9369cfe16c9b18f01aeb6ed1658f59e543fc43d1"),
    "wp-trivial": ("wp --presentation {ex} --word 'x3 x1^2 x2 x3^2 x2^-1 x3^-1' --depth 3"
                   " --witness {out}/witness.txt",
                   "5d4c4ab111c7b125ee18595949d16158a35289ddf343973d3f3c332e4e8deabd"),
    "wp-unknown": ("wp --presentation {ex} --word 'x1 x2' --depth 3 --witness {out}/witness.txt",
                   "9c752c1b75e0a31ee995f1a32698044e65823441f7f202e82f4adeef26eb0ce3"),
    "bits-gens": ("bits --gens 'g1 g2 g3' --word 'g1 g2^-1 g3' --bits 1011001 --seed 7",
                 "be5d241f009d32467b56459215f0cb499e172fef803741e42321f8986ae80c4a"),
    "bits-dehn": ("bits --presentation {surface} --word 'a c' --bits 1011 --seed 3",
                  "f6a265e9d05a1336fe6eae3ceccded0ee0b091e6368b751971e89bbe0914badc"),
    "bits-oracle": ("bits --presentation {ex} --word 'x2 x3' --bits 1001 --seed 16"
                    " --depth 3",
                    "4ee07f01d57377fc5000831bd89fb35f59d5f4ddc63eba7e12cc4a07c428b530"),
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    (d / "ex.txt").write_text(EX_TEXT)
    (d / "surface.txt").write_text(SURFACE_TEXT)
    (d / "l3.txt").write_text(format_presentation(artin_from_graph(random_tree(3, 4, 7, 11).graph)))
    return {name: str(d / f"{name}.txt") for name in ("ex", "surface", "l3")}


@pytest.mark.parametrize("name", GOLDEN)
def test_cli_output_is_pinned(capsys, tmp_path, golden_inputs, name):
    command, digest = GOLDEN[name]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(capsys, [a.format(out=out_dir, **golden_inputs)
                                  for a in shlex.split(command)])
    files = sorted((f.name, f.read_text()) for f in out_dir.iterdir())
    assert hashlib.sha256(repr((code, out, err, files)).encode()).hexdigest() == digest
