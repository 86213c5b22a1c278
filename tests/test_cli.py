"""Command-line surface: output formats, exit codes, determinism."""

import pytest

import cakelab.words
from cakelab import cli
from cakelab.cli import main
from cakelab.presentations import parse_presentation
from cakelab.smallcancel import parse_witness, replay_witness
from cakelab.words import parse_word

EX_TEXT = """\
gens: x1 x2 x3
rel: x1^2 x2 x3^2 x2^-1
rel: x2^2 x3 x1^2 x3^-1
"""


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


def test_sandwich_run_output(capsys):
    code, out, _ = run(capsys, ["sandwich-run", "--seed", "3",
                                "--seed-a", "17", "--seed-b", "23"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gens: a1 a2 b1 b2"
    assert lines[1].startswith("word: ")
    assert lines[2].startswith("msg 1 alice: ")
    assert lines[3].startswith("msg 2 bob: ")
    ka = lines[4].removeprefix("key-a: ")
    kb = lines[5].removeprefix("key-b: ")
    assert ka == kb


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


# ------------------------------------------------------------------ bits

def test_bits_round_trip_free_gens(capsys):
    args = ["bits", "--gens", "g1 g2", "--word", "g1 g2", "--bits", "1011001",
            "--seed", "7"]
    code, out, _ = run(capsys, args)
    assert code == 0
    lines = out.splitlines()
    sent = [l for l in lines if l.startswith("sent ")]
    assert len(sent) == 7
    assert "decoded: 1011001" in lines
    assert lines[-1] == "bits: ok"


@pytest.mark.filterwarnings("ignore:0-bit words")
def test_bits_with_presentation_and_dehn(capsys, tmp_path):
    f = tmp_path / "surf.txt"
    f.write_text("gens: a b c d\nrel: a b a^-1 b^-1 c d c^-1 d^-1\n")
    args = ["bits", "--presentation", str(f), "--word", "a c", "--bits", "101",
            "--seed", "3", "--strategy", "dehn"]
    code, out, _ = run(capsys, args)
    assert code == 0
    assert "decoded: 101" in out.splitlines()


@pytest.mark.filterwarnings("ignore:0-bit words")
def test_bits_oracle_decodes_ones_and_leaves_zeros_unknown(capsys, ex_file):
    args = ["bits", "--presentation", ex_file, "--word", "x2 x3", "--bits", "1001",
            "--seed", "16", "--strategy", "oracle", "--depth", "3"]
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
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
