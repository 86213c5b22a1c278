"""Fuzzing the six line-record formats and the CLI's presentation input.

Every format round-trips: format, parse, format again gives the same text.
A mutated copy of a valid file makes its parser raise ``ValueError`` and
nothing else, and an error names its line.  ``cakelab check`` and
``cakelab wp --depth 1`` on fuzzed presentation files exit 0, 1 or 2, with
exactly one ``error:`` line on exit 2.  Relators stay at most 8 letters
long, with exponents of at most 3, because ``check`` is quartic in relator
length.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakelab import cli
from cakelab.artin import format_tree, parse_tree, random_tree
from cakelab.cake import Transcript, format_transcript, parse_transcript
from cakelab.diffusion import DisguiseBudget, disguise, format_move_log, parse_move_log
from cakelab.presentations import (
    Presentation,
    format_history,
    format_presentation,
    parse_history,
    parse_presentation,
    shorten_all,
)
from cakelab.smallcancel import WspWitness, format_witness, parse_witness
from cakelab.words import Alphabet, Letter, from_codes, parse_word

X = Alphabet(("x1", "x2", "x3"))
EX = Presentation(
    X,
    (parse_word(X, "x1^2 x2 x3^2 x2^-1"), parse_word(X, "x2^2 x3 x1^2 x3^-1")),
)
START = parse_word(X, "x3 x1 x2^-1")
KEY = "00ff" * 16  # a 32-byte key

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

words = st.lists(
    st.builds(Letter, st.integers(0, 2), st.sampled_from((1, -1))), max_size=8
).map(lambda lts: from_codes(X, [2 * lt.gen + (lt.sign < 0) for lt in lts]))
relators = words.map(lambda w: w.cyclic_reduce()[0]).filter(bool)
presentations = st.lists(relators, max_size=3, unique=True).map(
    lambda rels: Presentation(X, tuple(rels))
)


# ------------------------------------------------------------ round trips

def _transcript_text(messages, digest, key_a, key_b):
    return format_transcript(X, Transcript(tuple(messages), digest), key_a, key_b)


@FUZZ
@given(presentations)
def test_presentation_round_trips(p):
    text = format_presentation(p)
    assert parse_presentation(text) == p
    assert format_presentation(parse_presentation(text)) == text


@FUZZ
@given(presentations)
def test_history_round_trips(p):
    h = shorten_all(p)
    text = format_history(h)
    assert parse_history(text) == h
    assert format_history(parse_history(text)) == text


@FUZZ
@given(st.lists(st.tuples(words, relators, st.sampled_from((1, -1))), max_size=4))
def test_witness_round_trips(factors):
    text = format_witness(WspWitness(tuple(factors)))
    assert parse_witness(text, X).factors == tuple(factors)
    assert format_witness(parse_witness(text, X)) == text


@FUZZ
@given(words, st.integers(0, 4), st.integers(0, 2**32))
def test_move_log_round_trips(w, moves, seed):
    _, log = disguise(w, EX, DisguiseBudget(moves, 2, 48), seed)
    text = format_move_log(log)
    assert parse_move_log(text, EX, w) == log
    assert format_move_log(parse_move_log(text, EX, w)) == text


@FUZZ
@given(st.integers(2, 4), st.integers(2, 4), st.integers(4, 7), st.integers(0, 2**32))
def test_tree_round_trips(levels, max_degree, label_hi, seed):
    t = random_tree(levels, max_degree, label_hi, seed)
    text = format_tree(t)
    assert parse_tree(text) == t
    assert format_tree(parse_tree(text)) == text


@FUZZ
@given(
    st.lists(st.tuples(st.sampled_from(("A", "B")), words), max_size=4),
    st.binary(min_size=1, max_size=32),
    st.binary(min_size=32, max_size=32).map(bytes.hex),
    st.binary(min_size=32, max_size=32).map(bytes.hex),
)
def test_transcript_round_trips(messages, digest, key_a, key_b):
    text = _transcript_text(messages, digest, key_a, key_b)
    alphabet, transcript, hex_a, hex_b = parse_transcript(text)
    assert (alphabet, transcript.messages, transcript.config_digest) == (X, tuple(messages), digest)
    assert format_transcript(alphabet, transcript, hex_a, hex_b) == text


@pytest.mark.parametrize("key", ["key-a", "key-b"])
@pytest.mark.parametrize("body, error", [
    ("t 00ff", "non-hexadecimal"),
    ("00ff", "2 bytes, not 32"),
    ("00" * 33, "33 bytes, not 32"),
    ("", "0 bytes, not 32"),
], ids=["text", "short", "long", "empty"])
def test_transcript_keys_are_32_bytes_of_hex(key, body, error):
    text = _transcript_text([("A", START)], b"\x01", KEY, KEY).replace(f"{key}: {KEY}", f"{key}:{body}")
    with pytest.raises(ValueError, match=f"^{key} line: {error}"):
        parse_transcript(text)


def test_transcript_keys_are_read_as_bytes():
    text = _transcript_text([("A", START)], b"\x01", "AB" * 32, KEY).replace("key-b: ", "#")
    assert parse_transcript(text)[2:] == ("ab" * 32, None)


# ---------------------------------------------------------- mutated files

SAMPLES = {
    "presentation": (format_presentation(EX), parse_presentation),
    "history": (format_history(shorten_all(EX)), parse_history),
    "witness": (
        format_witness(WspWitness(((START, EX.relators[0], 1), (parse_word(X, "1"), EX.relators[1], -1)))),
        lambda text: parse_witness(text, X),
    ),
    "move-log": (
        format_move_log(disguise(START, EX, DisguiseBudget(4), seed=3)[1]),
        lambda text: parse_move_log(text, EX, START),
    ),
    "tree": (format_tree(random_tree(3, 3, 6, seed=2)), parse_tree),
    "transcript": (
        _transcript_text([("A", START), ("B", EX.relators[0])], b"\x01\xab", KEY, KEY),
        parse_transcript,
    ),
}

# characters of the grammar and the record syntax, plus a few that are neither
CHARS = " \n:#^=@-0129xabt1AB"


@st.composite
def mutated(draw, text):
    for _ in range(draw(st.integers(1, 4))):
        lines = text.split("\n")
        op = draw(st.sampled_from(("insert", "delete", "drop-line", "copy-line", "swap-lines")))
        if op in ("insert", "delete"):
            i = draw(st.integers(0, len(text)))
            if op == "insert":
                text = text[:i] + draw(st.sampled_from(CHARS)) + text[i:]
            else:
                text = text[:i] + text[i + 1 :]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if op == "drop-line":
            del lines[i]
        elif op == "copy-line":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
    return text


@pytest.mark.parametrize("name", sorted(SAMPLES))
@FUZZ
@given(data=st.data())
def test_mutated_files_raise_only_value_error(name, data):
    text, parse = SAMPLES[name]
    parse(text)
    try:
        parse(data.draw(mutated(text)))
    except ValueError:
        pass


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_error_names_its_line(name):
    text, parse = SAMPLES[name]
    lines = text.splitlines()
    with pytest.raises(ValueError, match=r"^line 3: "):
        parse("\n".join(lines[:2] + ["wat: 1"] + lines[2:]) + "\n")


ONCE_ONLY = [("presentation", "gens"), ("history", "gens"), ("transcript", "gens"), ("tree", "root"),
             ("transcript", "config"), ("transcript", "key-a"), ("transcript", "key-b")]


@pytest.mark.parametrize("name, key", ONCE_ONLY)
def test_once_only_key_repeated_fails_on_its_line(name, key):
    text, parse = SAMPLES[name]
    lines = text.splitlines()
    copy = next(line for line in lines if line.startswith(key + ":"))
    with pytest.raises(ValueError, match=rf"^line {len(lines) + 1}: duplicate {key} line$"):
        parse(text + copy + "\n")


def test_bad_relator_on_line_3_names_line_3():
    text = "# header\ngens: x1 x2 x3\nrel: x1^2 x2 x3^0\n"
    with pytest.raises(ValueError, match=r"^line 3: zero exponent in token 'x3\^0'$"):
        parse_presentation(text)


# --------------------------------------------------------- CLI on fuzz

NAMES = ("a", "b", "c")
tokens = st.tuples(st.sampled_from(NAMES + ("z", "1")), st.integers(-3, 3)).map(
    lambda t: (t[0] if t[1] == 1 else f"{t[0]}^{t[1]}", abs(t[1]))
)


def _up_to_8_letters(toks):
    out, total = [], 0
    for text, k in toks:
        if total + k > 8:
            break
        out.append(text)
        total += k
    return " ".join(out)


word_texts = st.lists(tokens, max_size=8).map(_up_to_8_letters)
gens_lines = st.one_of(
    st.just("gens: a b c"),
    st.lists(st.sampled_from(NAMES + ("a^", "1", "#")), max_size=4).map(lambda ns: "gens: " + " ".join(ns)),
)
other_lines = st.one_of(
    word_texts.map(lambda w: "rel: " + w),
    st.sampled_from(("", "# note", "wat: a", "rel a b", "gens: a b c", ": a")),
)
presentation_files = st.tuples(gens_lines, st.lists(other_lines, max_size=4)).map(
    lambda t: "\n".join((t[0], *t[1])) + "\n"
)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(presentation_files, word_texts)
def test_cli_on_fuzzed_presentations(tmp_path_factory, text, word):
    path = tmp_path_factory.mktemp("fuzz") / "p.txt"
    path.write_text(text)
    for argv in (
        ["check", "--presentation", str(path)],
        ["wp", "--presentation", str(path), "--word", word, "--depth", "1"],
    ):
        code, err = _run_cli(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
