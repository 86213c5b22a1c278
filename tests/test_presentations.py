"""Presentations, symmetrized closures, Tietze splitting, files."""

import gc
import random
import weakref

import pytest

import cakelab.presentations
import cakelab.words

from cakelab.artin import braid_presentation
from cakelab.presentations import (
    Presentation,
    PresentationHistory,
    alternating_word,
    format_history,
    format_presentation,
    include_word,
    lift_word,
    parse_history,
    parse_presentation,
    shorten_all,
    symmetrize,
    tietze_split,
)
from cakelab.words import Alphabet, Word, parse_word, random_reduced_word

X = Alphabet(("x1", "x2", "x3"))
R1 = parse_word(X, "x1^2 x2 x3^2 x2^-1")
R2 = parse_word(X, "x2^2 x3 x1^2 x3^-1")
P = Presentation(X, (R1, R2))


def closure_oracle(relators):
    """Independent closure: all cyclic rotations of each relator and its inverse."""
    out = set()
    for r in relators:
        for base in (r, ~r):
            ls = tuple(base)
            for k in range(len(ls)):
                out.add(ls[k:] + ls[:k])
    return out


def test_large_presentation_builds_in_linear_time():
    # 20,001 generators and 20,000 relators: hashing every generator name
    # for every word hash would make the duplicate-relator check about
    # 4 * 10^8 steps
    names = tuple(f"a{i + 1}" for i in range(20_001))
    alphabet = Alphabet(names)
    relators = tuple(alternating_word(alphabet, i, i + 1, 4) * ~alternating_word(alphabet, i + 1, i, 4)
                     for i in range(20_000))
    p = Presentation(alphabet, relators)
    assert len(set(p.relators)) == 20_000
    copy = Alphabet(names)
    assert copy == alphabet and hash(copy) == hash(alphabet) and copy is not alphabet
    assert Word(copy, relators[0]) == relators[0]
    assert alphabet != Alphabet(names[:-1]) and alphabet != names
    with pytest.raises(ValueError, match="^duplicate relator"):
        Presentation(alphabet, relators + relators[-1:])


def test_symmetrize_matches_rotation_oracle():
    s = symmetrize(P)
    assert {tuple(w) for w in s.elements} == closure_oracle(P.relators)
    assert len(s) == 24


def test_symmetrize_closed_under_inverse_and_rotation():
    s = symmetrize(P)
    for w in s.elements:
        assert ~w in s
        rot = Word(X, tuple(w)[1:] + tuple(w)[:1])
        assert rot in s


def test_symmetrize_ordered_is_deterministic():
    from cakelab.words import word_sort_key

    a = symmetrize(P).ordered
    b = symmetrize(Presentation(X, (R1, R2))).ordered
    assert a == b
    assert list(a) == sorted(a, key=word_sort_key)
    assert set(a) == symmetrize(P).elements


def test_symmetrize_is_held_by_its_presentation_only():
    p = Presentation(X, (R1, R2))
    s = symmetrize(p)
    assert symmetrize(p) is s  # compiled once per presentation
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None  # no global cache keeps the presentation alive
    assert len(s) == 24


def test_presentation_rejects_bad_relators():
    with pytest.raises(ValueError):
        Presentation(X, (Word(X, ()),))
    with pytest.raises(ValueError):
        Presentation(X, (parse_word(X, "x1 x2 x1^-1"),))  # not cyclically reduced
    with pytest.raises(ValueError):
        Presentation(X, (R1, R1))


def test_tietze_split_shape():
    q, st = tietze_split(P, 0)
    assert st.new_gen == "t1"
    assert q.alphabet.names == ("x1", "x2", "x3", "t1")
    # replaced relator keeps its slot, definition relator appended
    assert str(q.relators[0]) == "t1 x2 x3^2 x2^-1"
    assert str(q.relators[-1]) == "t1^-1 x1^2"
    assert st.replaced_relator_index == 0
    assert st.old_relator == R1
    assert st.defined_as == R1.codes[:2] == (0, 0)


def test_tietze_split_requires_length_four():
    tri = Presentation(X, (parse_word(X, "x1 x2 x3"),))
    with pytest.raises(ValueError):
        tietze_split(tri, 0)


def test_tietze_fresh_names_skip_taken():
    taken = Alphabet(("t1", "x2"))
    p = Presentation(taken, (parse_word(taken, "t1^2 x2^2"),))
    q, st = tietze_split(p, 0)
    assert st.new_gen == "t2"


def shorten_oracle_steps(p):
    return sum(max(0, len(r) - 3) for r in p.relators)


@pytest.mark.parametrize(
    "pres,expected",
    [
        (P, 6),
        (braid_presentation(3), 3),
        (braid_presentation(4), 7),
        (braid_presentation(6), 18),
    ],
)
def test_shorten_all_step_count(pres, expected):
    assert shorten_oracle_steps(pres) == expected
    h = shorten_all(pres)
    assert len(h.steps) == expected
    assert all(len(r) <= 3 for r in h.end.relators)


def test_shorten_all_on_short_presentation_is_identity():
    tri = Presentation(X, (parse_word(X, "x1 x2 x3"),))
    h = shorten_all(tri)
    assert h.steps == ()
    assert h.end == tri


def test_lift_undoes_include():
    h = shorten_all(P)
    for text in ("x1 x2^-1 x3", "x1^2 x2 x3^2 x2^-1", "1"):
        w = parse_word(X, text)
        assert lift_word(include_word(w, h), h) == w


def lift_reference(w, h):
    """Substitution by Words: each new generator's image is the product of
    its two defining letters' images, and a word's is the product of its
    letters' images."""
    start = h.start.alphabet
    images = [Word(start, ((g, 1),)) for g in range(len(start))]
    for st in h.steps:
        a, b = ((c >> 1, -1 if c & 1 else 1) for c in st.defined_as)
        images.append(images[a[0]] ** a[1] * images[b[0]] ** b[1])
    out = Word(start)
    for lt in w:
        out = out * images[lt.gen] ** lt.sign
    return out


def test_lift_word_matches_substitution():
    rng = random.Random(21)
    for p in (P, parse_presentation("gens: a b\nrel: a^3 b^-2 a^-1 b^4\nrel: b a b^2 a^-2\n")):
        h = shorten_all(p)
        assert len(h.steps) > 3
        for _ in range(50):
            w = random_reduced_word(h.end.alphabet, rng.randint(0, 12), rng)
            assert lift_word(w, h) == lift_reference(w, h), w


def test_lift_of_definition_relators_is_trivial_or_original():
    h = shorten_all(P)
    lifted = [lift_word(r, h) for r in h.end.relators]
    # the two rewritten relators lift back to the originals
    assert lifted[0] == R1
    assert lifted[1] == R2
    # every appended definition relator lifts to the empty word
    assert all(len(w) == 0 for w in lifted[2:])


def test_history_replay_is_validated():
    h = shorten_all(P)
    with pytest.raises(ValueError):
        PresentationHistory(h.start, h.steps[:-1], h.end)


def test_alternating_word_shape():
    w = alternating_word(X, 0, 1, 5)
    assert str(w) == "x1 x2 x1 x2 x1"
    w = alternating_word(X, 2, 0, 4)
    assert str(w) == "x3 x1 x3 x1"
    for i, j in ((0, 3), (3, 0), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            alternating_word(X, i, j, 1)


def test_braid_presentation_structure():
    p = braid_presentation(4)
    assert p.alphabet.names == ("s1", "s2", "s3")
    lens = sorted(len(r) for r in p.relators)
    assert lens == [4, 6, 6]
    for r in p.relators:
        assert r.is_cyclically_reduced
    assert braid_presentation(2).relators == ()


def braid_reference(n):
    """The braid presentation built pair by pair from alternating words."""
    alphabet = Alphabet(tuple(f"s{i}" for i in range(1, n)))
    pairs = [(i, j, 3 if j - i == 1 else 2) for i in range(n - 1) for j in range(i + 1, n - 1)]
    return Presentation(alphabet, tuple(
        alternating_word(alphabet, i, j, m) * ~alternating_word(alphabet, j, i, m)
        for i, j, m in pairs))


def test_braid_presentation_is_the_artin_group_of_its_pair_graph():
    for n in range(2, 12):
        p = braid_presentation(n)
        assert p == braid_reference(n), n
        assert format_presentation(p) == format_presentation(braid_reference(n))
    with pytest.raises(ValueError, match="at least 2 strands"):
        braid_presentation(1)


def test_presentation_file_round_trip():
    text = format_presentation(P)
    assert parse_presentation(text) == P
    # comments and blank lines are ignored
    noisy = "# header\n\n" + text.replace("\n", "  # trailing\n", 1)
    assert parse_presentation(noisy) == P


def test_parse_presentation_rejects_malformed():
    with pytest.raises(ValueError):
        parse_presentation("rel: x1 x2\n")  # relator before gens
    with pytest.raises(ValueError):
        parse_presentation("gens: x1\nwat: x1\n")


def test_parse_presentation_errors_name_their_line():
    with pytest.raises(ValueError, match=r"^line 3: unknown generator 'x9'"):
        parse_presentation("gens: x1 x2\n# comment\nrel: x1 x9\n")
    with pytest.raises(ValueError, match=r"^line 2: unexpected line 'wat: x1'"):
        parse_presentation("gens: x1\nwat: x1\n")
    # relator checks run on the relator's own line, not after the file
    with pytest.raises(ValueError, match=r"^line 2: empty relator"):
        parse_presentation("gens: x1 x2\nrel: x1 x2 x2^-1 x1^-1\n")
    with pytest.raises(ValueError, match=r"^line 3: duplicate relator 'x1 x2'"):
        parse_presentation("gens: x1 x2\nrel: x1 x2\nrel: x1 x2\n")
    with pytest.raises(ValueError, match=r"^line 2: relator 'x1 x2 x1\^-1' is not cyclically"):
        parse_presentation("gens: x1 x2\nrel: x1 x2 x1^-1\n")


def test_parse_presentation_caps_letters_in_total(monkeypatch):
    # each relator is under the cap; together they pass it on line 3
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 5)
    assert len(parse_presentation("gens: a b\nrel: a^2 b\nrel: a b\n").relators) == 2
    with pytest.raises(ValueError, match=r"^line 3: .*5 letters in total"):
        parse_presentation("gens: a b\nrel: a^3 b\nrel: a b\n")
    with pytest.raises(ValueError, match=r"^line 3: .*5 letters in total"):
        parse_history("gens: a b\nrel: a^3 b\nrel: a b\n")


def test_symmetrize_caps_letters_before_building(monkeypatch):
    # P's relators give 2 * (6^2 + 6^2) = 144 letters of symmetrized set
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 144)
    assert len(symmetrize(Presentation(X, (R1, R2)))) == 24
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 143)
    with pytest.raises(ValueError, match="symmetrized set longer than 143 letters"):
        symmetrize(Presentation(X, (R1, R2)))


def test_history_file_round_trip():
    h = shorten_all(P)
    text = format_history(h)
    back = parse_history(text)
    assert back == h
    assert format_history(back) == text


def test_history_step_lines_use_letter_pairs():
    h = shorten_all(P)
    line = format_history(h).splitlines()[3]  # gens + two relators, then steps
    assert line == "step: t1 = x1 x1 @ 0"


def test_parse_history_rejects_mismatched_definition():
    h = shorten_all(P)
    text = format_history(h).replace("t1 = x1 x1", "t1 = x1 x2")
    with pytest.raises(ValueError, match=r"^line 4: step 't1' does not match"):
        parse_history(text)


def test_parse_history_replays_each_step_once(monkeypatch):
    # the step handler replays and checks each step on its line; the history
    # it returns is not replayed again, but one built directly still is
    h = shorten_all(P)
    text = format_history(h)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return tietze_split(*args, **kwargs)

    monkeypatch.setattr(cakelab.presentations, "tietze_split", spy)
    assert parse_history(text) == h
    assert len(calls) == len(h.steps) > 1
    calls.clear()
    PresentationHistory(h.start, h.steps, h.end)
    assert len(calls) == len(h.steps)


def test_parse_history_reads_steps_after_the_presentation():
    text = format_history(shorten_all(P))
    lines = text.splitlines()
    with pytest.raises(ValueError, match=r"^line 5: rel line must follow the gens line and precede"):
        parse_history("\n".join(lines[:4] + [lines[1]] + lines[4:]) + "\n")
