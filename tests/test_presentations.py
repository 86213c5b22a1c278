"""Presentations, symmetrized closures, Tietze splitting, files."""

import gc
import itertools
import random
import re
import weakref

import pytest

import cakelab.presentations
import cakelab.words

from cakelab.artin import braid_presentation
from cakelab.presentations import (
    Presentation,
    PresentationHistory,
    TietzeStep,
    _rel_line,
    _Replay,
    _start,
    alternating_word,
    format_history,
    format_presentation,
    include_word,
    lift_word,
    parse_history,
    parse_presentation,
    shorten_all,
    symmetrize,
)
from cakelab.words import Alphabet, Records, Word, fields, from_codes, parse_word, random_reduced_word

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
    a = symmetrize(P).ordered
    b = symmetrize(Presentation(X, (R1, R2))).ordered
    assert a == b
    assert list(a) == sorted(a, key=lambda w: (len(w), w.codes))
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
    h = PresentationHistory(P, [TietzeStep("t1", (0, 0), 0)])
    (st,), q = h.steps, h.end
    assert st == ("t1", (0, 0), 0) and st.new_gen == "t1"
    assert q.alphabet.names == ("x1", "x2", "x3", "t1")
    # replaced relator keeps its slot, definition relator appended
    assert str(q.relators[0]) == "t1 x2 x3^2 x2^-1"
    assert q.relators[1] == Word(q.alphabet, tuple(R2))
    assert str(q.relators[-1]) == "t1^-1 x1^2"
    assert st.replaced_relator_index == 0
    assert h.start.relators[0] == R1
    assert st.defined_as == R1.codes[:2] == (0, 0)


def test_tietze_split_requires_length_four():
    tri = Presentation(X, (parse_word(X, "x1 x2 x3"),))
    with pytest.raises(ValueError, match="^relator 'x1 x2 x3' too short to split$"):
        PresentationHistory(tri, [TietzeStep("t1", (0, 2), 0)])
    # a relator split down to length 3 is too short in the new alphabet too
    h = shorten_all(Presentation(X, (parse_word(X, "x1^3 x2"),)))
    with pytest.raises(ValueError, match="^relator 't1 x1 x2' too short to split$"):
        PresentationHistory(h.start, h.steps + (TietzeStep("t2", (6, 0), 0),))


def test_tietze_fresh_names_skip_taken():
    taken = Alphabet(("t1", "x2"))
    h = shorten_all(Presentation(taken, (parse_word(taken, "t1^2 x2^2"),)))
    assert [st.new_gen for st in h.steps] == ["t2"]
    # names already taken are skipped all along the chain, not only at its start
    taken = Alphabet(("t1", "x", "t3"))
    h = shorten_all(Presentation(taken, (parse_word(taken, "x^6"), parse_word(taken, "t3 x t1 x"))))
    assert [st.new_gen for st in h.steps] == ["t2", "t4", "t5", "t6"]
    assert h.end.alphabet.names == ("t1", "x", "t3", "t2", "t4", "t5", "t6")


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
    assert PresentationHistory(h.start, h.steps) == h
    assert PresentationHistory(h.start, list(h.steps)).end == h.end
    assert PresentationHistory(h.start, h.steps[:-1]).end != h.end
    first = h.steps[0]  # t1 = x1 x1 @ 0
    forged = {
        "step for 't1' does not match its presentation": first._replace(defined_as=(0, 2)),
        "relator index 2 out of range": first._replace(replaced_relator_index=2),
        "relator index -1 out of range": first._replace(replaced_relator_index=-1),
        "generator 'x2' already exists": first._replace(new_gen="x2"),
        "illegal character in generator name 't 1'": first._replace(new_gen="t 1"),
        "illegal character in generator name 't@1'": first._replace(new_gen="t@1"),
        # a letter's token, held by the replay's spelling table, is no name
        "illegal character in generator name 'x2^-1'": first._replace(new_gen="x2^-1"),
        "'1' is reserved for the empty word": first._replace(new_gen="1"),
        "generator names must be non-empty": first._replace(new_gen=""),
    }
    for message, step in forged.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PresentationHistory(h.start, (step,) + h.steps[1:])
    # a later step is checked against the presentation the earlier ones made
    with pytest.raises(ValueError, match="^generator 't1' already exists$"):
        PresentationHistory(h.start, h.steps[:2] + (h.steps[2]._replace(new_gen="t1"),))


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


def test_parse_presentation_and_history_check_each_relator_once(monkeypatch):
    # a relator is checked on its line, and the presentation of the file's
    # relators is not checked again; a history's end relators are checked
    # once, when the end is built
    checked = []

    def spy(alphabet, r, relators, _real=cakelab.presentations._add_relator):
        checked.append(r)
        return _real(alphabet, r, relators)

    monkeypatch.setattr(cakelab.presentations, "_add_relator", spy)
    for p in (P, braid_presentation(5)):
        checked.clear()
        assert parse_presentation(format_presentation(p)) == p
        assert checked == list(p.relators)
        h = shorten_all(p)
        checked.clear()
        assert parse_history(format_history(h)) == h
        assert checked == list(p.relators + h.end.relators)


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


def test_parse_history_counts_padded_step_spellings(monkeypatch):
    # a plain step spells its two letters and counts nothing; a padded one
    # counts what it spells beyond them against the file's letter cap
    h = shorten_all(P)
    text = format_history(h)
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 12)  # the relators' letters
    assert parse_history(text) == h
    padded = text.replace("t1 = x1 x1 @", "t1 = x1 x2 x2^-1 x1 @")
    with pytest.raises(ValueError, match=r"^line 4: history longer than 12 letters in total$"):
        parse_history(padded)
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 14)
    assert parse_history(padded) == h


def test_parse_history_refuses_a_padded_chain_at_its_first_long_step():
    # each padded step spells 999,998 letters for its two, so with the
    # relator's 201 the first one passes the cap; parsing all 197 of them
    # would build about 2e8 codes
    lines = format_history(shorten_all(parse_presentation("gens: a b\nrel: a^200 b\n"))).splitlines()
    assert lines[2:4] == ["step: t1 = a a @ 0", "step: t2 = t1 a @ 0"]
    padded = lines[:3] + [f"step: t{k} = t{k - 1} a^499999 a^-499998 @ 0" for k in range(2, 199)]
    with pytest.raises(ValueError, match=r"^line 4: history longer than 1000000 letters in total$"):
        parse_history("\n".join(padded) + "\n")


def test_lift_refuses_an_expansion_past_the_letter_cap(monkeypatch):
    # on a^7 b, t4 stands for a^5; letters are counted as they expand,
    # before free reduction
    h = shorten_all(parse_presentation("gens: a b\nrel: a^7 b\n"))
    end, start = h.end.alphabet, h.start.alphabet
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 10)
    assert lift_word(parse_word(end, "t4^2"), h) == parse_word(start, "a^10")
    for text in ("t4^2 a", "t4^2 a^-1", "t1 t4^2"):
        with pytest.raises(ValueError, match="^word longer than 10 letters$"):
            lift_word(parse_word(end, text), h)


def test_parse_history_replays_each_step_once(monkeypatch):
    # the step handler replays and checks each step on its line, and the end
    # presentation is built once, after the file; the start's relators were
    # checked on their lines, so the start is not checked again; the history
    # it returns is not replayed again, but one built directly is
    h = shorten_all(P)
    text = format_history(h)
    splits, built = [], []
    split, post_init = _Replay.split, Presentation.__post_init__

    def spy_split(self, idx, name):
        splits.append(name)
        return split(self, idx, name)

    def spy_post_init(self):
        built.append(self.alphabet.names)
        post_init(self)

    monkeypatch.setattr(_Replay, "split", spy_split)
    monkeypatch.setattr(Presentation, "__post_init__", spy_post_init)
    assert parse_history(text) == h
    names = [st.new_gen for st in h.steps]
    assert splits == names and len(names) > 1
    assert built == [X.names + tuple(names)]  # the end alone
    splits.clear()
    built.clear()
    assert PresentationHistory(h.start, h.steps).end == h.end
    assert splits == names
    assert built == [X.names + tuple(names)]


def test_parse_history_reads_steps_after_the_presentation():
    text = format_history(shorten_all(P))
    lines = text.splitlines()
    with pytest.raises(ValueError, match=r"^line 5: rel line must follow the gens line and precede"):
        parse_history("\n".join(lines[:4] + [lines[1]] + lines[4:]) + "\n")


# -- the rebuild-per-split design, kept as the reference for the one replay

def split_reference(p, idx, name=None):
    """Split relator idx (length >= 4) by building the whole bigger
    presentation: a new alphabet, every relator re-made over it, the split
    one shortened and the definition appended.  Returns it and the step."""
    if not (0 <= idx < len(p.relators)):
        raise ValueError(f"relator index {idx} out of range")
    r = p.relators[idx]
    if len(r) < 4:
        raise ValueError(f"relator {str(r)!r} too short to split")
    if name is None:
        name = next(f"t{k}" for k in itertools.count(1) if f"t{k}" not in p.alphabet.names)
    if name in p.alphabet.names:
        raise ValueError(f"generator {name!r} already exists")
    bigger = Alphabet(p.alphabet.names + (name,))
    t = 2 * len(p.alphabet.names)
    relators = [from_codes(bigger, old.codes) for old in p.relators]
    relators[idx] = from_codes(bigger, (t,) + r.codes[2:])
    relators.append(from_codes(bigger, (t + 1,) + r.codes[:2]))
    return Presentation(bigger, tuple(relators)), (name, r.codes[:2], idx)


def shorten_reference(p):
    """Split the first over-long relator until none is left: the steps and the end."""
    steps = []
    while (idx := next((i for i, r in enumerate(p.relators) if len(r) > 3), None)) is not None:
        p, step = split_reference(p, idx)
        steps.append(step)
    return steps, p


def history_text_reference(start, steps, end):
    lines = format_presentation(start).splitlines()
    for name, pair, idx in steps:
        letters = " ".join(str(from_codes(end.alphabet, (c,))) for c in pair)
        lines.append(f"step: {name} = {letters} @ {idx}")
    return "\n".join(lines) + "\n"


def lift_table_reference(w, start, steps):
    """Lift through a table of every generator's image."""
    by_code = [(c,) for c in range(2 * len(start))]
    for _, pair, _ in steps:
        image = from_codes(start, [x for c in pair for x in by_code[c]])
        by_code += [image.codes, image.inverse().codes]
    return from_codes(start, [x for c in w.codes for x in by_code[c]])


def parse_history_reference(text):
    """Each step line splits the presentation the lines before it made."""
    rec, relators, steps, made = Records(text), {}, [], []

    def step(rest):
        if not made:
            made.append(_start(rec, relators))
        name, word_text, idx_text = fields(rest, "=", "@")
        name, idx = name.strip(), int(idx_text)
        pair = parse_word(made[-1].alphabet, word_text)
        if len(pair) != 2:
            raise ValueError(f"step definition must have exactly two letters: {rest!r}")
        bigger, st = split_reference(made[-1], idx, name)
        if st[1] != pair.codes:
            raise ValueError(f"step {name!r} does not match relator {idx} of its presentation")
        made.append(bigger)
        steps.append(st)

    rec.read({"gens": None, "rel": _rel_line(rec, relators, steps), "step": step})
    start = made[0] if made else _start(rec, relators)
    return start, steps, made[-1] if made else start


REFERENCE_ALPHABETS = [Alphabet(names) for names in (
    ("a",), ("a", "b"), ("x1", "x2", "x3"), ("t1",), ("t2", "b"), ("a", "t1", "t2"), ("t1", "t3"))]


def random_presentation(rng):
    """1-3 generators, some of them t1 or t2, and 1-4 distinct cyclically
    reduced relators of 1-14 letters."""
    alphabet = rng.choice(REFERENCE_ALPHABETS)
    relators, want = {}, rng.randint(1, 4)
    while len(relators) < want:
        r = random_reduced_word(alphabet, rng.randint(1, 14), rng).cyclic_reduce()[0]
        if r:
            relators[r] = None
    return Presentation(alphabet, tuple(relators))


def outcome(parse, text):
    try:
        start, steps, end = parse(text)
    except ValueError as e:
        return str(e)
    return start, [tuple(st) for st in steps], end


def test_replay_matches_the_rebuild_per_split_reference():
    rng = random.Random(26)
    for _ in range(240):
        p = random_presentation(rng)
        steps, end = shorten_reference(p)
        h = shorten_all(p)
        assert format_history(h) == history_text_reference(p, steps, end), format_presentation(p)
        assert h.end == end and [tuple(st) for st in h.steps] == steps
        assert PresentationHistory(p, h.steps).end == end
        for _ in range(5):
            w = random_reduced_word(end.alphabet, rng.randint(0, 16), rng)
            assert lift_word(w, h) == lift_table_reference(w, p.alphabet, steps), w


def mutations(text, rng):
    """96 mutated copies of a history text: characters of its grammar
    changed, inserted or dropped; lines swapped, repeated or dropped; three
    still valid: the steps cut short, cut short with the last one renamed,
    and a step's two letters respelled; and a step's name, letters or index
    rewritten from what the file holds."""
    chars = " \n:#^=@-0129xabt1"
    lines = text.splitlines()
    steps = [i for i, line in enumerate(lines) if line.startswith("step:")]
    names = lines[0].split()[1:] + [lines[i].split()[1] for i in steps] + ["u1"]

    def joined(parts):
        return "\n".join(parts) + "\n"

    def step_line(i, name=None, pair=None, idx=None):
        old = fields(lines[i].removeprefix("step: "), "=", "@")
        return f"step: {name or old[0].strip()} = {pair or old[1].strip()} @ {old[2].strip() if idx is None else idx}"

    for _ in range(8):
        k = rng.randrange(len(text))
        yield text[:k] + rng.choice(chars) + text[k + 1:]
        yield text[:k] + rng.choice(chars) + text[k:]
        yield text[:k] + text[k + 1:]
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        moved = lines[:]
        moved[i], moved[j] = moved[j], moved[i]
        yield joined(moved)
        yield joined(lines[:i] + [lines[j]] + lines[i:])
        yield joined(lines[:i] + lines[i + 1:])
        i = rng.choice(steps)
        yield joined(lines[:i])
        a, b = lines[i].split()[3:5]
        g = rng.choice(names[:-1])
        yield joined(lines[:i] + [step_line(i, "u1")])
        yield joined(lines[:i] + [step_line(i, pair=f"{a} {g} {g}^-1 {b}")] + lines[i + 1:])
        yield joined(lines[:i] + [step_line(i, name=rng.choice(names))] + lines[i + 1:])
        pair = " ".join(rng.choices(names, k=rng.randint(1, 3)))
        yield joined(lines[:i] + [step_line(i, pair=pair)] + lines[i + 1:])
        yield joined(lines[:i] + [step_line(i, idx=rng.randint(-1, len(lines)))] + lines[i + 1:])


def parse_history_parts(text):
    h = parse_history(text)
    return h.start, h.steps, h.end


def test_parse_history_matches_the_reference_on_mutated_files():
    rng = random.Random(62)
    texts = [format_history(shorten_all(p)) for p in (P, braid_presentation(4))]
    while len(texts) < 15:
        text = format_history(shorten_all(random_presentation(rng)))
        if "step:" in text:
            texts.append(text)
    corpus = [m for text in texts for m in mutations(text, rng)]
    assert len(corpus) == 1440
    errors = 0
    for text in corpus:
        ours = outcome(parse_history_parts, text)
        assert ours == outcome(parse_history_reference, text), text
        errors += isinstance(ours, str)
    assert 200 <= errors <= len(corpus) - 200, errors  # both outcomes are well represented
