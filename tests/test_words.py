"""Free-word layer: reduction, algebra, text grammar."""

import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cakelab.words
from cakelab.presentations import Presentation, symmetrize
from cakelab.words import (
    Alphabet,
    Letter,
    Word,
    concat,
    from_codes,
    parse_word,
    random_reduced_word,
    splice,
)

ABC = Alphabet(("a", "b", "c"))


def naive_reduce(letters):
    """Independent oracle: repeatedly delete adjacent inverse pairs until stable."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1].inverse():
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


letters_st = st.lists(
    st.builds(Letter, st.integers(0, 2), st.sampled_from((1, -1))), max_size=24
)


def reduce_raw(raw):
    """The Word a raw Letter sequence freely reduces to, through its codes."""
    return from_codes(ABC, [2 * lt.gen + (lt.sign < 0) for lt in raw])


@given(letters_st)
def test_free_reduce_matches_naive(raw):
    w = reduce_raw(raw)
    assert tuple(w) == naive_reduce(raw)
    assert Word(ABC, naive_reduce(raw)) == w


@given(letters_st, letters_st)
def test_concat_is_reduce_of_concatenation(xs, ys):
    a = reduce_raw(xs)
    b = reduce_raw(ys)
    assert tuple(concat(a, b)) == naive_reduce(tuple(a) + tuple(b))


@given(letters_st)
def test_inverse_cancels(raw):
    w = reduce_raw(raw)
    assert len(w * ~w) == 0
    assert len(~w * w) == 0
    assert ~~w == w


@given(letters_st)
def test_text_round_trip(raw):
    w = reduce_raw(raw)
    assert parse_word(ABC, str(w)) == w


@given(letters_st, st.integers(-3, 3))
def test_power(raw, k):
    w = reduce_raw(raw)
    expect = Word(ABC, ())
    base = w if k >= 0 else ~w
    for _ in range(abs(k)):
        expect = expect * base
    assert w ** k == expect


@given(letters_st)
def test_cyclic_reduce_conjugacy(raw):
    w = reduce_raw(raw)
    core, conj = w.cyclic_reduce()
    assert core.is_cyclically_reduced
    assert conj * core * ~conj == w


@given(letters_st)
def test_slices_are_words(raw):
    w = reduce_raw(raw)
    for i in range(len(w) + 1):
        for j in range(i, len(w) + 1):
            piece = w[i:j]
            assert isinstance(piece, Word)
            # any contiguous run of a reduced word is reduced
            assert Word(ABC, piece) == piece


@given(letters_st, letters_st, st.integers(0, 24), st.integers(0, 24))
def test_unchecked_builds_pass_the_public_check(xs, ys, i, j):
    # arithmetic builds its results without the check; each must pass it
    a, b = reduce_raw(xs), reduce_raw(ys)
    core, conj = a.cyclic_reduce()
    rotations = symmetrize(Presentation(ABC, (core,) if core else ())).ordered
    pos = min(i, len(a))
    spliced = cakelab.words._word(ABC, splice(a.codes, pos, b.codes, min(pos + j, len(a))))
    built = [a[i:j], a.inverse(), concat(a, b), core, conj, *rotations, spliced]
    for w in built:
        assert Word(w.alphabet, w) == w
        assert all(type(lt) is Letter for lt in w)


def test_word_validation_rejects_unreduced():
    with pytest.raises(ValueError, match="not freely reduced"):
        Word(ABC, (Letter(0, 1), Letter(0, -1)))
    # a plain tuple spelling is checked and rebuilt as Letters
    w = Word(ABC, ((0, 1), (1, -1)))
    assert w == parse_word(ABC, "a b^-1")
    assert all(type(lt) is Letter for lt in w)
    with pytest.raises(ValueError, match="not freely reduced"):
        Word(ABC, ((0, 1), (0, -1)))


def test_word_validation_rejects_foreign_letters():
    with pytest.raises(ValueError, match="out of range"):
        Word(ABC, (Letter(7, 1),))
    with pytest.raises(ValueError, match="sign must be"):
        Word(ABC, (Letter(0, 2),))
    # every letter is checked before the reduction is
    with pytest.raises(ValueError, match="out of range"):
        Word(ABC, (Letter(0, 1), Letter(0, -1), Letter(7, 1)))


def test_alphabet_name_rules():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("1",))
    for bad in ("x y", "x^", "x=", "x@", "x:", "x#"):
        with pytest.raises(ValueError):
            Alphabet((bad,))


def alphabet_error_reference(name):
    """The name rule as it read each character: None, or the refusal."""
    if not name:
        return "generator names must be non-empty"
    if name == "1":
        return "'1' is reserved for the empty word"
    if any(ch.isspace() or ch in "^=@:#" for ch in name):
        return f"illegal character in generator name {name!r}"
    return None


def test_alphabet_name_check_matches_the_per_character_rule():
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    checked = 0
    for c in [*range(0x3100), *spaces]:
        ch = chr(c)
        for name in (ch, f"x{ch}", f"{ch}y", f"x{ch}y", ch * 2):
            try:
                Alphabet((name,))
                got = None
            except ValueError as e:
                got = str(e)
            assert got == alphabet_error_reference(name), (hex(c), name)
            checked += 1
    assert checked > 60000


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word(ABC, "z")
    with pytest.raises(ValueError):
        parse_word(ABC, "a^0")
    with pytest.raises(ValueError):
        parse_word(ABC, "a^x")


def test_parse_caps_word_length_before_allocating():
    # 10^20 letters could never be built: the cap must refuse it first
    with pytest.raises(ValueError, match="letters"):
        parse_word(ABC, "a^100000000000000000000")


def test_parse_cap_counts_letters_across_tokens(monkeypatch):
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 5)
    assert len(parse_word(ABC, "a^3 b^-2")) == 5
    with pytest.raises(ValueError, match="letters"):
        parse_word(ABC, "a^3 b^-3")


def test_module_doctests():
    assert doctest.testmod(cakelab.words) == (0, 10)


def test_empty_word_prints_and_parses_as_one():
    e = Word(ABC, ())
    assert str(e) == "1"
    assert parse_word(ABC, "1") == e
    assert parse_word(ABC, "  1  ") == e


def test_run_length_format():
    w = parse_word(ABC, "a a a b^-1 b^-1 c")
    assert str(w) == "a^3 b^-2 c"


def test_parse_applies_free_reduction():
    assert parse_word(ABC, "a b b^-1 a^-1") == Word(ABC, ())


def test_sort_key_orders_by_length_then_letters():
    ws = [parse_word(ABC, t) for t in ("b", "a^-1", "a", "a b", "c", "a^2")]
    got = sorted(ws, key=lambda w: (len(w), w.codes))
    assert [str(w) for w in got] == ["a", "a^-1", "b", "c", "a^2", "a b"]


def test_random_reduced_word_properties():
    rng = random.Random(5)
    for length in (0, 1, 5, 40):
        w = random_reduced_word(ABC, length, rng)
        assert len(w) == length


def test_random_reduced_word_caps_length_before_drawing(monkeypatch):
    monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", 5)
    assert len(random_reduced_word(ABC, 5, random.Random(1))) == 5

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew with {name} before refusing")

    for length in (6, 10**20):
        with pytest.raises(ValueError, match="^word longer than 5 letters$"):
            random_reduced_word(ABC, length, NoDraws())


@pytest.mark.parametrize("seed", [0, 3, 2**48 - 1])
def test_random_reduced_word_draws_as_randrange_and_choice_do(seed):
    # each letter is the generator randrange(n) draws and the sign
    # choice((1, -1)) draws, from the same stream; n = 1..70 crosses the
    # powers of two where the redraw loop changes
    def reference(alphabet, length, rng):
        n, codes = len(alphabet.names), []
        while len(codes) < length:
            c = 2 * rng.randrange(n) + (rng.choice((1, -1)) < 0)
            if not (codes and codes[-1] == c ^ 1):
                codes.append(c)
        return cakelab.words.from_codes(alphabet, codes)

    for n in range(1, 71):
        alphabet = Alphabet(tuple(f"g{i}" for i in range(n)))
        for length in (0, 1, 7, 40):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert random_reduced_word(alphabet, length, ours) == reference(alphabet, length, theirs), \
                (n, length)
            assert ours.getstate() == theirs.getstate(), (n, length)


def test_random_reduced_word_deterministic():
    a = random_reduced_word(ABC, 12, random.Random(9))
    b = random_reduced_word(ABC, 12, random.Random(9))
    assert a == b


@settings(max_examples=40)
@given(letters_st, letters_st, letters_st)
def test_concat_associative(xs, ys, zs):
    a, b, c = (reduce_raw(t) for t in (xs, ys, zs))
    assert (a * b) * c == a * (b * c)


# -- the grammar through the spelling table -----------------------------------

def spelled_reference(alphabet, text):
    """The parser before the spelling table: every token cut at ``^`` and
    its exponent read by ``int``, which also takes ``_`` and non-ASCII digits.
    Leading zeros are dropped first, and more than 7 digits are more letters
    than the cap allows, since ``int`` reads no more than 4,300."""
    index, codes = {name: g for g, name in enumerate(alphabet.names)}, []
    for token in text.split():
        if token == "1":
            continue
        name, caret, power = token.partition("^")
        if caret:
            sign = power[:1] if power[:1] in ("+", "-") else ""
            digits = power[len(sign):].lstrip("0") or power[-1:]
            try:
                k = int(sign + digits) if len(digits) <= 7 else cakelab.words.MAX_WORD_LETTERS + 1
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
            if k == 0:
                raise ValueError(f"zero exponent in token {token!r}")
        else:
            k = 1
        try:
            gen = index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None
        if len(codes) + abs(k) > cakelab.words.MAX_WORD_LETTERS:
            raise ValueError(f"word longer than {cakelab.words.MAX_WORD_LETTERS} letters")
        codes.extend([2 * gen + (k < 0)] * abs(k))
    return codes


def outcome(spell, *args):
    try:
        return "ok", spell(*args)
    except ValueError as e:
        return "error", str(e)


# names that share prefixes, so a token cut at the wrong place names another
PREFIXED = Alphabet(("a", "a1", "a10", "b"))

# every token form: plain, ^-1, ^k, ^+k, ^0, leading zeros, unknown names,
# the empty word, and exponents the grammar refuses
TOKEN_FORMS = [
    "{n}", "{n}^-1", "{n}^{k}", "{n}^-{k}", "{n}^+{k}", "{n}^0", "{n}^-0", "{n}^+0",
    "{n}^00{k}", "{n}^-0{k}", "{n}^{big}", "a100", "a1^-1x", "z", "z^2", "^2", "1",
    "{n}^", "{n}^x", "{n}^--1", "{n}^+-1", "{n}^2^3", "{n}^ 2", "{n}^1.0",
]


def test_parser_matches_the_reference_on_every_token_form(monkeypatch):
    rng = random.Random(35)
    checked = {"ok": 0, "error": 0}
    for cap in (1_000_000, 12, 3):
        monkeypatch.setattr(cakelab.words, "MAX_WORD_LETTERS", cap)
        for _ in range(3000):
            forms = TOKEN_FORMS[:2] if rng.getrandbits(1) else TOKEN_FORMS  # every token found, or not
            text = " ".join(
                rng.choice(forms).format(n=rng.choice(PREFIXED.names), k=rng.randint(1, 5),
                                               big=rng.choice(("1000000", "1" + "0" * 20, "9" * 5000)))
                for _ in range(rng.randint(0, 6)))
            got = outcome(cakelab.words._spelled, PREFIXED.tokens, text)
            assert got == outcome(spelled_reference, PREFIXED, text), text
            checked[got[0]] += 1
    assert min(checked.values()) > 1000


@pytest.mark.parametrize("token", ["a^1_0", "a^٣", "a^-٣", "a^+1_0", "a^３"])
def test_an_exponent_is_a_sign_and_ascii_digits(capsys, token):
    # int() reads a^1_0 as a^10 and a^<Arabic-Indic three> as a^3; the grammar refuses both
    assert outcome(spelled_reference, ABC, token)[0] == "ok"
    with pytest.raises(ValueError) as e:
        parse_word(ABC, f"b {token} c")
    assert str(e.value) == f"bad exponent in token {token!r}"
    from cakelab.cli import main
    assert main(["bits", "--gens", "a b c", "--word", token, "--bits", "1", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: bad exponent in token {token!r}\n")


def test_an_exponent_of_any_length_is_read_by_its_significant_digits():
    # int() refuses more than 4,300 digits; leading zeros spell nothing, and
    # more significant digits than the cap has are more letters than it allows
    assert parse_word(ABC, "a^" + "0" * 5000 + "1 b^-" + "0" * 5000 + "2") == parse_word(ABC, "a b^-2")
    for power in ("9" * 5000, "-" + "9" * 5000, "1" + "0" * 7, "0" * 5000 + "1000001"):
        with pytest.raises(ValueError, match=r"^word longer than 1000000 letters$"):
            parse_word(ABC, f"a^{power}")
    with pytest.raises(ValueError, match="^zero exponent"):
        parse_word(ABC, "a^-" + "0" * 5000)


def runs_word(alphabet, rng):
    """A reduced word of 0-6 runs, each a letter 1-4 times."""
    codes = []
    for _ in range(rng.randint(0, 6)):
        c = rng.randrange(2 * len(alphabet))
        codes += [c] * rng.randint(1, 4)
    return from_codes(alphabet, codes)


@pytest.mark.parametrize("names", [("a", "a1", "a10"), ("x", "xx", "x_1", "X")])
def test_text_round_trip_over_prefixed_names(names):
    alphabet, rng = Alphabet(names), random.Random(len(names))
    for _ in range(500):
        w = runs_word(alphabet, rng)
        assert parse_word(alphabet, str(w)) == w, str(w)
    assert [str(from_codes(alphabet, (c,))) for c in range(2 * len(names))] == list(alphabet.spellings)
    assert {t: c for c, t in enumerate(alphabet.spellings)} == alphabet.tokens


def test_history_steps_spell_letters_as_one_letter_words():
    from cakelab.presentations import format_history, parse_history, shorten_all
    alphabet, rng = Alphabet(("a", "a1", "a10")), random.Random(36)
    for _ in range(40):
        relators = {}
        while len(relators) < 2:
            r = runs_word(alphabet, rng)
            if len(r) > 3 and r.is_cyclically_reduced:
                relators[r] = None
        h = shorten_all(Presentation(alphabet, tuple(relators)))
        text = format_history(h)
        end = h.end.alphabet
        steps = [line for line in text.splitlines() if line.startswith("step:")]
        assert steps == [f"step: {st.new_gen} = {from_codes(end, st.defined_as[:1])}"
                         f" {from_codes(end, st.defined_as[1:])} @ {st.replaced_relator_index}"
                         for st in h.steps]
        assert parse_history(text) == h


def test_power_repeats_codes_and_reduces_only_at_the_seams():
    rng = random.Random(37)
    plain = 0
    for _ in range(2000):
        core = random_reduced_word(ABC, rng.randint(0, 6), rng)
        conj = random_reduced_word(ABC, rng.randint(0, 3), rng)
        w = conj * core * conj.inverse()  # cyclically reduced or not
        plain += w.is_cyclically_reduced
        for k in range(-3, 4):
            base = w if k >= 0 else w.inverse()
            assert w ** k == from_codes(ABC, base.codes * abs(k)), (str(w), k)
    assert 200 < plain < 1800
