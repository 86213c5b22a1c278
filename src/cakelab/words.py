"""Freely reduced words over a named generator alphabet.

Every ``Word`` is immutable and freely reduced by construction.  Letters are
checked once, where a caller hands them in: in ``free_reduce`` (so also the
text parser and ``**``) and in ``Word(...)``, which calls it.  Slices, inverses,
products and rotations of Words are reduced because their inputs are, so they
are built unchecked.  Letters are signed generator references; a power like
``x^3`` is stored as three letters, which keeps subword matching trivial.

>>> X = Alphabet(("a", "b"))
>>> w = X.word("a b^-2 a")
>>> str(w * w.inverse())
'1'
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "Alphabet",
    "Letter",
    "Word",
    "MAX_WORD_LETTERS",
    "free_reduce",
    "concat",
    "common_prefix_len",
    "seam_reduced",
    "parse_word",
    "word_sort_key",
    "random_reduced_word",
]

# Characters that would collide with the word grammar or the line-based file
# formats if they appeared inside a generator name.
_FORBIDDEN_IN_NAMES = set("^=@:#")

# The longest word the text grammar accepts; parse_word builds no more letters.
MAX_WORD_LETTERS = 1_000_000


class Letter(NamedTuple):
    """A signed generator: ``gen`` indexes an Alphabet, ``sign`` is +1 or -1."""

    gen: int
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct generator names.

    Names may not contain whitespace or any of ``^ = @ : #`` and may not be
    the literal string ``1``; those are reserved by the textual word grammar
    and the file formats built on top of it.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        seen = set()
        for name in names:
            if not name:
                raise ValueError("generator names must be non-empty")
            if name == "1":
                raise ValueError("'1' is reserved for the empty word")
            if any(ch.isspace() or ch in _FORBIDDEN_IN_NAMES for ch in name):
                raise ValueError(f"illegal character in generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        # every Word hash reads it, so the names are hashed once, not per call
        object.__setattr__(self, "_hash", hash(names))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.names == other.names

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def extended(self, extra: Iterable[str]) -> "Alphabet":
        """A new alphabet with ``extra`` names appended (indices preserved)."""
        return Alphabet(self.names + tuple(extra))

    def letter(self, name: str, sign: int = 1) -> "Word":
        """One-letter word. ``sign`` must be +1 or -1."""
        return Word(self, (Letter(self.index(name), sign),))

    def word(self, text: str) -> "Word":
        """Parse ``text`` in the word grammar; see :func:`parse_word`."""
        return parse_word(self, text)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  ``Word(alphabet, letters)`` checks its letters
    with :func:`free_reduce`; arithmetic on Words builds its results unchecked.

    >>> X = Alphabet(("x", "y"))
    >>> Word(X, (Letter(0, 1), Letter(0, -1)))
    Traceback (most recent call last):
        ...
    ValueError: letter sequence is not freely reduced
    """

    alphabet: Alphabet
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        raw = tuple(self.letters)
        letters = free_reduce(self.alphabet, raw).letters
        if len(letters) != len(raw):
            raise ValueError("letter sequence is not freely reduced")
        object.__setattr__(self, "letters", letters)

    # -- basic container behaviour ------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, item):
        """Contiguous slices of a reduced word are reduced, so they are Words."""
        if isinstance(item, slice):
            if item.step not in (None, 1):
                raise ValueError("words only support contiguous slices")
            return _word(self.alphabet, self.letters[item])
        return self.letters[item]

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return _format_letters(self.letters, self.alphabet.names)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    # -- group arithmetic ----------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return free_reduce(self.alphabet, base.letters * abs(k))

    def inverse(self) -> "Word":
        # Built from a list: a generator's tuple is resized, which fills the tuple free lists.
        return _word(self.alphabet, tuple([lt.inverse() for lt in reversed(self.letters)]))

    __invert__ = inverse

    # -- cyclic structure ----------------------------------------------

    @property
    def is_cyclically_reduced(self) -> bool:
        lts = self.letters
        return len(lts) < 2 or lts[0] != lts[-1].inverse()

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, conjugator)`` with ``self == conjugator * core * conjugator**-1``.

        >>> X = Alphabet(("x", "y"))
        >>> core, conj = X.word("x y x^-1").cyclic_reduce()
        >>> str(core), str(conj)
        ('y', 'x')
        """
        lts = self.letters
        i, j = 0, len(lts)
        while j - i >= 2 and lts[i] == lts[j - 1].inverse():
            i += 1
            j -= 1
        return _word(self.alphabet, lts[i:j]), _word(self.alphabet, lts[:i])


def free_reduce(alphabet: Alphabet, letters: Iterable[Letter]) -> Word:
    """Freely reduce a raw letter sequence into a Word, checking each letter.

    >>> X = Alphabet(("x", "y"))
    >>> free_reduce(X, [Letter(0, 1), Letter(1, 1), Letter(1, -1)])
    Word('x')
    """
    out: list[Letter] = []
    n = len(alphabet.names)
    for lt in letters:
        gen, sign = lt[0], lt[1]
        if not (0 <= gen < n):
            raise ValueError(f"generator index {gen} out of range")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if out and out[-1].gen == gen and out[-1].sign == -sign:
            out.pop()
        else:
            out.append(Letter(gen, sign))
    return _word(alphabet, tuple(out))


def _word(alphabet: Alphabet, letters: tuple[Letter, ...]) -> Word:
    """Unchecked: ``letters`` is a reduced tuple of Letters, as in any slice or product of Words."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "letters", letters)
    return w


def concat(a: Word, b: Word) -> Word:
    """Product in the free group: both factors are reduced, so only the seam cancels."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    x, y = a.letters, b.letters
    n = min(len(x), len(y))
    k = 0
    while k < n and x[-1 - k] == y[k].inverse():
        k += 1
    return _word(a.alphabet, x[: len(x) - k] + y[k:])


def common_prefix_len(a: Sequence, b: Sequence, start: int = 0) -> int:
    """Length of the longest common prefix of ``a[start:]`` and ``b``, without slicing."""
    n = min(len(a) - start, len(b))
    k = 0
    while k < n and a[start + k] == b[k]:
        k += 1
    return k


def seam_reduced(a: Word, b: Word) -> bool:
    """True when the product ``a*b`` has no cancellation at the seam.

    Both inputs must be non-empty; asking the question of an empty word is
    almost always a bug upstream, so it is an error here.
    """
    if not a.letters or not b.letters:
        raise ValueError("seam_reduced needs non-empty words")
    return a.letters[-1] != b.letters[0].inverse()


def _format_letters(letters: tuple[Letter, ...], names: tuple[str, ...]) -> str:
    if not letters:
        return "1"
    parts = []
    i = 0
    n = len(letters)
    while i < n:
        j = i
        while j < n and letters[j] == letters[i]:
            j += 1
        k = (j - i) * letters[i].sign
        name = names[letters[i].gen]
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(parts)


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the word grammar: whitespace-separated ``name`` or ``name^k`` tokens.

    ``k`` is a non-zero integer; ``name^-2`` means two inverse letters.  The
    token ``1`` denotes the empty word.  Unknown names and ``^0`` are errors.
    The parsed sequence is freely reduced, so any spelling of a word is
    accepted and normalised.  A spelling of more than ``MAX_WORD_LETTERS``
    letters is an error, raised before more letters than that are built.
    """
    letters: list[Letter] = []
    for token in text.split():
        if token == "1":
            continue
        name, caret, power = token.partition("^")
        if caret:
            try:
                k = int(power)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
            if k == 0:
                raise ValueError(f"zero exponent in token {token!r}")
        else:
            k = 1
        gen = alphabet.index(name)
        if len(letters) + abs(k) > MAX_WORD_LETTERS:
            raise ValueError(f"word longer than {MAX_WORD_LETTERS} letters")
        sign = 1 if k > 0 else -1
        letters.extend([Letter(gen, sign)] * abs(k))
    return free_reduce(alphabet, letters)


def read_records(text: str, handlers: dict) -> None:
    """Pass each ``key: rest`` line of ``text`` to the handler for its key.

    ``#`` starts a comment; blank lines are skipped.  Pattern ``"gens"`` calls
    its handler with ``rest``; ``"msg n sender"`` reads ``msg 1 A: <rest>``
    and calls it with ``rest, "1", "A"``.  A line without ``:``, an unknown
    key, or a handler's ``ValueError`` raises ``ValueError("line N: ...")``.
    """
    table = {}
    for pattern, handler in handlers.items():
        name, *args = pattern.split()
        table[name] = len(args), handler
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        name, *args = key.split() or ("",)
        nargs, handler = table.get(name, (None, None))
        try:
            if not sep or len(args) != nargs:
                raise ValueError(f"unexpected line {line!r}")
            handler(rest.strip(), *args)
        except ValueError as e:
            raise ValueError(f"line {n}: {e}") from None


def add_letters(total: int, n: int, what: str) -> int:
    """``total + n``, the running letter count of a parser that builds many
    words from one file; ``ValueError`` on the line that passes
    ``MAX_WORD_LETTERS``."""
    total += n
    if total > MAX_WORD_LETTERS:
        raise ValueError(f"{what} longer than {MAX_WORD_LETTERS} letters in total")
    return total


def word_sort_key(w: Word):
    """Canonical ordering key: by length, then letterwise (generator, sign)."""
    return (len(w.letters), tuple((lt.gen, 0 if lt.sign > 0 else 1) for lt in w.letters))


def random_reduced_word(alphabet: Alphabet, length: int, rng, gens: Sequence[int] | None = None) -> Word:
    """Uniform reduced word of exactly ``length`` letters.

    Each letter is drawn uniformly from the signed generators (restricted to
    ``gens`` when given), rejecting only the inverse of the previous letter.
    """
    pool = tuple(gens) if gens is not None else tuple(range(len(alphabet.names)))
    if not pool and length > 0:
        raise ValueError("no generators to draw from")
    letters: list[Letter] = []
    while len(letters) < length:
        lt = Letter(pool[rng.randrange(len(pool))], rng.choice((1, -1)))
        if letters and letters[-1] == lt.inverse():
            continue
        letters.append(lt)
    return Word(alphabet, tuple(letters))
