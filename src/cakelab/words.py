"""Freely reduced words over a named generator alphabet.

Every ``Word`` is immutable, freely reduced by construction, and stores one
tuple of letter codes ``2*gen + (sign < 0)``: a code's inverse is ``code ^ 1``,
and code order is (generator, sign) order.  ``Letter`` is the boundary type,
and no other module builds or reads one: ``Word(alphabet, letters)`` checks
the Letters a caller hands in, and iteration and indexing build them from the
codes.  Arithmetic, the grammar and every rewrite work on codes, unchecked,
since their inputs are reduced.  ``x^3`` is three codes, so subword matching
is trivial.

>>> X = Alphabet(("a", "b"))
>>> w = parse_word(X, "a b^-2 a")
>>> str(w * w.inverse())
'1'
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Alphabet",
    "Letter",
    "Word",
    "MAX_WORD_LETTERS",
    "from_codes",
    "splice",
    "concat",
    "parse_word",
    "Records",
    "fields",
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


class _Record:
    """A frozen record, written out where ``dataclass`` would generate it at
    import.  Its fields are the names its class annotates, less those the
    class lists in ``hide``.  It compares equal to a record of its own class
    with equal fields, hashes as the tuple of its fields, shows them in its
    ``repr``, and refuses assignment and deletion with ``AttributeError``.
    Each ``__init__`` checks its arguments and sets the fields with
    ``vars(self).update``; a cached property writes to ``__dict__`` too."""

    def __init_subclass__(cls, hide=()):
        cls._fields = tuple([f for f in cls.__annotations__ if f not in hide])

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Record):
    """An ordered tuple of distinct generator names.

    Names may not contain whitespace or any of ``^ = @ : #`` and may not be
    the literal string ``1``; those are reserved by the textual word grammar
    and the file formats built on top of it.
    """

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            _check_name(name)
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        # every Word hash reads it, so the names are hashed once, not per call
        vars(self).update(names=names, _hash=hash(names))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.names == other.names

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def spellings(self) -> tuple[str, ...]:
        """The spelling table: each letter code's token, ``name`` or ``name^-1``."""
        return tuple([s for name in self.names for s in _spell(name)])

    @cached_property
    def tokens(self) -> dict[str, int]:
        """The spelling table inverted, each token to its letter code; read only."""
        return {s: c for c, s in enumerate(self.spellings)}

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.names)!r})"

def _check_name(name: str) -> None:
    """Refuse a generator name that the grammar or the file formats reserve."""
    if not name:
        raise ValueError("generator names must be non-empty")
    if name == "1":
        raise ValueError("'1' is reserved for the empty word")
    # split() cuts at exactly the characters isspace() accepts
    if name.split() != [name] or not _FORBIDDEN_IN_NAMES.isdisjoint(name):
        raise ValueError(f"illegal character in generator name {name!r}")


def _spell(name: str) -> tuple[str, str]:
    """The tokens of a generator's two letters, ``name`` and ``name^-1``."""
    return name, name + "^-1"


class Word(_Record):
    """A freely reduced word of letter ``codes``.  ``Word(alphabet, letters)``
    checks each Letter and that no two neighbours cancel; arithmetic builds
    its results unchecked.  Iteration and indexing are Letter views.

    >>> X = Alphabet(("x", "y"))
    >>> Word(X, (Letter(0, 1), Letter(0, -1)))
    Traceback (most recent call last):
        ...
    ValueError: letter sequence is not freely reduced
    """

    alphabet: Alphabet
    codes: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        codes, n = [], len(alphabet.names)
        for lt in letters:
            gen, sign = lt[0], lt[1]
            if not (0 <= gen < n):
                raise ValueError(f"generator index {gen} out of range")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
            codes.append(2 * gen + (sign < 0))
        if any(a == b ^ 1 for a, b in zip(codes, codes[1:])):
            raise ValueError("letter sequence is not freely reduced")
        vars(self).update(alphabet=alphabet, codes=tuple(codes))

    def __eq__(self, other) -> bool:  # the record's, written out: Words are compared and hashed often
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.codes == other.codes and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash((self.alphabet, self.codes))

    # -- basic container behaviour ------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Letter]:
        return map(_letter, self.codes)

    def __getitem__(self, item):
        """Contiguous slices of a reduced word are reduced, so they are Words."""
        if isinstance(item, slice):
            if item.step not in (None, 1):
                raise ValueError("words only support contiguous slices")
            return _word(self.alphabet, self.codes[item])
        return _letter(self.codes[item])

    def __str__(self) -> str:
        names, spell = self.alphabet.names, self.alphabet.spellings
        parts, prev, k = [], -1, 0  # k counts the run of prev
        for c in (*self.codes, -1):  # -1 ends the last run
            if c == prev:
                k += 1
            else:
                if k:
                    parts.append(spell[prev] if k == 1 else f"{names[prev >> 1]}^{-k if prev & 1 else k}")
                prev, k = c, 1
        return " ".join(parts) or "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    # -- group arithmetic ----------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, k: int) -> "Word":
        core, conj = (self if k >= 0 else self.inverse()).cyclic_reduce()  # only the seams cancel
        return _word(self.alphabet, conj.codes + core.codes * abs(k) + conj.inverse().codes if k else ())

    def inverse(self) -> "Word":
        return _word(self.alphabet, tuple([c ^ 1 for c in reversed(self.codes)]))

    __invert__ = inverse

    # -- cyclic structure ----------------------------------------------

    @property
    def is_cyclically_reduced(self) -> bool:
        c = self.codes
        return len(c) < 2 or c[0] != c[-1] ^ 1

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return ``(core, conjugator)`` with ``self == conjugator * core * conjugator**-1``.

        >>> X = Alphabet(("x", "y"))
        >>> core, conj = parse_word(X, "x y x^-1").cyclic_reduce()
        >>> str(core), str(conj)
        ('y', 'x')
        """
        c = self.codes
        i, j = 0, len(c)
        while j - i >= 2 and c[i] == c[j - 1] ^ 1:
            i += 1
            j -= 1
        return _word(self.alphabet, c[i:j]), _word(self.alphabet, c[:i])


def _letter(code: int) -> Letter:
    return Letter(code >> 1, -1 if code & 1 else 1)


def from_codes(alphabet: Alphabet, codes: Iterable[int]) -> Word:
    """Freely reduce a sequence of valid letter codes into a Word, unchecked.

    >>> X = Alphabet(("x", "y"))
    >>> from_codes(X, [0, 2, 3])
    Word('x')
    """
    return _word(alphabet, _reduced(codes))


def _reduced(codes: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _word(alphabet: Alphabet, codes: tuple[int, ...]) -> Word:
    """Unchecked: ``codes`` is a reduced code tuple, as in any slice or product of Words."""
    w = object.__new__(Word)
    w.__dict__.update(alphabet=alphabet, codes=codes)
    return w


def _alphabet(names: tuple[str, ...]) -> Alphabet:
    """Unchecked: ``names`` are valid and distinct generator names."""
    a = object.__new__(Alphabet)
    vars(a).update(names=names, _hash=hash(names))
    return a


def splice(x: tuple, pos: int, mid: tuple, end: int) -> tuple:
    """The codes of ``x[:pos] . mid . x[end:]``, freely reduced: each part is
    reduced, so only the seams cancel, the outer parts once mid is gone."""
    n, m, j = len(x), len(mid), 0
    while pos and j < m and x[pos - 1] == mid[j] ^ 1:
        pos, j = pos - 1, j + 1
    while end < n and m > j and mid[m - 1] == x[end] ^ 1:
        m, end = m - 1, end + 1
    if j == m:
        while pos and end < n and x[pos - 1] == x[end] ^ 1:
            pos, end = pos - 1, end + 1
    return x[:pos] + mid[j:m] + x[end:]


def concat(a: Word, b: Word) -> Word:
    """Product in the free group: both factors are reduced, so only the seam cancels."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    n = len(a.codes)
    return _word(a.alphabet, splice(a.codes, n, b.codes, n))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the word grammar: whitespace-separated ``name`` or ``name^k`` tokens.

    ``k`` is an optional sign and ASCII digits, not zero, read by its
    significant digits; ``name^-2`` means two inverse letters.  The token ``1`` denotes the empty word.  A token
    the spelling table (``Alphabet.tokens``) misses is parsed; unknown names
    and other exponents are errors.  The sequence is freely reduced, so any
    spelling of a word is accepted and normalised.  A spelling of more than
    ``MAX_WORD_LETTERS`` letters is an error, raised before more are built.
    """
    return _word(alphabet, _reduced(_spelled(alphabet.tokens, text)))


def _spelled(tokens: dict[str, int], text: str) -> list[int]:
    """The codes ``text`` spells, unreduced, with ``tokens`` the spelling table."""
    parts = text.split()
    try:
        if len(parts) <= MAX_WORD_LETTERS:
            return [tokens[token] for token in parts]
    except KeyError:  # a run, the empty word or an error: spelled token by token
        pass
    codes: list[int] = []
    for token in parts:
        code, k = tokens.get(token), 1
        if code is None:
            if token == "1":
                continue
            name, caret, power = token.partition("^")
            if caret:
                digits = power[1:] if power[:1] in ("+", "-") else power
                if not (digits.isascii() and digits.isdigit()):  # int() also reads "_" and other scripts' digits
                    raise ValueError(f"bad exponent in token {token!r}")
                # more digits than the cap's are more letters, and int() reads no more than 4,300
                digits = digits.lstrip("0")
                k = int(digits or "0") if len(digits) <= len(str(MAX_WORD_LETTERS)) else MAX_WORD_LETTERS + 1
                if k == 0:
                    raise ValueError(f"zero exponent in token {token!r}")
            if name not in tokens:
                raise ValueError(f"unknown generator {name!r}")
            code = tokens[name] + (power[:1] == "-")
        if len(codes) + k > MAX_WORD_LETTERS:
            raise ValueError(f"word longer than {MAX_WORD_LETTERS} letters")
        codes.extend([code] * k)
    return codes


class Records:
    """The ``key: rest`` line records of one text file, read by :meth:`read`.

    ``#`` starts a comment; blank lines are skipped.  A line without ``:``,
    an unknown key, or a handler's ``ValueError`` raises
    ``ValueError("line N: ...")``.  A key whose handler is ``None`` may appear
    only once: its body is kept in ``once``, and a ``gens`` line sets
    ``alphabet``.  The words of a file are capped at ``MAX_WORD_LETTERS``
    letters in total (:meth:`count`), so with the per-word cap at most twice
    that is built.
    """

    def __init__(self, text: str, alphabet: Alphabet | None = None):
        self.text = text
        self.alphabet = alphabet
        self.once: dict[str, str] = {}
        self.letters = 0

    def read(self, handlers: dict) -> None:
        """Pattern ``"gens"`` calls its handler with ``rest``; ``"msg n sender"``
        reads ``msg 1 A: <rest>`` and calls it with ``rest, "1", "A"``."""
        table = {}
        for pattern, handler in handlers.items():
            name, *args = pattern.split()
            table[name] = len(args), handler
        for n, raw in enumerate(self.text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, rest = line.partition(":")
            name, *args = key.split() or ("",)
            nargs, handler = table.get(name, (None, None))
            rest = rest.strip()
            try:
                if not sep or len(args) != nargs:
                    raise ValueError(f"unexpected line {line!r}")
                if handler is not None:
                    handler(rest, *args)
                elif name in self.once:
                    raise ValueError(f"duplicate {name} line")
                else:
                    self.once[name] = rest
                    if name == "gens":
                        self.alphabet = Alphabet(tuple(rest.split()))
            except ValueError as e:
                raise ValueError(f"line {n}: {e}") from None

    def word(self, text: str, what: str) -> Word:
        """``text`` parsed over the file's alphabet and counted as ``what``."""
        if self.alphabet is None:
            raise ValueError(f"{what} before the gens line")
        w = parse_word(self.alphabet, text)
        self.count(len(w), what)
        return w

    def count(self, n: int, what: str) -> None:
        """Add ``n`` letters; ``ValueError`` on the line that passes the cap."""
        self.letters += n
        if self.letters > MAX_WORD_LETTERS:
            raise ValueError(f"{what} longer than {MAX_WORD_LETTERS} letters in total")


def fields(body: str, *marks: str) -> list[str]:
    """``body`` cut at the first of each mark in turn: the text before the
    first mark, then the text after each, so ``fields("t1 = x1 @ 0", "=", "@")``
    is ``["t1 ", " x1 ", " 0"]``.  Generator names hold no ``=`` or ``@``, so
    no cut lands inside a word."""
    out, rest = [], body
    for mark in marks:
        head, sep, rest = rest.partition(mark)
        if not sep:
            raise ValueError(f"missing {mark.strip()!r} in {body!r}")
        out.append(head)
    out.append(rest)
    return out


def _below(getrandbits, n: int) -> int:
    """``Random.randrange(n)`` for n >= 1, drawn as it draws (``n.bit_length()``
    bits, again while out of range), so a seeded stream gives the same numbers
    as ``randrange``, ``randint`` and ``choice`` without their call layers."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _below_each(getrandbits, n: int, count: int) -> list:
    """``count`` draws of ``_below(getrandbits, n)`` in one call, on the same
    stream."""
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def _draw_letter(getrandbits, n: int, prev: int) -> int:
    """A code drawn as ``randrange(n)``, then ``choice((1, -1))`` draw a
    letter, again while it cancels ``prev`` (-1 cancels none)."""
    c = 2 * _below(getrandbits, n) + _below(getrandbits, 2)
    while c == prev ^ 1:
        c = 2 * _below(getrandbits, n) + _below(getrandbits, 2)
    return c


def random_reduced_word(alphabet: Alphabet, length: int, rng) -> Word:
    """Uniform reduced word of exactly ``length`` letters.

    Each letter is drawn uniformly from the signed generators, rejecting
    only the inverse of the previous letter (:func:`_draw_letter`).  A length
    over ``MAX_WORD_LETTERS`` is refused before any letter is drawn.
    """
    if length > MAX_WORD_LETTERS:
        raise ValueError(f"word longer than {MAX_WORD_LETTERS} letters")
    n = len(alphabet.names)
    if not n and length > 0:
        raise ValueError("no generators to draw from")
    bits = rng.getrandbits
    codes, prev = [], -1
    for _ in range(length):
        prev = _draw_letter(bits, n, prev)
        codes.append(prev)
    return _word(alphabet, tuple(codes))
