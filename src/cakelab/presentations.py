"""Finite group presentations, their compiled symmetrized sets, and Tietze
splitting.

The splitting move introduces a fresh generator naming the first two letters
of a long relator; iterating it drives every relator down to length <= 3
while keeping the group isomorphic.  Histories record each split so that
words over the final presentation can be translated back to the original
generators (``lift_word``).

A presentation's symmetrized set is compiled once, on first use, and held by
the presentation: every verdict and rewrite on it reads that one object.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

from . import words
from .words import (
    Alphabet,
    Letter,
    Word,
    _word,
    common_prefix_len,
    concat,
    from_codes,
    parse_word,
    read_records,
    splice,
)

__all__ = [
    "Presentation",
    "SymmetrizedSet",
    "TietzeStep",
    "PresentationHistory",
    "symmetrize",
    "tietze_split",
    "shorten_all",
    "lift_word",
    "include_word",
    "braid_presentation",
    "alternating_word",
    "format_presentation",
    "parse_presentation",
    "format_history",
    "parse_history",
]


@dataclass(frozen=True)
class Presentation:
    """Generators plus cyclically reduced, pairwise distinct relators."""

    alphabet: Alphabet
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        relators = tuple(self.relators)
        object.__setattr__(self, "relators", relators)
        added: dict[Word, None] = {}
        for r in relators:
            _add_relator(self.alphabet, r, added)

    @cached_property
    def _symmetrized(self) -> "SymmetrizedSet":
        return SymmetrizedSet(self)


def _add_relator(alphabet: Alphabet, r: Word, relators: dict) -> None:
    """Add ``r`` to ``relators`` (a dict as ordered set), refusing a bad or duplicate relator."""
    if r.alphabet != alphabet:
        raise ValueError("relator uses a different alphabet")
    if not r:
        raise ValueError("empty relator")
    if not r.is_cyclically_reduced:
        raise ValueError(f"relator {str(r)!r} is not cyclically reduced")
    if r in relators:
        raise ValueError(f"duplicate relator {str(r)!r}")
    relators[r] = None


class _Verdicts(NamedTuple):  # the small-cancellation table of a symmetrized set
    min_pieces: tuple  # per element of ``ordered``: fewest pieces spelling it, or None
    relator_pieces: tuple  # the same per relator
    piece_count: int  # distinct pieces
    cprime_sup: Optional[Fraction]  # largest piece-prefix length over element length
    t4: bool


@dataclass(frozen=True, init=False, eq=False)
class SymmetrizedSet:
    """The compiled form of a presentation: all cyclic rotations of the
    relators and of their inverses, in canonical (length, letters) order in
    ``ordered``, with ``piece_lengths[i]`` the length of the longest piece
    prefix of ``ordered[i]``.  Built from the relators, it is closed under
    rotation and inversion by construction; :func:`symmetrize` builds it
    once per presentation.

    The rotations are sorted once as letter-code tuples, each held by its
    element's Word.  ``verdicts``, the table every small-cancellation
    verdict reads, is compiled from the codes on first use, as are the
    element set, the pieces, the first-letter index, the inverse elements and
    the relator lattice.

    :meth:`matches` is the one relator-prefix scan: Dehn's algorithm, the
    oracle and disguise read it.  Dehn and the oracle rewrite code tuples
    with :meth:`swap`, disguise rewrites Words with :func:`swap`.
    """

    alphabet: Alphabet
    relators: tuple[Word, ...]
    ordered: tuple[Word, ...]
    piece_lengths: tuple[int, ...]

    def __init__(self, p: Presentation):
        # each relator r gives at most 2|r| elements of |r| letters
        if 2 * sum(len(r) ** 2 for r in p.relators) > words.MAX_WORD_LETTERS:
            raise ValueError(f"symmetrized set longer than {words.MAX_WORD_LETTERS} letters")
        cycles = []  # the rotations of each relator and of its inverse, in turn
        for r in p.relators:
            for w in (r.codes, r.inverse().codes):
                cycles.append([w[k:] + w[:k] for k in range(len(w))])
        lex = sorted(set().union(*cycles))
        # an element's longest common prefix with any other is one with a lex neighbour
        shared = [0] + [common_prefix_len(a, b) for a, b in zip(lex, lex[1:])] + [0]
        # a stable sort by length keeps lex order within a length: (length, codes)
        order = sorted(range(len(lex)), key=[len(c) for c in lex].__getitem__)
        codes = tuple([lex[i] for i in order])
        object.__setattr__(self, "alphabet", p.alphabet)
        object.__setattr__(self, "relators", p.relators)
        object.__setattr__(self, "ordered", tuple([_word(p.alphabet, c) for c in codes]))
        object.__setattr__(self, "piece_lengths", tuple(
            [max(shared[i], shared[i + 1]) for i in order]))
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_cycles", cycles)
        # pieces are prefixes up to the piece length, less those the lex predecessor shares
        object.__setattr__(self, "_piece_count", sum(
            [max(0, b - a) for a, b in zip(shared, shared[1:])]))

    def __len__(self):
        return len(self.ordered)

    def __contains__(self, w: Word) -> bool:
        return w in self.elements

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(self.ordered)

    @cached_property
    def verdicts(self) -> _Verdicts:
        """The small-cancellation table, compiled from the codes.

        Pieces are closed under prefixes and, as the set is closed under
        rotation, under non-empty suffixes, so the longest piece at position
        pos of r, the piece prefix of r's rotation at pos, is an optimal step.
        T(4) fails when, for a (first, last) letter pair (a, b), some c among
        the last letters of elements starting with b^-1 has an element
        starting with c^-1 and ending with a^-1: at most (2n)^3 steps for n
        generators.  Admissibility needs no test: each excluded triple with
        all three seams cancelling would need an element ending in the
        inverse of its first letter, and every element is cyclically reduced.
        """
        codes, lengths = self._codes, self.piece_lengths
        where = {c: i for i, c in enumerate(codes)}
        fewest: list = [None] * len(codes)
        top, of = 0, 1  # the largest piece length over element length, by cross-multiplying
        for cycle in self._cycles:
            at = [where[c] for c in cycle]
            n = len(at)
            ahead = [lengths[i] for i in at] * 2  # the piece length at each position, twice round
            for k in range(n):
                count = pos = 0
                while pos < n and ahead[k + pos]:
                    pos += ahead[k + pos]  # past the end only on the last step
                    count += 1
                fewest[at[k]] = count if pos >= n else None
            if max(ahead) * of > top * n:
                top, of = max(ahead), n
        ends: dict[int, set] = {}  # first letter -> the last letters of elements starting with it
        for c in codes:
            ends.setdefault(c[0], set()).add(c[-1])
        t4 = not any(a ^ 1 in ends.get(c ^ 1, ())
                     for a, lasts in ends.items() for b in lasts for c in ends.get(b ^ 1, ()))
        relator_pieces = tuple([fewest[where[cycle[0]]] for cycle in self._cycles[::2]])
        return _Verdicts(tuple(fewest), relator_pieces, self._piece_count,
                         Fraction(top, of) if top else None, t4)

    @cached_property
    def _inverse(self) -> tuple:
        """The index of each element's inverse element."""
        where = {c: i for i, c in enumerate(self._codes)}
        return tuple([where[tuple([x ^ 1 for x in reversed(c)])] for c in self._codes])

    @cached_property
    def pieces(self) -> frozenset:
        """Letter tuples of the pieces: each element's prefixes up to its piece length."""
        return frozenset(r[:k].letters for r, m in zip(self.ordered, self.piece_lengths)
                         for k in range(1, m + 1))

    @cached_property
    def first_letters(self) -> tuple:
        """Per letter code, the indices of the elements starting with it, ascending."""
        starting: list[list[int]] = [[] for _ in range(2 * len(self.alphabet))]
        for i, c in enumerate(self._codes):
            starting[c[0]].append(i)
        return tuple([tuple(ix) for ix in starting])

    @cached_property
    def abelian_rows(self) -> tuple:
        """Integer echelon basis of the lattice in Z^n that the relators'
        exponent-sum vectors span: ``(pivot, row)`` by ascending pivot, each
        row zero before its pivot.  Rotations share a relator's vector and
        inverses negate it, so one row per relator spans the lattice.
        Euclid's algorithm on pivot entries keeps each step unimodular."""
        pivots: dict[int, list[int]] = {}
        for r in self.relators:
            v = _exponent_sums(r)
            for col in range(len(v)):
                if v[col] and col not in pivots:
                    pivots[col] = v
                    break
                while v[col]:  # Euclid on the two entries at col
                    q = pivots[col][col] // v[col]
                    pivots[col], v = v, [a - q * b for a, b in zip(pivots[col], v)]
        return tuple(sorted(pivots.items()))

    def abelian_trivial(self, w: Word) -> bool:
        """Whether w's exponent-sum vector lies in the relator lattice.
        False proves w non-trivial: its image in the abelianization is not 0.
        Each pivot takes off what it divides; a remainder there, or any entry
        in a column with no pivot, is left over at the end."""
        v = _exponent_sums(w)
        for col, row in self.abelian_rows:
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def matches(self, x: tuple) -> Iterator[tuple[int, int, int]]:
        """``(pos, i, k)`` for each element ``ordered[i]`` starting with the
        code at pos of the code tuple ``x``, by position, then in canonical
        order; k is the length of the common prefix of ``x[pos:]`` and it."""
        codes, starting = self._codes, self.first_letters
        for pos, c in enumerate(x):
            for i in starting[c]:
                yield pos, i, common_prefix_len(x, codes[i], pos)

    def swap(self, x: tuple, pos: int, i: int, take: int) -> tuple:
        """:func:`swap` on codes: element i's inverted complement is a prefix of its inverse."""
        inverted = self._codes[self._inverse[i]]
        return splice(x, pos, inverted[: len(inverted) - take], pos + take)


def _exponent_sums(w: Word) -> list[int]:
    """The image of w in the abelianization Z^n: one exponent sum per generator."""
    n = Counter(w.codes)
    return [n[2 * g] - n[2 * g + 1] for g in range(len(w.alphabet))]


def swap(w: Word, pos: int, r: Word, take: int) -> Word:
    """``w[:pos] . r[take:]^-1 . w[pos+take:]``, freely reduced: the matched
    prefix ``r[:take]`` at pos replaced by the inverted complement, or at
    take 0 ``r^-1`` inserted.  It equals ``c r^-1 c^-1 . w``, c = ``w[:pos]``."""
    return _word(w.alphabet, splice(w.codes, pos, r[take:].inverse().codes, pos + take))


def symmetrize(p: Presentation) -> SymmetrizedSet:
    """Smallest rotation- and inversion-closed superset of the relators,
    compiled on first use and held by ``p``."""
    return p._symmetrized


@dataclass(frozen=True)
class TietzeStep:
    """One split: ``old_relator = l1 l2 u`` becomes ``new_gen u`` plus ``new_gen^-1 l1 l2``."""

    new_gen: str
    defined_as: tuple[Letter, Letter]
    replaced_relator_index: int
    old_relator: Word
    new_relator: Word


def _fresh_name(alphabet: Alphabet) -> str:
    k = 1
    while f"t{k}" in alphabet:
        k += 1
    return f"t{k}"


def tietze_split(p: Presentation, idx: int, new_name: str | None = None):
    """Split relator ``idx`` (length >= 4) by naming its first two letters.

    Returns ``(new_presentation, step)``.  The new presentation has one more
    generator, the target relator shortened by one letter, and a length-3
    defining relator appended; the presented group is unchanged.
    """
    if not (0 <= idx < len(p.relators)):
        raise ValueError(f"relator index {idx} out of range")
    r = p.relators[idx]
    if len(r) < 4:
        raise ValueError(f"relator {str(r)!r} too short to split")
    name = new_name if new_name is not None else _fresh_name(p.alphabet)
    if name in p.alphabet:
        raise ValueError(f"generator {name!r} already exists")
    bigger = p.alphabet.extended([name])
    t = 2 * len(p.alphabet.names)  # the new generator's code
    replacement = _word(bigger, (t,) + r.codes[2:])
    definition = _word(bigger, (t + 1,) + r.codes[:2])
    # codes are stable because alphabets only ever grow by appending
    relators = [_word(bigger, old.codes) for old in p.relators]
    relators[idx] = replacement
    # no old relator holds t, the replacement starts with t and the
    # definition with t^-1, so all stay distinct
    relators.append(definition)
    step = TietzeStep(name, (r[0], r[1]), idx, r, replacement)
    return Presentation(bigger, tuple(relators)), step


@dataclass(frozen=True)
class PresentationHistory:
    """A replayable chain of splits from ``start`` to ``end``."""

    start: Presentation
    steps: tuple[TietzeStep, ...]
    end: Presentation

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if _replay(self.start, self.steps) != self.end:
            raise ValueError("steps do not replay from start to end")


def _unchecked_history(start: Presentation, steps: list, end: Presentation) -> PresentationHistory:
    """Unchecked: ``steps`` were just made by ``tietze_split`` from ``start``
    to ``end``, which is the replay ``PresentationHistory`` would repeat."""
    h = object.__new__(PresentationHistory)
    object.__setattr__(h, "start", start)
    object.__setattr__(h, "steps", tuple(steps))
    object.__setattr__(h, "end", end)
    return h


def _replay(start: Presentation, steps: Iterable[TietzeStep]) -> Presentation:
    cur = start
    for st in steps:
        cur, redo = tietze_split(cur, st.replaced_relator_index, new_name=st.new_gen)
        if redo.defined_as != st.defined_as or redo.old_relator != st.old_relator:
            raise ValueError(f"step for {st.new_gen!r} does not match its presentation")
    return cur


def shorten_all(p: Presentation) -> PresentationHistory:
    """Split the first over-long relator until every relator has length <= 3.

    Terminates in exactly sum(max(0, len(r) - 3)) steps: each split trims one
    unit of excess and appends a length-3 relator with none.
    """
    steps = []
    cur = p
    while True:
        idx = next((i for i, r in enumerate(cur.relators) if len(r) > 3), None)
        if idx is None:
            break
        cur, st = tietze_split(cur, idx)
        steps.append(st)
    return _unchecked_history(p, steps, cur)


def lift_word(w: Word, h: PresentationHistory) -> Word:
    """Rewrite a word over ``h.end`` in the original generators.

    Every introduced generator is replaced by its two-letter definition,
    iterated down to the start alphabet, then freely reduced.  Lifting is a
    homomorphism, and on words that never mention the new generators it is
    the identity.
    """
    if w.alphabet != h.end.alphabet:
        raise ValueError("word is not over the end alphabet of this history")
    start = h.start.alphabet
    images = [_word(start, (2 * g,)) for g in range(len(start))]  # by generator index
    for st in h.steps:  # each appends its generator
        images.append(concat(*[images[lt.gen] ** lt.sign for lt in st.defined_as]))
    by_code = [v.codes for img in images for v in (img, img.inverse())]
    return from_codes(start, [x for c in w.codes for x in by_code[c]])


def include_word(w: Word, h: PresentationHistory) -> Word:
    """View a word over ``h.start`` as a word over ``h.end`` (indices are stable)."""
    if w.alphabet != h.start.alphabet:
        raise ValueError("word is not over the start alphabet of this history")
    return _word(h.end.alphabet, w.codes)


def alternating_word(alphabet: Alphabet, i: int, j: int, m: int) -> Word:
    """The length-m word ``a_i a_j a_i ...`` (positive letters, alternating)."""
    if m < 1:
        raise ValueError("length must be positive")
    if i == j:
        raise ValueError("alternating word needs two distinct generators")
    return Word(alphabet, [Letter(j if k % 2 else i, 1) for k in range(m)])


def braid_presentation(n: int) -> Presentation:
    """The braid group on n strands: generators s1..s(n-1).

    Adjacent generators satisfy s_i s_j s_i = s_j s_i s_j, distant ones
    commute.
    """
    if n < 2:
        raise ValueError("need at least 2 strands")
    alphabet = Alphabet(tuple(f"s{i}" for i in range(1, n)))
    relators = []
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            m = 3 if j - i == 1 else 2
            rel = alternating_word(alphabet, i, j, m) * alternating_word(alphabet, j, i, m).inverse()
            relators.append(rel)  # each pair gives its own word
    return Presentation(alphabet, tuple(relators))


# -- text formats -------------------------------------------------------

def format_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.alphabet.names)]
    lines.extend(f"rel: {r}" for r in p.relators)
    return "\n".join(lines) + "\n"


class _PresentationRecords:
    """The ``gens:`` and ``rel:`` handlers of presentation and history files.
    Each relator is checked on its line, and all of them are capped at
    ``MAX_WORD_LETTERS`` letters in total, so at most twice the cap is built."""

    def __init__(self):
        self.alphabet = None
        self.relators: dict[Word, None] = {}  # in file order
        self.letters = 0
        self.built = None  # the presentation; no rel line may follow it

    def gens(self, rest: str) -> None:
        if self.alphabet is not None:
            raise ValueError("duplicate gens line")
        self.alphabet = Alphabet(tuple(rest.split()))

    def rel(self, rest: str) -> None:
        if self.alphabet is None or self.built is not None:
            raise ValueError("rel line must follow the gens line and precede any step line")
        r = parse_word(self.alphabet, rest)
        _add_relator(self.alphabet, r, self.relators)
        self.letters = words.add_letters(self.letters, len(r), "relators")

    def presentation(self) -> Presentation:
        if self.built is None:
            if self.alphabet is None:
                raise ValueError("missing gens line")
            self.built = Presentation(self.alphabet, tuple(self.relators))
        return self.built


def parse_presentation(text: str) -> Presentation:
    """Inverse of format_presentation; '#' starts a comment, blank lines ignored."""
    rec = _PresentationRecords()
    read_records(text, {"gens": rec.gens, "rel": rec.rel})
    return rec.presentation()


def _format_step(st: TietzeStep) -> str:
    # two letters printed separately, never run-length merged
    names = st.old_relator.alphabet.names
    pair = " ".join(
        names[l.gen] + ("" if l.sign > 0 else "^-1") for l in st.defined_as
    )
    return f"step: {st.new_gen} = {pair} @ {st.replaced_relator_index}"


def format_history(h: PresentationHistory) -> str:
    """Start presentation followed by one line per split."""
    lines = [format_presentation(h.start).rstrip("\n")]
    lines.extend(_format_step(st) for st in h.steps)
    return "\n".join(lines) + "\n"


def parse_history(text: str) -> PresentationHistory:
    """Inverse of format_history: the start presentation, then its steps.
    Each step is replayed once, on its own line, so a forged step fails as
    ``line N: ...``."""
    rec = _PresentationRecords()
    steps: list[TietzeStep] = []
    cur = None

    def step(rest: str) -> None:
        nonlocal cur
        if cur is None:
            cur = rec.presentation()
        head, sep, tail = rest.partition("=")
        word_text, sep2, idx_text = tail.rpartition("@")
        if not (sep and sep2):
            raise ValueError(f"malformed step line {rest!r}")
        name = head.strip()
        idx = int(idx_text)
        pair = parse_word(cur.alphabet, word_text)
        if len(pair) != 2:
            raise ValueError(f"step definition must have exactly two letters: {rest!r}")
        cur, st = tietze_split(cur, idx, new_name=name)
        if st.defined_as != pair.letters:
            raise ValueError(f"step {name!r} does not match relator {idx} of its presentation")
        steps.append(st)

    read_records(text, {"gens": rec.gens, "rel": rec.rel, "step": step})
    start = rec.presentation()
    return _unchecked_history(start, steps, start if cur is None else cur)
