"""Finite group presentations, their compiled symmetrized sets, and Tietze
splitting.

The splitting move introduces a fresh generator naming the first two letters
of a long relator; iterating it drives every relator down to length <= 3
while keeping the group isomorphic.  A history is a start presentation and
its steps, each a name, two letter codes and a relator index; one replay,
linear in the letters, checks the steps and derives the end presentation,
and words over it translate back to the original generators (``lift_word``).

A presentation's symmetrized set is compiled once, on first use, and held by
the presentation: every verdict and rewrite on it reads that one object, and
Dehn reduction, disguise and the word-problem oracle read its one
relator-prefix scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from . import words
from .words import (
    Alphabet,
    Records,
    Word,
    _check_name,
    _reduced,
    _spell,
    _spelled,
    _word,
    fields,
    from_codes,
    splice,
)

__all__ = [
    "Presentation",
    "SymmetrizedSet",
    "TietzeStep",
    "PresentationHistory",
    "symmetrize",
    "shorten_all",
    "lift_word",
    "include_word",
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
    ``ordered``, with ``lengths[i]`` the length of ``ordered[i]`` and
    ``piece_lengths[i]`` that of its longest piece prefix.  Built from the
    relators, it is closed under rotation and inversion by construction;
    :func:`symmetrize` builds it once per presentation.

    The rotations are sorted once as letter-code tuples; one pass over that
    order drops repeats and gives the piece lengths, and a stable sort by
    length gives the canonical order, inverted in one loop.  ``verdicts``,
    the table every verdict reads, is built from the codes on first use, as
    are the element Words in ``ordered`` (no verdict or Dehn step reads
    them), the element set, the pieces, the first-letter index, the inverse
    elements in ``inverted`` and the relator lattice.

    :meth:`matches` is the relator-prefix scan, counted in place and
    capped by the letters left, once per position: Dehn's algorithm,
    disguise and the oracle read it.  Dehn rewrites code tuples with
    :meth:`swap`; a disguise move splices its conjugated relator in with
    ``words.splice``, the seam rewrite under :meth:`swap`, and the oracle,
    which swaps at every match, walks that swap's seams inline.
    """

    alphabet: Alphabet
    relators: tuple[Word, ...]
    lengths: tuple[int, ...]
    piece_lengths: tuple[int, ...]

    def __init__(self, p: Presentation):
        # each relator r gives at most 2|r| elements of |r| letters
        if 2 * sum(len(r) ** 2 for r in p.relators) > words.MAX_WORD_LETTERS:
            raise ValueError(f"symmetrized set longer than {words.MAX_WORD_LETTERS} letters")
        flat, cycles = [], []  # the rotations of each relator and of its inverse, and each cycle's slice
        for r in p.relators:
            for w in (r.codes, r.inverse().codes):
                n, twice = len(w), w + w
                cycles.append(slice(len(flat), len(flat) + n))
                flat += [twice[k : k + n] for k in range(n)]
        # one sort: equal rotations fall together, and a longest common prefix is with a lex neighbour
        lex, lens, shared, at = [], [], [], [0] * len(flat)
        prev, n, top = (), 0, -1  # the last lex element, its length and its lex position
        for j in sorted(range(len(flat)), key=flat.__getitem__):
            x = flat[j]
            if x != prev:
                m = 0  # prev sorts before x, so x is no prefix of prev
                while m < n and x[m] == prev[m]:
                    m += 1
                shared.append(m)
                lex.append(x)
                prev, n, top = x, len(x), top + 1
                lens.append(n)
            at[j] = top
        shared.append(0)
        # a stable sort by length keeps lex order within a length: (length, codes)
        order, rank = sorted(range(len(lex)), key=lens.__getitem__), [0] * len(lex)
        for k, i in enumerate(order):
            rank[i] = k  # the inverse permutation
        longest = [a if a > b else b for a, b in zip(shared, shared[1:])]  # per lex position
        object.__setattr__(self, "alphabet", p.alphabet)
        object.__setattr__(self, "relators", p.relators)
        object.__setattr__(self, "piece_lengths", tuple([longest[i] for i in order]))
        object.__setattr__(self, "_codes", tuple([lex[i] for i in order]))
        object.__setattr__(self, "lengths", tuple(sorted(lens)))
        object.__setattr__(self, "_at", [[rank[i] for i in at[c]] for c in cycles])  # elements per cycle
        # pieces are prefixes up to the piece length, less those the lex predecessor shares
        object.__setattr__(self, "_piece_count", sum([b - a for a, b in zip(shared, shared[1:]) if b > a]))

    def __len__(self):
        return len(self._codes)

    @cached_property
    def ordered(self) -> tuple:
        """The elements as Words, in canonical order, wrapped on first read."""
        return tuple([_word(self.alphabet, c) for c in self._codes])

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
        Only the relators' cycles are walked, each count mirrored to the
        inverse element: a common suffix of two elements is a piece (rotate
        both to start with it), so pieces are closed under inversion, e^-1
        takes as many as e, and a cyclic word and its inverse have equally
        long longest pieces, which give the C' supremum.
        T(4) fails when, for a (first, last) letter pair (a, b), some c among
        the last letters of elements starting with b^-1 has an element
        starting with c^-1 and ending with a^-1, that is, inverted, an
        element a ... c: one disjointness test per pair, at most (2n)^2 for
        n generators.  Admissibility needs no test: each excluded triple with
        all three seams cancelling would need an element ending in the
        inverse of its first letter, and every element is cyclically reduced.
        """
        codes, piece = self._codes, self.piece_lengths
        fewest: list = [None] * len(codes)
        top, of = 0, 1  # the largest piece length over element length, by cross-multiplying
        for at, back in zip(self._at[::2], self._at[1::2]):  # a relator's cycle and its inverse's
            n = len(at)
            ahead = [piece[i] for i in at] * 2  # the piece length at each position, twice round
            for k in range(n):
                count = pos = 0
                while pos < n and ahead[k + pos]:
                    pos += ahead[k + pos]  # past the end only on the last step
                    count += 1
                fewest[at[k]] = fewest[back[-k]] = count if pos >= n else None  # inverse: rotation -k of r^-1
            m = max(ahead)
            if m * of > top * n:
                top, of = m, n
        ends: dict[int, set] = {}  # first letter -> the last letters of elements starting with it
        for c in codes:
            ends.setdefault(c[0], set()).add(c[-1])
        t4 = all(lasts.isdisjoint(ends[b ^ 1]) for lasts in ends.values() for b in lasts)
        relator_pieces = tuple([fewest[at[0]] for at in self._at[::2]])
        return _Verdicts(tuple(fewest), relator_pieces, self._piece_count,
                         Fraction(top, of) if top else None, t4)

    @cached_property
    def inverted(self) -> tuple:
        """Each element's inverse, as codes: that of rotation k of r is rotation -k mod |r| of r^-1."""
        codes, inverse = self._codes, [()] * len(self._codes)
        for a, b in zip(self._at[::2], self._at[1::2]):
            for i, j in zip(a, b[:1] + b[:0:-1]):
                inverse[i], inverse[j] = codes[j], codes[i]
        return tuple(inverse)

    @cached_property
    def pieces(self) -> frozenset:
        """Code tuples of the pieces: each element's prefixes up to its piece length."""
        return frozenset(c[:k] for c, m in zip(self._codes, self.piece_lengths)
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
        order; k is the length of the common prefix of ``x[pos:]`` and it,
        counted in place from the second letter, as the first is equal, up to
        the letters left in ``x``, counted once per position: the one scan."""
        codes, starting, left = self._codes, self.first_letters, len(x)
        for pos, c in enumerate(x):
            for i in starting[c]:
                r, k = codes[i], 1
                stop = left if len(r) > left else len(r)
                while k < stop and x[pos + k] == r[k]:
                    k += 1
                yield pos, i, k
            left -= 1

    def swap(self, x: tuple, pos: int, i: int, take: int) -> tuple:
        """``x[:pos] . r[take:]^-1 . x[pos+take:]``, reduced, for r = ``ordered[i]``: that
        is ``c r^-1 c^-1 . x``, c = ``x[:pos]``; ``r[take:]^-1`` is a prefix of ``inverted[i]``."""
        inverted = self.inverted[i]
        return splice(x, pos, inverted[: len(inverted) - take], pos + take)


def _exponent_sums(w: Word) -> list[int]:
    """The image of w in the abelianization Z^n: one exponent sum per generator,
    filled in one pass over the codes (code 2g is generator g, 2g + 1 its inverse)."""
    v = [0] * len(w.alphabet)
    for c in w.codes:
        if c & 1:
            v[c >> 1] -= 1
        else:
            v[c >> 1] += 1
    return v


def symmetrize(p: Presentation) -> SymmetrizedSet:
    """Smallest rotation- and inversion-closed superset of the relators,
    compiled on first use and held by ``p``."""
    return p._symmetrized


class TietzeStep(NamedTuple):
    """One split: relator ``replaced_relator_index``, ``l1 l2 u``, becomes
    ``new_gen u``, and ``new_gen^-1 l1 l2`` is appended."""

    new_gen: str
    defined_as: tuple[int, int]  # the letter codes of l1 l2
    replaced_relator_index: int


class _Replay:
    """Splits applied in place from ``start``, the one path every history
    takes.  Each relator is a reversed code list, so a split pops two codes
    and pushes one, and ``tokens`` is the spelling table of the generators so
    far: a replay is linear in the letters, and the end is built once."""

    def __init__(self, start: Presentation):
        self.start, self.steps = start, []
        self.tokens = dict(start.alphabet.tokens)
        self.relators = [list(r.codes[::-1]) for r in start.relators]

    def split(self, idx: int, name: str) -> tuple[int, int]:
        """Name the first two letters of relator idx (length >= 4) ``name``,
        and return their codes; old codes stay, as the new generator is last."""
        if not 0 <= idx < len(self.relators):
            raise ValueError(f"relator index {idx} out of range")
        r = self.relators[idx]
        if len(r) < 4:
            shown = _word(Alphabet(tuple(self.tokens)[::2]), tuple(r[::-1]))
            raise ValueError(f"relator {str(shown)!r} too short to split")
        _check_name(name)  # first, as a token such as a^-1 is no name
        if name in self.tokens:
            raise ValueError(f"generator {name!r} already exists")
        letter, inverse = _spell(name)
        t = self.tokens[letter] = len(self.tokens)  # the new generator's code
        self.tokens[inverse] = t + 1
        pair = r.pop(), r.pop()
        r.append(t)
        # no relator held t, the split one starts with it and the new one with t^-1: all stay distinct
        self.relators.append([pair[1], pair[0], t + 1])
        self.steps.append(TietzeStep(name, pair, idx))
        return pair

    def end(self) -> Presentation:
        alphabet = Alphabet(tuple(self.tokens)[::2])  # the tokens hold each name, then its inverse
        return Presentation(alphabet, tuple([_word(alphabet, tuple(r[::-1])) for r in self.relators]))

    def history(self) -> "PresentationHistory":
        """The history of the splits so far, each checked as it was made."""
        h = object.__new__(PresentationHistory)
        h.__dict__.update(start=self.start, steps=tuple(self.steps), end=self.end())
        return h


@dataclass(frozen=True)
class PresentationHistory:
    """A chain of splits: ``start`` and its ``steps``, which the constructor
    replays and checks.  ``end``, the presentation they lead to, is derived
    by that replay, in time linear in the letters."""

    start: Presentation
    steps: tuple[TietzeStep, ...]
    end: Presentation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        replay = _Replay(self.start)
        for st in self.steps:
            if replay.split(st.replaced_relator_index, st.new_gen) != st.defined_as:
                raise ValueError(f"step for {st.new_gen!r} does not match its presentation")
        self.__dict__.update(steps=tuple(replay.steps), end=replay.end())


def shorten_all(p: Presentation) -> PresentationHistory:
    """Split the first over-long relator until every relator has length <= 3,
    naming each new generator by the least free ``t<k>``, which never goes back.

    Terminates in exactly sum(max(0, len(r) - 3)) steps: each split trims one
    unit of excess and appends a length-3 relator with none.
    """
    replay, k = _Replay(p), 1
    for idx in range(len(p.relators)):
        while len(replay.relators[idx]) > 3:
            while f"t{k}" in replay.tokens:
                k += 1
            replay.split(idx, f"t{k}")
    return replay.history()


def lift_word(w: Word, h: PresentationHistory) -> Word:
    """Rewrite a word over ``h.end`` in the original generators.

    Each new generator in the word is expanded through its two-letter
    definition down to the start alphabet, with no table of every image, and
    the result freely reduced.  Lifting is a homomorphism, and on words that
    never mention the new generators it is the identity.  An expansion past
    ``MAX_WORD_LETTERS`` letters is an error, raised before more are built.
    """
    if w.alphabet != h.end.alphabet:
        raise ValueError("word is not over the end alphabet of this history")
    n, defined = 2 * len(h.start.alphabet), [st.defined_as for st in h.steps]

    def expand():
        todo, left = list(w.codes[::-1]), words.MAX_WORD_LETTERS
        while todo:
            c = todo.pop()
            if c < n:
                left -= 1
                if left < 0:
                    raise ValueError(f"word longer than {words.MAX_WORD_LETTERS} letters")
                yield c
            else:  # (l1 l2)^-1 = l2^-1 l1^-1; the next letter goes on top
                l1, l2 = defined[(c - n) >> 1]
                todo += (l1 ^ 1, l2 ^ 1) if c & 1 else (l2, l1)

    return from_codes(h.start.alphabet, expand())


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
    if not (0 <= min(i, j) and max(i, j) < len(alphabet)):
        raise ValueError(f"generator indices {i}, {j} out of range")
    return _word(alphabet, tuple([2 * (j if k % 2 else i) for k in range(m)]))


# -- text formats -------------------------------------------------------

def format_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.alphabet.names)]
    lines.extend(f"rel: {r}" for r in p.relators)
    return "\n".join(lines) + "\n"


def _rel_line(rec: Records, relators: dict, stepped=()):
    """The ``rel:`` handler of presentation and history files: each relator
    is checked on its line and kept in file order; none may follow a step."""
    def rel(rest: str) -> None:
        if rec.alphabet is None or stepped:
            raise ValueError("rel line must follow the gens line and precede any step line")
        _add_relator(rec.alphabet, rec.word(rest, "relators"), relators)

    return rel


def _start(rec: Records, relators: dict) -> Presentation:
    """The presentation of a file's ``gens`` and ``rel`` lines, whose relators
    ``_rel_line`` checked, each on its line: they are not checked again."""
    if rec.alphabet is None:
        raise ValueError("missing gens line")
    p = object.__new__(Presentation)
    p.__dict__.update(alphabet=rec.alphabet, relators=tuple(relators))
    return p


def parse_presentation(text: str) -> Presentation:
    """Inverse of format_presentation; '#' starts a comment, blank lines ignored."""
    rec, relators = Records(text), {}
    rec.read({"gens": None, "rel": _rel_line(rec, relators)})
    return _start(rec, relators)


def format_history(h: PresentationHistory) -> str:
    """Start presentation followed by one line per split."""
    spell = h.end.alphabet.spellings
    lines = [format_presentation(h.start).rstrip("\n")]
    for name, (a, b), idx in h.steps:
        # two letters spelled separately, never run-length merged
        lines.append(f"step: {name} = {spell[a]} {spell[b]} @ {idx}")
    return "\n".join(lines) + "\n"


def parse_history(text: str) -> PresentationHistory:
    """Inverse of format_history: the start presentation, then its steps.
    Each step is replayed once, on its own line, so a forged step fails as
    ``line N: ...``, and its two letters are read against the names so far;
    what it spells beyond them counts against the file's letter cap."""
    rec, relators, replay = Records(text), {}, []  # the replay, from the first step line on

    def step(rest: str) -> None:
        if not replay:
            replay.append(_Replay(_start(rec, relators)))
        name, word_text, idx_text = fields(rest, "=", "@")
        name, idx = name.strip(), int(idx_text)
        spelled = _spelled(replay[0].tokens, word_text)
        pair = _reduced(spelled)
        if len(pair) != 2:
            raise ValueError(f"step definition must have exactly two letters: {rest!r}")
        rec.count(len(spelled) - 2, "history")  # nothing for a plain step
        if replay[0].split(idx, name) != pair:
            raise ValueError(f"step {name!r} does not match relator {idx} of its presentation")

    rec.read({"gens": None, "rel": _rel_line(rec, relators, replay), "step": step})
    return (replay[0] if replay else _Replay(_start(rec, relators))).history()
