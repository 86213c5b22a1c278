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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import words
from .words import (
    Alphabet,
    Letter,
    Word,
    common_prefix_len,
    concat,
    free_reduce,
    parse_word,
    read_records,
    word_sort_key,
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


@dataclass(frozen=True, init=False, eq=False)
class SymmetrizedSet:
    """The compiled form of a presentation: all cyclic rotations of the
    relators and of their inverses, in canonical (length, letters) order in
    ``ordered``, with ``piece_lengths[i]`` the length of the longest piece
    prefix of ``ordered[i]``.  Pieces and the first-letter index are built
    on first use, as is the relator lattice.  Built from the relators, it is
    closed under rotation and inversion by construction; :func:`symmetrize`
    builds it once per presentation.

    :meth:`matches` is the one relator-prefix scan: Dehn's algorithm, the
    oracle's swap moves and disguise's growth swaps all read it, and all
    rewrite with :func:`swap`.
    """

    alphabet: Alphabet
    relators: tuple[Word, ...]
    elements: frozenset
    ordered: tuple[Word, ...]
    piece_lengths: tuple[int, ...]

    def __init__(self, p: Presentation):
        # each relator r gives at most 2|r| elements of |r| letters
        if 2 * sum(len(r) ** 2 for r in p.relators) > words.MAX_WORD_LETTERS:
            raise ValueError(f"symmetrized set longer than {words.MAX_WORD_LETTERS} letters")
        closure = set()
        for r in p.relators:
            closure |= r.cyclic_permutations()
            closure |= r.inverse().cyclic_permutations()
        ordered = tuple(sorted(closure, key=word_sort_key))
        # In letter-lexicographic order the longest common prefix of an
        # element with any other one is the one with a neighbour.
        lex = sorted(range(len(ordered)), key=lambda i: ordered[i].letters)
        lengths = [0] * len(lex)
        for i, j in zip(lex, lex[1:]):
            k = common_prefix_len(ordered[i].letters, ordered[j].letters)
            lengths[i] = max(lengths[i], k)
            lengths[j] = max(lengths[j], k)
        object.__setattr__(self, "alphabet", p.alphabet)
        object.__setattr__(self, "relators", p.relators)
        object.__setattr__(self, "elements", frozenset(closure))
        object.__setattr__(self, "ordered", ordered)
        object.__setattr__(self, "piece_lengths", tuple(lengths))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, w: Word) -> bool:
        return w in self.elements

    @cached_property
    def pieces(self) -> frozenset:
        """Letter tuples of the pieces: each element's prefixes up to its piece length."""
        return frozenset(
            r.letters[:k]
            for r, m in zip(self.ordered, self.piece_lengths)
            for k in range(1, m + 1)
        )

    @cached_property
    def first_letters(self) -> dict:
        """First letter -> indices of the elements starting with it, ascending."""
        starting: dict[Letter, list[int]] = {}
        for i, r in enumerate(self.ordered):
            starting.setdefault(r.letters[0], []).append(i)
        return {lt: tuple(ix) for lt, ix in starting.items()}

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

    def matches(self, w: Word) -> Iterator[tuple[int, Word, int]]:
        """``(pos, r, k)`` for each element r starting with ``w``'s letter at
        pos, by position, then in canonical order; k is the length of the
        common prefix of ``w[pos:]`` and r."""
        elems, starting, letters = self.ordered, self.first_letters, w.letters
        for pos, lt in enumerate(letters):
            for i in starting.get(lt, ()):
                r = elems[i]
                yield pos, r, common_prefix_len(letters, r.letters, pos)


def _exponent_sums(w: Word) -> list[int]:
    """The image of w in the abelianization Z^n: one exponent sum per generator."""
    v = [0] * len(w.alphabet)
    for lt in w.letters:
        v[lt.gen] += lt.sign
    return v


def swap(w: Word, pos: int, r: Word, take: int) -> Word:
    """``w[:pos] . r[take:]^-1 . w[pos+take:]``, freely reduced: the matched
    prefix ``r[:take]`` at pos replaced by the inverted complement.  It
    equals ``c r^-1 c^-1 . w`` with c = ``w[:pos]``."""
    return concat(concat(w[:pos], r[take:].inverse()), w[pos + take :])


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


def _retag(w: Word, alphabet: Alphabet) -> Word:
    # indices are stable because alphabets only ever grow by appending
    return Word(alphabet, w.letters)


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
    t = len(p.alphabet.names)
    l1, l2 = r.letters[0], r.letters[1]
    replacement = Word(bigger, (Letter(t, 1),) + r.letters[2:])
    definition = Word(bigger, (Letter(t, -1), l1, l2))
    relators = [_retag(old, bigger) for old in p.relators]
    relators[idx] = replacement
    out: list[Word] = []
    for w in relators + [definition]:
        if w not in out:  # operations drop duplicates silently
            out.append(w)
    step = TietzeStep(name, (l1, l2), idx, r, replacement)
    return Presentation(bigger, tuple(out)), step


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
    return PresentationHistory(p, tuple(steps), cur)


def _definition_table(h: PresentationHistory) -> dict:
    """Map every end-alphabet generator name to its word over the start alphabet."""
    end_names = h.end.alphabet.names
    table = {name: h.start.alphabet.letter(name) for name in h.start.alphabet.names}

    def resolve(lt: Letter) -> Word:
        base = table[end_names[lt.gen]]
        return base if lt.sign > 0 else base.inverse()

    for st in h.steps:
        l1, l2 = st.defined_as
        table[st.new_gen] = resolve(l1) * resolve(l2)
    return table


def lift_word(w: Word, h: PresentationHistory) -> Word:
    """Rewrite a word over ``h.end`` in the original generators.

    Every introduced generator is replaced by its two-letter definition,
    iterated down to the start alphabet, then freely reduced.  Lifting is a
    homomorphism, and on words that never mention the new generators it is
    the identity.
    """
    if w.alphabet != h.end.alphabet:
        raise ValueError("word is not over the end alphabet of this history")
    table = _definition_table(h)
    end_names = h.end.alphabet.names
    out: list[Letter] = []
    for lt in w.letters:
        img = table[end_names[lt.gen]]
        if lt.sign < 0:
            img = img.inverse()
        out.extend(img.letters)
    return free_reduce(h.start.alphabet, out)


def include_word(w: Word, h: PresentationHistory) -> Word:
    """View a word over ``h.start`` as a word over ``h.end`` (indices are stable)."""
    if w.alphabet != h.start.alphabet:
        raise ValueError("word is not over the start alphabet of this history")
    return _retag(w, h.end.alphabet)


def alternating_word(alphabet: Alphabet, i: int, j: int, m: int) -> Word:
    """The length-m word ``a_i a_j a_i ...`` (positive letters, alternating)."""
    if m < 1:
        raise ValueError("length must be positive")
    if i == j:
        raise ValueError("alternating word needs two distinct generators")
    letters = tuple(Letter(i if k % 2 == 0 else j, 1) for k in range(m))
    return Word(alphabet, letters)


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
            if rel not in relators:
                relators.append(rel)
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
        self.letters += len(r)
        if self.letters > words.MAX_WORD_LETTERS:
            raise ValueError(f"relators longer than {words.MAX_WORD_LETTERS} letters in total")

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
    """Inverse of format_history: the start presentation, then its steps."""
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
    return PresentationHistory(start, tuple(steps), start if cur is None else cur)
