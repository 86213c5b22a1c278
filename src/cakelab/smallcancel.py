"""Piece enumeration, cancellation-condition verdicts, Dehn reduction, and a
bounded word-problem oracle.

A piece is a non-empty common prefix of two *distinct* elements of the
symmetrized relator set (rotations and inverses count as distinct elements).
Everything downstream is exact: C'(lambda) compares with Fraction arithmetic
because interesting presentations sit exactly on the boundary.

Dehn reduction and the oracle's subword swaps read one relator-prefix scan,
``SymmetrizedSet.matches``, and rewrite with one swap, ``presentations.swap``;
disguise's growth swaps share both.  The oracle searches breadth-first over
relator insertions and subword swaps.  It can answer Trivial (with a
replayable witness) or Unknown, never a false Trivial.  A word whose
abelianization lies outside the relator lattice is Unknown without a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .presentations import Presentation, SymmetrizedSet, swap, symmetrize
from .words import Word, concat, parse_word, read_records

__all__ = [
    "CancellationReport",
    "WspWitness",
    "enumerate_pieces",
    "min_piece_count",
    "check_C",
    "check_Cprime",
    "cprime_sup",
    "check_T4",
    "build_report",
    "dehn_reduce",
    "bounded_wp_oracle",
    "replay_witness",
    "witness_matches",
    "format_witness",
    "parse_witness",
]


def enumerate_pieces(s: SymmetrizedSet) -> frozenset:
    """Letter tuples of the common prefixes of distinct elements; built once per set."""
    return s.pieces


def min_piece_count(r: Word, pieces: frozenset) -> Optional[int]:
    """Fewest pieces whose concatenation is literally r; None if impossible.

    ``pieces`` are those of a symmetrized set: closed under prefixes and, as
    the set is closed under rotation, under non-empty suffixes.  So the piece
    lengths at a position form a range 1..L, and pos + L never decreases
    with pos: taking the longest piece at each step is optimal.
    """
    n = len(r)
    count = pos = 0
    while pos < n:
        longest = 0
        while pos + longest < n and r.letters[pos : pos + longest + 1] in pieces:
            longest += 1
        if not longest:
            return None
        count += 1
        pos += longest
    return count


def check_C(p: Presentation, pbound: int) -> bool:
    """C(pbound): no symmetrized relator is a product of < pbound pieces.

    Relators that are not piece products at all satisfy the condition
    vacuously.
    """
    if pbound < 2:
        raise ValueError("pbound must be at least 2")
    s = symmetrize(p)
    pieces = enumerate_pieces(s)
    for r in s.ordered:
        k = min_piece_count(r, pieces)
        if k is not None and k < pbound:
            return False
    return True


def check_Cprime(p: Presentation, lam: Fraction) -> bool:
    """C'(lam): every piece prefix u of a symmetrized relator r has |u| < lam|r|.

    Exact rational comparison; the strict inequality matters on the boundary.
    """
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("lambda must be in (0, 1]")
    sup = cprime_sup(p)
    return sup is None or sup < lam


def cprime_sup(p: Presentation) -> Optional[Fraction]:
    """Largest |u|/|r| over piece prefixes, or None when no relator has one."""
    s = symmetrize(p)
    return max(
        (Fraction(m, len(r)) for r, m in zip(s.ordered, s.piece_lengths) if m),
        default=None,
    )


def check_T4(p: Presentation) -> bool:
    """T(4): among any admissible triple of symmetrized relators, some
    adjacent product has no seam cancellation.

    Triples (r1, r2, r3) range over the symmetrized set with the adjacency
    constraint r1 != r2^-1, r2 != r3^-1, r3 != r1^-1; the products checked
    are r1 r2, r2 r3, r3 r1.

    Only each element's first and last letters matter, so the search walks
    the distinct (first, last) pairs: for a pair (a, b), some c among the
    last letters of elements starting with b^-1 such that an element starts
    with c^-1 and ends with a^-1.  It costs at most (2n)^3 for n generators,
    whatever the relator lengths.

    The adjacency constraint needs no test: every element is cyclically
    reduced, so none ends in the inverse of its first letter, and each
    excluded triple with all three seams cancelling would need such an
    element (r2 = r1^-1 forces it on r3, r3 = r2^-1 on r1, r3 = r1^-1 on r2).
    """
    ends: dict = {}  # first letter -> the last letters of elements starting with it
    for r in symmetrize(p).ordered:
        ends.setdefault(r.letters[0], set()).add(r.letters[-1])
    for a, lasts in ends.items():
        for b in lasts:
            for c in ends.get(b.inverse(), ()):
                if a.inverse() in ends.get(c.inverse(), ()):
                    return False
    return True


@dataclass(frozen=True)
class CancellationReport:
    source: Presentation
    piece_count: int
    min_piece_decomposition: tuple  # per original relator: int or None
    c_verdicts: dict
    cprime_sup: Optional[Fraction]
    t4: bool


def build_report(p: Presentation, c_bounds: Iterable[int] = (4,)) -> CancellationReport:
    s = symmetrize(p)
    pieces = enumerate_pieces(s)
    return CancellationReport(
        source=p,
        piece_count=len(pieces),
        min_piece_decomposition=tuple(min_piece_count(r, pieces) for r in p.relators),
        c_verdicts={b: check_C(p, b) for b in c_bounds},
        cprime_sup=cprime_sup(p),
        t4=check_T4(p),
    )


# -- Dehn's algorithm ----------------------------------------------------

def dehn_reduce(w: Word, p: Presentation) -> Word:
    """Replace relator-majority subwords u by the shorter complement v^-1
    until none remain.  Leftmost match first, then the longest u, then the
    earliest element in canonical order.

    Never increases length; for C'(1/6) presentations the fixed point is
    empty exactly when w represents the identity.
    """
    s = symmetrize(p)
    cur = w
    while True:
        best = None
        for pos, r, k in s.matches(cur):
            if best is not None and best[0] < pos:
                break
            if 2 * k > len(r) and (best is None or k > best[2]):
                best = pos, r, k
        if best is None:
            return cur
        cur = swap(cur, *best)


# -- bounded word-problem oracle ------------------------------------------

@dataclass(frozen=True)
class WspWitness:
    """Factors (conjugator, relator, exponent) whose product, freely reduced,
    is the witnessed word."""

    factors: tuple  # of (Word, Word, int)


def replay_witness(witness: WspWitness, alphabet=None) -> Word:
    if not witness.factors and alphabet is None:
        raise ValueError("cannot replay an empty witness without an alphabet")
    if alphabet is None:
        alphabet = witness.factors[0][0].alphabet
    out = Word(alphabet)
    for conj, rel, exp in witness.factors:
        out = out * conj * (rel ** exp) * conj.inverse()
    return out


def witness_matches(witness: WspWitness, w: Word) -> bool:
    return replay_witness(witness, w.alphabet) == w


def _swap_moves(x: Word, s: SymmetrizedSet):
    """(post, conjugator, relator, exponent) per match, in scan order: one
    each, as every take up to the match length k swaps to the word of take k."""
    for pos, r, k in s.matches(x):
        yield swap(x, pos, r, k), x[:pos], r, -1


def _insert_moves(x: Word, elems: tuple):
    for pos in range(len(x) + 1):
        prefix = x[:pos]
        suffix = x[pos:]
        for r in elems:
            yield concat(concat(prefix, r), suffix), prefix, r, 1


def _moves(x: Word, s: SymmetrizedSet):
    # swaps first: they are the shrinking direction and reach the goal sooner
    yield from _swap_moves(x, s)
    yield from _insert_moves(x, s.ordered)


def bounded_wp_oracle(
    w: Word,
    p: Presentation,
    depth: int,
    max_len: int | None = None,
    node_budget: int = 50_000,
) -> Optional[WspWitness]:
    """Search for a proof that w is trivial modulo the relators.

    Breadth-first over at most ``depth`` moves, each move either inserting a
    symmetrized relator at some position or swapping a matched relator prefix
    for the inverted complement.  Intermediate words are capped at
    ``max_len`` (default 2|w| + longest relator) and the whole search at
    ``node_budget`` generated candidates.

    Returns a witness whose replay equals w, or None (unknown).  Sound by
    construction: every move multiplies by a conjugated relator, so a word
    reaching the empty word is genuinely trivial.  Each move also adds a
    relator's exponent-sum vector in Z^n, so when w's vector is outside the
    relator lattice no search can succeed: that returns None before any node
    is generated, the answer the search would give.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if not w:
        return WspWitness(())
    s = symmetrize(p)
    elems = s.ordered
    if not elems or not s.abelian_trivial(w):
        return None
    if max_len is None:
        max_len = 2 * len(w) + max(len(r) for r in elems)
    seen = {w}
    # each path holds its witness factors: a move takes x to C r^e C^-1 x, so
    # w is the product of the moves' C r^-e C^-1 in move order
    frontier: list[tuple[Word, tuple]] = [(w, ())]
    budget = node_budget
    for _ in range(depth):
        if not frontier:
            break
        nxt: list[tuple[Word, tuple]] = []
        for x, path in frontier:
            for post, conj, rel, exp in _moves(x, s):
                budget -= 1
                if not post:
                    return WspWitness(path + ((conj, rel, -exp),))
                if len(post) <= max_len and post not in seen:
                    seen.add(post)
                    nxt.append((post, path + ((conj, rel, -exp),)))
                if budget <= 0:
                    return None
        frontier = nxt
    return None


# -- witness text format --------------------------------------------------

def format_witness(witness: WspWitness) -> str:
    lines = [
        f"factor: conj={conj} rel={rel} exp={exp}"
        for conj, rel, exp in witness.factors
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_witness(text: str, alphabet) -> WspWitness:
    factors = []

    def factor(rest: str) -> None:
        head, sep1, tail = rest.partition("conj=")
        conj_text, sep2, tail = tail.partition(" rel=")
        rel_text, sep3, exp_text = tail.partition(" exp=")
        if head or not (sep1 and sep2 and sep3):
            raise ValueError(f"malformed factor line {rest!r}")
        exp = int(exp_text)
        if exp not in (1, -1):
            raise ValueError("factor exponent must be 1 or -1")
        factors.append(
            (parse_word(alphabet, conj_text), parse_word(alphabet, rel_text), exp)
        )

    read_records(text, {"factor": factor})
    return WspWitness(tuple(factors))
