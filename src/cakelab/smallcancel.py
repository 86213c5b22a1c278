"""Piece enumeration, cancellation-condition verdicts, Dehn reduction, and a
bounded word-problem oracle.

A piece is a non-empty common prefix of two *distinct* elements of the
symmetrized relator set (rotations and inverses count as distinct elements).
The verdicts C(p), C'(lambda), T(4) and the report read one table compiled
with the symmetrized set, ``SymmetrizedSet.verdicts``, and never the piece set
that ``enumerate_pieces`` and ``min_piece_count`` keep for arbitrary words.
Everything is exact: C'(lambda) compares with Fraction arithmetic because
interesting presentations sit exactly on the boundary.

Dehn reduction and the oracle rewrite letter-code tuples: they read one
relator-prefix scan, ``SymmetrizedSet.matches``, which disguise shares, and
swap with ``SymmetrizedSet.swap``.  The oracle searches breadth-first over
subword swaps alone and builds Words only for the witness it returns.  It
answers Trivial (with a replayable witness) or Unknown, never a false
Trivial: Unknown without a search when the word's abelianization lies outside
the relator lattice, and once its seen words pass ``MAX_SEARCH_LETTERS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .presentations import Presentation, SymmetrizedSet, symmetrize
from .words import MAX_WORD_LETTERS, Word, _word, add_letters, parse_word, read_records

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

MAX_SEARCH_LETTERS = 16 * MAX_WORD_LETTERS  # the oracle's seen words, in letters


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
    n, letters = len(r), r.letters
    count = pos = 0
    while pos < n:
        longest = 0
        while pos + longest < n and letters[pos : pos + longest + 1] in pieces:
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
    return all(k is None or k >= pbound for k in symmetrize(p).verdicts.min_pieces)


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
    return symmetrize(p).verdicts.cprime_sup


def check_T4(p: Presentation) -> bool:
    """T(4): among any admissible triple of symmetrized relators, some
    adjacent product has no seam cancellation.

    Triples (r1, r2, r3) range over the symmetrized set with the adjacency
    constraint r1 != r2^-1, r2 != r3^-1, r3 != r1^-1; the products checked
    are r1 r2, r2 r3, r3 r1.  ``SymmetrizedSet.verdicts`` walks the
    elements' (first, last) letter pairs.
    """
    return symmetrize(p).verdicts.t4


@dataclass(frozen=True)
class CancellationReport:
    source: Presentation
    piece_count: int
    min_piece_decomposition: tuple  # per original relator: int or None
    c_verdicts: dict
    cprime_sup: Optional[Fraction]
    t4: bool


def build_report(p: Presentation, c_bounds: Iterable[int] = (4,)) -> CancellationReport:
    table = symmetrize(p).verdicts
    return CancellationReport(
        source=p,
        piece_count=table.piece_count,
        min_piece_decomposition=table.relator_pieces,
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
    cur = w.codes
    while True:
        best = None
        for pos, i, k in s.matches(cur):
            if best is not None and best[0] < pos:
                break
            if 2 * k > len(s.ordered[i]) and (best is None or k > best[2]):
                best = pos, i, k
        if best is None:
            return _word(w.alphabet, cur)
        cur = s.swap(cur, *best)


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


def _swap_moves(x: tuple, s: SymmetrizedSet):
    """(post, pos, element index) per match in x, in scan order: one each, as
    every take up to the match length k swaps to the word of take k."""
    for pos, i, k in s.matches(x):
        yield s.swap(x, pos, i, k), pos, i


def bounded_wp_oracle(
    w: Word,
    p: Presentation,
    depth: int,
    max_len: int | None = None,
    node_budget: int = 50_000,
) -> Optional[WspWitness]:
    """Search for a proof that w is trivial modulo the relators.

    Breadth-first over at most ``depth`` moves, each swapping a matched
    prefix of a symmetrized relator for its inverted complement, the rewrite
    Dehn reduction and disguise use.  No relator is inserted: a swap of a
    whole element removes it, and inserts would cost |S| candidates at each
    of a node's |x| + 1 positions.  Intermediate words are capped at
    ``max_len`` (default 2|w| + longest relator) and the whole search at
    ``node_budget`` (at least 1) generated candidates.

    Returns a witness whose replay equals w, or None (unknown).  Sound by
    construction: every move multiplies by a conjugated relator, so a word
    reaching the empty word is genuinely trivial.  Each move also adds a
    relator's exponent-sum vector in Z^n, so when w's vector is outside the
    relator lattice no search can succeed: that returns None before any node
    is generated, the answer the search would give.  A search whose seen
    words pass ``MAX_SEARCH_LETTERS`` letters in all returns None as well.
    """
    if depth < 0 or node_budget < 1 or (max_len is not None and max_len < 0):
        raise ValueError("depth and max_len must be non-negative, node_budget at least 1")
    if not w:
        return WspWitness(())
    s = symmetrize(p)
    elems = s.ordered
    if not elems or not s.abelian_trivial(w):
        return None
    if max_len is None:
        max_len = 2 * len(w) + max(len(r) for r in elems)
    seen, held = {w.codes}, len(w)  # held: the letters in seen
    # a node is (codes, move): its move (x, pos, element, x's move) took x to
    # C r^-1 C^-1 x, C = x[:pos], so w is its path's C r C^-1 in move order
    frontier: list[tuple[tuple, Optional[tuple]]] = [(w.codes, None)]
    budget = node_budget
    for _ in range(depth):
        nxt: list[tuple[tuple, Optional[tuple]]] = []
        for x, path in frontier:
            for post, pos, i in _swap_moves(x, s):
                budget -= 1
                if not post:
                    move, factors = (x, pos, i, path), []
                    while move is not None:
                        at, start, j, move = move
                        factors.append((_word(w.alphabet, at[:start]), elems[j], 1))
                    return WspWitness(tuple(factors[::-1]))
                if len(post) <= max_len and post not in seen:
                    seen.add(post)
                    nxt.append((post, (x, pos, i, path)))
                    held += len(post)
                if budget <= 0 or held > MAX_SEARCH_LETTERS:
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
    """Inverse of format_witness; its words are capped at ``MAX_WORD_LETTERS``
    letters in total."""
    factors = []
    letters = 0

    def factor(rest: str) -> None:
        nonlocal letters
        head, sep1, tail = rest.partition("conj=")
        conj_text, sep2, tail = tail.partition(" rel=")
        rel_text, sep3, exp_text = tail.partition(" exp=")
        if head or not (sep1 and sep2 and sep3):
            raise ValueError(f"malformed factor line {rest!r}")
        exp = int(exp_text)
        if exp not in (1, -1):
            raise ValueError("factor exponent must be 1 or -1")
        conj, rel = parse_word(alphabet, conj_text), parse_word(alphabet, rel_text)
        letters = add_letters(letters, len(conj) + len(rel), "witness")
        factors.append((conj, rel, exp))

    read_records(text, {"factor": factor})
    return WspWitness(tuple(factors))
