"""Piece enumeration, cancellation-condition verdicts, Dehn reduction, and a
bounded word-problem oracle.

A piece is a non-empty common prefix of two *distinct* elements of the
symmetrized relator set (rotations and inverses count as distinct elements).
The verdicts C(p), C'(lambda), T(4) and the report read one table compiled
with the symmetrized set, ``SymmetrizedSet.verdicts``, and never the piece set
that ``enumerate_pieces`` and ``min_piece_count`` keep for arbitrary words.
Everything is exact: C'(lambda) compares with Fraction arithmetic because
interesting presentations sit exactly on the boundary.

Dehn reduction and the oracle rewrite letter-code tuples and read the
relator-prefix scan ``SymmetrizedSet.matches``, which disguise shares.  Dehn
swaps with ``SymmetrizedSet.swap``; the oracle swaps at every match, so it
walks that swap's seams inline, with no call per candidate.  It searches
breadth-first over subword swaps alone, keeps its tree in flat lists (a kept
word is the one object a node adds, and each candidate is hashed once, by one
``seen.add``), and builds Words only for the witness it returns.
It answers Trivial (with a replayable witness) or Unknown, never a false
Trivial: Unknown without a search when the word's abelianization lies outside
the relator lattice, and once its seen words pass ``MAX_SEARCH_LETTERS``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .presentations import Presentation, SymmetrizedSet, symmetrize
from .words import MAX_WORD_LETTERS, Alphabet, Records, Word, _Record, _word, fields

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
    "format_witness",
    "parse_witness",
]

MAX_SEARCH_LETTERS = 16 * MAX_WORD_LETTERS  # the oracle's seen words, in letters


def enumerate_pieces(s: SymmetrizedSet) -> frozenset:
    """Code tuples of the common prefixes of distinct elements; built once per set."""
    return s.pieces


def min_piece_count(r: Word, pieces: frozenset) -> Optional[int]:
    """Fewest pieces whose concatenation is literally r; None if impossible.

    ``pieces`` are those of a symmetrized set: closed under prefixes and, as
    the set is closed under rotation, under non-empty suffixes.  So the piece
    lengths at a position form a range 1..L, and pos + L never decreases
    with pos: taking the longest piece at each step is optimal.
    """
    n, codes = len(r), r.codes
    count = pos = 0
    while pos < n:
        longest = 0
        while pos + longest < n and codes[pos : pos + longest + 1] in pieces:
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


class CancellationReport(_Record):
    piece_count: int
    min_piece_decomposition: tuple  # per original relator: int or None
    c_verdicts: dict  # {4: C(4)}
    cprime_sup: Optional[Fraction]
    t4: bool

    def __init__(self, piece_count, min_piece_decomposition, c_verdicts, cprime_sup, t4):
        vars(self).update(piece_count=piece_count, min_piece_decomposition=min_piece_decomposition,
                          c_verdicts=c_verdicts, cprime_sup=cprime_sup, t4=t4)


def build_report(p: Presentation) -> CancellationReport:
    table = symmetrize(p).verdicts
    return CancellationReport(
        piece_count=table.piece_count,
        min_piece_decomposition=table.relator_pieces,
        c_verdicts={4: check_C(p, 4)},
        cprime_sup=cprime_sup(p),
        t4=check_T4(p),
    )


# -- Dehn's algorithm ----------------------------------------------------

def dehn_reduce(w: Word, p: Presentation) -> Word:
    """Replace relator-majority subwords u by the shorter complement v^-1
    until none remain.  Leftmost match first, then the longest u, then the
    earliest element in canonical order.

    Each swap shortens the word, so at most |w| swaps happen; past that a
    ``RuntimeError`` is raised rather than looping.  For C'(1/6)
    presentations the fixed point is empty exactly when w represents the
    identity.  A word over another alphabet is a ``ValueError``.
    """
    if w.alphabet != p.alphabet:
        raise ValueError("word and presentation alphabets differ")
    s = symmetrize(p)
    cur = w.codes
    for _ in range(len(cur) + 1):
        best = None
        for pos, i, k in s.matches(cur):
            if best is not None and best[0] < pos:
                break
            if 2 * k > s.lengths[i] and (best is None or k > best[2]):
                best = pos, i, k
        if best is None:
            return _word(w.alphabet, cur)
        cur = s.swap(cur, *best)
    raise RuntimeError("Dehn reduction made more swaps than the word has letters")


# -- bounded word-problem oracle ------------------------------------------

class WspWitness(_Record):
    """Factors (conjugator, relator, exponent) whose product, freely reduced,
    is the witnessed word."""

    factors: tuple  # of (Word, Word, int)

    def __init__(self, factors: tuple):
        vars(self).update(factors=factors)


def replay_witness(witness: WspWitness, alphabet: Alphabet) -> Word:
    out = Word(alphabet)
    for conj, rel, exp in witness.factors:
        out = out * conj * (rel ** exp) * conj.inverse()
    return out


def bounded_wp_oracle(
    w: Word,
    p: Presentation,
    depth: int,
    max_len: int | None = None,
    node_budget: int = 50_000,
) -> Optional[WspWitness]:
    """Search for a proof that w is trivial modulo the relators.

    Breadth-first over at most ``depth`` moves, one per match that
    ``SymmetrizedSet.matches`` yields (a shorter take swaps to the same word),
    each swapping the matched prefix of a symmetrized relator for its
    inverted complement, the rewrite of Dehn reduction and disguise.  No
    relator is inserted: a swap of a whole element removes it, and inserts
    would cost |S| candidates at each of a node's |x| + 1 positions.
    Intermediate words are capped at ``max_len`` (default 2|w| + longest
    relator) and the whole search at ``node_budget`` (at least 1) generated
    candidates.

    Returns a witness whose replay equals w, or None (unknown).  Sound by
    construction: every move multiplies by a conjugated relator, so a word
    reaching the empty word is genuinely trivial.  Each move also adds a
    relator's exponent-sum vector in Z^n, so when w's vector is outside the
    relator lattice no search can succeed: that returns None before any node
    is generated, the answer the search would give.  A search whose seen
    words pass ``MAX_SEARCH_LETTERS`` letters in all returns None as well,
    and so does one that reaches a level with no new word, however large
    ``depth`` is.
    """
    if depth < 0 or node_budget < 1 or (max_len is not None and max_len < 0):
        raise ValueError("depth and max_len must be non-negative, node_budget at least 1")
    if w.alphabet != p.alphabet:
        raise ValueError("word and presentation alphabets differ")
    if not w:
        return WspWitness(())
    s = symmetrize(p)
    if not len(s) or not s.abelian_trivial(w):
        return None
    if max_len is None:
        max_len = 2 * len(w) + s.lengths[-1]  # canonical order sorts by length
    seen, held = {w.codes}, len(w)  # held: the letters in seen
    # the search tree in flat lists, node t for the t-th word seen, so
    # len(seen) == len(nodes) and a level is a run of indices: node t's move
    # took x = nodes[parent[t]] to C r^-1 C^-1 x, C = x[:at[t]] and r the
    # element elem[t], so w is its path's C r C^-1 in move order; node 0 is w
    nodes, parent, at, elem = [w.codes], [0], [0], [0]
    frontier, budget, inverted = range(1), node_budget, s.inverted
    for _ in range(depth):
        for u in frontier:
            x = nodes[u]
            n = len(x)
            for pos, i, k in s.matches(x):
                budget -= 1
                # s.swap(x, pos, i, k), its seams walked inline: splice in
                # mid[:m], the inverse element less its last k letters; the
                # right seam never cancels, as the match stopped at an end or
                # at a letter other than r[k], whose inverse ends mid[:m]
                mid = inverted[i]
                a, b, j = pos, pos + k, 0
                m = len(mid) - k
                while a and j < m and x[a - 1] == mid[j] ^ 1:
                    a, j = a - 1, j + 1
                if j == m:
                    while a and b < n and x[a - 1] == x[b] ^ 1:
                        a, b = a - 1, b + 1
                post = x[:a] + mid[j:m] + x[b:]
                if not post:
                    factors = [(_word(w.alphabet, x[:pos]), s.ordered[i], 1)]
                    while u:
                        factors.append((_word(w.alphabet, nodes[parent[u]][:at[u]]), s.ordered[elem[u]], 1))
                        u = parent[u]
                    return WspWitness(tuple(factors[::-1]))
                if len(post) <= max_len:
                    seen.add(post)  # one hash: the set grows only for a new word
                    if len(seen) > len(nodes):
                        nodes.append(post)
                        parent.append(u)
                        at.append(pos)
                        elem.append(i)
                        held += len(post)
                if budget <= 0 or held > MAX_SEARCH_LETTERS:
                    return None
        if frontier.stop == len(nodes):  # every later level would be empty too
            return None
        frontier = range(frontier.stop, len(nodes))
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
    rec, factors = Records(text, alphabet), []

    def factor(rest: str) -> None:
        head, conj_text, rel_text, exp_text = fields(rest, "conj=", " rel=", " exp=")
        if head:
            raise ValueError(f"malformed factor line {rest!r}")
        exp = int(exp_text)
        if exp not in (1, -1):
            raise ValueError("factor exponent must be 1 or -1")
        factors.append((rec.word(conj_text, "witness"), rec.word(rel_text, "witness"), exp))

    rec.read({"factor": factor})
    return WspWitness(tuple(factors))
