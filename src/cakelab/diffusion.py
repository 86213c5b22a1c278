"""Equality-preserving word disguise.

Two move kinds, both multiplications by a conjugated relator and therefore
invisible in the group: inserting c r^e c^-1 at a position, and swapping a
matched relator prefix u for the inverted complement v^-1; both replay
through ``presentations.swap``.  Swap slots come from the symmetrized set's
relator-prefix scan (``SymmetrizedSet.matches``), the scan that Dehn
reduction and the oracle use; each has |u| < |v|, but a swap's word depends
on the whole match, not on |u| (see ``find_growth_swaps``), so not every
swap lengthens the word.  Every move is logged with enough context to
replay it and to convert the whole log into a word-search witness for
disguised * original^-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from random import Random

from .presentations import Presentation, SymmetrizedSet, swap, symmetrize
from .smallcancel import WspWitness
from .words import (
    Word, add_letters, common_prefix_len, concat, parse_word, random_reduced_word, read_records,
)

__all__ = [
    "DisguiseBudget",
    "RewriteMove",
    "insert_conjugate",
    "subword_swap",
    "find_growth_swaps",
    "disguise",
    "move_log_to_witness",
    "format_move_log",
    "parse_move_log",
]


@dataclass(frozen=True)
class DisguiseBudget:
    moves: int
    max_conjugator_len: int = 2
    max_word_len: int = 256

    def __post_init__(self):
        if self.moves < 0 or self.max_conjugator_len < 0 or self.max_word_len < 0:
            raise ValueError("budget fields must be non-negative")


@dataclass(frozen=True)
class RewriteMove:
    """One logged move; ``post_word`` is its replay on ``pre_word``, a ``swap``
    at take 0 that inserts ``conjugator relator^exponent conjugator^-1``.

    A swap has exponent -1 and no conjugator, and its relator matches
    ``pre_word`` at ``position`` in at least one letter.
    """

    kind: str  # "insert-conjugate" | "subword-swap"
    position: int
    relator: Word
    exponent: int
    conjugator: Word
    pre_word: Word
    post_word: Word = field(init=False)

    def __post_init__(self):
        if self.kind not in ("insert-conjugate", "subword-swap"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.exponent not in (1, -1):
            raise ValueError("exponent must be 1 or -1")
        if not 0 <= self.position <= len(self.pre_word):
            raise ValueError("move position out of range")
        if self.kind == "subword-swap":
            if self.conjugator:
                raise ValueError("swaps carry no conjugator")
            if self.exponent != -1:
                raise ValueError("swaps have exponent -1")
            if not common_prefix_len(self.pre_word.codes, self.relator.codes, self.position):
                raise ValueError(f"word does not match the relator prefix at {self.position}")
        c, r = self.conjugator, self.relator  # swap at take 0 inserts (c r^-e c^-1)^-1
        post = swap(self.pre_word, self.position, c * r ** -self.exponent * c.inverse(), 0)
        object.__setattr__(self, "post_word", post)


def insert_conjugate(w: Word, p: Presentation, pos: int, conjugator: Word,
                     relator: Word, exponent: int = 1) -> Word:
    """prefix . c r^e c^-1 . suffix, freely reduced; equals w in the group."""
    if relator not in symmetrize(p):
        raise ValueError("relator is not in the symmetrized set")
    return RewriteMove("insert-conjugate", pos, relator, exponent, conjugator, w).post_word


def subword_swap(w: Word, p: Presentation, pos: int, relator: Word, take: int) -> Word:
    """Replace the matched prefix u = relator[:take] at pos by the inverted
    complement; equals w in the group.  Every take up to the match length
    gives the same word (see find_growth_swaps)."""
    if relator not in symmetrize(p):
        raise ValueError("relator is not in the symmetrized set")
    if not 1 <= take <= len(relator):
        raise ValueError("take must cover a non-empty relator prefix")
    if not 0 <= pos < len(w) or common_prefix_len(w.codes, relator.codes, pos) < take:
        raise ValueError(f"word does not match the relator prefix at {pos}")
    return swap(w, pos, relator, take)


def find_growth_swaps(w: Word, s: SymmetrizedSet):
    """All (pos, relator, take) with 2*take < |relator|, by position, then in
    canonical order among the elements starting there.  Every take up to the
    match length k swaps to the same word (free reduction cancels the rest
    of the match), so a slot lengthens the word by at most |relator| - 2k,
    and not at all when 2k >= |relator|; disguise draws from every take."""
    elems = s.ordered
    return [
        (pos, elems[i], take)
        for pos, i, k in s.matches(w.codes)
        for take in range(1, min(k, (len(elems[i]) - 1) // 2) + 1)
    ]


def _one_pass(w: Word, p: Presentation, budget: DisguiseBudget, rng: Random):
    s = symmetrize(p)
    cur = w
    log: list[RewriteMove] = []
    for _ in range(budget.moves):
        # slots: every growth swap, then every (position, element) insert
        swaps = find_growth_swaps(cur, s)
        n_slots = len(swaps) + (len(cur) + 1) * len(s.ordered)
        for _ in range(16):  # resample when the length cap rejects a slot
            k = rng.randrange(n_slots)
            if k < len(swaps):
                pos, rel, _take = swaps[k]
                move = RewriteMove("subword-swap", pos, rel, -1, Word(cur.alphabet), cur)
            else:
                pos, i = divmod(k - len(swaps), len(s.ordered))
                conj = random_reduced_word(
                    cur.alphabet, rng.randint(0, budget.max_conjugator_len), rng
                )
                move = RewriteMove("insert-conjugate", pos, s.ordered[i], 1, conj, cur)
            if len(move.post_word) <= budget.max_word_len:
                break
        else:  # every draw broke the length cap
            break
        log.append(move)
        cur = move.post_word
    return cur, log


def disguise(w: Word, p: Presentation, budget: DisguiseBudget, seed: int):
    """Apply up to budget.moves random equality-preserving moves.

    Deterministic in seed.  The result is the same group element as w; it
    differs from w textually whenever moves were requested and some legal
    move exists (retried across fresh move sequences, with a warning on
    pathological platforms where every attempt lands back on w).
    """
    if budget.moves == 0:
        return w, []
    if not p.relators:
        warnings.warn("presentation has no relators; nothing to disguise with")
        return w, []
    rng = Random(seed)
    for _ in range(32):
        cur, log = _one_pass(w, p, budget, Random(rng.getrandbits(64)))
        if log and cur != w:
            return cur, log
    warnings.warn("disguise could not produce a textually different word")
    return w, []


def move_log_to_witness(log) -> WspWitness:
    """Witness for disguised * original^-1: the logged factors, outermost
    (latest) first."""
    factors = []
    for mv in reversed(list(log)):
        factors.append((concat(mv.pre_word[: mv.position], mv.conjugator), mv.relator, mv.exponent))
    return WspWitness(tuple(factors))


# -- move-log text format ---------------------------------------------------

def format_move_log(log) -> str:
    lines = [
        f"move: {mv.kind} @ {mv.position} rel={mv.relator} exp={mv.exponent} conj={mv.conjugator}"
        for mv in log
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_move_log(text: str, p: Presentation, start: Word):
    """Rebuild a move log by replaying the serialized moves from ``start``.

    Every relator must be an element of ``p``'s symmetrized set; a move by
    any other word would not preserve the group element.  The parsed words
    and the replayed post words are capped at ``MAX_WORD_LETTERS`` letters in
    total, so short lines cannot each hold a copy of one long post word.
    """
    s = symmetrize(p)
    alphabet = start.alphabet
    out: list[RewriteMove] = []
    letters = 0

    def move(rest: str) -> None:
        nonlocal letters
        head, sep1, tail = rest.partition(" rel=")
        rel_text, sep2, tail = tail.partition(" exp=")
        exp_text, sep3, conj_text = tail.partition(" conj=")
        kind, sep4, pos_text = head.partition("@")
        if not (sep1 and sep2 and sep3 and sep4):
            raise ValueError(f"malformed move line {rest!r}")
        rel = parse_word(alphabet, rel_text)
        if rel not in s:
            raise ValueError(f"relator {str(rel)!r} is not in the symmetrized set")
        conj = parse_word(alphabet, conj_text)
        pre = out[-1].post_word if out else start
        mv = RewriteMove(kind.strip(), int(pos_text), rel, int(exp_text), conj, pre)
        letters = add_letters(letters, len(rel) + len(conj) + len(mv.post_word), "move log")
        out.append(mv)

    read_records(text, {"move": move})
    return out
