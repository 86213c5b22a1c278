"""Equality-preserving word disguise.

Two move kinds, both multiplications by a conjugated relator and therefore
invisible in the group: inserting c r^e c^-1 at a position, and swapping a
matched relator prefix u for the inverted complement v^-1 (growth direction
only, |u| < |v|).  Swaps are found by the symmetrized set's relator-prefix
scan (``SymmetrizedSet.matches``) and made by ``presentations.swap``, the
same scan and swap that Dehn reduction and the oracle use.  Every move is
logged with enough context to replay it and to convert the whole log into a
word-search witness for disguised * original^-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from random import Random

from .presentations import Presentation, SymmetrizedSet, swap, symmetrize
from .smallcancel import WspWitness
from .words import Word, common_prefix_len, concat, parse_word, random_reduced_word

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


def _replay(pre: Word, pos: int, conj: Word, rel: Word, exp: int) -> Word:
    # uniform move algebra: C r^e C^-1 * pre with C the pre-prefix times conj
    c = concat(pre[:pos], conj)
    return c * (rel ** exp) * c.inverse() * pre


@dataclass(frozen=True)
class RewriteMove:
    """One logged move; replaying it on pre_word always yields post_word."""

    kind: str  # "insert-conjugate" | "subword-swap"
    position: int
    relator: Word
    exponent: int
    conjugator: Word
    pre_word: Word
    post_word: Word

    def __post_init__(self):
        if self.kind not in ("insert-conjugate", "subword-swap"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.exponent not in (1, -1):
            raise ValueError("exponent must be 1 or -1")
        if self.kind == "subword-swap" and self.conjugator:
            raise ValueError("swaps carry no conjugator")
        if not 0 <= self.position <= len(self.pre_word):
            raise ValueError("move position out of range")
        replayed = _replay(self.pre_word, self.position, self.conjugator, self.relator, self.exponent)
        if replayed != self.post_word:
            raise ValueError("move does not replay to its post word")


def insert_conjugate(w: Word, p: Presentation, pos: int, conjugator: Word,
                     relator: Word, exponent: int = 1) -> Word:
    """prefix . c r^e c^-1 . suffix, freely reduced; equals w in the group."""
    if relator not in symmetrize(p):
        raise ValueError("relator is not in the symmetrized set")
    if not 0 <= pos <= len(w):
        raise ValueError(f"position {pos} out of range")
    if exponent not in (1, -1):
        raise ValueError("exponent must be 1 or -1")
    return _replay(w, pos, conjugator, relator, exponent)


def subword_swap(w: Word, p: Presentation, pos: int, relator: Word, take: int) -> Word:
    """Replace the matched prefix u = relator[:take] at pos by the inverted
    complement; equals w in the group.  Growth when 2*take < |relator|."""
    if relator not in symmetrize(p):
        raise ValueError("relator is not in the symmetrized set")
    if not 1 <= take <= len(relator):
        raise ValueError("take must cover a non-empty relator prefix")
    if not 0 <= pos < len(w) or common_prefix_len(w.letters, relator.letters, pos) < take:
        raise ValueError(f"word does not match the relator prefix at {pos}")
    return swap(w, pos, relator, take)


def find_growth_swaps(w: Word, s: SymmetrizedSet):
    """All (pos, relator, take) with a strict length gain, i.e. 2*take < |relator|,
    by position, then in canonical order among the elements starting there."""
    return [
        (pos, r, take)
        for pos, r, k in s.matches(w)
        for take in range(1, min(k, (len(r) - 1) // 2) + 1)
    ]


def _one_pass(w: Word, p: Presentation, budget: DisguiseBudget, rng: Random):
    s = symmetrize(p)
    cur = w
    log: list[RewriteMove] = []
    for _ in range(budget.moves):
        # slots: every growth swap, then every (position, element) insert
        swaps = find_growth_swaps(cur, s)
        n_slots = len(swaps) + (len(cur) + 1) * len(s.ordered)
        move = None
        for _ in range(16):  # resample when the length cap rejects a slot
            k = rng.randrange(n_slots)
            if k < len(swaps):
                pos, rel, take = swaps[k]
                post = swap(cur, pos, rel, take)
                if len(post) > budget.max_word_len:
                    continue
                move = RewriteMove("subword-swap", pos, rel, -1, Word(cur.alphabet), cur, post)
            else:
                pos, i = divmod(k - len(swaps), len(s.ordered))
                rel = s.ordered[i]
                conj = random_reduced_word(
                    cur.alphabet, rng.randint(0, budget.max_conjugator_len), rng
                )
                post = _replay(cur, pos, conj, rel, 1)
                if len(post) > budget.max_word_len:
                    continue
                move = RewriteMove("insert-conjugate", pos, rel, 1, conj, cur, post)
            break
        if move is None:
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
    any other word would not preserve the group element.
    """
    s = symmetrize(p)
    alphabet = start.alphabet
    cur = start
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        if key.strip() != "move":
            raise ValueError(f"unexpected line {line!r} in move log")
        head, sep, tail = rest.strip().partition(" rel=")
        if not sep:
            raise ValueError(f"malformed move line {line!r}")
        kind_part, sep, pos_part = head.partition("@")
        if not sep:
            raise ValueError(f"malformed move line {line!r}")
        kind = kind_part.strip()
        pos = int(pos_part.strip())
        rel_text, sep, tail = tail.partition(" exp=")
        if not sep:
            raise ValueError(f"malformed move line {line!r}")
        exp_text, sep, conj_text = tail.partition(" conj=")
        if not sep:
            raise ValueError(f"malformed move line {line!r}")
        rel = parse_word(alphabet, rel_text)
        if rel not in s:
            raise ValueError(f"relator {str(rel)!r} is not in the symmetrized set")
        exp = int(exp_text.strip())
        conj = parse_word(alphabet, conj_text)
        post = _replay(cur, pos, conj, rel, exp)
        out.append(RewriteMove(kind, pos, rel, exp, conj, cur, post))
        cur = post
    return out
