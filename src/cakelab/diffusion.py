"""Equality-preserving word disguise.

Two move kinds, both multiplications by a conjugated relator and therefore
invisible in the group: inserting c r^e c^-1 at a position, and swapping a
matched relator prefix u for the inverted complement v^-1; both replay by
two ``words.splice`` calls on codes: r^e between c and c^-1, then into the
word.  Swap slots come from the relator-prefix scan that Dehn reduction and
the oracle read (``SymmetrizedSet.matches``): a k-letter match on r offers
the takes 1..k with |u| < |v|, min(k, cap) slots for r's compiled cap
(|r| - 1) // 2, summed once per move and walked again only for a swap draw.
Every take up to k swaps to the same word (free reduction cancels the rest
of the match), so a swap lengthens the word by at most |r| - 2k.
Every move is logged with enough context to replay it and to convert the
whole log into a word-search witness for disguised * original^-1.
"""

from __future__ import annotations

import warnings
from random import Random

from . import words
from .presentations import Presentation, symmetrize
from .smallcancel import WspWitness
from .words import Records, Word, _Record, _word, concat, fields, random_reduced_word, splice

__all__ = [
    "DisguiseBudget",
    "RewriteMove",
    "disguise",
    "move_log_to_witness",
    "format_move_log",
    "parse_move_log",
]


class DisguiseBudget(_Record):
    moves: int
    max_conjugator_len: int
    max_word_len: int

    def __init__(self, moves: int, max_conjugator_len: int = 2, max_word_len: int = 256):
        if moves < 0 or max_conjugator_len < 0 or max_word_len < 0:
            raise ValueError("budget fields must be non-negative")
        if max(max_conjugator_len, max_word_len) > words.MAX_WORD_LETTERS:
            raise ValueError(f"budget lengths must be at most {words.MAX_WORD_LETTERS} letters")
        vars(self).update(moves=moves, max_conjugator_len=max_conjugator_len, max_word_len=max_word_len)


class RewriteMove(_Record):
    """One logged move; ``post_word`` is its replay on ``pre_word``: ``relator^exponent``'s
    codes spliced between ``conjugator`` and its inverse, and that spliced in at ``position``.

    A swap has exponent -1 and no conjugator, and its relator matches
    ``pre_word`` at ``position`` in at least one letter.
    """

    kind: str  # "insert-conjugate" | "subword-swap"
    position: int
    relator: Word
    exponent: int
    conjugator: Word
    pre_word: Word
    post_word: Word  # derived, not an argument

    def __init__(self, kind: str, position: int, relator: Word, exponent: int, conjugator: Word,
                 pre_word: Word):
        c, pre, at, r = conjugator, pre_word, position, relator
        if kind not in ("insert-conjugate", "subword-swap"):
            raise ValueError(f"unknown move kind {kind!r}")
        if exponent not in (1, -1):
            raise ValueError("exponent must be 1 or -1")
        if not 0 <= at <= len(pre):
            raise ValueError("move position out of range")
        if r.alphabet != pre.alphabet or c.alphabet != pre.alphabet:
            raise ValueError("alphabet mismatch")
        if kind == "subword-swap":
            if c:
                raise ValueError("swaps carry no conjugator")
            if exponent != -1:
                raise ValueError("swaps have exponent -1")
            if not r or pre.codes[at : at + 1] != r.codes[:1]:  # the first letters match
                raise ValueError(f"word does not match the relator prefix at {at}")
        n, rc = len(c), r.codes if exponent == 1 else tuple([k ^ 1 for k in reversed(r.codes)])
        conjugated = splice(c.codes + tuple([k ^ 1 for k in reversed(c.codes)]), n, rc, n)  # between c and c^-1
        post = splice(pre.codes, at, conjugated, at)
        vars(self).update(kind=kind, position=position, relator=relator, exponent=exponent,
                          conjugator=conjugator, pre_word=pre_word, post_word=_word(pre.alphabet, post))


def _one_pass(w: Word, p: Presentation, budget: DisguiseBudget, rng: Random):
    s = symmetrize(p)
    elems, caps = s.ordered, s.swap_caps
    cur, log = w, []
    for _ in range(budget.moves):
        # slots: the growth swaps, counted from the scan, then every (position, element) insert
        n_swaps = sum([min(k, caps[i]) for _, i, k in s.matches(cur.codes)])
        n_slots = n_swaps + (len(cur) + 1) * len(elems)
        for _ in range(16):  # resample when the length cap rejects a slot
            k = rng.randrange(n_slots)
            if k < n_swaps:  # walk the scan again, to the match holding slot k
                for pos, i, m in s.matches(cur.codes):
                    k -= min(m, caps[i])
                    if k < 0:
                        break
                move = RewriteMove("subword-swap", pos, elems[i], -1, Word(cur.alphabet), cur)
            else:
                pos, i = divmod(k - n_swaps, len(elems))
                conj = random_reduced_word(cur.alphabet, rng.randint(0, budget.max_conjugator_len), rng)
                move = RewriteMove("insert-conjugate", pos, elems[i], 1, conj, cur)
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
    pathological platforms where every attempt lands back on w).  A word
    over another alphabet than p's is a ``ValueError``.
    """
    if w.alphabet != p.alphabet:
        raise ValueError("word and presentation alphabets differ")
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
    return WspWitness(tuple([(concat(mv.pre_word[: mv.position], mv.conjugator), mv.relator, mv.exponent)
                             for mv in reversed(list(log))]))


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
    rec, out = Records(text, start.alphabet), []

    def move(rest: str) -> None:
        kind, pos_text, rel_text, exp_text, conj_text = fields(rest, "@", " rel=", " exp=", " conj=")
        rel = rec.word(rel_text, "move log")
        if rel not in s:
            raise ValueError(f"relator {str(rel)!r} is not in the symmetrized set")
        pre = out[-1].post_word if out else start
        mv = RewriteMove(kind.strip(), int(pos_text), rel, int(exp_text), rec.word(conj_text, "move log"), pre)
        rec.count(len(mv.post_word), "move log")
        out.append(mv)

    rec.read({"move": move})
    return out
