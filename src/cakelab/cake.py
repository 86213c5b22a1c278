"""Key exchange over commuting endomorphism families.

The protocol runs on a rooted tree split at its root: each party owns
one side, draws a private endomorphism supported there, and applies it to
the public word.  Side supports are disjoint, so the two private maps
commute and both parties compute the same key word letter for letter.

Bitstream transport: 1-bits travel as disguised copies of the reference
word, 0-bits as the reference word times one extra generator.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from random import Random
from typing import Callable, Optional

from . import words
from .artin import (
    GroupEndomorphism,
    SplitPlatform,
    _check_sample,
    apply_endo,
    both_sides_move,
    branching_sides,
    build_tree,
    draw_counts,
    draw_labels,
    format_tree,
    random_endo,
    split_at_root,
)
from .diffusion import DisguiseBudget, disguise
from .presentations import Presentation
from .smallcancel import bounded_wp_oracle, check_Cprime, dehn_reduce
from .words import Alphabet, Records, Word, _draw_letter, _Record, _word, random_reduced_word, splice

__all__ = [
    "ProtocolSetupError",
    "ProtocolIntegrityError",
    "ProtocolConfig",
    "Transcript",
    "SessionKey",
    "derive_key",
    "setup",
    "party_step",
    "finalize",
    "run_exchange",
    "exchange_on",
    "bitstream_encode",
    "bitstream_decode",
    "equality_dehn",
    "equality_oracle",
    "config_digest",
    "format_transcript",
    "parse_transcript",
]


class ProtocolSetupError(RuntimeError):
    """The platform cannot support a live exchange; regenerate it."""


class ProtocolIntegrityError(RuntimeError):
    """Honest parties derived different keys; that is an implementation bug."""


def _support(w: Word) -> frozenset:
    return frozenset([c >> 1 for c in w.codes])


@cache
def _sha256_type():
    """The interpreter's own SHA-256, found on first use as ``random`` finds
    its SHA-512.  ``hashlib`` maps OpenSSL's libcrypto, which takes a bare
    interpreter from 13.1 to 16.8 MiB of RSS and 3.6 ms of import for the
    same digest, so it is loaded only where neither built-in module exists."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _sha256(text: str) -> bytes:
    return _sha256_type()(text.encode()).digest()


def derive_key(w: Word) -> "SessionKey":
    return SessionKey(w, _sha256(str(w)))


class SessionKey(_Record):
    key_word: Word
    key_bytes: bytes

    def __init__(self, key_word: Word, key_bytes: bytes):
        if len(key_bytes) != 32:
            raise ValueError("key_bytes must be 32 bytes")
        vars(self).update(key_word=key_word, key_bytes=key_bytes)


class Transcript(_Record):
    """Public messages only; private endomorphisms never enter."""

    messages: tuple  # of (sender, Word)
    config_digest: bytes

    def __init__(self, messages: tuple, config_digest: bytes):
        vars(self).update(messages=messages, config_digest=config_digest)


class ProtocolConfig(_Record):
    """Everything public: the platform, which lists its sides' moves, and the
    word."""

    platform: SplitPlatform
    public_word: Word

    def __init__(self, platform: SplitPlatform, public_word: Word):
        sup = _support(public_word)
        if not (sup & set(platform.side_a)) or not (sup & set(platform.side_b)):
            raise ValueError("public word must touch both sides")
        vars(self).update(platform=platform, public_word=public_word)


def config_text(config: ProtocolConfig) -> str:
    lines = [format_tree(config.platform.tree).rstrip("\n")]
    lines.append(f"word: {config.public_word}")
    for side in ("A", "B"):
        descr = "; ".join(f"{m.kind} {m.a} {m.b}" for m in config.platform.moves(side))
        lines.append(f"moves-{side.lower()}: {descr}")
    return "\n".join(lines) + "\n"


def config_digest(config: ProtocolConfig) -> bytes:
    return _sha256(config_text(config))


def setup(seed: int, levels: int = 3, max_degree: int = 4, label_hi: int = 7,
          word_len: int = 16) -> ProtocolConfig:
    """Generate a viable public configuration, deterministically in seed.

    Trees are resampled until both sides admit elementary moves and the
    sampled public word is actually moved by at least one single move per
    side; that guarantees party_step can always find a non-trivial message.
    A vertex map moves a word exactly when it moves one of the word's
    generators, so a word is kept when it shares a generator with each
    side's moved set, and no endomorphism is applied to it.
    Each draw runs ``sample_tree``'s two stages on its own seeded stream.
    Most draws are refused after the first, on their child counts alone,
    when a side has no vertex with two children: such a draw costs its
    seeding and its counts, and draws no label.  A draw that passes draws
    its labels and meets the move rule, one pass up the arrays that numbers
    every vertex's shape.  Only a tree that passes both is built, from the
    arrays and those shapes, with no check or walk, then split and has its
    moves listed.  With fewer than 3 levels or a max_degree below 3 no
    vertex can have two children, so no side can ever move; such
    parameters, and a label_hi below 4, are refused before any draw.  An
    exchange compiles no relators: words and endomorphisms need only the
    platform's alphabet, and the presentation is built only when read.
    """
    if word_len < 2:
        raise ValueError("word_len must allow touching both sides")
    if levels < 3 or max_degree < 3:
        raise ProtocolSetupError(f"no side can move with levels {levels} and max_degree "
                                 f"{max_degree}: both must be at least 3")
    _check_sample(levels, max_degree, label_hi)
    rng = Random(seed)
    for _ in range(1000):
        # sample_tree's two stages, with a refusal between them
        bits = Random(rng.getrandbits(48)).getrandbits
        parent = draw_counts(bits, levels, max_degree)
        if len(branching_sides(parent)) < 2:
            continue
        labels = draw_labels(bits, len(parent), label_hi)
        shapes = both_sides_move(parent, labels)
        if shapes is None:
            continue
        platform = split_at_root(build_tree(parent, labels, shapes))
        moved_a, moved_b = [frozenset().union(*[e.moved for e in platform.move_endos(side)])
                            for side in ("A", "B")]
        for _ in range(20):
            w = random_reduced_word(platform.alphabet, word_len, rng)
            sup = _support(w)
            if sup & moved_a and sup & moved_b:
                return ProtocolConfig(platform, w)
    raise ProtocolSetupError("could not sample a viable platform; relax the parameters")


def party_step(config: ProtocolConfig, side: str, private_seed: int):
    """Draw a private endomorphism that visibly moves the public word.

    Returns (private_endomorphism, message).  Deterministic in private_seed;
    random draws that fix the word are discarded, with a last-resort scan of
    the public single moves.
    """
    w = config.public_word
    rng = Random(private_seed)
    for _ in range(64):
        e = random_endo(config.platform, side, seed=rng.getrandbits(48))
        msg = apply_endo(w, e)
        if msg != w:
            return e, msg
    for e in config.platform.move_endos(side):
        msg = apply_endo(w, e)
        if msg != w:
            return e, msg
    raise ProtocolSetupError(f"side {side} cannot move the public word; regenerate the tree")


def finalize(config: ProtocolConfig, own_private: GroupEndomorphism, peer_message: Word) -> SessionKey:
    if peer_message.alphabet != config.public_word.alphabet:
        raise ValueError("peer message is over a different alphabet")
    return derive_key(apply_endo(peer_message, own_private))


def run_exchange(seed_setup: int, seed_a: int, seed_b: int, levels: int = 3,
                 max_degree: int = 4, label_hi: int = 7, word_len: int = 16):
    """Full exchange; returns (transcript, alice_key, bob_key) and insists the
    keys agree."""
    config = setup(seed_setup, levels, max_degree, label_hi, word_len)
    return exchange_on(config, seed_a, seed_b)


def exchange_on(config: ProtocolConfig, seed_a: int, seed_b: int):
    """run_exchange on a configuration already set up."""
    endo_a, msg_a = party_step(config, "A", seed_a)
    endo_b, msg_b = party_step(config, "B", seed_b)
    key_a = finalize(config, endo_a, msg_b)
    key_b = finalize(config, endo_b, msg_a)
    if key_a != key_b:
        raise ProtocolIntegrityError("honest parties disagree on the key")
    transcript = Transcript((("alice", msg_a), ("bob", msg_b)), config_digest(config))
    return transcript, key_a, key_b


# -- bitstream transport ----------------------------------------------------

def bitstream_encode(u: Word, bits, p: Presentation, seed: int,
                     budget: Optional[DisguiseBudget] = None) -> list:
    """1-bits become disguised copies of u; 0-bits become u times one fresh
    generator letter (no seam cancellation, so the 0-word is longer than u).

    Over a relator-free presentation the 0-words are provably different from
    u; with relators present that difference is best-effort and flagged.
    With nothing to disguise with, 1-words are u itself, also flagged.
    """
    if not u:
        raise ValueError("reference word must be non-trivial")
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    if budget is None:
        budget = DisguiseBudget(3, 2, min(max(64, 4 * len(u)), words.MAX_WORD_LETTERS))
    if p.relators and 0 in bits:
        warnings.warn("0-bit words are only best-effort distinct once relators exist")
    disguised = p.relators and budget.moves > 0
    if 1 in bits and not disguised:
        warnings.warn("nothing to disguise with; 1-bit words are the reference word itself")
    rng = Random(seed)
    draw = rng.getrandbits
    alphabet = u.alphabet
    n = len(alphabet.names)
    out = []
    for b in bits:
        if b == 1:
            out.append(disguise(u, p, budget, rng.getrandbits(64))[0] if disguised else u)
        else:
            c = _draw_letter(draw, n, u.codes[-1])
            out.append(_word(alphabet, u.codes + (c,)))
    return out


def bitstream_decode(v: Word, received, oracle: Callable) -> list:
    """Three-valued: 1 when the oracle says equal, 0 when different, None
    when it cannot tell."""
    return [1 if verdict is True else 0 if verdict is False else None
            for verdict in (oracle(w, v) for w in received)]


def _quotient(a: Word, b: Word) -> Word:
    """a b^-1, which both equality oracles decide: one splice of a's codes and b's inverted codes."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    n = len(a.codes)
    return _word(a.alphabet, splice(a.codes, n, tuple([c ^ 1 for c in reversed(b.codes)]), n))


def equality_dehn(p: Presentation) -> Callable:
    """Dehn-reduce the quotient: True when it vanishes.  Otherwise False on
    C'(1/6) presentations, where Dehn's algorithm is complete, and None
    (unknown) elsewhere.  With no relators this is literal equality of
    reduced words: C'(1/6) holds vacuously and Dehn reduction is free
    reduction."""
    complete = check_Cprime(p, Fraction(1, 6))

    def eq(a: Word, b: Word):
        return True if not dehn_reduce(_quotient(a, b), p) else (False if complete else None)

    return eq


def equality_oracle(p: Presentation, depth: int) -> Callable:
    """Bounded search on the quotient a b^-1; answers True or None, never
    False.  A negative depth is refused before any word is sent, by the
    search's own argument check, run once on the empty word."""
    bounded_wp_oracle(_word(p.alphabet, ()), p, depth)

    def eq(a: Word, b: Word):
        x = _quotient(a, b)
        return True if not x or bounded_wp_oracle(x, p, depth) is not None else None

    return eq


# -- transcript text format -------------------------------------------------

def format_transcript(alphabet: Alphabet, transcript: Transcript,
                      key_a, key_b) -> str:
    # keys may be SessionKey objects or bare hex strings from a parsed file
    def hexes(k):
        return k if isinstance(k, str) else k.key_bytes.hex()

    lines = [f"gens: {' '.join(alphabet.names)}", f"config: {transcript.config_digest.hex()}"]
    for i, (sender, payload) in enumerate(transcript.messages, 1):
        lines.append(f"msg {i} {sender}: {payload}")
    lines.append(f"key-a: {hexes(key_a)}")
    lines.append(f"key-b: {hexes(key_b)}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str):
    """Returns (alphabet, Transcript, key_a_hex, key_b_hex).  The k-th message line reads
    ``msg k``, and the messages are capped at ``MAX_WORD_LETTERS`` letters in total.  A key
    line is optional; one that is present must hold 32 bytes of hex, returned in lower case."""
    rec, messages = Records(text), []

    def msg(rest: str, n: str, sender: str) -> None:
        if n != str(len(messages) + 1):
            raise ValueError(f"message {n!r} where {len(messages) + 1} was expected")
        messages.append((sender, rec.word(rest, "messages")))

    rec.read({"gens": None, "config": None, "msg n sender": msg, "key-a": None, "key-b": None})
    if rec.alphabet is None or "config" not in rec.once:
        raise ValueError("transcript missing gens or config line")

    def read_hex(key: str, size: int = 0) -> bytes:  # a once-only line, read back after the file
        try:
            raw = bytes.fromhex(rec.once[key])
        except ValueError as e:
            raise ValueError(f"{key} line: {e}") from None
        if size and len(raw) != size:
            raise ValueError(f"{key} line: {len(raw)} bytes, not {size}")
        return raw

    transcript = Transcript(tuple(messages), read_hex("config"))
    keys = [read_hex(key, 32).hex() if key in rec.once else None for key in ("key-a", "key-b")]
    return rec.alphabet, transcript, *keys
