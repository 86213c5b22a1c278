"""Key-exchange engines over commuting endomorphism families.

The main protocol runs on a rooted tree split at its root: each party owns
one side, draws a private endomorphism supported there, and applies it to
the public word.  Side supports are disjoint, so the two private maps
commute and both parties compute the same key word letter for letter.

The sandwich variant runs on a two-sided graph where every cross pair
commutes (the group is a direct product of two free groups); parties
multiply the public word from both ends and keys are compared in the normal
form that sorts each side's letters together.

Bitstream transport: 1-bits travel as disguised copies of the reference
word, 0-bits as the reference word times one extra generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, Optional

from .artin import (
    GroupEndomorphism,
    LabeledGraph,
    SplitPlatform,
    apply_endo,
    artin_from_graph,
    both_sides_move,
    build_tree,
    format_tree,
    random_endo,
    sample_tree,
    split_at_root,
)
from .diffusion import DisguiseBudget, disguise
from .presentations import Presentation
from .smallcancel import bounded_wp_oracle, check_Cprime, dehn_reduce
from .words import (
    Alphabet, Word, _word, add_letters, from_codes, parse_word, random_reduced_word, read_records,
)

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
    "SandwichConfig",
    "sandwich_setup",
    "sandwich_message",
    "sandwich_key",
    "sandwich_normal_form",
    "sandwich_exchange",
    "sandwich_exchange_on",
    "bitstream_encode",
    "bitstream_decode",
    "equality_free",
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


def _sha256(text: str) -> bytes:
    import hashlib  # on first use: checks, rewrites and searches never need its RSS
    return hashlib.sha256(text.encode()).digest()


def derive_key(w: Word) -> "SessionKey":
    return SessionKey(w, _sha256(str(w)))


@dataclass(frozen=True)
class SessionKey:
    key_word: Word
    key_bytes: bytes

    def __post_init__(self):
        if len(self.key_bytes) != 32:
            raise ValueError("key_bytes must be 32 bytes")


@dataclass(frozen=True)
class Transcript:
    """Public messages only; private endomorphisms never enter."""

    messages: tuple  # of (sender, Word)
    config_digest: bytes


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything public: the platform, which lists its sides' moves, and the
    word."""

    platform: SplitPlatform
    public_word: Word
    seed: int

    def __post_init__(self):
        sup = _support(self.public_word)
        if not (sup & set(self.platform.side_a)) or not (sup & set(self.platform.side_b)):
            raise ValueError("public word must touch both sides")


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
    A draw whose sides cannot both move costs only its RNG draws and one
    pass of the move rule over the sampler's arrays: only a tree that passes
    is built, split and has its moves listed.  An exchange compiles no
    relators: words and endomorphisms need only the platform's alphabet, and
    the presentation is built only when read.
    """
    if word_len < 2:
        raise ValueError("word_len must allow touching both sides")
    rng = Random(seed)
    for _ in range(1000):
        parent, labels = sample_tree(levels, max_degree, label_hi, seed=rng.getrandbits(48))
        if not both_sides_move(parent, labels):
            continue
        platform = split_at_root(build_tree(parent, labels, levels))
        moved_a, moved_b = [frozenset().union(*[e.moved for e in platform.move_endos(side)])
                            for side in ("A", "B")]
        for _ in range(20):
            w = random_reduced_word(platform.alphabet, word_len, rng)
            sup = _support(w)
            if sup & moved_a and sup & moved_b:
                return ProtocolConfig(platform, w, seed)
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


# -- sandwich variant -------------------------------------------------------

@dataclass(frozen=True)
class SandwichConfig:
    """Two free sides with every cross pair commuting (all cross edges
    labeled 2, no within-side edges)."""

    graph: LabeledGraph
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    public_word: Word
    presentation: Presentation

    def __post_init__(self):
        a, b = set(self.side_a), set(self.side_b)
        if a & b or a | b != set(range(len(self.graph.vertices))):
            raise ValueError("sides must partition the vertices")
        for i, j, m in self.graph.edges:
            if (i in a) == (j in a):
                raise ValueError("within-side edges break the product structure")
            if m != 2:
                raise ValueError("cross-side edges must be labeled 2")
        for i in self.side_a:
            for j in self.side_b:
                if self.graph.label(i, j) != 2:
                    raise ValueError("every cross-side pair must commute")


def sandwich_setup(seed: int, size_a: int = 2, size_b: int = 2, word_len: int = 8) -> SandwichConfig:
    if size_a < 1 or size_b < 1:
        raise ValueError("both sides need at least one generator")
    names = tuple(f"a{i + 1}" for i in range(size_a)) + tuple(f"b{i + 1}" for i in range(size_b))
    side_a = tuple(range(size_a))
    side_b = tuple(range(size_a, size_a + size_b))
    edges = frozenset((i, j, 2) for i in side_a for j in side_b)
    graph = LabeledGraph(names, edges)
    presentation = artin_from_graph(graph)
    rng = Random(seed)
    alphabet = presentation.alphabet
    for _ in range(1000):
        w = random_reduced_word(alphabet, word_len, rng)
        sup = _support(w)
        if sup & set(side_a) and sup & set(side_b):
            return SandwichConfig(graph, side_a, side_b, w, presentation)
    raise ProtocolSetupError("could not sample a public word touching both sides")


def sandwich_message(config: SandwichConfig, side: str, private_seed: int):
    """Multiply the public word by private words of the own side from both
    ends: returns ((s1, s2), s1 w s2)."""
    verts = config.side_a if side == "A" else config.side_b
    rng = Random(private_seed)
    alphabet = config.presentation.alphabet
    s1 = random_reduced_word(alphabet, rng.randint(1, 4), rng, gens=verts)
    s2 = random_reduced_word(alphabet, rng.randint(1, 4), rng, gens=verts)
    return (s1, s2), s1 * config.public_word * s2


def sandwich_normal_form(config: SandwichConfig, w: Word) -> Word:
    """Sort commuting letters side by side: the A-projection then the
    B-projection.  Faithful because the group is a product of two free
    groups."""
    alphabet = config.presentation.alphabet
    a = set(config.side_a)
    part_a = from_codes(alphabet, [c for c in w.codes if c >> 1 in a])
    part_b = from_codes(alphabet, [c for c in w.codes if c >> 1 not in a])
    return part_a * part_b


def sandwich_key(config: SandwichConfig, own_pair, peer_message: Word) -> SessionKey:
    s1, s2 = own_pair
    return derive_key(sandwich_normal_form(config, s1 * peer_message * s2))


def sandwich_exchange(seed_setup: int, seed_a: int, seed_b: int, size_a: int = 2,
                      size_b: int = 2, word_len: int = 8):
    config = sandwich_setup(seed_setup, size_a, size_b, word_len)
    return sandwich_exchange_on(config, seed_a, seed_b)


def sandwich_exchange_on(config: SandwichConfig, seed_a: int, seed_b: int):
    """sandwich_exchange on a configuration already set up."""
    pair_a, msg_a = sandwich_message(config, "A", seed_a)
    pair_b, msg_b = sandwich_message(config, "B", seed_b)
    key_a = sandwich_key(config, pair_a, msg_b)
    key_b = sandwich_key(config, pair_b, msg_a)
    if key_a != key_b:
        raise ProtocolIntegrityError("honest parties disagree on the sandwich key")
    text = f"gens: {' '.join(config.graph.vertices)}\nword: {config.public_word}\n"
    transcript = Transcript((("alice", msg_a), ("bob", msg_b)), _sha256(text))
    return transcript, key_a, key_b


# -- bitstream transport ----------------------------------------------------

def bitstream_encode(u: Word, bits, p: Presentation, seed: int,
                     budget: Optional[DisguiseBudget] = None) -> list:
    """1-bits become disguised copies of u; 0-bits become u times one fresh
    generator letter (no seam cancellation, so the 0-word is longer than u).

    Over a relator-free presentation the 0-words are provably different from
    u; with relators present that difference is best-effort and flagged.
    """
    if not u:
        raise ValueError("reference word must be non-trivial")
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    if budget is None:
        budget = DisguiseBudget(moves=3, max_conjugator_len=2,
                                max_word_len=max(64, 4 * len(u)))
    if p.relators and 0 in bits:
        warnings.warn("0-bit words are only best-effort distinct once relators exist")
    rng = Random(seed)
    alphabet = u.alphabet
    n = len(alphabet.names)
    out = []
    for b in bits:
        if b == 1:
            if p.relators and budget.moves > 0:
                word, _ = disguise(u, p, budget, rng.getrandbits(64))
            else:
                word = u
            out.append(word)
        else:
            while True:
                c = 2 * rng.randrange(n) + (rng.choice((1, -1)) < 0)
                if u.codes[-1] != c ^ 1:
                    break
            out.append(_word(alphabet, u.codes + (c,)))
    return out


def bitstream_decode(v: Word, received, oracle: Callable) -> list:
    """Three-valued: 1 when the oracle says equal, 0 when different, None
    when it cannot tell."""
    out = []
    for w in received:
        verdict = oracle(w, v)
        out.append(1 if verdict is True else 0 if verdict is False else None)
    return out


def equality_free() -> Callable:
    """Literal equality of freely reduced words."""
    return lambda a, b: a == b


def equality_dehn(p: Presentation) -> Callable:
    """Dehn-reduce the quotient: True when it vanishes.  Otherwise False on
    C'(1/6) presentations, where Dehn's algorithm is complete, and None
    (unknown) elsewhere."""
    complete = check_Cprime(p, Fraction(1, 6))

    def eq(a: Word, b: Word):
        if not dehn_reduce(a * b.inverse(), p):
            return True
        return False if complete else None

    return eq


def equality_oracle(p: Presentation, depth: int) -> Callable:
    """Bounded search; answers True or None (never a definite False beyond
    free equality)."""
    def eq(a: Word, b: Word):
        x = a * b.inverse()
        if not x:
            return True
        return True if bounded_wp_oracle(x, p, depth) is not None else None

    return eq


# -- transcript text format -------------------------------------------------

def format_transcript(alphabet: Alphabet, transcript: Transcript,
                      key_a, key_b) -> str:
    # keys may be SessionKey objects or bare hex strings from a parsed file
    def hexes(k):
        return k if isinstance(k, str) else k.key_bytes.hex()

    lines = [f"gens: {' '.join(alphabet.names)}"]
    lines.append(f"config: {transcript.config_digest.hex()}")
    for i, (sender, payload) in enumerate(transcript.messages, 1):
        lines.append(f"msg {i} {sender}: {payload}")
    lines.append(f"key-a: {hexes(key_a)}")
    lines.append(f"key-b: {hexes(key_b)}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str):
    """Returns (alphabet, Transcript, key_a_hex, key_b_hex).  The messages are
    capped at ``MAX_WORD_LETTERS`` letters in total."""
    found = {"gens": None, "config": None, "key-a": None, "key-b": None}
    messages = []
    letters = 0

    def gens(rest: str) -> None:
        found["gens"] = Alphabet(tuple(rest.split()))

    def config(rest: str) -> None:
        found["config"] = bytes.fromhex(rest)

    def msg(rest: str, _n: str, sender: str) -> None:
        nonlocal letters
        if found["gens"] is None:
            raise ValueError("msg line before gens line")
        w = parse_word(found["gens"], rest)
        letters = add_letters(letters, len(w), "messages")
        messages.append((sender, w))

    read_records(text, {
        "gens": gens,
        "config": config,
        "msg n sender": msg,
        "key-a": partial(found.__setitem__, "key-a"),
        "key-b": partial(found.__setitem__, "key-b"),
    })
    if found["gens"] is None or found["config"] is None:
        raise ValueError("transcript missing gens or config line")
    transcript = Transcript(tuple(messages), found["config"])
    return found["gens"], transcript, found["key-a"], found["key-b"]
