"""The four workloads: inputs made from the seed, one op, and its check.

Each workload builds its inputs in ``__init__`` (timed as set-up) and lists
one *pass* of op specs in ``specs``.  A run repeats whole passes, so every run
of a seed does the same mix of work.  ``op`` does the work a user of cakelab
would do and returns a dict whose ``"answer"`` is the user-visible output;
``verify`` checks it against the committed reference where the reference
applies and against self-consistency everywhere.  ``op`` may raise; the run
counts that as a failed op.

``reference`` is the parsed reference.json, or None while it is being made.
``lab`` is the imported ``cakelab`` package.  Every call into the program
goes through its namespace so that a traced run sees it.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from fractions import Fraction
from types import SimpleNamespace as Spec

LEVELS = (3, 4, 5)
# ROADMAP platforms: random_tree(L, 4, 7, seed=11) has |S| = 184/352/640.
TREE_SEED = 11
README_RELATORS = ("x1^2 x2 x3^2 x2^-1", "x2^2 x3 x1^2 x3^-1")
README_WORD = "x1 x2^-1"


def tree_presentation(lab, level):
    return lab.artin_from_graph(lab.random_tree(level, 4, 7, seed=TREE_SEED).graph)


def readme_presentation(lab):
    x = lab.Alphabet(("x1", "x2", "x3"))
    return lab.Presentation(x, tuple(lab.parse_word(x, r) for r in README_RELATORS))


def respell(lab, p, rng):
    """An isomorphic copy of p: generators reordered, relators shuffled and
    some inverted.  Verdicts, piece counts and |S| do not change, and neither
    does the work the checker does, so every seed costs the same."""
    n = len(p.alphabet.names)
    perm = list(range(n))
    rng.shuffle(perm)
    names = [""] * n
    for g, name in enumerate(p.alphabet.names):
        names[perm[g]] = name
    alphabet = lab.Alphabet(tuple(names))
    order = list(range(len(p.relators)))
    rng.shuffle(order)
    relators = []
    for k in order:
        w = lab.Word(alphabet, tuple(lab.Letter(perm[lt.gen], lt.sign) for lt in p.relators[k]))
        relators.append(w.inverse() if rng.random() < 0.5 else w)
    return lab.Presentation(alphabet, tuple(relators)), order


def check_lines(report, cprime_sixth: bool) -> str:
    """What ``cakelab check`` prints for a report."""
    def b(v):
        return "true" if v else "false"

    lines = [
        f"C(4): {b(report.c_verdicts[4])}",
        f"C'(1/6): {b(cprime_sixth)}",
        f"T(4): {b(report.t4)}",
        f"pieces: {report.piece_count}",
    ]
    lines += [f"min-pieces: {k if k is not None else 'not-a-piece-product'}"
              for k in report.min_piece_decomposition]
    return "\n".join(lines) + "\n"


def clear_symmetrize_cache(lab):
    """Drop symmetrize's lru_cache (if it still has one), looking through a
    tracing wrapper: users check each presentation once per process."""
    fn = lab.presentations.symmetrize
    while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()


class Exchange:
    """run_exchange over the acceptance-criterion-3 mix, extended to MIX
    exchanges; seed 0 starts with that mix.  Other seeds shift every seed of
    the mix by MIX * seed."""

    name = "exchange"
    # Op costs are heavy-tailed (setup resamples trees until one is viable),
    # so the mix's mean cost depends on the seed: by 25% between seeds at 100
    # exchanges, and still by up to 12% at 300.
    MIX = 1000

    def __init__(self, lab, seed, short, reference):
        self.lab = lab
        base = self.MIX * seed
        n = 6 if short else self.MIX
        self.specs = [
            Spec(index=i, tag="", setup=9000 + base + i, a=100 + base + i,
                 b=200 + base + i, level=3 + i % 3)
            for i in range(n)
        ]
        self.reference = reference["exchange"]["key_hex"] if reference and seed == 0 else None

    def op(self, spec, tracer=None):
        lab = self.lab
        transcript, key_a, key_b = lab.run_exchange(
            spec.setup, spec.a, spec.b, levels=spec.level, max_degree=4)
        alphabet = transcript.messages[0][1].alphabet
        with _span(tracer, "cake", "transcript_roundtrip"):
            text = lab.format_transcript(alphabet, transcript, key_a, key_b)
            alphabet2, transcript2, hex_a, hex_b = lab.parse_transcript(text)
        return {
            "answer": hex_b,
            "key_a": hex_a,
            "roundtrip": (alphabet2 == alphabet and transcript2 == transcript
                          and hex_a == key_a.key_bytes.hex()
                          and hex_b == key_b.key_bytes.hex()),
            "words": [w for _, w in transcript2.messages],
        }

    def verify(self, spec, r):
        ok = r["roundtrip"] and r["answer"] == r["key_a"]
        if self.reference is not None:
            ok = ok and r["answer"] == self.reference[spec.index]
        return ok


class Check:
    """``cakelab check`` on the level-3/4/5 platforms, given as text."""

    name = "check"
    # One level-4 and one level-5 check (about 80% of a pass) among four
    # level-3 checks spread over the pass, so that the median op is a level-3
    # check sampled at four moments rather than a single level-4 one.
    PASS = (3, 4, 3, 5, 3, 3)

    def __init__(self, lab, seed, short, reference):
        self.lab = lab
        rng = random.Random(seed)
        self.specs = []
        for level in (3,) if short else self.PASS:
            p = tree_presentation(lab, level)
            if seed == 0 and level not in (s.level for s in self.specs):
                order = list(range(len(p.relators)))
            else:
                p, order = respell(lab, p, rng)
            self.specs.append(Spec(index=len(self.specs), tag=f"L{level}", level=level,
                                   order=order, text=lab.format_presentation(p)))
        # verdicts and counts do not depend on the spelling: the reference
        # applies at every seed, with min-pieces lines in relator order
        self.reference = reference and reference["check"]

    def op(self, spec, tracer=None):
        lab = self.lab
        clear_symmetrize_cache(lab)
        p = lab.parse_presentation(spec.text)
        report = lab.build_report(p)
        cprime = lab.check_Cprime(p, Fraction(1, 6))
        return {
            "answer": check_lines(report, cprime),
            "sup": str(report.cprime_sup),
            "words": [max(p.relators, key=len)],
        }

    def verify(self, spec, r):
        ref = self.reference[spec.tag]
        lines = ref["lines"].split("\n")
        mins = lines[4:-1]
        expected = "\n".join(lines[:4] + [mins[k] for k in spec.order]) + "\n"
        return r["answer"] == expected and r["sup"] == ref["sup"]


class Decode:
    """Bitstream transport on the README presentation, decoded by the
    bounded oracle.  One op sends one bit: encode, cross as text, decode.

    The stream is the same at every seed and the seed sets the order the bits
    are sent in.  The hardest 1-bit of a stream sets the run's peak RSS (up to
    30% apart between streams) and 1-bit costs span 0.03-1 s, so a stream
    per seed would move every metric by more than its bound."""

    name = "decode"
    # 0-bits exhaust the oracle's budget (seconds each, nearly the same work
    # every time); with them in the majority the median op is one of those.
    ONES, ZEROS = 4, 8
    STREAM_SEED = 0

    def __init__(self, lab, seed, short, reference):
        self.lab = lab
        self.p = readme_presentation(lab)
        self.u = lab.parse_word(self.p.alphabet, README_WORD)
        self.budget = lab.DisguiseBudget(2, 2, 128)
        self.oracle = lab.equality_oracle(self.p, 3)
        rng = random.Random(self.STREAM_SEED)
        bits = [1, 0] if short else [1] * self.ONES + [0] * self.ZEROS
        rng.shuffle(bits)
        self.specs = [Spec(index=i, tag="", bit=b, seed=rng.getrandbits(32))
                      for i, b in enumerate(bits)]
        if seed != 0:
            random.Random(seed).shuffle(self.specs)
        self.reference = reference["decode"]["decoded"] if reference and not short else None

    def op(self, spec, tracer=None):
        lab = self.lab
        (sent,) = lab.bitstream_encode(self.u, [spec.bit], self.p, spec.seed, self.budget)
        received = lab.parse_word(self.p.alphabet, str(sent))
        (decoded,) = lab.bitstream_decode(self.u, [received], self.oracle)
        return {"answer": "?" if decoded is None else str(decoded),
                "decided": decoded == spec.bit, "words": [received]}

    def verify(self, spec, r):
        a = r["answer"]
        if a not in ("0", "1", "?"):
            return False
        if a != "?" and int(a) != spec.bit:
            return False  # a wrong definite value
        # a bit the reference decided must stay decided
        return self.reference is None or self.reference[spec.index] in ("?", a)


class Disguise:
    """disguise() on random 16-letter words over the level-3/4/5 platforms,
    with the move log round-tripped and replayed as a witness."""

    name = "disguise"
    PER_LEVEL = 12

    def __init__(self, lab, seed, short, reference):
        self.lab = lab
        self.budget = lab.DisguiseBudget(3)
        rng = random.Random(seed)
        levels = (3,) if short else LEVELS
        self.pres = {level: tree_presentation(lab, level) for level in levels}
        self.specs = []
        for k in range(1 if short else self.PER_LEVEL):
            for level in levels:
                p = self.pres[level]
                self.specs.append(Spec(
                    index=len(self.specs), tag=f"L{level}", level=level,
                    word=lab.random_reduced_word(p.alphabet, 16, rng),
                    seed=rng.getrandbits(32)))
        # a short run disguises the first word of the full pass
        self.reference = reference["disguise"]["disguised"] if reference and seed == 0 else None

    def op(self, spec, tracer=None):
        lab = self.lab
        p, w = self.pres[spec.level], spec.word
        v, log = lab.disguise(w, p, self.budget, spec.seed)
        with _span(tracer, "diffusion", "move_log_roundtrip"):
            text = lab.format_move_log(log)
            parsed = lab.parse_move_log(text, p, w)
        witness = lab.move_log_to_witness(parsed)
        replayed = lab.replay_witness(witness, p.alphabet)
        return {
            "answer": str(v),
            "log_ok": parsed == log and bool(log) and parsed[-1].post_word == v,
            "replay_ok": replayed == v * w.inverse(),
            "words": [w, v],
        }

    def verify(self, spec, r):
        v = self.lab.parse_word(self.pres[spec.level].alphabet, r["answer"])
        ok = r["log_ok"] and r["replay_ok"] and v != spec.word
        if self.reference is not None:
            ok = ok and r["answer"] == self.reference[spec.index]
        return ok


def _span(tracer, layer, func):
    return tracer.span(layer, func) if tracer is not None else nullcontext()


WORKLOADS = {w.name: w for w in (Exchange, Check, Decode, Disguise)}
