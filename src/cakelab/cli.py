"""Command-line front end.

Exit codes: 0 success, 1 verification failure (key mismatch, oracle unknown
where a decision was required, bit mismatch) or stdout closed by its reader
before the output was written, 2 input errors.  Every randomized command
takes an explicit --seed; repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction

from .artin import artin_from_graph, format_tree, random_tree
from .cake import (
    ProtocolIntegrityError,
    ProtocolSetupError,
    bitstream_decode,
    bitstream_encode,
    equality_dehn,
    equality_oracle,
    exchange_on,
    format_transcript,
    setup,
)
from .diffusion import DisguiseBudget, disguise, format_move_log
from .presentations import (
    Presentation,
    format_history,
    format_presentation,
    include_word,
    lift_word,
    parse_presentation,
    shorten_all,
)
from .smallcancel import (
    bounded_wp_oracle,
    build_report,
    check_Cprime,
    format_witness,
)
from .words import Alphabet, parse_word

__all__ = ["main"]

# The largest input file read; a larger one is refused after reading one byte more.
MAX_INPUT_BYTES = 16 * 1024 * 1024


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror or e}") from None
    if len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"{path} is larger than {MAX_INPUT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from None


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _cmd_gen(args) -> int:
    tree = random_tree(args.levels, args.max_degree, args.label_hi, args.seed)
    pres = artin_from_graph(tree.graph)
    tree_text = format_tree(tree)
    pres_text = format_presentation(pres)
    if args.out_tree:
        _write(args.out_tree, tree_text)
    if args.out_pres:
        _write(args.out_pres, pres_text)
    sys.stdout.write(tree_text)
    sys.stdout.write(pres_text)
    return 0


def _cmd_check(args) -> int:
    p = parse_presentation(_read(args.presentation))
    report = build_report(p)
    print(f"C(4): {_bool_text(report.c_verdicts[4])}")
    print(f"C'(1/6): {_bool_text(check_Cprime(p, Fraction(1, 6)))}")
    print(f"T(4): {_bool_text(report.t4)}")
    print(f"pieces: {report.piece_count}")
    for k in report.min_piece_decomposition:
        print(f"min-pieces: {k if k is not None else 'not-a-piece-product'}")
    return 0


def _cmd_tietze(args) -> int:
    p = parse_presentation(_read(args.presentation))
    h = shorten_all(p)
    history_text = format_history(h)
    lifted = None if args.lift is None else lift_word(parse_word(h.end.alphabet, args.lift), h)
    if args.out:
        _write(args.out, history_text)
    for line in history_text.splitlines():
        if line.startswith("step:"):
            print(line)
    sys.stdout.write(format_presentation(h.end))
    if lifted is not None:
        print(f"lift: {lifted}")
    return 0


def _cmd_cake_run(args) -> int:
    config = setup(args.seed, args.levels, args.max_degree, args.label_hi, args.word_len)
    transcript, key_a, key_b = exchange_on(config, args.seed_a, args.seed_b)
    text = format_transcript(config.platform.alphabet, transcript, key_a, key_b)
    if args.transcript:
        _write(args.transcript, text)
    sys.stdout.write(format_tree(config.platform.tree))
    sys.stdout.write(format_presentation(config.platform.presentation))
    print(f"word: {config.public_word}")
    sys.stdout.write(text.split("\n", 2)[2])  # the messages and keys
    return 0


def _cmd_disguise(args) -> int:
    p = parse_presentation(_read(args.presentation))
    w = parse_word(p.alphabet, args.word)
    budget = DisguiseBudget(args.moves, args.max_conj, args.max_len)
    if args.length3:
        h = shorten_all(p)
        p, w = h.end, include_word(w, h)
    word, log = disguise(w, p, budget, args.seed)
    if args.length3:
        print(f"gens: {' '.join(p.alphabet.names)}")
    print(f"disguised: {word}")
    if args.witness:
        sys.stdout.write(format_move_log(log))
    return 0


def _cmd_wp(args) -> int:
    p = parse_presentation(_read(args.presentation))
    w = parse_word(p.alphabet, args.word)
    witness = bounded_wp_oracle(w, p, args.depth, max_len=args.max_len,
                                node_budget=args.node_budget)
    if witness is None:
        print("unknown")
        return 1
    text = format_witness(witness)
    if args.witness:
        _write(args.witness, text)
    print("trivial")
    sys.stdout.write(text)
    return 0


def _cmd_bits(args) -> int:
    if (args.presentation is None) == (args.gens is None):
        raise ValueError("give exactly one of --presentation or --gens")
    if args.presentation:
        p = parse_presentation(_read(args.presentation))
    else:
        p = Presentation(Alphabet(tuple(args.gens.split())), ())
    u = parse_word(p.alphabet, args.word)
    if any(c not in "01" for c in args.bits) or not args.bits:
        raise ValueError("bits must be a non-empty string of 0s and 1s")
    bits = [int(c) for c in args.bits]
    dehn, search = equality_dehn(p), equality_oracle(p, args.depth)  # a negative depth is refused here
    sent = bitstream_encode(u, bits, p, args.seed)
    for i, w in enumerate(sent, 1):
        print(f"sent {i}: {w}")
    # Dehn decides every word on C'(1/6); the search takes only the words Dehn cannot tell
    decoded = bitstream_decode(u, sent, lambda a, b: search(a, b) if (v := dehn(a, b)) is None else v)
    print("decoded: " + "".join("?" if b is None else str(b) for b in decoded))
    if decoded != bits:
        print("bits: mismatch", file=sys.stderr)
        return 1
    print("bits: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cakelab",
        description="Small-cancellation checkers and commuting-endomorphism key exchange over Artin platforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random extra-large tree and its presentation")
    g.add_argument("--levels", type=int, required=True)
    g.add_argument("--max-degree", type=int, required=True)
    g.add_argument("--label-hi", type=int, default=7)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out-tree")
    g.add_argument("--out-pres")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("check", help="small-cancellation report for a presentation file")
    c.add_argument("--presentation", required=True)
    c.set_defaults(func=_cmd_check)

    t = sub.add_parser("tietze", help="split relators down to length <= 3")
    t.add_argument("--presentation", required=True)
    t.add_argument("--out", help="write the replayable history file here")
    t.add_argument("--lift", help="word over the end alphabet to lift back")
    t.set_defaults(func=_cmd_tietze)

    cake = sub.add_parser("cake", help="key-exchange protocols")
    cakesub = cake.add_subparsers(dest="cake_command", required=True)
    r = cakesub.add_parser("run", help="one full seeded exchange")
    r.add_argument("--levels", type=int, default=3)
    r.add_argument("--max-degree", type=int, default=4)
    r.add_argument("--label-hi", type=int, default=7)
    r.add_argument("--word-len", type=int, default=16)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seed-a", type=int, required=True)
    r.add_argument("--seed-b", type=int, required=True)
    r.add_argument("--transcript")
    r.set_defaults(func=_cmd_cake_run)

    d = sub.add_parser("disguise", help="rewrite a word with equality-preserving moves")
    d.add_argument("--presentation", required=True)
    d.add_argument("--word", required=True)
    d.add_argument("--moves", type=int, required=True)
    d.add_argument("--seed", type=int, required=True)
    d.add_argument("--max-conj", type=int, default=2)
    d.add_argument("--max-len", type=int, default=256)
    d.add_argument("--length3", action="store_true",
                   help="first split all relators to length <= 3")
    d.add_argument("--witness", action="store_true", help="print the move log")
    d.set_defaults(func=_cmd_disguise)

    w = sub.add_parser("wp", help="bounded word-problem oracle")
    w.add_argument("--presentation", required=True)
    w.add_argument("--word", required=True)
    w.add_argument("--depth", type=int, required=True)
    w.add_argument("--max-len", type=int, default=None)
    w.add_argument("--node-budget", type=int, default=50_000)
    w.add_argument("--witness", help="write the witness file here")
    w.set_defaults(func=_cmd_wp)

    b = sub.add_parser("bits", help="encode and decode a bit sequence as words")
    b.add_argument("--presentation")
    b.add_argument("--gens", help="generator names for a relator-free presentation")
    b.add_argument("--word", required=True)
    b.add_argument("--bits", required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--depth", type=int, default=3)
    b.set_defaults(func=_cmd_bits)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = set()

    def show_warning(message, *_) -> None:
        # each distinct library warning once, without a source path or line
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.showwarning = show_warning
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; with stdout on devnull the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ProtocolIntegrityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ProtocolSetupError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
