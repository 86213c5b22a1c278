"""cakelab benchmark: four closed-loop workloads, one client, one op at a time.

Run from the repository root:

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus the tracing overhead against an untraced run in
a child process).  Every timing in the JSON line is scaled to reference
machine speed by the calibration kernel of ``calibrate.py``, which runs
throughout the timed part of a run; the human-readable lines give the
measured value beside it.  ``--workload all`` runs every workload, each in
its own process.  Human-readable lines come first, with the sample count
behind each timing; the last line of standard output is one JSON object.

The program is imported from ``src/`` of the checkout this file sits in; the
run fails with exit code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import Sampler  # noqa: E402
from probes import cli_probes, word_probes  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import LEVELS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
# A run stops after the pass that reaches --seconds, or before a pass that
# would take it past OVERRUN times --seconds.
OVERRUN = 1.25
LAYERS = ("words", "presentations", "smallcancel", "artin", "diffusion", "cake")


def per_layer_table():
    """(metric, unit, kind, key) for every per-layer metric, in print order."""
    t = []
    for probe in ("parse_word", "format", "concat", "inverse", "slice"):
        t.append((f"words.{probe}_us", "us", "call", ("words", f"probe.{probe}", None)))
    t.append(("presentations.parse_presentation_ms", "ms", "call",
              ("presentations", "parse_presentation", None)))
    t.append(("presentations.symmetrize_ms", "ms", "call", ("presentations", "symmetrize", None)))
    for lv in LEVELS:
        t.append((f"presentations.sym_size.L{lv}", "count", "count",
                  ("presentations.sym_size", f"L{lv}")))
    for func in ("enumerate_pieces", "min_piece_count", "check_C", "cprime_sup",
                 "check_Cprime", "check_T4"):
        for lv in LEVELS:
            t.append((f"smallcancel.{func}_ms.L{lv}", "ms", "call", ("smallcancel", func, f"L{lv}")))
    for lv in LEVELS:
        t.append((f"smallcancel.pieces.L{lv}", "count", "count", ("smallcancel.pieces", f"L{lv}")))
    for func in ("oracle_found", "oracle_unknown", "replay_witness"):
        t.append((f"smallcancel.{func}_ms", "ms", "call", ("smallcancel", func, None)))
    t.append(("smallcancel.witness_factors", "count", "count", ("smallcancel.witness_factors", None)))
    for lv in LEVELS:
        t.append((f"diffusion.disguise_ms.L{lv}", "ms", "call", ("diffusion", "disguise", f"L{lv}")))
    t.append(("diffusion.move_log_roundtrip_ms", "ms", "call",
              ("diffusion", "move_log_roundtrip", None)))
    t.append(("diffusion.move_log_to_witness_ms", "ms", "call",
              ("diffusion", "move_log_to_witness", None)))
    t.append(("diffusion.moves", "count", "count", ("diffusion.moves", None)))
    t.append(("diffusion.out_letters", "count", "count", ("diffusion.out_letters", None)))
    for func in ("setup", "party_step", "finalize", "transcript_roundtrip",
                 "bitstream_encode", "bitstream_decode"):
        t.append((f"cake.{func}_ms", "ms", "call", ("cake", func, None)))
    t.append(("cake.decided_frac", "fraction", "count", ("cake.decided_frac", None)))
    for func in ("split_at_root", "enumerate_side_moves", "random_endo"):
        t.append((f"artin.{func}_ms", "ms", "call", ("artin", func, None)))
    t.append(("artin.apply_endo_us", "us", "call", ("artin", "apply_endo", None)))
    t.append(("artin.side_moves", "count", "count", ("artin.side_moves", None)))
    for layer in LAYERS:
        t.append((f"{layer}.self_ms", "ms", "self", layer))
    for name in ("cake_run", "check", "wp", "disguise"):
        t.append((f"cli.{name}_ms", "ms", "cli", f"cli.{name}_ms"))
    t.append(("trace.overhead_frac", "fraction", "overhead", None))
    return t


def fresh_import():
    """Import cakelab from this checkout's src/, discarding any earlier import
    (set-up is timed several times, imports included)."""
    for name in [n for n in sys.modules if n == "cakelab" or n.startswith("cakelab.")]:
        del sys.modules[name]
    lab = importlib.import_module("cakelab")
    if not Path(lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cakelab imported from {lab.__file__}, not from {SRC}")
    return lab


def set_up(name, seed, short):
    """SETUP_REPEATS timed set-ups; returns (intervals, lab, workload)."""
    spans = []
    for _ in range(SETUP_REPEATS):
        # An earlier set-up's copy of cakelab is cyclic garbage; left to pile
        # up, such copies would set the run's peak RSS.
        lab = workload = None
        gc.collect()
        t0 = perf_counter()
        lab = fresh_import()
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        workload = WORKLOADS[name](lab, seed, short, reference)
        spans.append((t0, perf_counter()))
    return spans, lab, workload


def timings(sampler, spans):
    """(measured, reference-speed) seconds of each interval, without the
    calibration kernels that ran inside it."""
    return ([b - a - sampler.kernel_time(a, b) for a, b in spans],
            [sampler.ref_time(a, b) for a, b in spans])


def run_loop(lab, workload, seconds, tracer=None, inject=None):
    """Whole passes over workload.specs for about ``seconds`` (see OVERRUN).

    Returns (intervals, oks, decided, wall_s): each op's perf_counter
    interval, and whether its output passed its check.  ``decided`` lists
    the ops whose result says whether a bit was decoded to its true value.
    An op that raises, or whose output fails its check, is a failed op; the
    run goes on."""
    spans, oks, decided = [], [], []
    shown = 0
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for spec in workload.specs:
            op_id = len(spans)
            result = None
            if tracer is not None:
                tracer.op_id, tracer.tag = op_id, spec.tag
                root = tracer.open("bench", "op")
            t0 = perf_counter()
            try:
                result = workload.op(spec, tracer)
            except Exception:
                err = traceback.format_exc()
            t1 = perf_counter()
            if tracer is not None:
                tracer.close(root)
            ok = False
            if result is not None:
                if op_id == inject:
                    result["answer"] += "!"
                try:
                    ok = bool(workload.verify(spec, result))
                    err = "output does not match"
                except Exception:
                    err = traceback.format_exc()
            if not ok and shown < 3:
                shown += 1
                print(f"op {op_id} ({workload.name} {spec.tag} index {spec.index}) "
                      f"failed: {err}", file=sys.stderr)
            if result is not None and "decided" in result:
                decided.append(result["decided"])
            if tracer is not None and result is not None:
                with tracer.span("bench", "probe"):
                    word_probes(lab, tracer, result["words"])
                if "decided" in result:
                    tracer.count("cake.decided_frac", result["decided"])
            spans.append((t0, t1))
            oks.append(ok)
        t_end = perf_counter()
        if (t_end - t_start >= seconds
                or (t_end - t_start) + (t_end - t_pass) > OVERRUN * seconds):
            return spans, oks, decided, t_end - t_start


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(args):
    with Sampler() as sampler:
        setup_spans, lab, workload = set_up(args.workload, args.seed, args.short)
        spans, oks, decided, wall = run_loop(lab, workload, args.seconds,
                                             inject=args.inject_wrong)
    setup_measured, setup_ref = (statistics.median(t) for t in timings(sampler, setup_spans))
    latencies, ref = timings(sampler, spans)
    n, good = len(latencies), sum(oks)
    ms = [x * 1e3 for x in latencies]
    ref_ms = [x * 1e3 for x in ref]
    metrics = {
        "setup_s": (setup_ref, "s"),
        "ops_per_s": (good / sum(ref), "1/s"),
        "op_p50_ms": (statistics.median(ref_ms), "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  {n} ops in {wall:.2f} s "
          f"({n // len(workload.specs)} passes of {len(workload.specs)})")
    print(f"speed factor  {sampler.factor():.4f}      (reference / median kernel time, "
          f"n={len(sampler.samples)} kernels)")
    print("              at reference speed   measured")
    print(f"setup_s       {setup_ref:10.4f} s     {setup_measured:10.4f} s    "
          f"(median of {SETUP_REPEATS} set-ups)")
    print(f"ops_per_s     {good / sum(ref):10.4f} 1/s   {good / sum(latencies):10.4f} 1/s  "
          f"(n={n})")
    print(f"op_p50_ms     {statistics.median(ref_ms):10.3f} ms    "
          f"{statistics.median(ms):10.3f} ms   (n={n})")
    if n >= 100:
        print(f"op_p90_ms     {quantile(ref_ms, 90):10.3f} ms    "
              f"{quantile(ms, 90):10.3f} ms   (n={n})")
    else:
        print(f"op_p90_ms     not reported: {n} ops, fewer than 100")
    print(f"fail_frac     {(n - good) / n:.4f}      ({n - good} of {n})")
    if decided:
        print(f"decided_frac  {sum(decided) / n:.4f}      ({sum(decided)} of {n} bits)")
    print(f"peak_rss_mib  {peak_rss_mib():.2f} MiB")
    return n, n - good, metrics


def traced(args):
    child = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.short:
        child.append("--short")
    proc = subprocess.run(child, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced child run failed: {proc.stderr.strip()[-500:]}")
    plain = json.loads(proc.stdout.strip().splitlines()[-1])
    plain_rate = plain["metrics"]["ops_per_s"]["value"]

    with Sampler() as sampler:
        _, lab, workload = set_up(args.workload, args.seed, args.short)
        tracer = Tracer()
        tracer.install()
        spans, oks, _, _ = run_loop(lab, workload, args.seconds, tracer, args.inject_wrong)
    latencies, ref = timings(sampler, spans)
    speed = sampler.factor()
    OUT.mkdir(exist_ok=True)
    tracer.op_id, tracer.tag = -1, ""
    cli = cli_probes(lab, tracer, args.seed, ROOT, OUT)
    calls, self_time = tracer.summarize(sampler.kernel_time)
    n, good = len(latencies), sum(oks)
    traced_rate = good / sum(ref)

    metrics, lines = {}, []
    for metric, unit, kind, key in per_layer_table():
        scale = {"ms": 1e3 * speed, "us": 1e6 * speed}.get(unit, 1.0)
        if kind == "call":
            layer, func, tag = key
            samples = [d for (l, f, t), ds in calls.items()
                       if l == layer and f == func and (tag is None or t == tag) for d in ds]
            value = statistics.fmean(samples) * scale if samples else 0.0
            note = f"n={len(samples)} calls"
        elif kind == "count":
            name, tag = key
            samples = [v for (m, t), vs in tracer.counts.items()
                       if m == name and (tag is None or t == tag) for v in vs]
            value = statistics.fmean(samples) if samples else 0.0
            note = f"n={len(samples)}"
        elif kind == "self":
            value = self_time.get(key, 0.0) * scale / n
            note = f"per op, n={n} ops"
        elif kind == "cli":
            value = cli[key][0] * speed
            note = "n=1 subprocess"
        else:
            value = plain_rate / traced_rate - 1.0 if traced_rate else 0.0
            note = f"untraced {plain_rate:.4f} vs traced {traced_rate:.4f} ops/s"
        metrics[metric] = (value, unit)
        lines.append(f"{metric:40s} {value:14.4f} {unit:8s} ({note})")
    print(f"workload {args.workload}  seed {args.seed}  traced: {n} ops, "
          f"{len(tracer.start)} spans; timings at reference speed, factor {speed:.4f} "
          f"(n={len(sampler.samples)} kernels)")
    print("\n".join(lines))
    tracer.write(OUT / f"spans-{args.workload}.csv.gz")
    failed = (n - good) + sum(not ok for _, ok in cli.values())
    return n + len(cli), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="level 3 only and tiny passes (smoke test)")
    parser.add_argument("--inject-wrong", type=int, default=None, metavar="OP",
                        help="corrupt the answer of op number OP (smoke test)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in sorted(WORKLOADS):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--short"] if args.short else [])
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        return code

    if not (SRC / "cakelab" / "__init__.py").is_file():
        print(f"error: no cakelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    try:
        attempted, failed, metrics = (traced if args.trace else untraced)(args)
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
