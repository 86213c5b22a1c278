"""Probes run only in a traced run: word-algebra timings on each op's own
words, and the command line run as a subprocess against in-process output."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from workloads import (
    README_WORD,
    Exchange,
    check_lines,
    readme_presentation,
    respell,
    tree_presentation,
)


def word_probes(lab, tracer, words) -> None:
    """Time parse, format, concat, inverse and slice once per word."""
    for w in words:
        with tracer.span("words", "probe.format"):
            text = str(w)
        with tracer.span("words", "probe.parse_word"):
            lab.parse_word(w.alphabet, text)
        with tracer.span("words", "probe.concat"):
            w * w
        with tracer.span("words", "probe.inverse"):
            w.inverse()
        with tracer.span("words", "probe.slice"):
            w[1:-1]


def _cake_run_case(lab, seed):
    # the first exchange of the workload's mix, at level 3
    base = Exchange.MIX * seed
    s, a, b = 9000 + base, 100 + base, 200 + base
    config = lab.setup(s, 3, 4, 7, 16)
    transcript, key_a, key_b = lab.run_exchange(s, a, b, levels=3, max_degree=4)
    lines = [lab.format_tree(config.platform.tree),
             lab.format_presentation(config.platform.presentation),
             f"word: {config.public_word}\n"]
    lines += [f"msg {i} {sender}: {w}\n" for i, (sender, w) in enumerate(transcript.messages, 1)]
    lines += [f"key-a: {key_a.key_bytes.hex()}\n", f"key-b: {key_b.key_bytes.hex()}\n"]
    argv = ["cake", "run", "--levels", "3", "--max-degree", "4", "--seed", str(s),
            "--seed-a", str(a), "--seed-b", str(b)]
    return argv, "".join(lines), {}


def _check_case(lab, seed):
    p, _ = respell(lab, tree_presentation(lab, 3), random.Random(seed))
    report = lab.build_report(p)
    expected = check_lines(report, lab.check_Cprime(p, Fraction(1, 6)))
    return ["check", "--presentation", "{pres}"], expected, {"pres": lab.format_presentation(p)}


def _wp_case(lab, seed):
    # a decided 1-bit quotient: received disguised word times u^-1
    p = readme_presentation(lab)
    u = lab.parse_word(p.alphabet, README_WORD)
    rng = random.Random(seed)
    for _ in range(32):
        (sent,) = lab.bitstream_encode(u, [1], p, rng.getrandbits(32), lab.DisguiseBudget(2, 2, 128))
        x = sent * u.inverse()
        witness = lab.bounded_wp_oracle(x, p, 3) if x else None
        if witness is not None:
            break
    else:
        raise RuntimeError("no decided 1-bit found for the wp probe")
    if lab.replay_witness(witness, p.alphabet) != x:
        raise RuntimeError("in-process witness does not replay")
    argv = ["wp", "--presentation", "{pres}", "--word", str(x), "--depth", "3"]
    return argv, "trivial\n" + lab.format_witness(witness), {"pres": lab.format_presentation(p)}


def _disguise_case(lab, seed):
    p = tree_presentation(lab, 3)
    rng = random.Random(seed)
    w = lab.random_reduced_word(p.alphabet, 16, rng)
    dseed = rng.getrandbits(32)
    v, log = lab.disguise(w, p, lab.DisguiseBudget(3), dseed)
    argv = ["disguise", "--presentation", "{pres}", "--word", str(w), "--moves", "3",
            "--seed", str(dseed), "--witness"]
    return argv, f"disguised: {v}\n" + lab.format_move_log(log), {"pres": lab.format_presentation(p)}


CLI_CASES = {
    "cli.cake_run_ms": _cake_run_case,
    "cli.check_ms": _check_case,
    "cli.wp_ms": _wp_case,
    "cli.disguise_ms": _disguise_case,
}


def cli_probes(lab, tracer, seed, root, out_dir):
    """Run each CLI case once.  Returns {metric: (ms, ok)}; ok needs exit code
    0 and stdout byte-identical to the in-process output."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    results = {}
    for metric, make in CLI_CASES.items():
        with tracer.paused():
            argv, expected, files = make(lab, seed)
        paths = {}
        for key, text in files.items():
            path = out_dir / f"{metric}.{key}.txt"
            path.write_text(text, encoding="utf-8")
            paths[key] = str(path)
        argv = [a.format(**paths) for a in argv]
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cakelab", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=150)
        ms = (perf_counter() - t0) * 1e3
        ok = proc.returncode == 0 and proc.stdout == expected
        if not ok:
            print(f"probe {metric}: exit {proc.returncode}, stdout "
                  f"{'matches' if proc.stdout == expected else 'differs'}; "
                  f"stderr: {proc.stderr.strip()[:300]}", file=sys.stderr)
        results[metric] = (ms, ok)
    return results
