"""The benchmark reaches cakelab by name: each name it uses must exist."""

import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cakelab

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load(TRACING)
    missing = [
        f"cakelab.{layer}.{name}"
        for layer, funcs in tracing.WRAPPED.items()
        for name in funcs
        if not callable(getattr(importlib.import_module(f"cakelab.{layer}"), name, None))
    ]
    assert missing == []


def test_bench_package_names_resolve():
    # the workloads and probes call cakelab as `lab.<name>`, dotted names too
    names = {
        name
        for path in sorted(BENCH.glob("*.py"))
        for name in re.findall(r"\blab\.(\w+(?:\.\w+)*)", path.read_text())
    }
    assert "presentations.symmetrize" in names

    def resolves(name):
        try:
            functools.reduce(getattr, name.split("."), cakelab)
        except AttributeError:
            return False
        return True

    assert sorted(n for n in names if not resolves(n)) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_check_workload_matches_its_reference(seed):
    # one full pass of the bench's `check` ops, each verified against reference.json
    workloads = load(BENCH / "workloads.py")
    reference = json.loads((BENCH / "reference.json").read_text())
    check = workloads.Check(cakelab, seed, False, reference)
    assert len(check.specs) == len(check.PASS)
    failed = [spec.tag for spec in check.specs if not check.verify(spec, check.op(spec))]
    assert failed == []


def test_disguise_workload_matches_its_reference():
    # one full seed-0 pass of the bench's `disguise` ops, each verified against reference.json
    workloads = load(BENCH / "workloads.py")
    reference = json.loads((BENCH / "reference.json").read_text())
    disguise = workloads.Disguise(cakelab, 0, False, reference)
    assert disguise.reference is not None
    assert len(disguise.specs) == disguise.PER_LEVEL * len(workloads.LEVELS) == 36
    failed = [spec.tag for spec in disguise.specs if not disguise.verify(spec, disguise.op(spec))]
    assert failed == []


@pytest.mark.filterwarnings("ignore:0-bit words")
def test_decode_workload_matches_its_reference():
    # the seed-0 12-bit `decode` stream, each oracle answer equal to reference.json's
    workloads = load(BENCH / "workloads.py")
    reference = json.loads((BENCH / "reference.json").read_text())
    decode = workloads.Decode(cakelab, 0, False, reference)
    assert len(decode.specs) == len(decode.reference) == decode.ONES + decode.ZEROS == 12
    results = [decode.op(spec) for spec in decode.specs]
    assert "".join(r["answer"] for r in results) == decode.reference
    assert all(decode.verify(spec, r) for spec, r in zip(decode.specs, results))


def test_exchange_workload_matches_its_reference():
    # the full seed-0 `exchange` mix, each shared key checked against reference.json
    workloads = load(BENCH / "workloads.py")
    reference = json.loads((BENCH / "reference.json").read_text())
    exchange = workloads.Exchange(cakelab, 0, False, reference)
    assert exchange.reference is not None
    assert len(exchange.specs) == exchange.MIX == len(exchange.reference) == 1000
    failed = [spec.index for spec in exchange.specs if not exchange.verify(spec, exchange.op(spec))]
    assert failed == []


def test_traced_exchange_records_the_artin_rows():
    # the tracer patches module globals, so it runs in a child process; the
    # exchange must still reach these functions through module globals, or
    # the bench's artin.* rows read no calls
    code = "\n".join([
        "from collections import Counter",
        "import cakelab",
        "from tracing import Tracer",
        "tracer = Tracer()",
        "tracer.install()",
        "cakelab.run_exchange(9000, 100, 200)",
        "for (layer, func, _), n in Counter(tracer._names[i] for i in tracer.name).items():",
        "    print(layer, func, n)",
    ])
    src = Path(cakelab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    spans = {(layer, func): int(n) for layer, func, n in map(str.split, out.stdout.splitlines())}
    for func in ("split_at_root", "enumerate_side_moves", "random_endo", "apply_endo"):
        assert spans.get(("artin", func), 0) >= 1, (func, out.stdout)
