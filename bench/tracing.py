"""Spans around calls into cakelab's layers, recorded from the benchmark side.

The program itself carries no tracing.  ``Tracer.install`` replaces selected
public functions with timing wrappers in every cakelab module namespace that
binds them, so calls from the benchmark and calls between (and within)
modules that go through a module global are both seen.  Word-level helpers on
the oracle's hot path (``concat``, ``free_reduce``, ``Word`` methods) stay
unwrapped; the words layer is timed by explicit probes instead.

Spans live in flat arrays (name, start, end, parent, op id) and are written
out only when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _sym_size(tracer, span, result):
    tracer.count("presentations.sym_size", len(result))


def _pieces(tracer, span, result):
    tracer.count("smallcancel.pieces", len(result))


def _side_moves(tracer, span, result):
    tracer.count("artin.side_moves", len(result))


def _oracle(tracer, span, result):
    if result is None:
        tracer.rename(span, "smallcancel", "oracle_unknown")
    else:
        tracer.rename(span, "smallcancel", "oracle_found")
        tracer.count("smallcancel.witness_factors", len(result.factors))


def _disguise(tracer, span, result):
    word, log = result
    tracer.count("diffusion.moves", len(log))
    tracer.count("diffusion.out_letters", len(word))


# Functions to wrap, by layer, each with an optional hook that turns the
# result into counts or renames the span.
WRAPPED = {
    "words": {"parse_word": None, "random_reduced_word": None},
    "presentations": {"parse_presentation": None, "symmetrize": _sym_size},
    "smallcancel": {
        "enumerate_pieces": _pieces,
        "min_piece_count": None,
        "check_C": None,
        "cprime_sup": None,
        "check_Cprime": None,
        "check_T4": None,
        "bounded_wp_oracle": _oracle,
        "replay_witness": None,
    },
    "artin": {
        "random_tree": None,
        "split_at_root": None,
        "enumerate_side_moves": _side_moves,
        "move_endomorphism": None,
        "random_endo": None,
        "apply_endo": None,
    },
    "diffusion": {"disguise": _disguise, "move_log_to_witness": None},
    "cake": {
        "setup": None,
        "party_step": None,
        "finalize": None,
        "bitstream_encode": None,
        "bitstream_decode": None,
    },
}

ROOT_LAYER = "bench"


class Tracer:
    """In-memory span recorder.  One instance per traced run."""

    def __init__(self):
        self.active = True
        self.op_id = -1
        self.tag = ""
        self._names: list[tuple[str, str, str]] = []
        self._name_ids: dict[tuple[str, str, str], int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.counts: dict[tuple[str, str], list] = defaultdict(list)

    # -- recording ------------------------------------------------------

    def _name_id(self, layer: str, func: str) -> int:
        key = (layer, func, self.tag)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self._names)
            self._names.append(key)
        return nid

    def open(self, layer: str, func: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(layer, func))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def rename(self, idx: int, layer: str, func: str) -> None:
        self.name[idx] = self._name_id(layer, func)

    def count(self, metric: str, value) -> None:
        if self.active:
            self.counts[(metric, self.tag)].append(value)

    @contextmanager
    def span(self, layer: str, func: str):
        idx = self.open(layer, func)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Run program code without spans (reference outputs for probes)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn, hook):
        tracer = self
        func = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(layer, func)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, idx, result)
            return result

        return traced

    def install(self, package_name: str = "cakelab") -> None:
        """Wrap every function in WRAPPED wherever a cakelab namespace binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package_name or n.startswith(package_name + ".")]
        for layer, funcs in WRAPPED.items():
            home = sys.modules[f"{package_name}.{layer}"]
            for func, hook in funcs.items():
                original = getattr(home, func)
                wrapper = self._wrap(layer, original, hook)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        setattr(mod, func, wrapper)

    # -- aggregation ----------------------------------------------------

    def summarize(self, excluded):
        """Per-(layer, func, tag) inclusive durations, and per-layer self time
        summed over the spans inside ``bench.op`` roots.  ``excluded(start,
        end)`` is time inside a span that belongs to none of it (the
        calibration kernel); it is taken out of every span it falls in."""
        n = len(self.start)
        duration = array("d", (self.end[i] - self.start[i] - excluded(self.start[i], self.end[i])
                               for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        calls: dict[tuple[str, str, str], list] = defaultdict(list)
        self_time: dict[str, float] = defaultdict(float)
        in_op = array("b", bytes(n))
        for i in range(n):
            layer, func, tag = self._names[self.name[i]]
            dur = duration[i]
            calls[(layer, func, tag)].append(dur)
            p = self.parent[i]
            if p < 0:
                in_op[i] = layer == ROOT_LAYER and func == "op"
            else:
                in_op[i] = in_op[p]
            if in_op[i]:
                self_time[layer] += dur - child[i]
        return calls, self_time

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,parent,layer,func,tag,start_us,end_us\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                layer, func, tag = self._names[self.name[i]]
                fh.write(f"{self.op[i]},{self.parent[i]},{layer},{func},{tag},"
                         f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f}\n")
