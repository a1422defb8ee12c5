"""Per-layer tracing from outside the program.

Timing wrappers are installed on module attributes of ``mpemba`` by name.
Each call records a span (layer, parent span, thread, wall and CPU start
and end, counts) in memory; the worker writes the spans out when its pass
ends. The worker imports this module only for traced passes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    layer: str
    parent: Optional[int]
    thread: int
    t0: float
    c0: float
    t1: float = 0.0
    c1: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "layer": self.layer, "parent": self.parent,
                "thread": self.thread, "t0": self.t0, "t1": self.t1,
                "c0": self.c0, "c1": self.c1, "counts": self.counts}


class Tracer:
    """Span recorder on two clocks: wall time (``time.monotonic``) and the
    calling thread's CPU time (``time.thread_time``). Spans opened on a
    worker thread with no open span of their own take the innermost open
    span of the creating thread as parent, so pool work hangs under the
    command that started the pool."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, layer: str) -> Span:
        stack = self._stack()
        owner = stack or self._main_stack
        parent = owner[-1].id if owner else None
        span = Span(next(self._ids), layer, parent, threading.get_ident(),
                    time.monotonic(), time.thread_time())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.c1 = time.thread_time()
        span.t1 = time.monotonic()
        self._stack().pop()
        self.spans.append(span)


# --- layer boundaries -------------------------------------------------------

def _count_gate(args, kwargs, result):
    # computed bytes: one read and one write of the whole batch per gate
    return {"bytes_computed": 2.0 * args[0].nbytes}


def _count_rng(args, kwargs, result):
    mids = result[0]
    return {"gates_drawn": mids.shape[0] * mids.shape[1] * mids.shape[2]}


def _count_dist(args, kwargs, result):
    return {"pairs": len(result)}


def _count_calibrate(args, kwargs, result):
    return {"candidates": len(result.scores),
            "physical": sum(1 for s in result.scores if s.physical)}


def _count_propagate(args, kwargs, result):
    return {"state_steps": result.shape[0] * (result.shape[1] - 1)}


def _count_map(args, kwargs, result):
    return {"cells": result.points.shape[0], "valid": int(result.valid.sum())}


def _count_speed(args, kwargs, result):
    return {"samples": math.prod(args[0].shape[:-1])}


def _count_verdict(args, kwargs, result):
    return {"crossings": int(result.kind == "crossing")}


class _CountedRows:
    def __init__(self, rows):
        self._it = iter(rows)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._it)
        self.n += 1
        return row


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    attrs: Tuple[str, ...]      # a trailing '*' matches every attribute with that prefix
    count: Optional[Callable] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("circuit.gate", "mpemba.circuit", ("_apply_gate_batch",), _count_gate),
    Layer("circuit.reduce", "mpemba.circuit", ("_reduce_batch",)),
    Layer("circuit.rng", "mpemba.circuit", ("_draw_gate_blocks",), _count_rng),
    Layer("circuit.dist", "mpemba.circuit", ("_pair_distances",), _count_dist),
    Layer("circuit.chunk", "mpemba.circuit", ("_run_batch",)),
    Layer("markov.calibrate", "mpemba.markov", ("calibrate",), _count_calibrate),
    Layer("markov.propagate", "mpemba.markov", ("integrate_batch",), _count_propagate),
    Layer("markov.map", "mpemba.markov", ("distance_map",), _count_map),
    Layer("markov.length", "mpemba.markov", ("trajectory_length",)),
    Layer("markov.geodesic", "mpemba.markov", ("geodesic_curve",)),
    Layer("geometry.speed", "mpemba.markov", ("bloch_speed",), _count_speed),
    Layer("geometry.fidelity", "mpemba.markov", ("bloch_fidelity", "bloch_affinity")),
    Layer("analysis.verdict", "mpemba.analysis", ("iqme_verdict", "qme_verdict"),
          _count_verdict),
    Layer("cli.csv", "mpemba.cli", ("write_csv",)),
    Layer("cli.svg", "mpemba.cli", ("_write_map_svg",)),
    Layer("cli.command", "mpemba.cli", ("cmd_*",)),
)

# Per-layer metric -> (unit, layer whose absence makes it null).
PER_LAYER_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "circuit.gate.busy_s": ("s", "circuit.gate"),
    "circuit.gate.calls": ("count", "circuit.gate"),
    "circuit.gate.us_per_call": ("us", "circuit.gate"),
    "circuit.gate.bytes_computed": ("B", "circuit.gate"),
    "circuit.gate.gbps_computed": ("GB/s", "circuit.gate"),
    "circuit.reduce.busy_s": ("s", "circuit.reduce"),
    "circuit.reduce.calls": ("count", "circuit.reduce"),
    "circuit.rng.busy_s": ("s", "circuit.rng"),
    "circuit.rng.calls": ("count", "circuit.rng"),
    "circuit.rng.gates_drawn": ("count", "circuit.rng"),
    "circuit.dist.busy_s": ("s", "circuit.dist"),
    "circuit.dist.calls": ("count", "circuit.dist"),
    "circuit.dist.pairs": ("count", "circuit.dist"),
    "circuit.chunk.busy_s": ("s", "circuit.chunk"),
    "circuit.chunk.calls": ("count", "circuit.chunk"),
    "circuit.pool.busy_frac": ("fraction", "circuit.chunk"),
    "markov.calibrate.busy_s": ("s", "markov.calibrate"),
    "markov.calibrate.candidates": ("count", "markov.calibrate"),
    "markov.calibrate.physical_ratio": ("fraction", "markov.calibrate"),
    "markov.propagate.busy_s": ("s", "markov.propagate"),
    "markov.propagate.calls": ("count", "markov.propagate"),
    "markov.propagate.state_steps": ("count", "markov.propagate"),
    "markov.map.busy_s": ("s", "markov.map"),
    "markov.map.cells": ("count", "markov.map"),
    "markov.map.valid_ratio": ("fraction", "markov.map"),
    "markov.length.busy_s": ("s", "markov.length"),
    "markov.geodesic.busy_s": ("s", "markov.geodesic"),
    "geometry.speed.busy_s": ("s", "geometry.speed"),
    "geometry.speed.samples": ("count", "geometry.speed"),
    "geometry.fidelity.busy_s": ("s", "geometry.fidelity"),
    "analysis.verdict.busy_s": ("s", "analysis.verdict"),
    "analysis.verdict.calls": ("count", "analysis.verdict"),
    "analysis.verdict.crossings": ("count", "analysis.verdict"),
    "cli.csv.busy_s": ("s", "cli.csv"),
    "cli.csv.rows": ("count", "cli.csv"),
    "cli.csv.bytes": ("B", "cli.csv"),
    "cli.csv.mb_per_s": ("MB/s", "cli.csv"),
    "cli.svg.busy_s": ("s", "cli.svg"),
    "cli.command.self_s": ("s", "cli.command"),
    "trace.wall_s": ("s", None),
    "trace.wait_s": ("s", None),
    "trace.other_s": ("s", None),
    "trace.parallel_s": ("s", None),
    "trace.overhead_frac": ("fraction", None),
    "check.max_abs_dev": ("abs", None),
}


def _resolve(module, attrs: Sequence[str]) -> List[str]:
    names = []
    for attr in attrs:
        if attr.endswith("*"):
            names += sorted(n for n in vars(module) if n.startswith(attr[:-1])
                            and callable(getattr(module, n)))
        elif callable(getattr(module, attr, None)):
            names.append(attr)
    return names


def _wrap(fn, layer: Layer, tracer: Tracer):
    if layer.name == "cli.csv":
        @functools.wraps(fn)
        def traced_csv(path, manifest, header, rows):
            counted = rows if hasattr(rows, "__len__") else _CountedRows(rows)
            span = tracer.open(layer.name)
            try:
                result = fn(path, manifest, header, counted)
            finally:
                tracer.close(span)
            n = len(counted) if hasattr(counted, "__len__") else counted.n
            span.counts = {"rows": n, "bytes": os.path.getsize(path)}
            return result
        return traced_csv

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if layer.count is not None:
            span.counts = layer.count(args, kwargs, result)
        return result
    return traced


def install(tracer: Tracer) -> List[str]:
    """Wrap every layer boundary that exists; return the layers found missing."""
    missing = []
    for layer in LAYERS:
        module = importlib.import_module(layer.module)
        names = _resolve(module, layer.attrs)
        if not names:
            missing.append(layer.name)
        for name in names:
            setattr(module, name, _wrap(getattr(module, name), layer, tracer))
    return missing


# --- arithmetic on recorded spans ------------------------------------------

def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, Tuple[float, float]]:
    """(wall, cpu) self time per span id. Wall self time is the span's
    duration minus the part of its interval that child spans cover; children
    on other threads may overlap each other. CPU self time subtracts only
    the CPU time of children on the span's own thread."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"])) for c in children[s["id"]]]
        wall = (s["t1"] - s["t0"]) - _union_length([c for c in clipped if c[1] > c[0]])
        cpu = (s["c1"] - s["c0"]) - sum(c["c1"] - c["c0"] for c in children[s["id"]]
                                        if c["thread"] == s["thread"])
        out[s["id"]] = (wall, cpu)
    return out


def account(spans: Sequence[dict], wall: float) -> Dict[str, object]:
    """Split a traced window of ``wall`` seconds into per-layer busy time
    (CPU self time), ``wait`` (wall self time not spent on the CPU, such as
    waiting for the interpreter lock), ``other`` (time under no span) and
    ``parallel`` (thread-seconds that overlapped), so that
    sum(busy) + wait + other == wall + parallel."""
    selfs = self_times(spans)
    busy: Dict[str, float] = defaultdict(float)
    for s in spans:
        busy[s["layer"]] += selfs[s["id"]][1]
    covered = _union_length([(s["t0"], s["t1"]) for s in spans if s["parent"] is None])
    wall_self = sum(w for w, _ in selfs.values())
    return {"busy": dict(busy), "wait": wall_self - sum(busy.values()),
            "other": wall - covered, "parallel": wall_self - covered}


def layer_metrics(passes: Sequence[Tuple[float, Sequence[dict]]], missing: Sequence[str],
                  threads: int, overhead_frac: float,
                  max_abs_dev: float) -> Dict[str, Optional[float]]:
    """Per-pass means of the per-layer metrics over traced passes, each pass
    given as (traced wall seconds, spans)."""
    n = len(passes)
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, float] = defaultdict(float)
    chunk_span = wall = wait = other = parallel = 0.0
    for pass_wall, spans in passes:
        acc = account(spans, pass_wall)
        for layer, t in acc["busy"].items():
            busy[layer] += t
        wall += pass_wall
        wait += acc["wait"]
        other += acc["other"]
        parallel += acc["parallel"]
        for s in spans:
            calls[s["layer"]] += 1
            for k, v in s["counts"].items():
                counts[f"{s['layer']}.{k}"] += v
            if s["layer"] == "circuit.chunk":
                chunk_span += s["t1"] - s["t0"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "circuit.gate.busy_s": busy["circuit.gate"] / n,
        "circuit.gate.calls": calls["circuit.gate"] / n,
        "circuit.gate.us_per_call": 1e6 * ratio(busy["circuit.gate"], calls["circuit.gate"]),
        "circuit.gate.bytes_computed": counts["circuit.gate.bytes_computed"] / n,
        "circuit.gate.gbps_computed":
            1e-9 * ratio(counts["circuit.gate.bytes_computed"], busy["circuit.gate"]),
        "circuit.reduce.busy_s": busy["circuit.reduce"] / n,
        "circuit.reduce.calls": calls["circuit.reduce"] / n,
        "circuit.rng.busy_s": busy["circuit.rng"] / n,
        "circuit.rng.calls": calls["circuit.rng"] / n,
        "circuit.rng.gates_drawn": counts["circuit.rng.gates_drawn"] / n,
        "circuit.dist.busy_s": busy["circuit.dist"] / n,
        "circuit.dist.calls": calls["circuit.dist"] / n,
        "circuit.dist.pairs": counts["circuit.dist.pairs"] / n,
        "circuit.chunk.busy_s": busy["circuit.chunk"] / n,
        "circuit.chunk.calls": calls["circuit.chunk"] / n,
        "circuit.pool.busy_frac": ratio(chunk_span, wall * threads),
        "markov.calibrate.busy_s": busy["markov.calibrate"] / n,
        "markov.calibrate.candidates": counts["markov.calibrate.candidates"] / n,
        "markov.calibrate.physical_ratio":
            ratio(counts["markov.calibrate.physical"], counts["markov.calibrate.candidates"]),
        "markov.propagate.busy_s": busy["markov.propagate"] / n,
        "markov.propagate.calls": calls["markov.propagate"] / n,
        "markov.propagate.state_steps": counts["markov.propagate.state_steps"] / n,
        "markov.map.busy_s": busy["markov.map"] / n,
        "markov.map.cells": counts["markov.map.cells"] / n,
        "markov.map.valid_ratio": ratio(counts["markov.map.valid"], counts["markov.map.cells"]),
        "markov.length.busy_s": busy["markov.length"] / n,
        "markov.geodesic.busy_s": busy["markov.geodesic"] / n,
        "geometry.speed.busy_s": busy["geometry.speed"] / n,
        "geometry.speed.samples": counts["geometry.speed.samples"] / n,
        "geometry.fidelity.busy_s": busy["geometry.fidelity"] / n,
        "analysis.verdict.busy_s": busy["analysis.verdict"] / n,
        "analysis.verdict.calls": calls["analysis.verdict"] / n,
        "analysis.verdict.crossings": counts["analysis.verdict.crossings"] / n,
        "cli.csv.busy_s": busy["cli.csv"] / n,
        "cli.csv.rows": counts["cli.csv.rows"] / n,
        "cli.csv.bytes": counts["cli.csv.bytes"] / n,
        "cli.csv.mb_per_s": 1e-6 * ratio(counts["cli.csv.bytes"], busy["cli.csv"]),
        "cli.svg.busy_s": busy["cli.svg"] / n,
        "cli.command.self_s": busy["cli.command"] / n,
        "trace.wall_s": wall / n,
        "trace.wait_s": wait / n,
        "trace.other_s": other / n,
        "trace.parallel_s": parallel / n,
        "trace.overhead_frac": overhead_frac,
        "check.max_abs_dev": max_abs_dev,
    }
    for name, (_, layer) in PER_LAYER_METRICS.items():
        if layer in missing:
            m[name] = None
    return m
