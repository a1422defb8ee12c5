#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mpemba CLI.

    python3 perfbench/run.py --workload circuit-n16 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. Each pass is one fresh interpreter
(``perfbench/worker.py``) that imports ``mpemba.cli`` from ``src/`` and
calls ``main(argv)`` for every command of the workload, the way the
repository's scripts do. Passes repeat while the next one is predicted to
end within ``--seconds``; at least one pass runs (two with ``--trace 1``).

``--trace 0`` reports the end-to-end metrics; no wrapper is installed.
Its times are scaled to a reference speed by reference probes timed while
the pass process waits (``perfbench/reference.py``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
record the environment, the throughput tail and the unscaled medians.
Per-pass details and the traced spans go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

END_TO_END_METRICS = {
    "throughput": "work/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
SETUP_SAMPLES = 8       # set-up samples per run: passes plus set-up-only runs
RUN_LIMIT_S = 150.0     # never start a pass predicted to end after this
PASS_TIMEOUT_S = 170.0
SETUP_TIMEOUT_S = 30.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def environment(threads: int) -> dict:
    """What the numbers depend on: cores, caches, Python, numpy and BLAS."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "caches": caches, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "MPEMBA_THREADS": threads, **PINNED_ENV}


def tail(samples: List[float]) -> Optional[tuple]:
    """Highest listed percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    for p in TAIL_PERCENTILES:
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]
    return None


class Bench:
    def __init__(self, workload: Workload, seed: int, golden: dict, tracing: bool):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.src = os.path.join(ROOT, "src")
        self.scratch = os.path.join(ROOT, ".perfbench", "work")
        os.makedirs(self.scratch, exist_ok=True)
        self.env = dict(os.environ, MPEMBA_THREADS=str(workload.threads), **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        self.setup = [["calibrate"]] if workload.calibrate else []
        # The pass processes run on as many cores as the workload has threads
        # (they inherit this process's affinity), and the reference probe
        # runs on those same cores.
        self.cpus = sorted(os.sched_getaffinity(0))[-workload.threads:]
        os.sched_setaffinity(0, self.cpus)
        self.probe_every_s = None if tracing else reference.EVERY_S   # no pauses when tracing
        self.refs: List[Tuple[float, float]] = []   # (time, seconds) of reference probes

    def spawn(self, commands: List[List[str]], trace: bool, timeout: float) -> dict:
        """Run one worker process in a fresh pass directory. Without tracing
        the worker pauses now and then while this process times a reference
        probe (``self.refs``). The caller removes ``passdir`` when done with
        the outputs."""
        passdir = tempfile.mkdtemp(prefix="pass-", dir=self.scratch)
        workdir = os.path.join(passdir, "work")
        os.makedirs(workdir)
        spec = {"src": self.src, "workdir": workdir, "setup": self.setup,
                "commands": commands, "trace": trace,
                "probe_every_s": self.probe_every_s,
                "result": os.path.join(passdir, "result.json")}
        spec_path = os.path.join(passdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        if self.probe_every_s is not None and (
                not self.refs or time.monotonic() - self.refs[-1][0] > self.probe_every_s):
            self.probe()
        t_spawn = time.monotonic()
        deadline = t_spawn + timeout
        code = None
        with open(os.path.join(passdir, "stderr.txt"), "w+", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                    cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                while select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))[0]:
                    if not proc.stdout.readline():  # end of file: the worker is exiting
                        code = proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                        break
                    self.probe()
                    proc.stdin.write("\n")
                    proc.stdin.flush()
            except (subprocess.TimeoutExpired, OSError):
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdin.close()
                proc.stdout.close()
            err.seek(0)
            stderr = err.read()[-2000:]
        return {"passdir": passdir, "spec": spec, "t_spawn": t_spawn, "code": code,
                "stderr": stderr}

    def probe(self) -> None:
        self.refs.append((time.monotonic(), reference.probe(self.cpus)))

    def run_pass(self, commands: List[List[str]], trace: bool, timeout: float) -> dict:
        """One pass, with every command's outputs checked."""
        run = self.spawn(commands, trace, timeout)
        try:
            rec = self._evaluate(run) if run["code"] == 0 else None
        finally:
            shutil.rmtree(run["passdir"], ignore_errors=True)
        if rec is None:
            n = len(self.setup) + len(commands)
            return {"ok": False, "attempted": n, "failed": n, "trace": trace,
                    "error": f"worker exit {run['code']}: {run['stderr']}"}
        return rec

    def _evaluate(self, run: dict) -> dict:
        spec, t_spawn = run["spec"], run["t_spawn"]
        with open(spec["result"], encoding="utf-8") as fh:
            res = json.load(fh)
        failed, problems, dev = 0, [], 0.0
        for i, cmd in enumerate(res["commands"]):
            if cmd["code"] != 0:
                msgs = [f"exit {cmd['code']} {cmd['error'] or ''}".strip()]
            else:
                msgs, d = checks.check_outputs(
                    cmd["argv"], os.path.join(spec["workdir"], "out", str(i)), self.golden)
                dev = max(dev, d)
            if msgs:
                failed += 1
                problems.append({"argv": cmd["argv"], "messages": msgs[:5]})
        timed = res["commands"][res["n_setup"]:]
        rec = {
            "ok": True, "trace": spec["trace"],
            "attempted": len(res["commands"]), "failed": failed, "problems": problems,
            "setup_s": res["t_setup"] - t_spawn,
            "commands_s": sum(c["t1"] - c["t0"] for c in timed),
            "command_times": [c["t1"] - c["t0"] for c in timed],
            "window_s": res["t_end"] - res["t_ready"],
            "peak_rss_mb": res["peak_rss_mb"],
            "max_abs_dev": dev,
            "missing": res["missing"],
            "spans": res.get("spans"),
        }
        if spec["probe_every_s"] is not None:
            rec["setup_scaled_s"] = reference.scaled(t_spawn, res["t_setup"], self.refs)
            rec["commands_scaled_s"] = sum(reference.scaled(c["t0"], c["t1"], self.refs)
                                           for c in timed)
            rec["slowness"] = reference.slowness(
                statistics.median(p for t, p in self.refs if t >= t_spawn))
        return rec

    def run(self, seconds: float, trace: bool) -> dict:
        """Passes while the next one is predicted to end within ``seconds``,
        with a set-up-only run before each, then more up to SETUP_SAMPLES
        set-up samples, so that set-up is sampled across the whole run."""
        start = time.monotonic()
        deadline = start + seconds
        commands = self.workload.commands(self.seed)
        setups, passes, costs = [], [], []
        while True:
            t = time.monotonic()
            setups.append(self.run_pass([], False, SETUP_TIMEOUT_S))
            passes.append(self.run_pass(commands, trace and len(passes) % 2 == 1,
                                        max(10.0, PASS_TIMEOUT_S - (t - start))))
            costs.append(time.monotonic() - t)
            if len(passes) < (2 if trace else 1):
                continue
            now, cost = time.monotonic(), statistics.median(costs)
            if now + cost > deadline or now + cost - start > RUN_LIMIT_S:
                break
        while (len(setups) + len(passes) < SETUP_SAMPLES
               and time.monotonic() - start < RUN_LIMIT_S):
            setups.append(self.run_pass([], False, SETUP_TIMEOUT_S))
        return {"setups": setups, "passes": passes, "elapsed_s": time.monotonic() - start}


def tally(runs: dict) -> tuple:
    """(attempted, failed) commands over every process of the run."""
    everything = runs["setups"] + runs["passes"]
    return sum(p["attempted"] for p in everything), sum(p["failed"] for p in everything)


def pass_rates(workload: Workload, runs: dict) -> List[float]:
    return [workload.work_per_pass / p["commands_s"] for p in runs["passes"] if p["ok"]]


def setup_times(runs: dict) -> List[float]:
    return [p["setup_s"] for p in runs["setups"] + runs["passes"] if p["ok"]]


def end_to_end(workload: Workload, runs: dict) -> Dict[str, float]:
    """Times at the reference speed (see reference.py)."""
    rates = [workload.work_per_pass / p["commands_scaled_s"] for p in runs["passes"] if p["ok"]]
    setups = [p["setup_scaled_s"] for p in runs["setups"] + runs["passes"] if p["ok"]]
    rss = [p["peak_rss_mb"] for p in runs["passes"] if p["ok"]]
    attempted, failed = tally(runs)
    return {
        "throughput": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(workload: Workload, runs: dict) -> Dict[str, Optional[float]]:
    traced = [p for p in runs["passes"] if p["ok"] and p["trace"]]
    plain = [p for p in runs["passes"] if p["ok"] and not p["trace"]]
    everything = runs["setups"] + runs["passes"]
    dev = max([p.get("max_abs_dev", 0.0) for p in everything])
    if not traced or not plain:
        return {name: None for name in spans.PER_LAYER_METRICS}
    overhead = (statistics.median(p["window_s"] for p in traced)
                / statistics.median(p["window_s"] for p in plain) - 1.0)
    missing = sorted({m for p in traced for m in p["missing"]})
    return spans.layer_metrics([(p["window_s"], p["spans"]) for p in traced], missing,
                               workload.threads, overhead, dev)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mpemba", "cli.py")):
        print("perfbench: no src/mpemba/cli.py under the checkout root; nothing to measure",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["commands"]
    workload = WORKLOADS[args.workload]
    env = environment(workload.threads)
    bench = Bench(workload, args.seed, golden, bool(args.trace))
    env["cpus"] = bench.cpus
    runs = bench.run(args.seconds, bool(args.trace))

    attempted, failed = tally(runs)
    if args.trace:
        values = per_layer(workload, runs)
        units = {k: unit for k, (unit, _) in spans.PER_LAYER_METRICS.items()}
    else:
        values, units = end_to_end(workload, runs), END_TO_END_METRICS

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {len(runs['passes'])} passes, "
          f"{len(runs['setups'])} set-up-only runs, {runs['elapsed_s']:.1f}s; "
          f"work unit {workload.unit} ({workload.work_per_pass} per pass)")
    rates = pass_rates(workload, runs)
    setups = setup_times(runs)
    times = [t for p in runs["passes"] if p["ok"] for t in p["command_times"]]
    t = tail(times)
    print(f"unscaled: throughput median {statistics.median(rates) if rates else 0.0:.6g} "
          f"{workload.unit}/s over {len(rates)} passes, setup_s median "
          f"{statistics.median(setups) if setups else 0.0:.6g} s; command time "
          + (f"p{t[0]:g} {t[1]:.4f}s" if t else "no percentile with 10 samples beyond it")
          + f" (n={len(times)})")
    slow = [p["slowness"] for p in runs["setups"] + runs["passes"] if "slowness" in p]
    if slow:
        print(f"host slowness median {statistics.median(slow):.4g}, range {min(slow):.4g}-"
              f"{max(slow):.4g} (reference probe time / {reference.NOMINAL_S} s)")
    print(f"failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} commands)")
    for p in runs["setups"] + runs["passes"]:
        for prob in p.get("problems", []) + ([p["error"]] if "error" in p else []):
            print(f"failure: {json.dumps(prob)[:400]}")

    outdir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(outdir, exist_ok=True)
    detail = os.path.join(outdir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "values": values, "runs": runs}, fh)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
