"""The four benchmark workloads: the argv each pass sends to
``mpemba.cli.main``, generated from the benchmark seed alone.

Every workload states its unit of work and how much of it one pass does,
so throughput does not depend on the program's own output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

DEFAULT_SEED = 0

# Random pairs are drawn only where the calibrated model keeps every
# trajectory inside the Bloch ball: at gamma' = 0.94 every invalid map cell
# has y <= -0.05 and |r| >= 0.47, at 0.52 no cell is invalid.
PAIR_RADIUS = 0.9
PAIR_GAMMAS = ("0.94", "0.52")
METRICS = ("sld", "hm", "wy")
CASES = ("i", "ii", "iii", "iv")
SWEEP_COMMANDS = 100
MAP_GAMMAS = ("0.94", "0.52")
MAP_SPACING_STEPS = 50  # default --spacing 0.02 = 1 / 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int            # MPEMBA_THREADS for every pass
    calibrate: bool         # set-up includes `calibrate` into an empty workdir
    unit: str               # what one unit of work is
    work_per_pass: int
    commands: Callable[[int], List[List[str]]]


def circuit_n16(seed: int) -> List[List[str]]:
    return [["circuit", "--n", "16", "--theta", "0.1pi,0.5pi", "--family", "neel",
             "--metric", "sld", "--subsystem", "1", "--trajectories", "64",
             "--steps", "6", "--seed", str(seed)]]


def circuit_small(seed: int) -> List[List[str]]:
    return [["circuit", "--n", "8", "--theta", "0.4pi,0.5pi", "--family", "ferro",
             "--metric", "wy", "--subsystem", "quarter", "--trajectories", "2000",
             "--seed", str(seed)]]


def qubit_map(seed: int) -> List[List[str]]:
    return [["markov-map", "--gamma-prime", g, "--speeds", "--svg", f"map_gp{g}.svg"]
            for g in MAP_GAMMAS]


def _draw_point(rng: random.Random, gamma: str) -> Tuple[float, float]:
    while True:
        y = rng.uniform(-PAIR_RADIUS, PAIR_RADIUS)
        z = rng.uniform(-PAIR_RADIUS, PAIR_RADIUS)
        if y * y + z * z > PAIR_RADIUS ** 2:
            continue
        if gamma == "0.94":
            y = abs(y)
        return round(y, 3), round(z, 3)


def qubit_sweep(seed: int) -> List[List[str]]:
    cmds = [["markov", "--case", c, "--metric", m] for c in CASES for m in METRICS]
    rng = random.Random(seed)
    k = 0
    while len(cmds) < SWEEP_COMMANDS:
        # Gammas and metrics cycle in a fixed order so that every seed does
        # the same amount of work; only the points depend on the seed.
        gamma = PAIR_GAMMAS[k % len(PAIR_GAMMAS)]
        metric = METRICS[(k // len(PAIR_GAMMAS)) % len(METRICS)]
        a = _draw_point(rng, gamma)
        b = _draw_point(rng, gamma)
        # `--a=` form: argparse would read a value like "-0.3,0.4" as an option
        cmds.append(["markov", "--gamma-prime", gamma, f"--a={a[0]!r},{a[1]!r}",
                     f"--b={b[0]!r},{b[1]!r}", "--metric", metric])
        k += 1
    return cmds


def map_cells() -> int:
    """Cells of one map, masked ones included: grid points strictly inside
    the unit disk at the default spacing."""
    r = MAP_SPACING_STEPS
    return sum(1 for i in range(-r, r + 1) for j in range(-r, r + 1) if i * i + j * j < r * r)


WORKLOADS = {w.name: w for w in (
    Workload(
        "circuit-n16",
        "N=16 production size: a 64-trajectory chunk is 64 MB, far above L2, so "
        "gate application dominates; gate-kernel and CHUNK work shows here",
        threads=1, calibrate=False, unit="trajectory-steps",
        work_per_pass=2 * 64 * 6, commands=circuit_n16),
    Workload(
        "circuit-small",
        "N=8 with 2000 trajectories on 2 threads: per-trajectory 4x4 geodesic loop, "
        "per-call overhead and the Philox/Haar draw dominate; only pool user",
        threads=2, calibrate=False, unit="trajectory-steps",
        work_per_pass=2 * 2000 * 20, commands=circuit_small),
    Workload(
        "qubit-map",
        "both disk maps with speeds and SVG: RK4 over 6k-8k-wide batches and about "
        "720k CSV rows; the only heavy CSV load and the masked-cell path",
        threads=1, calibrate=True, unit="map-cells",
        work_per_pass=len(MAP_GAMMAS) * map_cells(), commands=qubit_map),
    Workload(
        "qubit-sweep",
        "100 markov commands (4 cases x 3 metrics, then seeded pairs): one-state "
        "RK4 batches, Python-overhead bound, plus the verdict path",
        threads=1, calibrate=True, unit="commands",
        work_per_pass=SWEEP_COMMANDS, commands=qubit_sweep),
)}
