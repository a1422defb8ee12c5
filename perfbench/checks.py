"""Correctness checks on the files each CLI command writes.

Outputs of an argv recorded in ``golden.json`` (generated from the seed
commit for the default seed) are compared with it: circuit files within
1e-12, qubit files within 1e-8, verdict kinds and the map's valid mask
exactly. Files of at most FULL_ROWS rows are compared value by value.
Longer files are compared by column sums over blocks of BLOCK_ROWS rows,
each within BLOCK_ROWS x the tolerance: a shift shared by a block shows
at the tolerance, a single changed value at BLOCK_ROWS x the tolerance.
A circuit command at another seed is compared with the default seed's
curves statistically (CIRCUIT_Z). Every output is also checked against
invariants that hold for any seed.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from workloads import DEFAULT_SEED

CIRCUIT_TOL = 1e-12
QUBIT_TOL = 1e-8
LENGTH_SLACK = 1e-6   # quadrature error allowed in L >= d(0) - d(end)
FULL_ROWS = 64        # files up to this many rows are recorded row by row
BLOCK_ROWS = 50       # longer files: column sums over blocks of this many rows
# Another seed draws other trajectories: each step's mean_ell must lie
# within this many combined standard errors of the default seed's.
CIRCUIT_Z = 6.0
VERDICT_KINDS = {"crossing", "no_crossing", "ordering_violated"}
MANIFEST_KEYS = ("L_A", "L_B", "d_A0", "d_B0", "iqme", "qme", "mean_total", "converged",
                 "n_points", "n_excluded", "winner", "winner_max_residual")
# Verdicts the paper's benchmark cases must give (case, metric or None for all).
CASE_VERDICTS = {("i", None): ("iqme", "crossing"), ("ii", None): ("iqme", "crossing"),
                 ("iii", "sld"): ("qme", "crossing")}


def _read(path: str):
    """Manifest, header and data lines of a CSV written by ``write_csv``."""
    manifest: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition(": ")
        manifest[key] = value
        k += 1
    header = lines[k].split(",") if k < len(lines) else []
    return manifest, header, lines[k + 1:]


def scan_csv(path: str) -> dict:
    """Summary of a CSV: manifest, header, row count, the rows themselves
    (``block`` 1) or column sums over blocks of BLOCK_ROWS rows, and
    first/last/min/max and monotonicity for the invariants. Files with
    non-numeric cells keep only their ``verdict`` column."""
    manifest, header, lines = _read(path)
    n = len(lines)
    out = {"header": header, "rows": n,
           "manifest": {k: manifest[k] for k in MANIFEST_KEYS if k in manifest}}
    if "verdict" in header:
        out["verdicts"] = [line.split(",")[header.index("verdict")] for line in lines]
    if not n:
        return out
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        return out
    block = 1 if n <= FULL_ROWS else BLOCK_ROWS
    out["block"] = block
    out["blocks"] = np.add.reduceat(data, np.arange(0, n, block), axis=0).tolist()
    out["stats"] = {
        "first": data[0].tolist(), "last": data[-1].tolist(),
        "min": data.min(axis=0).tolist(), "max": data.max(axis=0).tolist(),
        "nondecreasing": (np.diff(data, axis=0) >= 0).all(axis=0).tolist(),
    }
    if header[:2] == ["y", "z"] and "L" in header:
        col = {h: data[:, j] for j, h in enumerate(header)}
        out["stats"]["l_minus_d0"] = float((col["L"] - col["d0"]).min())
        points = sorted(f"{y:.6f},{z:.6f}" for y, z in zip(col["y"], col["z"]))
        out["mask"] = hashlib.sha256("\n".join(points).encode()).hexdigest()
    return out


def output_files(outdir: str) -> List[str]:
    return sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []


def summarize_outputs(outdir: str) -> Dict[str, dict]:
    return {f: scan_csv(os.path.join(outdir, f))
            for f in output_files(outdir) if f.endswith(".csv")}


def _numeric(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def compare(now: dict, gold: dict, tol: float) -> Tuple[List[str], float]:
    """Messages for every difference beyond ``tol``, and the largest
    absolute deviation seen: of a value, or of a block sum divided by the
    block's rows (a lower bound on that block's largest deviation)."""
    msgs: List[str] = []
    dev = 0.0

    def close(a: float, b: float, n: int, what: str):
        nonlocal dev
        d = abs(a - b)
        if not math.isfinite(d):
            d = 0.0 if a == b else math.inf
        dev = max(dev, d / n)
        if d > tol * n:
            msgs.append(f"{what}: {a!r} vs golden {b!r}")

    for key in ("header", "rows", "mask", "verdicts", "block"):
        if gold.get(key) != now.get(key):
            msgs.append(f"{key} differs from golden")
    for key, want in gold["manifest"].items():
        got = now["manifest"].get(key)
        g, w = _numeric(got) if got is not None else None, _numeric(want)
        if g is not None and w is not None:
            close(g, w, 1, f"manifest {key}")
        elif got != want:
            msgs.append(f"manifest {key}: {got!r} vs golden {want!r}")
    if msgs:
        return msgs, dev
    block, rows = gold.get("block", 1), gold["rows"]
    for k, (got, want) in enumerate(zip(now.get("blocks", []), gold.get("blocks", []))):
        first, n = k * block, min(block, rows - k * block)
        where = f"row {first}" if block == 1 else f"sum of rows {first}-{first + n - 1}"
        for j, (a, b) in enumerate(zip(got, want)):
            close(a, b, n, f"{where} {gold['header'][j]}")
    return msgs, dev


def compare_curve(now: dict, gold: dict) -> List[str]:
    """A circuit curve at another seed against the default seed's: every
    step's mean_ell within CIRCUIT_Z combined standard errors."""
    if now["header"] != gold["header"] or now["rows"] != gold["rows"] \
            or now.get("block") != 1 or gold.get("block") != 1:
        return ["curve shape differs from the default seed's"]
    m, e = gold["header"].index("mean_ell"), gold["header"].index("std_err")
    msgs = []
    for step, (a, b) in enumerate(zip(now["blocks"], gold["blocks"])):
        slack = CIRCUIT_Z * math.hypot(a[e], b[e]) + CIRCUIT_TOL
        if not abs(a[m] - b[m]) <= slack:
            msgs.append(f"step {step} mean_ell {a[m]!r} is more than {CIRCUIT_Z:g} std errors "
                        f"from the default seed's {b[m]!r}")
    return msgs


def with_seed(argv: List[str], seed: int) -> List[str]:
    out = list(argv)
    out[out.index("--seed") + 1] = str(seed)
    return out


def invariants(name: str, s: dict, argv: List[str]) -> List[str]:
    """Checks that hold for every seed."""
    msgs: List[str] = []
    header, st, man = s["header"] or [], s.get("stats"), s["manifest"]
    col = header.index
    for kind in s.get("verdicts", []):
        if kind not in VERDICT_KINDS:
            msgs.append(f"unknown verdict {kind!r}")
    if header[:2] == ["step", "mean_ell"]:
        if not st["nondecreasing"][col("mean_ell")] or st["first"][col("mean_ell")] != 0.0:
            msgs.append("mean_ell does not start at 0 and rise")
        if abs(st["last"][col("residue")]) > CIRCUIT_TOL:
            msgs.append("residue does not end at 0")
    elif header[:2] == ["y", "z"]:
        if s["rows"] == 0 or not st["l_minus_d0"] >= -1e-9:
            msgs.append("map has no cells or L < d0 on a valid cell")
    elif header == ["tau", "speed"]:
        if not (st["min"][1] >= 0.0 and math.isfinite(st["max"][1])):
            msgs.append("speed samples negative or not finite")
    elif header[:1] == ["tau"]:
        for tag in ("A", "B"):
            if not st["nondecreasing"][col("ell" + tag)]:
                msgs.append(f"ell{tag} decreases")
            if abs(st["last"][col("R" + tag)]) > 1e-12:
                msgs.append(f"R{tag} does not end at 0")
            bound = float(man[f"d_{tag}0"]) - st["last"][col("d" + tag)] - LENGTH_SLACK
            if not float(man[f"L_{tag}"]) >= bound:
                msgs.append(f"L_{tag} shorter than the distance it covers")
        for key in ("iqme", "qme"):
            if man.get(key) not in VERDICT_KINDS:
                msgs.append(f"unknown {key} verdict {man.get(key)!r}")
        if "--case" in argv:
            case, metric = argv[argv.index("--case") + 1], argv[argv.index("--metric") + 1]
            for (c, m), (key, kind) in CASE_VERDICTS.items():
                if c == case and m in (None, metric) and man.get(key) != kind:
                    msgs.append(f"case {case} {metric}: {key} is {man.get(key)!r}, not {kind}")
    elif header[:2] == ["candidate", "physical"]:
        if not float(man["winner_max_residual"]) <= 0.05:
            msgs.append("calibration residual above the failure threshold")
    return msgs


def check_outputs(argv: List[str], outdir: str, golden: Dict[str, dict]
                  ) -> Tuple[List[str], float]:
    """Check one command's output directory against the invariants and
    ``golden`` (recorded entries by argv): the entry for this exact argv,
    or for a circuit command at another seed, the default seed's curves."""
    summaries = summarize_outputs(outdir)
    msgs: List[str] = []
    dev = 0.0
    if not summaries:
        msgs.append("no CSV written")
    for name, s in summaries.items():
        try:
            msgs += [f"{name}: {m}" for m in invariants(name, s, argv)]
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            # a column, manifest key or numeric row the invariant needs is missing
            msgs.append(f"{name}: unreadable for the invariants ({exc!r})")
    exact = golden.get(" ".join(argv))
    ref = None
    if exact is None and argv[0] == "circuit" and "--seed" in argv:
        ref = golden.get(" ".join(with_seed(argv, DEFAULT_SEED)))
    entry = exact or ref
    if entry is not None and output_files(outdir) != entry["outputs"]:
        msgs.append(f"outputs {output_files(outdir)} differ from golden {entry['outputs']}")
    if exact is not None:
        tol = CIRCUIT_TOL if argv[0] == "circuit" else QUBIT_TOL
        for name, gold in exact["files"].items():
            if name in summaries:
                m, d = compare(summaries[name], gold, tol)
                msgs += [f"{name}: {x}" for x in m]
                dev = max(dev, d)
    elif ref is not None:
        for name, gold in ref["files"].items():
            if name in summaries and gold["header"][:2] == ["step", "mean_ell"]:
                msgs += [f"{name}: {x}" for x in compare_curve(summaries[name], gold)]
    return msgs, dev


def golden_for_outputs(outdir: str) -> dict:
    return {"outputs": output_files(outdir),
            "files": {f: {k: v for k, v in s.items() if k != "stats"}
                      for f, s in summarize_outputs(outdir).items()}}
