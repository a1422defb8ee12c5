"""Command-line driver: calibration, qubit relaxation curves, disk maps,
and circuit ensembles, all emitted as manifest-stamped CSV files.

Every command is a pure function of its flags and the master seed: re-runs
produce byte-identical files (wall-clock timing goes to stdout only, never
into the files). Thread count is controlled solely by the MPEMBA_THREADS
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import __version__, analysis, circuit, markov
from .geometry import MetricKind
from .markov import (
    CalibrationError,
    FittedInterpretation,
    GridInterpretation,
    InstabilityError,
    MarkovParams,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CALIBRATION = 3
EXIT_INSTABILITY = 4

METRIC_FROM_FLAG = {"sld": MetricKind.SLD, "hm": MetricKind.HM, "wy": MetricKind.WY}

CASE_TABLE = {c.label: c for c in markov.ANCHORS}

SVG_CELL = 4.0  # pixels per map grid point


def fmt(x) -> str:
    """Shortest round-trip decimal for a float (stable across runs)."""
    if isinstance(x, (np.floating,)):
        x = float(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def interpretation_from_token(token: str):
    if token.startswith("fitted"):
        return FittedInterpretation()
    _, rule, sign, pole, scale = token.split(":")
    return GridInterpretation(rule, 1 if sign == "+" else -1,
                              1 if pole == "+" else -1, scale)


def write_csv(path: str, manifest: dict, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in manifest.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def base_manifest(command: str, args_spec: dict) -> dict:
    man = {"command": command, "version": __version__}
    man.update(args_spec)
    return man


def _calibration_path(workdir: str) -> str:
    return os.path.join(workdir, "calibration.json")


def _write_calibration(workdir: str, result: markov.CalibrationResult) -> None:
    os.makedirs(workdir, exist_ok=True)
    with open(_calibration_path(workdir), "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"winner": result.winner.describe(),
                   "max_residual": result.max_residual}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_or_run_calibration(workdir: str, quiet: bool = False):
    """Use the persisted winner when available, otherwise calibrate and persist."""
    path = _calibration_path(workdir)
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            return interpretation_from_token(data["winner"]), float(data["max_residual"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"unreadable calibration cache {path} ({type(exc).__name__}: "
                             f"{exc}); delete it or rerun 'calibrate'") from exc
    result = markov.calibrate()
    _write_calibration(workdir, result)
    if not quiet:
        print(f"calibrated: winner {result.winner.describe()} "
              f"(max residual {result.max_residual:.4f})")
    return result.winner, result.max_residual


def cmd_calibrate(args) -> int:
    t0 = time.monotonic()
    os.makedirs(args.workdir, exist_ok=True)
    result = markov.calibrate()
    header = ["candidate", "physical", "reason", "max_residual"]
    for case in result.anchors:
        for tag in ("LA", "LB", "dA", "dB"):
            header.append(f"res_{case.label}_{tag}")
    rows = []
    for score in result.scores:
        row = [score.interpretation.describe(),
               "yes" if score.physical else "no",
               score.reason.replace(",", ";"),
               fmt(score.max_residual) if np.isfinite(score.max_residual) else "inf"]
        row += [fmt(r) for r in score.residuals]
        rows.append(row)
    manifest = base_manifest("calibrate", {
        "anchors": ";".join(c.label for c in result.anchors),
        "winner": result.winner.describe(),
        "winner_max_residual": fmt(result.max_residual),
    })
    write_csv(os.path.join(args.workdir, "calibration.csv"), manifest, header, rows)
    _write_calibration(args.workdir, result)
    print(f"winner: {result.winner.describe()} "
          f"max residual {result.max_residual:.5f}")
    print(f"wrote {os.path.join(args.workdir, 'calibration.csv')} "
          f"({time.monotonic() - t0:.2f}s)")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'y,z', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _verdict_line(name: str, verdict: analysis.MpembaVerdict) -> str:
    if verdict.kind == "crossing":
        return (f"{name}: crossing at t_c={verdict.t_c:.4f} "
                f"(margin {verdict.margin:.4g}; curves {verdict.labels[0]} -> {verdict.labels[1]})")
    return f"{name}: {verdict.kind}"


def cmd_markov(args) -> int:
    t0 = time.monotonic()
    if args.case and any(v is not None for v in (args.alpha, args.gamma_prime, args.a, args.b)):
        raise ValueError("--case fixes alpha, gamma' and both points; "
                         "drop --alpha, --gamma-prime, --a and --b")
    if not args.case and any(v is None for v in (args.gamma_prime, args.a, args.b)):
        raise ValueError("markov needs --case or all of --gamma-prime, --a, --b")
    interp, _ = load_or_run_calibration(args.workdir, quiet=False)
    metric = METRIC_FROM_FLAG[args.metric]
    if args.case:
        case = CASE_TABLE[args.case]
        alpha, gp = markov.ANCHOR_ALPHA, case.gamma_prime
        point_a, point_b = case.point_a, case.point_b
        tag = f"case_{case.label}"
    else:
        alpha = markov.ANCHOR_ALPHA if args.alpha is None else args.alpha
        gp = args.gamma_prime
        point_a, point_b = args.a, args.b
        tag = f"gp{gp:g}"
    params = MarkovParams(alpha, gp, interp)
    rec_a = markov.run_trajectory_record([0.0, *point_a], params, metric,
                                         n_steps=args.steps, tau_max=args.tau_max,
                                         label="A")
    rec_b = markov.run_trajectory_record([0.0, *point_b], params, metric,
                                         n_steps=args.steps, tau_max=args.tau_max,
                                         label="B")
    iq = analysis.iqme_verdict(rec_a, rec_b)
    qm = analysis.qme_verdict(rec_a, rec_b)

    os.makedirs(args.workdir, exist_ok=True)
    path = os.path.join(args.workdir, f"markov_{tag}_{args.metric}.csv")
    manifest = base_manifest("markov", {
        "interpretation": interp.describe(),
        "alpha": fmt(alpha), "gamma_prime": fmt(gp), "metric": args.metric,
        "a": f"{fmt(point_a[0])};{fmt(point_a[1])}",
        "b": f"{fmt(point_b[0])};{fmt(point_b[1])}",
        "n_steps": args.steps, "tau_max": fmt(args.tau_max),
        "geodesic_reference": "wy" if metric is MetricKind.WY else "sld",
        "L_A": fmt(rec_a.total_length), "L_B": fmt(rec_b.total_length),
        "d_A0": fmt(float(rec_a.geo[0])), "d_B0": fmt(float(rec_b.geo[0])),
        "iqme": iq.kind, "iqme_t_c": fmt(iq.t_c) if iq.t_c is not None else "",
        "qme": qm.kind, "qme_t_c": fmt(qm.t_c) if qm.t_c is not None else "",
    })
    header = ["tau", "yA", "zA", "ellA", "dA", "RA", "yB", "zB", "ellB", "dB", "RB"]
    rows = zip(rec_a.times,
               rec_a.states[:, 1], rec_a.states[:, 2], rec_a.ell, rec_a.geo, rec_a.residue,
               rec_b.states[:, 1], rec_b.states[:, 2], rec_b.ell, rec_b.geo, rec_b.residue)
    write_csv(path, manifest, header, rows)
    print(f"L_A={rec_a.total_length:.4f} d_A(0)={rec_a.geo[0]:.4f}  "
          f"L_B={rec_b.total_length:.4f} d_B(0)={rec_b.geo[0]:.4f}")
    print(_verdict_line("IQME (residue crossing)", iq))
    print(_verdict_line("QME (distance crossing)", qm))
    print(f"wrote {path} ({time.monotonic() - t0:.2f}s)")
    return EXIT_OK


def cmd_markov_map(args) -> int:
    t0 = time.monotonic()
    interp, _ = load_or_run_calibration(args.workdir, quiet=False)
    metric = METRIC_FROM_FLAG[args.metric]
    params = MarkovParams(args.alpha, args.gamma_prime, interp)
    dm = markov.distance_map(params, grid_spacing=args.spacing, metric=metric)
    os.makedirs(args.workdir, exist_ok=True)
    tag = f"gp{args.gamma_prime:g}_{args.metric}"
    path = os.path.join(args.workdir, f"markov_map_{tag}.csv")
    manifest = base_manifest("markov-map", {
        "interpretation": interp.describe(),
        "alpha": fmt(args.alpha), "gamma_prime": fmt(args.gamma_prime),
        "metric": args.metric, "spacing": fmt(args.spacing),
        "geodesic_reference": "wy" if metric is MetricKind.WY else "sld",
        "n_points": int(dm.points.shape[0]),
        "n_excluded": int((~dm.valid).sum()),
    })
    columns = (dm.points[:, 0], dm.points[:, 1], dm.total_length, dm.dist0, dm.excess)
    rows = zip(*(col[dm.valid].tolist() for col in columns))
    write_csv(path, manifest, ["y", "z", "L", "d0", "excess"], rows)
    outputs = [path]
    if args.speeds:
        spath = os.path.join(args.workdir, f"markov_map_{tag}_speeds.csv")
        clip = args.speed_clip
        smanifest = dict(manifest)
        smanifest["command"] = "markov-map-speeds"
        smanifest["speed_clip"] = fmt(clip) if clip > 0 else "none"
        finite = np.isfinite(dm.speed_samples)
        speeds = dm.speed_samples[finite]
        if clip > 0:
            speeds = np.minimum(speeds, clip)
        taus = np.repeat(dm.speed_times, finite.sum(axis=1))
        write_csv(spath, smanifest, ["tau", "speed"], zip(taus.tolist(), speeds.tolist()))
        outputs.append(spath)
    if args.svg:
        svgpath = os.path.join(args.workdir, args.svg)
        _write_map_svg(svgpath, dm)
        outputs.append(svgpath)
    print(f"map: {int(dm.valid.sum())} cells ({int((~dm.valid).sum())} excluded), "
          f"max excess {np.nanmax(dm.excess):.4f}")
    for p in outputs:
        print(f"wrote {p}")
    print(f"({time.monotonic() - t0:.2f}s)")
    return EXIT_OK


def _write_map_svg(path: str, dm: markov.DistanceMap) -> None:
    """Minimal raster of the excess heatmap (no plotting dependency), one
    SVG_CELL-pixel square per grid point."""
    vals = dm.excess[dm.valid]
    lo, hi = float(np.min(vals)), float(np.max(vals))
    span = hi - lo if hi > lo else 1.0
    spacing = np.min(np.diff(np.unique(dm.points[:, 0]))) if dm.points.shape[0] > 1 else 0.02
    scale = SVG_CELL / spacing

    def color(x):
        u = (x - lo) / span
        r = int(255 * min(1.0, 2 * u))
        b = int(255 * min(1.0, 2 * (1 - u)))
        g = int(80 * (1 - abs(2 * u - 1)))
        return f"#{r:02x}{g:02x}{b:02x}"

    size = int(2.2 * scale)
    half = size / 2
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    lines.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    for i in range(dm.points.shape[0]):
        if not dm.valid[i]:
            continue
        y, z = dm.points[i]
        px = half + y * scale - SVG_CELL / 2
        py = half - z * scale - SVG_CELL / 2
        lines.append(f'<rect x="{px:.1f}" y="{py:.1f}" width="{SVG_CELL:.1f}" '
                     f'height="{SVG_CELL:.1f}" fill="{color(dm.excess[i])}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_theta_list(text: str) -> List[float]:
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token.endswith("pi"):
            out.append(float(token[:-2]) * np.pi)
        else:
            out.append(float(token))
    if not out:
        raise argparse.ArgumentTypeError("empty theta list")
    return out


def _theta_tag(theta: float) -> str:
    return f"{theta / np.pi:.6g}pi"


def cmd_circuit(args) -> int:
    t0 = time.monotonic()
    metric = METRIC_FROM_FLAG[args.metric]
    family = args.family.replace("-", "_")
    if args.subsystem == "quarter" and args.n % 4:
        raise ValueError(f"--subsystem quarter needs --n divisible by 4, got {args.n}")
    size = 1 if args.subsystem == "1" else args.n // 4
    os.makedirs(args.workdir, exist_ok=True)
    curves = []
    for theta in args.theta:
        cfg = circuit.CircuitConfig(
            n_qubits=args.n, theta=theta, family=family,
            subsystem_start=0, subsystem_size=size, metric=metric,
            horizon=args.steps, n_trajectories=args.trajectories,
            master_seed=args.seed,
        )
        curve = circuit.average_curves(cfg)
        curves.append(curve)
        tag = f"{family}_{_theta_tag(theta)}_{args.metric}"
        path = os.path.join(args.workdir, f"circuit_{tag}.csv")
        manifest = base_manifest("circuit", {
            "family": family, "theta_over_pi": fmt(theta / np.pi),
            "n_qubits": args.n, "subsystem_start": 0, "subsystem_size": size,
            "metric": args.metric, "horizon": args.steps,
            "n_trajectories": args.trajectories, "master_seed": args.seed,
            "gate_sampling": "fresh block-Haar gate per position per layer",
            "mean_total": fmt(curve.mean_total),
            "converged": str(curve.converged).lower(),
        })
        rows = zip(curve.times.astype(int), curve.mean_ell, curve.std_err, curve.residue)
        write_csv(path, manifest, ["step", "mean_ell", "std_err", "residue"], rows)
        print(f"theta={_theta_tag(theta)}: mean total {curve.mean_total:.4f} "
              f"(std err {curve.std_err[-1]:.4f}), converged={curve.converged}; wrote {path}")

    verdict_rows = []
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            a, b = curves[i], curves[j]
            v = analysis.iqme_verdict(a, b)
            verdict_rows.append((
                a.label, b.label, str(a.converged).lower(), str(b.converged).lower(),
                v.kind, fmt(v.t_c) if v.t_c is not None else "", fmt(v.margin),
            ))
            note = "" if (a.converged and b.converged) else "  [non-converged curve(s)]"
            print(_verdict_line(f"IQME {a.label} vs {b.label}", v) + note)
    if verdict_rows:
        vpath = os.path.join(args.workdir,
                             f"circuit_{family}_{args.metric}_verdicts.csv")
        manifest = base_manifest("circuit-verdicts", {
            "family": family, "metric": args.metric, "n_qubits": args.n,
            "horizon": args.steps, "n_trajectories": args.trajectories,
            "master_seed": args.seed,
        })
        write_csv(vpath, manifest,
                  ["curve_a", "curve_b", "converged_a", "converged_b",
                   "verdict", "t_c", "margin"], verdict_rows)
        print(f"wrote {vpath}")
    print(f"({time.monotonic() - t0:.2f}s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpemba",
        description="Trajectory-length (intrinsic) and geodesic (ordinary) "
                    "quantum Mpemba analysis for a dissipative qubit and "
                    "U(1)-symmetric random circuits.",
    )
    parser.add_argument("--workdir", "-o", default="results",
                        help="output directory (default: results)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("calibrate", help="fit the model interpretation to the "
                                     "benchmark table and persist it")

    pm = sub.add_parser("markov", help="relaxation curves for two initial states")
    pm.add_argument("--case", choices=sorted(CASE_TABLE), default=None,
                    help="benchmark case label")
    pm.add_argument("--alpha", type=float, default=None,
                    help=f"default {markov.ANCHOR_ALPHA:g}")
    pm.add_argument("--gamma-prime", type=float, default=None)
    pm.add_argument("--a", type=_parse_point, default=None, metavar="Y,Z")
    pm.add_argument("--b", type=_parse_point, default=None, metavar="Y,Z")
    pm.add_argument("--metric", choices=["sld", "hm", "wy"], default="sld")
    pm.add_argument("--steps", type=_positive_int, default=markov.DEFAULT_STEPS)
    pm.add_argument("--tau-max", type=float, default=markov.DEFAULT_TAU_MAX)

    pp = sub.add_parser("markov-map", help="trajectory-length vs geodesic map "
                                           "over the state disk")
    pp.add_argument("--alpha", type=float, default=markov.ANCHOR_ALPHA)
    pp.add_argument("--gamma-prime", type=float, required=True)
    pp.add_argument("--metric", choices=["sld", "hm", "wy"], default="sld")
    pp.add_argument("--spacing", type=float, default=0.02)
    pp.add_argument("--speeds", action="store_true",
                    help="also write instantaneous speed samples")
    pp.add_argument("--speed-clip", type=float, default=3.0,
                    help="clip exported speeds at this value (<=0 disables)")
    pp.add_argument("--svg", default=None, metavar="FILE",
                    help="write a simple SVG raster of the excess heatmap")

    pc = sub.add_parser("circuit", help="trajectory-length ensembles in the "
                                        "charge-conserving brick-wall circuit")
    pc.add_argument("--n", type=int, default=16, help="qubit count (even)")
    pc.add_argument("--theta", type=_parse_theta_list, required=True,
                    metavar="LIST", help="comma list, e.g. 0.1pi,0.5pi")
    pc.add_argument("--family", choices=["neel", "ferro", "ferro-domain-wall"],
                    default="neel")
    pc.add_argument("--subsystem", choices=["1", "quarter"], default="1")
    pc.add_argument("--metric", choices=["sld", "wy"], default="sld")
    pc.add_argument("--steps", type=_positive_int, default=20)
    pc.add_argument("--trajectories", type=_positive_int, default=500,
                    help="trajectory count (500 desk-scale; 10000 full-scale)")
    pc.add_argument("--seed", type=int, default=0, help="master seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "markov":
            return cmd_markov(args)
        if args.command == "markov-map":
            return cmd_markov_map(args)
        if args.command == "circuit":
            return cmd_circuit(args)
        parser.error(f"unknown command {args.command!r}")
    except CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except InstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except ValueError as exc:  # includes ConfigurationError, UnphysicalInterpretationError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
