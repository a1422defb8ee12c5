"""Crossing detection and Mpemba verdicts on residue / geodesic-distance curves.

A crossing of residue curves R(t) signals the intrinsic quantum Mpemba
effect (IQME); a crossing of geodesic-distance curves d(t) signals the
ordinary QME. Curves that converge to a shared endpoint (both residues hit
zero at the horizon) are handled with a small dead band so terminal
floating-point ties do not mask or fabricate crossings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

DEADBAND = 1e-9  # |a - b| at or below this carries no sign
NOISE_FACTOR = 2.0  # standard errors a Monte-Carlo crossing margin must exceed


@dataclass(frozen=True)
class CurvePair:
    """Two curves on a shared increasing time grid."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    labels: Tuple[str, str] = ("A", "B")

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if not (len(t) == len(a) == len(b)):
            raise ValueError(f"length mismatch: {len(t)}, {len(a)}, {len(b)}")
        if len(t) < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class MpembaVerdict:
    """Outcome of a crossing test between two curves.

    kind:    "crossing", "no_crossing", or "ordering_violated"
    t_c:     linear-interpolation estimate of the final crossing time
    margin:  max |a - b| at samples after t_c (0 when not crossing)
    swapped: whether the inputs were relabeled so that a(0) >= b(0)
    """

    kind: str
    t_c: Optional[float]
    margin: float
    labels: Tuple[str, str] = ("A", "B")
    swapped: bool = False

    @property
    def is_crossing(self) -> bool:
        return self.kind == "crossing"


def detect_crossing(
    pair: CurvePair,
    std_errs: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
) -> MpembaVerdict:
    """Detect a persistent sign change of a - b.

    Requires a(0) > b(0) (else ``ordering_violated``). The crossing time is
    the linear-interpolation root at the final + -> - sign change; after it,
    no sample may exceed +DEADBAND. Samples within the dead band carry no
    sign, which tolerates curves pinned to a common terminal value.

    When ``std_errs`` is given (Monte-Carlo curves), a crossing is only
    reported if the post-crossing margin exceeds ``NOISE_FACTOR`` times the
    combined standard error at the final sample.
    """
    t, a, b = pair.times, pair.a, pair.b
    diff = a - b
    if diff[0] <= DEADBAND:
        return MpembaVerdict("ordering_violated", None, 0.0, pair.labels)
    sig = np.where(diff > DEADBAND, 1, np.where(diff < -DEADBAND, -1, 0))
    # indices k where the sign next becomes negative after being positive,
    # skipping dead-band samples in between
    last_cross = None
    prev_sign = sig[0]
    prev_idx = 0
    for k in range(1, len(t)):
        if sig[k] == 0:
            continue
        if prev_sign > 0 and sig[k] < 0:
            last_cross = (prev_idx, k)
        prev_sign = sig[k]
        prev_idx = k
    if last_cross is None:
        return MpembaVerdict("no_crossing", None, 0.0, pair.labels)
    i, j = last_cross
    if np.any(sig[j:] > 0):
        return MpembaVerdict("no_crossing", None, 0.0, pair.labels)
    t_c = float(t[i] + (t[j] - t[i]) * diff[i] / (diff[i] - diff[j]))
    margin = float(np.max(np.abs(diff[j:])))
    if std_errs is not None:
        se_a = np.asarray(std_errs[0], dtype=float)
        se_b = np.asarray(std_errs[1], dtype=float)
        combined = float(np.sqrt(se_a[-1] ** 2 + se_b[-1] ** 2))
        if margin <= NOISE_FACTOR * combined:
            return MpembaVerdict("no_crossing", None, margin, pair.labels)
    return MpembaVerdict("crossing", t_c, margin, pair.labels)


def _ordered_pair(times, ya, yb, labels) -> Tuple[CurvePair, bool]:
    ya = np.asarray(ya, dtype=float)
    yb = np.asarray(yb, dtype=float)
    if ya[0] >= yb[0]:
        return CurvePair(times, ya, yb, labels), False
    return CurvePair(times, yb, ya, (labels[1], labels[0])), True


def iqme_verdict(rec_a, rec_b, std_errs=None) -> MpembaVerdict:
    """IQME test on two residue curves (records must share grid and setup).

    Relabels so the curve with the larger residue at t=0 plays the role of
    the farther state, then looks for a persistent crossing.
    """
    _check_compatible(rec_a, rec_b)
    if std_errs is None:
        se_a = getattr(rec_a, "std_err", None)
        se_b = getattr(rec_b, "std_err", None)
        if se_a is not None and se_b is not None:
            std_errs = (se_a, se_b)
    pair, swapped = _ordered_pair(rec_a.times, rec_a.residue, rec_b.residue,
                                  (rec_a.label, rec_b.label))
    if swapped and std_errs is not None:
        std_errs = (std_errs[1], std_errs[0])
    v = detect_crossing(pair, std_errs=std_errs)
    return MpembaVerdict(v.kind, v.t_c, v.margin, pair.labels, swapped)


def qme_verdict(rec_a, rec_b) -> MpembaVerdict:
    """QME test on two geodesic-distance curves d(t)."""
    _check_compatible(rec_a, rec_b)
    pair, swapped = _ordered_pair(rec_a.times, rec_a.geo, rec_b.geo,
                                  (rec_a.label, rec_b.label))
    v = detect_crossing(pair)
    return MpembaVerdict(v.kind, v.t_c, v.margin, pair.labels, swapped)


def universal_iqme_check(rec_a_sld, rec_a_hm, rec_b_sld, rec_b_hm) -> MpembaVerdict:
    """Metric-independent IQME criterion.

    Gate: R_SLD^A(0) > R_HM^B(0); then require the (larger) HM residue of A
    to cross below the (smaller) SLD residue of B for good.
    """
    for r in (rec_a_hm, rec_b_sld, rec_b_hm):
        if len(r.times) != len(rec_a_sld.times) or not np.allclose(r.times, rec_a_sld.times):
            raise ValueError("records must share one time grid")
    if rec_a_sld.residue[0] <= rec_b_hm.residue[0] + DEADBAND:
        return MpembaVerdict("ordering_violated", None, 0.0,
                             (rec_a_sld.label, rec_b_sld.label))
    pair = CurvePair(rec_a_hm.times, rec_a_hm.residue, rec_b_sld.residue,
                     (rec_a_hm.label, rec_b_sld.label))
    return detect_crossing(pair)


def _check_compatible(rec_a, rec_b):
    if len(rec_a.times) != len(rec_b.times) or not np.allclose(rec_a.times, rec_b.times):
        raise ValueError("records must share one time grid")
    if getattr(rec_a, "metric", None) != getattr(rec_b, "metric", None):
        raise ValueError(f"metric mismatch: {rec_a.metric} vs {rec_b.metric}")
    pa = getattr(rec_a, "params", None)
    pb = getattr(rec_b, "params", None)
    if pa is None or pb is None:
        return
    if hasattr(pa, "theta") and hasattr(pb, "theta"):
        # ensemble configs may differ in the initial state (theta / family);
        # the dynamics and measurement settings must match
        pa = dataclasses.replace(pa, theta=0.0, family="neel")
        pb = dataclasses.replace(pb, theta=0.0, family="neel")
    if pa != pb:
        raise ValueError("model parameters differ between records")
