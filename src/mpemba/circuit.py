"""U(1)-symmetric brick-wall random circuit simulator.

Statevector evolution of N qubits under two-qubit gates that conserve the
total charge Q = sum_i sigma_z^i. Each gate is block diagonal in the pair
charge: a phase on |uu>, a Haar 2x2 block on span{|ud>, |du>}, a phase on
|dd>. One time step = an even brick layer followed by an odd layer
(periodic boundaries); trajectory lengths are discretized sums of geodesic
distances between consecutive reduced density matrices of a subsystem.

Randomness: every trajectory owns a counter-based Philox stream keyed by
(master_seed, trajectory index), with gate draws consumed in a fixed
(step, layer, position) layout. Ensemble results are therefore
bit-reproducible for a given master seed, independent of batching or
thread count.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .geometry import MetricKind, UnsupportedMetricError
from .geometry import geodesic_batch as _pair_distances

CHUNK = 64  # trajectories per internal batch; fixed so results never depend on threading
CONVERGENCE_WINDOW = 5  # final steps whose slope decides convergence
CONVERGENCE_SLOPE_TOL = 0.005  # largest mean-length growth per step of a converged curve


def thread_count() -> int:
    """Worker threads for trajectory ensembles: MPEMBA_THREADS, 1 when unset."""
    raw = os.environ.get("MPEMBA_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"MPEMBA_THREADS must be an integer >= 1, got {raw!r}")
    return n


@dataclass(frozen=True)
class CircuitConfig:
    """Everything needed to reproduce one trajectory ensemble."""

    n_qubits: int = 16
    theta: float = 0.5 * np.pi
    family: str = "neel"  # neel | ferro | ferro_domain_wall
    subsystem_start: int = 0
    subsystem_size: int = 1
    metric: MetricKind = MetricKind.SLD
    horizon: int = 20
    n_trajectories: int = 10000
    master_seed: int = 0

    def __post_init__(self):
        if self.n_qubits < 2 or self.n_qubits % 2:
            raise ValueError("n_qubits must be even and >= 2")
        if not 0.0 <= self.theta <= 0.5 * np.pi + 1e-12:
            raise ValueError("theta must lie in [0, pi/2]")
        if self.family not in ("neel", "ferro", "ferro_domain_wall"):
            raise ValueError(f"unknown initial-state family {self.family!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.subsystem_size not in (1, self.n_qubits // 4):
            raise ValueError("subsystem size must be 1 or n_qubits/4")
        if self.subsystem_size > 1 and self.n_qubits % 4:
            raise ValueError("n_qubits must be divisible by 4 for the quarter subsystem")
        if not 0 <= self.subsystem_start < self.n_qubits:
            raise ValueError("subsystem start out of range")
        if self.metric is MetricKind.HM:
            raise UnsupportedMetricError(
                "harmonic-mean metric has no geodesic; circuit lengths need SLD or WY"
            )
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")


def _haar_blocks(normals: np.ndarray) -> np.ndarray:
    """Haar-random 2x2 unitaries: Gram-Schmidt on the columns of complex
    Gaussian matrices whose real and imaginary parts are the last axis of
    normals (..., 2, 2, 2). The implied R factor has a positive real
    diagonal, which makes the distribution two-sided invariant."""
    m = normals[..., 0] + 1j * normals[..., 1]
    c0 = m[..., :, 0]
    n0 = np.linalg.norm(c0, axis=-1, keepdims=True)
    q0 = c0 / n0
    c1 = m[..., :, 1]
    proj = np.sum(q0.conj() * c1, axis=-1, keepdims=True)
    v = c1 - proj * q0
    q1 = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return np.stack([q0, q1], axis=-1)


def initial_state(family: str, theta: float, n_qubits: int) -> np.ndarray:
    """Amplitudes (2^n,) of a product state: global y-rotation by theta applied
    to a reference pattern (alternating, all-up, or half-up/half-down).

    Qubit 0 is the most significant bit; bit value 0 encodes spin up.
    """
    if n_qubits % 2:
        raise ValueError("n_qubits must be even")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    up = np.array([c, s], dtype=complex)       # Ry(theta) |up>
    down = np.array([-s, c], dtype=complex)    # Ry(theta) |down>
    if family == "neel":
        sites = [up if q % 2 == 0 else down for q in range(n_qubits)]
    elif family == "ferro":
        sites = [up] * n_qubits
    elif family == "ferro_domain_wall":
        sites = [up] * (n_qubits // 2) + [down] * (n_qubits // 2)
    else:
        raise ValueError(f"unknown initial-state family {family!r}")
    amp = sites[0]
    for spinor in sites[1:]:
        amp = np.kron(amp, spinor)
    return amp


def charge_expectation(amps: np.ndarray) -> float:
    """<Q> = sum_i <sigma_z^i> from the basis-state probabilities of amplitudes (2^n,)."""
    n = amps.size.bit_length() - 1
    probs = np.abs(amps) ** 2
    total = 0.0
    shaped = probs.reshape((2,) * n)
    for q in range(n):
        p1 = float(np.sum(shaped, axis=tuple(i for i in range(n) if i != q))[1])
        total += 1.0 - 2.0 * p1
    return total


def _apply_gate_batch(amps, n, qa, qb, phase_up, mids, phase_down):
    """Apply per-trajectory gates at one fixed pair position to a batch.

    amps: (B, 2^n); phase_up/phase_down: (B,); mids: (B, 2, 2).
    """
    b = amps.shape[0]
    t = amps.reshape((b,) + (2,) * n)
    t = np.moveaxis(t, (1 + qa, 1 + qb), (1, 2)).reshape(b, 4, -1)
    out = np.empty_like(t)
    out[:, 0] = phase_up[:, None] * t[:, 0]
    out[:, 1] = mids[:, 0, 0, None] * t[:, 1] + mids[:, 0, 1, None] * t[:, 2]
    out[:, 2] = mids[:, 1, 0, None] * t[:, 1] + mids[:, 1, 1, None] * t[:, 2]
    out[:, 3] = phase_down[:, None] * t[:, 3]
    out = out.reshape((b,) + (2,) * n)
    out = np.moveaxis(out, (1, 2), (1 + qa, 1 + qb))
    return out.reshape(b, -1)


def _reduce_batch(amps, n, start, size):
    """Reduced density matrices (B, 2^size, 2^size) of `size` contiguous qubits
    from `start` (wrapping around) for amplitudes (B, 2^n); partial trace over
    the complement, trace-normalized exactly."""
    b = amps.shape[0]
    if start + size <= n:
        axes_src = tuple(range(1 + start, 1 + start + size))
    else:
        axes_src = tuple(1 + ((start + k) % n) for k in range(size))
    t = amps.reshape((b,) + (2,) * n)
    t = np.moveaxis(t, axes_src, tuple(range(1, 1 + size)))
    t = t.reshape(b, 2 ** size, -1)
    rho = np.matmul(t, t.conj().transpose(0, 2, 1))
    tr = np.einsum("bii->b", rho).real
    rho /= tr[:, None, None]
    return rho


def gate_layout(n_qubits: int):
    """Qubit pairs touched in one time step: even layer then odd layer."""
    pairs = []
    for p in range(n_qubits // 2):
        pairs.append((2 * p, 2 * p + 1))
    for p in range(n_qubits // 2):
        pairs.append((2 * p + 1, (2 * p + 2) % n_qubits))
    return pairs


def _trajectory_rng(master_seed: int, traj_index: int) -> np.random.Generator:
    key = np.array([master_seed % (1 << 64), traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_gate_blocks(master_seed, traj_indices, steps, n_gates):
    """All gate blocks for a batch of trajectories.

    Per trajectory the stream yields Gaussian draws for every (step, gate)
    in layout order, then the sector phases. Returns (mids, phases_up,
    phases_down) with leading shape (B, steps, n_gates).
    """
    b = len(traj_indices)
    normals = np.empty((b, steps, n_gates, 2, 2, 2))
    uniforms = np.empty((b, steps, n_gates, 2))
    for i, idx in enumerate(traj_indices):
        rng = _trajectory_rng(master_seed, idx)
        normals[i] = rng.standard_normal((steps, n_gates, 2, 2, 2))
        uniforms[i] = rng.random((steps, n_gates, 2))
    phases = np.exp(2j * np.pi * uniforms)
    return _haar_blocks(normals), phases[..., 0], phases[..., 1]


def _run_batch(config: CircuitConfig, traj_indices) -> Tuple[np.ndarray, np.ndarray]:
    """Evolve a batch of trajectories; returns (lengths (B, T+1), rdms (B, T+1, d, d))."""
    n = config.n_qubits
    steps = config.horizon
    pairs = gate_layout(n)
    mids, pu, pd = _draw_gate_blocks(config.master_seed, traj_indices, steps, len(pairs))
    psi0 = initial_state(config.family, config.theta, n)
    b = len(traj_indices)
    amps = np.broadcast_to(psi0, (b, psi0.size)).copy()
    d = 2 ** config.subsystem_size
    rdms = np.empty((b, steps + 1, d, d), dtype=complex)
    rdms[:, 0] = _reduce_batch(amps, n, config.subsystem_start, config.subsystem_size)
    ell = np.zeros((b, steps + 1))
    for t in range(steps):
        for g, (qa, qb) in enumerate(pairs):
            amps = _apply_gate_batch(amps, n, qa, qb, pu[:, t, g], mids[:, t, g], pd[:, t, g])
        rdms[:, t + 1] = _reduce_batch(amps, n, config.subsystem_start, config.subsystem_size)
        step_d = _pair_distances(rdms[:, t], rdms[:, t + 1], config.metric)
        ell[:, t + 1] = ell[:, t] + 0.5 * step_d
    return ell, rdms


def run_trajectory(config: CircuitConfig, traj_index: int) -> Tuple[np.ndarray, np.ndarray]:
    """Single trajectory: per-step reduced density matrices and lengths.

    Returns (rdms, lengths): rdms has shape (horizon+1, d, d) and lengths
    (horizon+1,), with lengths[j] the discretized path length through step j.
    Deterministic in (master_seed, traj_index).
    """
    ell, rdms = _run_batch(config, [traj_index])
    return rdms[0], ell[0]


@dataclass(frozen=True)
class AveragedCurve:
    """Trajectory-averaged length curve and residue."""

    times: np.ndarray
    mean_ell: np.ndarray
    std_err: np.ndarray
    mean_total: float
    residue: np.ndarray
    converged: bool
    label: str
    metric: MetricKind
    n_trajectories: int
    final_rdms: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    params: Optional[CircuitConfig] = field(default=None, repr=False, compare=False)


def average_curves(config: CircuitConfig) -> AveragedCurve:
    """Ensemble average of per-trajectory lengths (lengths first, then mean).

    Trajectories are processed in fixed-size batches whose composition does
    not depend on the thread count, so the result is bit-identical for any
    MPEMBA_THREADS setting.
    """
    if config.n_trajectories < 2:
        raise ValueError("ensemble statistics need at least two trajectories")
    if config.horizon < CONVERGENCE_WINDOW:
        raise ValueError(f"horizon {config.horizon} is shorter than the "
                         f"{CONVERGENCE_WINDOW}-step convergence window")
    n_traj = config.n_trajectories
    chunks = [list(range(lo, min(lo + CHUNK, n_traj))) for lo in range(0, n_traj, CHUNK)]
    ells = np.empty((n_traj, config.horizon + 1))
    d = 2 ** config.subsystem_size
    finals = np.empty((n_traj, d, d), dtype=complex)

    def work(chunk):
        return chunk[0], _run_batch(config, chunk)

    workers = thread_count()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # A single worker runs in this thread: a pool thread gets its own malloc
        # arena, which raised the peak resident set by 5 % at n = 16.
        for lo, (ell, rdms) in pool.map(work, chunks) if workers > 1 else map(work, chunks):
            ells[lo:lo + ell.shape[0]] = ell
            finals[lo:lo + ell.shape[0]] = rdms[:, -1]

    mean = ells.mean(axis=0)
    std_err = ells.std(axis=0, ddof=1) / np.sqrt(n_traj)
    total = float(mean[-1])
    times = np.arange(config.horizon + 1, dtype=float)
    curve = AveragedCurve(
        times=times,
        mean_ell=mean,
        std_err=std_err,
        mean_total=total,
        residue=total - mean,
        converged=False,
        label=f"{config.family} theta={config.theta:.6g}",
        metric=config.metric,
        n_trajectories=n_traj,
        final_rdms=finals,
        params=config,
    )
    return replace(curve, converged=convergence_check(curve))


def convergence_check(curve: AveragedCurve) -> bool:
    """True when the least-squares slope over the final CONVERGENCE_WINDOW
    steps is at most CONVERGENCE_SLOPE_TOL."""
    if len(curve.mean_ell) < CONVERGENCE_WINDOW + 1:
        raise ValueError("curve shorter than the convergence window")
    y = curve.mean_ell[-(CONVERGENCE_WINDOW + 1):]
    x = curve.times[-(CONVERGENCE_WINDOW + 1):]
    slope = float(np.polyfit(x, y, 1)[0])
    return slope <= CONVERGENCE_SLOPE_TOL


def equilibrium_rdm(theta: float, subsystem_size: int) -> np.ndarray:
    """Thermal reduced state of the charge ensemble for a tilted ferromagnet.

    Per site diag((1+cos theta)/2, (1-cos theta)/2); tensor power over the
    subsystem. theta -> 0 degenerates to the all-up projector (flagged).
    """
    if subsystem_size < 1:
        raise ValueError("subsystem_size must be >= 1")
    if theta <= 0.0:
        warnings.warn("theta = 0 has a divergent bias; returning the pure projector")
        p_up = 1.0
    elif theta > 0.5 * np.pi + 1e-12:
        raise ValueError("theta must lie in (0, pi/2]")
    else:
        p_up = (1.0 + np.cos(theta)) / 2.0
    site = np.diag([p_up, 1.0 - p_up]).astype(complex)
    rho = site
    for _ in range(subsystem_size - 1):
        rho = np.kron(rho, site)
    return rho
