"""Circuit ensemble curves against a committed golden.

`circuit_golden.json` holds `mean_ell` and `std_err` of small fixed-seed
ensembles (n = 8, 20 trajectories, 10 steps; SLD and WY; single-site and
quarter subsystem). A change to the gate, reduction or distance kernels
must reproduce them within GOLDEN_TOL. Re-record only when the physics is
meant to change:

    PYTHONPATH=src python tests/test_circuit_golden.py
"""

import json
import os

import numpy as np
import pytest

from mpemba.circuit import CircuitConfig, average_curves
from mpemba.geometry import MetricKind

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "circuit_golden.json")
GOLDEN_TOL = 1e-12
CASES = [
    dict(metric=metric, subsystem_size=size, master_seed=seed)
    for seed in (7, 2024)
    for metric in ("sld", "wy")
    for size in (1, 2)
]


def case_key(case):
    return f"{case['metric']}-size{case['subsystem_size']}-seed{case['master_seed']}"


def case_curve(case):
    cfg = CircuitConfig(n_qubits=8, theta=0.3 * np.pi, family="neel", horizon=10,
                        n_trajectories=20, master_seed=case["master_seed"],
                        subsystem_size=case["subsystem_size"],
                        metric=MetricKind(case["metric"]))
    return average_curves(cfg)


@pytest.mark.parametrize("case", CASES, ids=case_key)
def test_matches_golden(case):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)[case_key(case)]
    curve = case_curve(case)
    assert np.max(np.abs(curve.mean_ell - golden["mean_ell"])) <= GOLDEN_TOL
    assert np.max(np.abs(curve.std_err - golden["std_err"])) <= GOLDEN_TOL


if __name__ == "__main__":
    record = {}
    for case in CASES:
        curve = case_curve(case)
        record[case_key(case)] = {"mean_ell": curve.mean_ell.tolist(),
                                  "std_err": curve.std_err.tolist()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
