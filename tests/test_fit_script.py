"""Smoke test of scripts/fit_markov_interpretation.py at the frozen constants."""

import importlib.util
from pathlib import Path

import pytest

from mpemba.markov import FITTED_TABLE

pytest.importorskip("scipy")


@pytest.fixture(scope="module")
def fit_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "fit_markov_interpretation.py"
    spec = importlib.util.spec_from_file_location("fit_markov_interpretation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("gamma_prime", sorted(FITTED_TABLE))
def test_frozen_table_meets_the_fit_targets(fit_script, gamma_prime):
    dev, penalty, d_end = fit_script.group_metrics(gamma_prime, *FITTED_TABLE[gamma_prime])
    print(f"gamma'={gamma_prime}: max deviation {dev:.5f}, penalty {penalty:g}, "
          f"d(tau_max) {d_end:.5f}")
    assert dev < 0.01
    assert penalty == 0
    assert d_end < 0.008
