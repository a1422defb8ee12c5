import numpy as np
import pytest

from mpemba.analysis import (
    CurvePair,
    detect_crossing,
    iqme_verdict,
    qme_verdict,
    universal_iqme_check,
)


def pair(times, a, b):
    return CurvePair(np.asarray(times, float), np.asarray(a, float), np.asarray(b, float))


class FakeRecord:
    def __init__(self, times, residue=None, geo=None, label="X", metric="sld",
                 params="p", std_err=None):
        self.times = np.asarray(times, float)
        self.residue = None if residue is None else np.asarray(residue, float)
        self.geo = None if geo is None else np.asarray(geo, float)
        self.label = label
        self.metric = metric
        self.params = params
        self.std_err = std_err


class TestDetectCrossing:
    def test_simple_crossing(self):
        v = detect_crossing(pair([0, 1, 2], [2, 1, 0.2], [1, 0.9, 0.5]))
        assert v.kind == "crossing"
        assert 1.0 < v.t_c < 2.0

    def test_no_crossing(self):
        v = detect_crossing(pair([0, 1, 2], [2, 1.5, 1.0], [1, 0.7, 0.4]))
        assert v.kind == "no_crossing"
        assert v.t_c is None

    def test_ordering_violated(self):
        v = detect_crossing(pair([0, 1, 2], [1, 0.5, 0.2], [2, 0.4, 0.1]))
        assert v.kind == "ordering_violated"

    def test_flip_back_is_no_crossing(self):
        v = detect_crossing(pair([0, 1, 2, 3], [2, 0.5, 1.5, 0.2], [1, 1, 1, 1]))
        # final sign change counts, but the interval after it must stay below
        assert v.kind == "crossing"
        assert 2 < v.t_c < 3
        v2 = detect_crossing(pair([0, 1, 2, 3], [2, 0.5, 1.5, 1.2], [1, 1, 1, 1]))
        assert v2.kind == "no_crossing"

    def test_terminal_tie_tolerated(self):
        # both curves pinned to exactly zero at the horizon: still a crossing
        times = [0, 1, 2, 3, 4]
        a = [2.0, 1.0, 0.1, 0.01, 0.0]
        b = [1.0, 0.9, 0.5, 0.02, 0.0]
        v = detect_crossing(pair(times, a, b))
        assert v.kind == "crossing"
        assert v.t_c < 2.0

    def test_margin_reported(self):
        v = detect_crossing(pair([0, 1, 2], [2, 1, 0.2], [1, 0.9, 0.5]))
        assert v.margin == pytest.approx(0.3)

    def test_noise_gate_blocks_small_margin(self):
        times = [0, 1, 2]
        a = [2, 1, 0.45]
        b = [1, 0.9, 0.5]
        se = ([0.0, 0.0, 0.1], [0.0, 0.0, 0.1])
        v = detect_crossing(pair(times, a, b), std_errs=se)
        assert v.kind == "no_crossing"
        v2 = detect_crossing(pair(times, a, b), std_errs=([0]*3, [0]*3))
        assert v2.kind == "crossing"

    def test_shift_invariance(self):
        t = np.linspace(0, 5, 50)
        a = 2.0 * np.exp(-2 * t) + 0.3
        b = 1.0 * np.exp(-0.3 * t) + 0.5
        v1 = detect_crossing(pair(t, a, b))
        v2 = detect_crossing(pair(t, a + 1.7, b + 1.7))
        assert v1.kind == v2.kind == "crossing"
        assert v1.t_c == pytest.approx(v2.t_c, abs=1e-12)

    def test_subsampling_stability(self):
        t = np.linspace(0, 6, 121)
        a = 2.0 * np.exp(-1.5 * t)
        b = 1.0 * np.exp(-0.5 * t)
        v_full = detect_crossing(pair(t, a, b))
        v_half = detect_crossing(pair(t[::2], a[::2], b[::2]))
        assert v_full.kind == v_half.kind == "crossing"
        assert abs(v_full.t_c - v_half.t_c) <= (t[2] - t[0]) + 1e-12

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CurvePair(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1.0]))


class TestVerdictWrappers:
    def test_relabeling_idempotence(self):
        t = np.linspace(0, 5, 30)
        ra = FakeRecord(t, residue=2.0 * np.exp(-2 * t), label="A")
        rb = FakeRecord(t, residue=1.0 * np.exp(-0.4 * t), label="B")
        v1 = iqme_verdict(ra, rb)
        v2 = iqme_verdict(rb, ra)
        assert v1.kind == v2.kind == "crossing"
        assert v1.t_c == pytest.approx(v2.t_c)
        assert v1.labels == v2.labels  # always (larger-at-0, smaller-at-0)

    def test_qme_verdict_uses_geo(self):
        t = np.linspace(0, 5, 30)
        ra = FakeRecord(t, geo=2.0 * np.exp(-2 * t), label="A")
        rb = FakeRecord(t, geo=1.0 * np.exp(-0.4 * t), label="B")
        assert qme_verdict(ra, rb).kind == "crossing"

    def test_metric_mismatch_rejected(self):
        t = np.linspace(0, 5, 10)
        ra = FakeRecord(t, residue=np.exp(-t), metric="sld")
        rb = FakeRecord(t, residue=np.exp(-2 * t), metric="hm")
        with pytest.raises(ValueError):
            iqme_verdict(ra, rb)

    def test_grid_mismatch_rejected(self):
        ra = FakeRecord(np.linspace(0, 5, 10), residue=np.ones(10))
        rb = FakeRecord(np.linspace(0, 6, 10), residue=np.ones(10))
        with pytest.raises(ValueError):
            iqme_verdict(ra, rb)

    def test_auto_std_errs_gate(self):
        t = np.linspace(0, 5, 30)
        a = 2.0 * np.exp(-2 * t)
        b = 1.0 * np.exp(-0.4 * t)
        ra = FakeRecord(t, residue=a, std_err=np.full(30, 10.0))
        rb = FakeRecord(t, residue=b, std_err=np.full(30, 10.0))
        assert iqme_verdict(ra, rb).kind == "no_crossing"  # drowned in noise
        ra2 = FakeRecord(t, residue=a, std_err=np.zeros(30))
        rb2 = FakeRecord(t, residue=b, std_err=np.zeros(30))
        assert iqme_verdict(ra2, rb2).kind == "crossing"


class TestUniversal:
    def _rec(self, t, residue, label):
        return FakeRecord(t, residue=residue, label=label)

    def test_gate_failure(self):
        t = np.linspace(0, 5, 20)
        a_sld = self._rec(t, 1.0 * np.exp(-t), "A")
        a_hm = self._rec(t, 1.5 * np.exp(-t), "A")
        b_sld = self._rec(t, 1.2 * np.exp(-0.5 * t), "B")
        b_hm = self._rec(t, 2.0 * np.exp(-0.5 * t), "B")
        # R_SLD^A(0) = 1.0 < R_HM^B(0) = 2.0: gate fails
        v = universal_iqme_check(a_sld, a_hm, b_sld, b_hm)
        assert v.kind == "ordering_violated"

    def test_classical_collapse_reduces_to_plain(self):
        t = np.linspace(0, 5, 40)
        fast = 2.0 * np.exp(-2 * t)
        slow = 1.0 * np.exp(-0.3 * t)
        # metrics coincide (diagonal curves): universal check == plain IQME
        v = universal_iqme_check(self._rec(t, fast, "A"), self._rec(t, fast, "A"),
                                 self._rec(t, slow, "B"), self._rec(t, slow, "B"))
        plain = detect_crossing(pair(t, fast, slow))
        assert v.kind == plain.kind == "crossing"
        assert v.t_c == pytest.approx(plain.t_c)

    def test_universal_crossing(self):
        t = np.linspace(0, 10, 80)
        a_hm = 3.0 * np.exp(-1.5 * t)
        a_sld = 2.5 * np.exp(-1.5 * t)
        b_sld = 1.0 * np.exp(-0.2 * t)
        b_hm = 1.4 * np.exp(-0.2 * t)
        v = universal_iqme_check(self._rec(t, a_sld, "A"), self._rec(t, a_hm, "A"),
                                 self._rec(t, b_sld, "B"), self._rec(t, b_hm, "B"))
        assert v.kind == "crossing"
