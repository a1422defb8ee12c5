"""Tests of the benchmark's own arithmetic, inputs and output names.

None of them runs a workload; the whole file takes well under a second.
"""

import json
import os
import threading

import pytest

import checks
import reference
import run
import spans
from workloads import PAIR_RADIUS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def span(id, layer, parent, t0, t1, c0=None, c1=None, thread=1, **counts):
    return {"id": id, "layer": layer, "parent": parent, "thread": thread,
            "t0": t0, "t1": t1, "c0": t0 if c0 is None else c0,
            "c1": t1 if c1 is None else c1, "counts": counts}


# cmd [0, 10] on thread 1 runs gate [1, 4] and dist [5, 8]; dist runs
# geodesic [6, 7]. Two pool spans on threads 2 and 3 overlap on [2, 3].
NESTED = [
    span(0, "cli.command", None, 0.0, 10.0, c0=0.0, c1=6.0),
    span(1, "circuit.gate", 0, 1.0, 4.0, c0=1.0, c1=3.5),
    span(2, "circuit.dist", 0, 5.0, 8.0),
    span(3, "markov.geodesic", 2, 6.0, 7.0),
]
POOL = [
    span(4, "circuit.chunk", 0, 1.5, 3.0, thread=2),
    span(5, "circuit.chunk", 0, 2.0, 4.5, thread=3),
]


def test_self_time_of_nested_spans():
    selfs = spans.self_times(NESTED)
    assert selfs[0] == (10.0 - 3.0 - 3.0, 6.0 - 2.5 - 3.0)
    assert selfs[1] == (3.0, 2.5)
    assert selfs[2] == (2.0, 2.0)
    assert selfs[3] == (1.0, 1.0)


def test_self_time_subtracts_union_of_overlapping_children():
    selfs = spans.self_times(NESTED + POOL)
    # children of cmd cover [1, 4.5] and [5, 8]: 6.5 s of its 10 s
    assert selfs[0][0] == pytest.approx(3.5)
    # other threads' CPU time is not the command thread's
    assert selfs[0][1] == pytest.approx(0.5)


def test_account_adds_up_to_wall():
    spans_ = NESTED + POOL
    acc = spans.account(spans_, wall=12.0)
    assert acc["other"] == pytest.approx(2.0)
    # gate and the two chunks: 7 thread-seconds inside their 3.5 s union
    assert acc["parallel"] == pytest.approx(3.5)
    total = sum(acc["busy"].values()) + acc["wait"] + acc["other"]
    assert total == pytest.approx(12.0 + acc["parallel"])


def test_tracer_links_pool_spans_to_the_open_command():
    tracer = spans.Tracer()
    outer = tracer.open("cli.command")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("circuit.chunk")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    inner = tracer.open("circuit.gate")
    tracer.close(inner)
    tracer.close(outer)
    by_layer = {s.layer: s for s in tracer.spans}
    assert by_layer["circuit.chunk"].parent == outer.id
    assert by_layer["circuit.gate"].parent == outer.id
    assert by_layer["cli.command"].parent is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_argv(name):
    w = WORKLOADS[name]
    assert w.commands(7) == w.commands(7)
    assert all(isinstance(a, str) for argv in w.commands(7) for a in argv)


def test_seed_drives_circuit_seed_and_sweep_pairs_only():
    assert WORKLOADS["circuit-n16"].commands(1) != WORKLOADS["circuit-n16"].commands(2)
    assert WORKLOADS["qubit-map"].commands(1) == WORKLOADS["qubit-map"].commands(2)
    a, b = WORKLOADS["qubit-sweep"].commands(1), WORKLOADS["qubit-sweep"].commands(2)
    assert len(a) == len(b) == WORKLOADS["qubit-sweep"].work_per_pass
    assert a[:12] == b[:12] and a[12:] != b[12:]
    # same work on every seed: only the points move
    assert [x[:3] + x[5:] for x in a[12:]] == [x[:3] + x[5:] for x in b[12:]]


def test_sweep_pairs_stay_where_the_model_is_valid():
    for seed in range(20):
        for argv in WORKLOADS["qubit-sweep"].commands(seed)[12:]:
            gamma = argv[argv.index("--gamma-prime") + 1]
            for flag in (argv[3], argv[4]):
                y, z = (float(v) for v in flag.split("=", 1)[1].split(","))
                assert y * y + z * z <= (PAIR_RADIUS + 1e-3) ** 2
                assert gamma != "0.94" or y >= 0.0


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def _pass(trace, spans_=None):
    return {"ok": True, "trace": trace, "attempted": 3, "failed": 0, "setup_s": 0.3,
            "commands_s": 2.0, "command_times": [1.0, 1.0], "window_s": 2.5,
            "peak_rss_mb": 80.0, "max_abs_dev": 1e-15, "missing": [], "spans": spans_,
            "setup_scaled_s": 0.15, "commands_scaled_s": 1.0}


def test_printed_end_to_end_metrics_match_benchmark_json():
    runs = {"setups": [_pass(False)], "passes": [_pass(False), _pass(False)]}
    values = run.end_to_end(WORKLOADS["qubit-sweep"], runs)
    printed = {k: run.END_TO_END_METRICS[k] for k in values}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    # end-to-end times are the ones at the reference speed
    assert values["ok_frac"] == 1.0 and values["throughput"] == 100.0
    assert values["setup_s"] == 0.15


def test_times_are_scaled_by_the_reference_probes_around_them():
    nominal = reference.NOMINAL_S
    refs = [(0.0, nominal), (5.0, 2.0 * nominal), (10.0, nominal)]
    # probes at 0 and 5 give a host 1.5 times slower than the reference
    assert reference.scaled(1.0, 4.0, refs) == pytest.approx(2.0)
    # a probe at a command's start or end counts for it
    assert reference.scaled(5.0, 10.0, refs) == pytest.approx(5.0 / 1.5)
    assert reference.scaled(0.0, 10.0, refs) == pytest.approx(10.0)


def test_printed_per_layer_metrics_match_benchmark_json():
    runs = {"setups": [], "passes": [_pass(False), _pass(True, NESTED + POOL)]}
    values = run.per_layer(WORKLOADS["circuit-small"], runs)
    printed = {k: spans.PER_LAYER_METRICS[k][0] for k in values}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert values["circuit.gate.busy_s"] == 2.5
    assert values["trace.overhead_frac"] == 0.0


def test_missing_layer_reports_null():
    values = spans.layer_metrics([(12.0, NESTED)], ["circuit.gate"], 1, 0.0, 0.0)
    assert values["circuit.gate.busy_s"] is None
    assert values["circuit.gate.gbps_computed"] is None
    assert values["circuit.dist.busy_s"] == 2.0


def _circuit_csv(path, mean_ell, std_err=0.01):
    total = mean_ell[-1]
    rows = "".join(f"{i},{m!r},{std_err!r},{total - m!r}\n" for i, m in enumerate(mean_ell))
    path.write_text("# command: circuit\n# mean_total: %r\nstep,mean_ell,std_err,residue\n%s"
                    % (total, rows))


def _golden(tmp_path, argv, write):
    ref = tmp_path / "ref"
    ref.mkdir()
    write(ref)
    return {" ".join(argv): checks.golden_for_outputs(str(ref))}, str(ref)


def test_check_compares_with_golden_and_invariants(tmp_path):
    argv = ["circuit", "--seed", "0"]
    gold, ref = _golden(tmp_path, argv,
                        lambda d: _circuit_csv(d / "circuit_x.csv", [0.0, 0.5, 0.75, 0.8]))
    assert checks.check_outputs(argv, ref, gold) == ([], 0.0)

    out = tmp_path / "out"
    out.mkdir()
    _circuit_csv(out / "circuit_x.csv", [0.0, 0.5, 0.75 + 1e-9, 0.8])
    msgs, dev = checks.check_outputs(argv, str(out), gold)
    assert dev == pytest.approx(1e-9) and any("row 2 mean_ell" in m for m in msgs)

    _circuit_csv(out / "circuit_x.csv", [0.0, 0.5, 0.4, 0.8])
    msgs, _ = checks.check_outputs(argv, str(out), {})
    assert msgs == ["circuit_x.csv: mean_ell does not start at 0 and rise"]


def test_circuit_at_another_seed_is_compared_with_the_default_seed(tmp_path):
    gold, _ = _golden(tmp_path, ["circuit", "--seed", "0"],
                      lambda d: _circuit_csv(d / "circuit_x.csv", [0.0, 0.5, 0.75, 0.8]))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["circuit", "--seed", "5"]
    # 3 combined std errors off: another sample of the same ensemble
    _circuit_csv(out / "circuit_x.csv", [0.0, 0.5 + 3 * 0.01 * 2 ** 0.5, 0.75, 0.8])
    assert checks.check_outputs(argv, str(out), gold) == ([], 0.0)
    # a curve that never rises, as from gates that do nothing
    _circuit_csv(out / "circuit_x.csv", [0.0, 0.0, 0.0, 0.0])
    msgs, _ = checks.check_outputs(argv, str(out), gold)
    assert len(msgs) == 3 and all("std errors" in m for m in msgs)


def _sweep_csv(path, ell):
    rows = "".join(f"{t},{e!r}\n" for t, e in enumerate(ell))
    path.write_text("# command: markov\ntau,speed\n" + rows)


def test_long_files_are_compared_by_block_sums(tmp_path):
    n = 3 * checks.BLOCK_ROWS + 7
    base = [0.001 * k for k in range(n)]
    argv = ["markov", "--case", "x"]
    gold, _ = _golden(tmp_path, argv, lambda d: _sweep_csv(d / "s.csv", base))
    assert gold[" ".join(argv)]["files"]["s.csv"]["block"] == checks.BLOCK_ROWS
    out = tmp_path / "out"
    out.mkdir()
    # every value of a block moved by half the tolerance passes
    _sweep_csv(out / "s.csv", [v + (0.5e-8 if k < checks.BLOCK_ROWS else 0.0)
                               for k, v in enumerate(base)])
    msgs, dev = checks.check_outputs(argv, str(out), gold)
    assert msgs == [] and dev == pytest.approx(0.5e-8)
    # every value of the short last block moved by twice the tolerance fails
    _sweep_csv(out / "s.csv", [v + (2e-8 if k >= 3 * checks.BLOCK_ROWS else 0.0)
                               for k, v in enumerate(base)])
    msgs, _ = checks.check_outputs(argv, str(out), gold)
    assert len(msgs) == 1
    assert msgs[0].startswith(f"s.csv: sum of rows {3 * checks.BLOCK_ROWS}-{n - 1} speed:")
