"""Tests of the benchmark itself: exact references, spans and the runner.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
import repro.analysis  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from exact import ring_ising_welfare, truncated_hitting_law  # noqa: E402
from repro.parallel import ShardedExecutor  # noqa: E402


@pytest.mark.parametrize("n", [8, 9, 10])
@pytest.mark.parametrize("beta,coupling", [(0.25, 1.0), (0.7, 1.0), (1.3, 0.5)])
def test_ring_welfare_closed_form_matches_the_stationary_law(n, beta, coupling):
    game = repro.IsingGame(repro.ring_graph(n), coupling=coupling)
    dense = repro.stationary_expected_welfare(game, beta)
    assert ring_ising_welfare(n, beta, coupling) == pytest.approx(dense, abs=1e-12)


def test_truncated_hitting_law_matches_the_absorbing_chain():
    game = repro.IsingGame(repro.ring_graph(6), coupling=1.0)
    dynamics = repro.LogitDynamics(game, 0.7)
    target = game.space.size - 1
    exact_mean = dynamics.markov_chain().expected_hitting_time(target)[0]
    mean, _ = truncated_hitting_law(dynamics, 0, target, 20_000, 0.99)
    assert mean == pytest.approx(exact_mean, rel=1e-9)
    # the quantile against dense matrix powers of the absorbing chain
    P = dynamics.transition_matrix().copy()
    P[target] = 0.0
    P[target, target] = 1.0
    horizon, hit = 400, []
    row = np.zeros(P.shape[0])
    row[0] = 1.0
    for _ in range(horizon):
        hit.append(row[target])
        row = row @ P
    hit = np.array(hit)
    _, quantile = truncated_hitting_law(dynamics, 0, target, horizon, 0.5)
    assert quantile == float(np.flatnonzero(hit >= 0.5)[0])


class SmallWelfare(workloads.WelfareRingWorkload):
    """The ring workload at test size."""

    def __init__(self):
        workloads.WelfareWorkload.__init__(
            self, "welfare_small", num_players=60, sweeps=5
        )
        self.chunk_size = 8
        self.max_replicas = 16


class SmallHitting(workloads.HittingTailWorkload):
    num_players = 6
    horizon = 400
    max_replicas = 128
    chunk_size = 32


@pytest.fixture(scope="module")
def executor():
    with ShardedExecutor(num_shards=2, backend="process") as ex:
        yield ex


def _traced(workload, executor, tmp_path):
    recorder = spans.Recorder()
    inputs = workload.build(3)
    spans.install(recorder)
    try:
        recorder.enter("bench.iteration")
        result = workload.run(inputs, executor, None, tmp_path)
        wall = recorder.exit()
    finally:
        spans.uninstall()
    return inputs, result, recorder, wall


def test_spans_reach_the_coordinator_from_the_workers(executor, tmp_path):
    workload = SmallWelfare()
    inputs, result, recorder, wall = _traced(workload, executor, tmp_path)
    work = workload.work(inputs, result)
    assert recorder.counts["engine.replica_steps"] == work["replica_steps"]
    assert recorder.counts["stats.samples"] == work["samples"] == 16
    assert recorder.counts["stats.chunks"] == work["chunks"] == 2
    assert sum(d["tasks"] for d in recorder.dispatches) == work["tasks"] == 4
    worker_pids = {t["pid"] for t in recorder.tasks}
    assert worker_pids and spans.Recorder().pid not in worker_pids
    assert all("engine.run" in t["self_s"] for t in recorder.tasks)
    # self times of the critical path add up to the traced wall-clock
    attributed = sum(recorder.layer_self_s().values())
    unattributed = recorder.self_s["bench.iteration"]
    assert attributed + unattributed == pytest.approx(wall, rel=1e-9)
    assert recorder.layer_self_s()["engine"] > 0


def test_uninstall_restores_every_wrapped_function():
    originals = (
        repro.analysis.scenario_matrix,
        repro.analysis.estimate_stationary_welfare,
        repro.EnsembleSimulator.run,
        ShardedExecutor.map_tasks,
    )
    spans.install(spans.Recorder())
    try:
        assert spans.skipped_targets() == []
        assert repro.analysis.scenario_matrix is not originals[0]
        assert ShardedExecutor.map_tasks is not originals[3]
    finally:
        spans.uninstall()
    assert (
        repro.analysis.scenario_matrix,
        repro.analysis.estimate_stationary_welfare,
        repro.EnsembleSimulator.run,
        ShardedExecutor.map_tasks,
    ) == originals
    assert spans.active() is None


def test_hitting_counts_repeat_and_the_checks_pass(tmp_path):
    workload = SmallHitting()
    inputs = workload.build(5)
    first = workload.run(inputs, None, None, tmp_path)
    second = workload.run(workload.build(5), None, None, tmp_path)
    assert workload.work(inputs, first) == workload.work(inputs, second)
    assert workload.check(inputs, first, None, tmp_path).failed == 0


def test_traced_hitting_counts_match_the_result(tmp_path):
    workload = SmallHitting()
    inputs, result, recorder, _ = _traced(workload, None, tmp_path)
    work = workload.work(inputs, result)
    assert recorder.counts["engine.replica_steps"] == work["replica_steps"]
    assert recorder.counts["stats.chunks"] == work["chunks"]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "matrix", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_runner_reports_exactly_the_metrics_of_the_spec(executor, tmp_path):
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    workload = SmallHitting()
    inputs = workload.build(7)
    untraced = [run.one_iteration(workload, inputs, None, tmp_path / "u")]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        traced = [run.one_iteration(workload, inputs, None, tmp_path / "t", recorder)]
    finally:
        spans.uninstall()
    assert not run.consistency(untraced, traced)
    assert all(r["failed"] == 0 for r in untraced + traced)
    assert run.peak_rss_mb(None) < run.peak_rss_mb(executor)
    end_to_end = run.end_to_end(untraced, 0.5, run.peak_rss_mb(None))
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
    assert all(end_to_end[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    per_layer = run.per_layer(traced, untraced, {}, workload)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert all(per_layer[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    # the layer rows cover the traced wall-clock, leaving only the glue
    assert 0 <= run.unattributed(traced[0]) < 0.02 * traced[0]["wall_s"]


def _write_records(directory: Path, walls, replica_steps=100):
    import run

    directory.mkdir()
    for seed, wall in enumerate(walls, start=1):
        record = {
            "workload": "w",
            "seed": seed,
            "trace": 0,
            "correct": True,
            "work": {key: replica_steps for key in run.DETERMINISTIC},
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
        }
        (directory / f"w-{seed}.json").write_text(json.dumps(record))


def test_compare_gates_on_bounds_and_deterministic_counts(tmp_path, capsys):
    import report

    walls = [1.00, 1.01, 0.99, 1.02, 0.98]
    _write_records(tmp_path / "parent", walls)
    _write_records(tmp_path / "same", [w * 1.01 for w in walls])
    _write_records(tmp_path / "slower", [w * 1.5 for w in walls])
    _write_records(tmp_path / "recount", walls, replica_steps=101)
    assert report.compare(tmp_path / "parent", tmp_path / "same") == 0
    assert "same" in capsys.readouterr().out
    assert report.compare(tmp_path / "parent", tmp_path / "slower") == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert report.compare(tmp_path / "parent", tmp_path / "recount") == 1
    assert "DIFFER" in capsys.readouterr().out
    assert report.compare(tmp_path / "parent", None) == 0
