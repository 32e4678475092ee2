"""Sharded execution: shard-count invariance, seeding, process backend.

The contract under test is the tentpole guarantee of :mod:`repro.parallel`:
splitting a replica ensemble into k shards — on any backend — never
changes a single number.  Pooled samples, intervals, TV curves and final
indices must be bit-for-bit identical for k in {1, 3, 8} and identical to
the unsharded serial run, because every sample/replica is a pure function
of its own ``SeedSequence`` child.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest

from repro.core.metastability import empirical_escape_times, empirical_hitting_times
from repro.core.mixing import estimate_mixing_time_ensemble, estimate_tv_convergence
from repro.analysis.welfare import estimate_stationary_welfare
from repro.core.logit import LogitDynamics
from repro.core.variants import (
    AnnealedLogitDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.engine.kernels import spawn_block
from repro.games import IsingGame, TwoWellGame
from repro.parallel import (
    ShardedExecutor,
    as_executor,
    merge_shard_moments,
    pool_shard_samples,
    shard_plan,
)
from repro.stats import run_until_width


def uniform_sampler(children):
    """Module-level (hence picklable) reference sampler: one U(0,1) each."""
    return np.array([np.random.default_rng(c).random() for c in children])


@dataclass
class MagnetizationAtLeast:
    """Picklable magnetization-threshold predicate for Ising wells."""

    game: IsingGame
    threshold: float

    def __call__(self, profiles):
        return self.game.magnetization_of_profiles(profiles) >= self.threshold


# ---------------------------------------------------------------------------
# seeding primitives
# ---------------------------------------------------------------------------


def test_spawn_block_matches_serial_spawn():
    root = np.random.SeedSequence(1234)
    serial = np.random.SeedSequence(1234).spawn(10)
    block = spawn_block(root, 3, 4)
    for mine, reference in zip(block, serial[3:7]):
        assert mine.spawn_key == reference.spawn_key
        np.testing.assert_array_equal(
            np.random.default_rng(mine).random(8),
            np.random.default_rng(reference).random(8),
        )
    # the root's own spawn counter is untouched
    assert root.n_children_spawned == 0


def test_spawn_block_on_an_already_spawned_parent():
    parent = np.random.SeedSequence(7).spawn(3)[2]
    serial = np.random.SeedSequence(7).spawn(3)[2].spawn(5)
    block = spawn_block(parent, 0, 5)
    for mine, reference in zip(block, serial):
        np.testing.assert_array_equal(
            np.random.default_rng(mine).random(4),
            np.random.default_rng(reference).random(4),
        )


def test_spawn_block_rejects_negative_positions():
    root = np.random.SeedSequence(0)
    with pytest.raises(ValueError):
        spawn_block(root, -1, 2)


def test_shard_plan_partitions_exactly():
    for total in (0, 1, 2, 7, 64):
        for shards in (1, 3, 8):
            plan = shard_plan(total, shards)
            assert sum(c for _, c in plan) == total
            assert all(c > 0 for _, c in plan)
            # contiguous and ordered
            expect = 0
            for off, cnt in plan:
                assert off == expect
                expect += cnt
            if total:
                counts = [c for _, c in plan]
                assert max(counts) - min(counts) <= 1
    with pytest.raises(ValueError):
        shard_plan(4, 0)


# ---------------------------------------------------------------------------
# shard-count invariance (the acceptance criterion: k in {1, 3, 8})
# ---------------------------------------------------------------------------


def test_run_until_width_shard_count_invariance():
    serial = run_until_width(
        uniform_sampler, 0.0, max_n=48, chunk_size=16, support=(0.0, 1.0), seed=77
    )
    for k in (1, 3, 8):
        sharded = run_until_width(
            uniform_sampler,
            0.0,
            max_n=48,
            chunk_size=16,
            support=(0.0, 1.0),
            seed=77,
            executor=ShardedExecutor(num_shards=k),
        )
        np.testing.assert_array_equal(serial.samples, sharded.samples)
        assert (serial.estimate, serial.lower, serial.upper, serial.n) == (
            sharded.estimate,
            sharded.lower,
            sharded.upper,
            sharded.n,
        )


#: dynamics overrides the invariance tests run under: the default logit
#: chain, the cyclic kernel and the time-inhomogeneous one
DYNAMICS = {
    "logit": lambda game: None,
    "round_robin": lambda game: RoundRobinLogitDynamics(game, 0.7),
    "annealed": lambda game: AnnealedLogitDynamics(game, lambda t: 0.2 + 0.001 * t),
}


@pytest.mark.parametrize("make", DYNAMICS.values(), ids=DYNAMICS.keys())
def test_hitting_time_estimator_shard_count_invariance(make):
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    target = int(game.space.encode(np.ones(6, dtype=np.int64)))
    common = dict(
        max_steps=400, precision=1e-9, chunk_size=32, max_replicas=64, seed=5,
        dynamics=make(game),
    )
    serial = empirical_hitting_times(game, 0.7, 0, target, **common)
    for k in (1, 3, 8):
        sharded = empirical_hitting_times(
            game, 0.7, 0, target, executor=ShardedExecutor(k), **common
        )
        np.testing.assert_array_equal(serial.samples, sharded.samples)
        assert (serial.lower, serial.upper) == (sharded.lower, sharded.upper)


def test_escape_time_estimator_shard_count_invariance():
    game = TwoWellGame(5, barrier=1.2)
    phi = game.potential_vector()
    well = np.flatnonzero(phi <= np.quantile(phi, 0.25))
    common = dict(
        max_steps=300, precision=1e-9, chunk_size=16, max_replicas=48, seed=3
    )
    serial = empirical_escape_times(game, 1.0, well, **common)
    for k in (1, 3, 8):
        sharded = empirical_escape_times(
            game, 1.0, well, executor=ShardedExecutor(k), **common
        )
        np.testing.assert_array_equal(serial.samples, sharded.samples)


def test_welfare_estimator_shard_count_invariance():
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    common = dict(num_steps=50, num_replicas=48, chunk_size=16, seed=9)
    serial = estimate_stationary_welfare(game, 0.5, **common)
    for k in (1, 3):
        sharded = estimate_stationary_welfare(
            game, 0.5, executor=ShardedExecutor(k), **common
        )
        assert serial.estimate == sharded.estimate
        assert (serial.lower, serial.upper) == (sharded.lower, sharded.upper)


def test_tv_convergence_shard_count_invariance():
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    runs = {
        k: estimate_mixing_time_ensemble(
            game,
            0.3,
            num_replicas=128,
            max_time=800,
            seed=21,
            executor=ShardedExecutor(k),
        )
        for k in (1, 3, 8)
    }
    base = runs[1]
    for k in (3, 8):
        np.testing.assert_array_equal(base.tv_curve, runs[k].tv_curve)
        np.testing.assert_array_equal(base.final_indices, runs[k].final_indices)
        assert base.mixing_time_estimate == runs[k].mixing_time_estimate
        assert base.converged == runs[k].converged


@pytest.mark.parametrize(
    "make", list(DYNAMICS.values())[1:], ids=list(DYNAMICS.keys())[1:]
)
def test_tv_convergence_shard_count_invariance_of_cyclic_and_annealed(make):
    """Rebuilt shards resume the dynamics' clock at the checkpoint time, so
    the round-robin cursor and the annealed schedule continue across
    checkpoints for every shard count."""
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    dynamics = make(game)
    pi = LogitDynamics(game, 0.7).stationary_distribution()
    runs = [
        estimate_tv_convergence(
            dynamics, pi, num_replicas=48, epsilon=0.01, max_time=60,
            check_every=7, seed=4, executor=ShardedExecutor(k),
        )
        for k in (1, 3, 8)
    ]
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0].tv_curve, other.tv_curve)
        np.testing.assert_array_equal(runs[0].final_indices, other.final_indices)


def test_tv_convergence_sharded_band_invariance():
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    dynamics = LogitDynamics(game, 0.4)
    pi = dynamics.stationary_distribution()
    runs = [
        estimate_tv_convergence(
            dynamics,
            pi,
            num_replicas=192,
            max_time=600,
            alpha=0.05,
            seed=2,
            executor=ShardedExecutor(k),
        )
        for k in (1, 3)
    ]
    np.testing.assert_array_equal(runs[0].tv_band, runs[1].tv_band)
    assert runs[0].mixing_time_estimate == runs[1].mixing_time_estimate


# ---------------------------------------------------------------------------
# the process backend
# ---------------------------------------------------------------------------


def test_process_backend_bit_for_bit_and_moment_merge():
    root = np.random.SeedSequence(55)
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        shards = executor.map_chunk(uniform_sampler, root, 0, 10)
    pooled = pool_shard_samples(shards)
    serial = uniform_sampler(np.random.SeedSequence(55).spawn(10))
    np.testing.assert_array_equal(pooled, serial)
    merged = merge_shard_moments(shards)
    assert merged.count == 10
    assert np.isclose(merged.mean, pooled.mean())
    assert np.isclose(merged.variance, pooled.var(ddof=1))


def test_process_backend_runs_a_real_estimator():
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    target = MagnetizationAtLeast(game, 0.5)
    start = np.zeros(6, dtype=np.int64)
    common = dict(
        max_steps=200, precision=1e-9, chunk_size=16, max_replicas=32, seed=13
    )
    serial = empirical_hitting_times(game, 0.6, start, target, **common)
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        sharded = empirical_hitting_times(
            game, 0.6, start, target, executor=executor, **common
        )
    np.testing.assert_array_equal(serial.samples, sharded.samples)


def test_process_backend_rejects_unpicklable_samplers():
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        with pytest.raises(ValueError, match="pickle"):
            run_until_width(
                lambda children: np.zeros(len(children)),
                0.0,
                max_n=8,
                chunk_size=8,
                support=(0.0, 1.0),
                seed=1,
                executor=executor,
            )


def broken_sampler(children):
    """Picklable, but raises at runtime — a sampler bug, not a pickle one."""
    raise TypeError("boom inside the worker")


def test_process_backend_does_not_mislabel_worker_bugs_as_pickle_errors():
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        with pytest.raises(TypeError, match="boom inside the worker"):
            run_until_width(
                broken_sampler,
                0.0,
                max_n=8,
                chunk_size=8,
                support=(0.0, 1.0),
                seed=1,
                executor=executor,
            )


def test_hitting_sweep_executor_requires_seed():
    from repro.analysis.sweep import hitting_time_size_sweep

    with pytest.raises(ValueError, match="seed="):
        hitting_time_size_sweep(
            IsingGame,
            sizes=[5],
            beta=0.5,
            start_factory=np.zeros,
            target_factory=id,
            precision=0.5,
            executor=ShardedExecutor(2),
        )


# ---------------------------------------------------------------------------
# knob validation
# ---------------------------------------------------------------------------


def test_as_executor_normalisation():
    assert as_executor(None) is None
    ex = ShardedExecutor(2)
    assert as_executor(ex) is ex
    assert as_executor("serial").backend == "serial"
    assert as_executor("process").backend == "process"
    with pytest.raises(ValueError):
        as_executor("threads")


def test_sharded_executor_validation():
    with pytest.raises(ValueError):
        ShardedExecutor(num_shards=0)
    with pytest.raises(ValueError):
        ShardedExecutor(num_shards=1, backend="mpi")
    with pytest.raises(ValueError):
        ShardedExecutor(num_shards=1, max_workers=0)


def test_executor_requires_adaptive_mode():
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    with pytest.raises(ValueError, match="precision"):
        empirical_hitting_times(game, 0.5, 0, 1, executor=ShardedExecutor(2))
    with pytest.raises(ValueError, match="precision"):
        empirical_escape_times(game, 0.5, [0, 1], executor=ShardedExecutor(2))


@pytest.mark.parametrize(
    "make",
    [
        lambda game: ParallelLogitDynamics(game, 0.5),
        lambda game: RoundRobinLogitDynamics(game, 0.5),
    ],
    ids=["parallel", "round_robin"],
)
def test_tv_convergence_row_kernels_serial_matches_sharded(make):
    """The row-stream kernels never draw past a checkpoint and the shards
    resume the clock, so the serial and the sharded TV drivers agree
    bit-for-bit on the same seed."""
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    dynamics = make(game)
    pi = LogitDynamics(game, 0.5).stationary_distribution()
    common = dict(num_replicas=24, epsilon=0.01, max_time=40, check_every=7, seed=3)
    serial = estimate_tv_convergence(dynamics, pi, **common)
    sharded = estimate_tv_convergence(
        dynamics, pi, executor=ShardedExecutor(3), **common
    )
    np.testing.assert_array_equal(serial.tv_curve, sharded.tv_curve)
    np.testing.assert_array_equal(serial.final_indices, sharded.final_indices)
