"""Tests for the pluggable array backends (repro.engine.backend).

Four contracts:

* *resolution* — ``backend=`` knob values resolve predictably: instances
  pass through, ``"numpy"``/``None`` hit the shared default, unknown
  names fail fast, and ``"numba"`` degrades gracefully (one-line warning,
  once per process) when numba is not installed;
* *fusing* — fused kernels are offered exactly for CSR-structured games
  under softmax move rules, and the numpy backend never fuses (so the
  default engine path is byte-identical to the pre-backend engine);
* *kernel-grid equivalence* — for every kernel family (Sequential /
  Parallel / RoundRobin / Annealed), fixed-seed trajectories on the
  ``backend="numba"`` path agree exactly with the numpy matrix path *and*
  with the index-state path on small games (when numba is absent this
  degrades to a fallback regression, which is itself part of the
  contract);
* *statistical certification* — at n = 10^4 (where bit-for-bit agreement
  is no longer guaranteed by the float-identity contract), independently
  seeded runs on both backends produce overlapping anytime-valid
  confidence intervals for the stationary magnetization.
"""

from __future__ import annotations

import warnings

import networkx as nx
import numpy as np
import pytest

import repro.engine.backend as backend_mod
from repro.core import LogitDynamics
from repro.core.variants import (
    AnnealedLogitDynamics,
    BestResponseDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.engine import (
    ArrayBackend,
    NumbaBackend,
    NumpyBackend,
    numba_available,
    resolve_backend,
)
from repro.games import IsingGame, LocalInteractionGame, TwoWellGame
from repro.graphs import torus_graph
from repro.stats import EmpiricalBernsteinCS


@pytest.fixture
def ring12_ising():
    return IsingGame(nx.cycle_graph(12), coupling=1.0, field=0.1)


@pytest.fixture
def torus_m3():
    """3-strategy local-interaction game on a 3x3 torus (random payoffs)."""
    rng = np.random.default_rng(7)
    payoff = rng.normal(size=(3, 3))
    payoff = (payoff + payoff.T) / 2.0  # symmetric => exact potential game
    return LocalInteractionGame(torus_graph(3, 3), payoff, num_strategies=3)


def _softmax_dynamics(game, beta=0.8):
    """One dynamics instance per softmax kernel family."""
    return [
        LogitDynamics(game, beta),
        ParallelLogitDynamics(game, beta),
        RoundRobinLogitDynamics(game, beta),
        AnnealedLogitDynamics(game, lambda t: 0.02 * t),
    ]


def _quiet_ensemble(dynamics, *args, **kwargs):
    """Build an ensemble, swallowing the numba-fallback RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return dynamics.ensemble(*args, **kwargs)


class TestBackendResolution:
    def test_instance_passes_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_default_is_shared_numpy_backend(self):
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("numpy") is resolve_backend(None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="'numpy'.*'numba'"):
            resolve_backend("cupy")

    def test_auto_resolves_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "auto" must never warn
            backend = resolve_backend("auto")
        expected = "numba" if numba_available() else "numpy"
        assert backend.name == expected

    def test_simulator_exposes_resolved_backend(self, ring12_ising):
        sim = LogitDynamics(ring12_ising, 1.0).ensemble(4, state="matrix")
        assert isinstance(sim.backend, ArrayBackend)
        assert sim.backend.name == "numpy"


class TestNumbaFallback:
    @pytest.fixture
    def no_numba(self, monkeypatch):
        """Simulate an environment where numba cannot be imported."""
        monkeypatch.setattr(backend_mod, "_NUMBA", None)
        monkeypatch.setattr(backend_mod, "_warned_numba_fallback", False)

    def test_fallback_warns_once_then_stays_quiet(self, no_numba):
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = resolve_backend("numba")
        assert backend.name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second request: no re-warning
            assert resolve_backend("numba").name == "numpy"

    def test_auto_picks_numpy_silently(self, no_numba):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("auto").name == "numpy"

    def test_fallback_trajectories_match_numpy(self, no_numba, ring12_ising):
        dynamics = LogitDynamics(ring12_ising, 1.0)
        reference = dynamics.ensemble(
            8, seed=13, state="matrix", backend="numpy"
        ).run(200, record_every=1)
        with pytest.warns(RuntimeWarning, match="falling back"):
            fallback_sim = dynamics.ensemble(
                8, seed=13, state="matrix", backend="numba"
            )
        assert fallback_sim.backend.name == "numpy"
        np.testing.assert_array_equal(
            reference, fallback_sim.run(200, record_every=1)
        )


class TestFusingContract:
    def test_numpy_backend_never_fuses(self, ring12_ising):
        sim = LogitDynamics(ring12_ising, 1.0).ensemble(
            4, state="matrix", backend="numpy"
        )
        assert not sim.backend.can_fuse(sim.game, sim.kernel.rule)
        assert sim._fused_rowwise is None
        assert sim._fused_parallel is None

    def test_numba_backend_fuses_softmax_csr_pairs(self, ring12_ising, torus_m3):
        # can_fuse is plain Python: decidable without numba installed
        backend = NumbaBackend()
        for game in (ring12_ising, torus_m3):
            sim = LogitDynamics(game, 1.0).ensemble(2, state="matrix")
            assert backend.can_fuse(game, sim.kernel.rule)

    def test_annealed_rule_is_fusable(self, ring12_ising):
        sim = AnnealedLogitDynamics(ring12_ising, lambda t: 0.1 * t).ensemble(
            2, state="matrix"
        )
        assert NumbaBackend().can_fuse(ring12_ising, sim.kernel.rule)

    def test_best_response_rule_is_not_fusable(self, ring12_ising):
        # best response is a hard argmax, not a softmax: never routed
        # through the fused logit kernels
        sim = BestResponseDynamics(ring12_ising).ensemble(2, state="matrix")
        assert not NumbaBackend().can_fuse(ring12_ising, sim.kernel.rule)

    def test_dense_game_is_not_fusable(self):
        # no csr_arrays => no fused kernels, whatever the rule
        game = TwoWellGame(num_players=4, barrier=1.5)
        sim = LogitDynamics(game, 1.0).ensemble(2, state="matrix")
        assert not NumbaBackend().can_fuse(game, sim.kernel.rule)

    def test_steppers_none_for_unfusable_pairs(self, ring12_ising):
        backend = NumbaBackend()
        sim = BestResponseDynamics(ring12_ising).ensemble(2, state="matrix")
        assert backend.fused_rowwise_stepper(ring12_ising, sim.kernel.rule) is None
        assert backend.fused_parallel_stepper(ring12_ising, sim.kernel.rule) is None


class TestKernelGridEquivalence:
    """backend="numba" must walk numpy's exact fixed-seed trajectories.

    On these small-degree games the float-identity contract of the fused
    kernels makes agreement bit-for-bit; without numba the comparison
    still pins the fallback path to the default engine.
    """

    @pytest.mark.parametrize("game_fixture", ["ring12_ising", "torus_m3"])
    def test_numba_matches_numpy_matrix_all_kernels(self, game_fixture, request):
        game = request.getfixturevalue(game_fixture)
        start = tuple(i % game.space.max_strategies for i in range(game.num_players))
        for dynamics in _softmax_dynamics(game):
            label = type(dynamics).__name__
            numpy_run = dynamics.ensemble(
                16, start=start, seed=11,
                state="matrix", backend="numpy",
            ).run(250, record_every=1)
            numba_run = _quiet_ensemble(
                dynamics, 16, start=start, seed=11,
                state="matrix", backend="numba",
            ).run(250, record_every=1)
            np.testing.assert_array_equal(
                numpy_run, numba_run, err_msg=f"backend mismatch for {label}"
            )

    @pytest.mark.parametrize("game_fixture", ["ring12_ising", "torus_m3"])
    def test_numba_matrix_matches_numpy_index(self, game_fixture, request):
        game = request.getfixturevalue(game_fixture)
        start = tuple(i % game.space.max_strategies for i in range(game.num_players))
        for dynamics in _softmax_dynamics(game):
            label = type(dynamics).__name__
            index_run = dynamics.ensemble(
                16, start=start, seed=29,
                state="index", mode="matrix_free", backend="numpy",
            ).run(250, record_every=1)
            numba_run = _quiet_ensemble(
                dynamics, 16, start=start, seed=29,
                state="matrix", backend="numba",
            ).run(250, record_every=1)
            np.testing.assert_array_equal(
                index_run, numba_run, err_msg=f"index/numba mismatch for {label}"
            )

    def test_hitting_times_match_across_backends(self, ring12_ising):
        dynamics = LogitDynamics(ring12_ising, 2.0)
        times = {}
        for backend in ("numpy", "numba"):
            sim = _quiet_ensemble(
                dynamics, 12, start=(0,) * 12, seed=9,
                state="matrix", backend=backend,
            )
            times[backend] = sim.hitting_times(
                lambda prof: prof.min(axis=1) == 1, max_steps=30_000
            )
        np.testing.assert_array_equal(times["numpy"], times["numba"])


class TestStatisticalCertification:
    @pytest.mark.slow
    def test_certified_interval_agreement_at_n_1e4(self):
        """Independently seeded runs on both backends must produce
        overlapping anytime-valid intervals for the magnetization at
        n = 10^4 — the regime where only statistical (not bit-for-bit)
        agreement is promised."""
        n = 10_000
        game = IsingGame(nx.cycle_graph(n), coupling=1.0)
        dynamics = LogitDynamics(game, 0.3)  # the fused rowwise hot path
        start = np.zeros(n, dtype=np.int64)
        intervals = {}
        for backend, seed in (("numpy", 101), ("numba", 202)):
            sim = _quiet_ensemble(
                dynamics, 32, start=start, seed=seed,
                state="matrix", backend=backend,
            )
            sim.run(3000)
            # both runs stop at the same step count, so their replica
            # magnetizations share a distribution whatever the burn-in
            magnetizations = game.magnetization_of_profiles(sim.profiles)
            cs = EmpiricalBernsteinCS(alpha=0.05, support=(-1.0, 1.0))
            cs.update(magnetizations)
            intervals[backend] = tuple(float(b) for b in cs.interval())
        (lo_a, hi_a), (lo_b, hi_b) = intervals["numpy"], intervals["numba"]
        assert lo_a <= hi_b and lo_b <= hi_a, (
            f"certified intervals disagree: numpy {intervals['numpy']} vs "
            f"numba {intervals['numba']}"
        )
