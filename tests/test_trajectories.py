"""Tests for trajectory observables (repro.core.trajectories)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LogitDynamics,
    empirical_distribution,
    empirical_tv_to_stationary,
    expected_hitting_time_exact,
    fraction_of_time_in,
    gibbs_measure,
    hitting_time_samples,
)
from repro.games import AnonymousDominantGame, CoordinationParams, GraphicalCoordinationGame

import networkx as nx


class TestEmpiricalDistribution:
    def test_counts_normalised(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        traj = dynamics.simulate((0,) * 5, 200, seed=0)
        dist = empirical_distribution(ring5_ising_game, traj)
        assert dist.shape == (32,)
        assert dist.sum() == pytest.approx(1.0)

    def test_burn_in_validation(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        traj = dynamics.simulate((0,) * 5, 10, seed=0)
        with pytest.raises(ValueError):
            empirical_distribution(ring5_ising_game, traj, burn_in=100)

    def test_shape_validation(self, ring5_ising_game):
        with pytest.raises(ValueError):
            empirical_distribution(ring5_ising_game, np.zeros((10, 3), dtype=np.int64))

    def test_tv_to_stationary_small_after_long_run(self):
        game = GraphicalCoordinationGame(nx.cycle_graph(4), CoordinationParams.ising(1.0))
        tv = empirical_tv_to_stationary(
            game, beta=0.5, num_steps=30_000, seed=1
        )
        assert tv < 0.08


class TestHittingTimes:
    def test_exact_hitting_time_positive(self, dominant_game):
        target = dominant_game.space.encode((0, 0, 0))
        start = dominant_game.space.encode((1, 1, 1))
        h = expected_hitting_time_exact(dominant_game, beta=2.0, start_index=start, target_index=target)
        assert h > 0

    def test_exact_hitting_time_zero_at_target(self, dominant_game):
        target = dominant_game.space.encode((0, 0, 0))
        assert expected_hitting_time_exact(
            dominant_game, beta=2.0, start_index=target, target_index=target
        ) == 0.0

    def test_sampled_hitting_times_match_exact_scale(self):
        game = AnonymousDominantGame(3, 2)
        beta = 3.0
        target = game.space.encode((0, 0, 0))
        start = (1, 1, 1)
        exact = expected_hitting_time_exact(
            game, beta, start_index=game.space.encode(start), target_index=target
        )
        samples = hitting_time_samples(
            game, beta, start, target, num_samples=200, seed=4
        )
        assert np.all(samples >= 0)
        mean = samples.mean()
        assert mean == pytest.approx(exact, rel=0.35)

    def test_unreached_target_reports_minus_one(self, two_well_game):
        # with a huge barrier and very few steps the opposite well is not hit
        all0, all1 = two_well_game.well_indices
        samples = hitting_time_samples(
            two_well_game,
            beta=30.0,
            start=(0, 0, 0, 0),
            target_index=all1,
            num_samples=3,
            max_steps=20,
            seed=5,
        )
        assert np.all(samples == -1)


class TestOccupation:
    def test_fraction_of_time_in_dominant_profile(self):
        game = AnonymousDominantGame(3, 2)
        frac = fraction_of_time_in(
            game,
            beta=4.0,
            states=[game.space.encode((0, 0, 0))],
            num_steps=20_000,
            seed=6,
        )
        pi = gibbs_measure(game.potential_vector(), 4.0)
        expected = pi[game.space.encode((0, 0, 0))]
        assert frac == pytest.approx(expected, abs=0.05)

    def test_fraction_sums_to_one_over_partition(self, ring5_ising_game):
        states_a = list(range(16))
        states_b = list(range(16, 32))
        kwargs = dict(beta=0.3, num_steps=5000, seed=7)
        frac_a = fraction_of_time_in(ring5_ising_game, states=states_a, **kwargs)
        kwargs = dict(beta=0.3, num_steps=5000, seed=7)
        frac_b = fraction_of_time_in(ring5_ising_game, states=states_b, **kwargs)
        assert frac_a + frac_b == pytest.approx(1.0)
