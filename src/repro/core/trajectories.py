"""Trajectory-level observables of the logit dynamics.

Besides the mixing time, the literature the paper builds on studies
*hitting times* of specific profiles (Asadpour–Saberi, Montanari–Saberi)
and the long-run fraction of time spent in particular equilibria
(Blume, Ellison).  These observables are directly measurable from sampled
trajectories and provide useful sanity checks in the examples:

* :func:`empirical_distribution` — occupation frequencies of a trajectory;
* :func:`empirical_tv_to_stationary` — TV distance between the occupation
  measure (after burn-in) and the Gibbs measure;
* :func:`hitting_time_samples` — Monte-Carlo samples of the hitting time of
  a target profile;
* :func:`expected_hitting_time_exact` — the exact expected hitting time via
  the linear-system solve on the transition matrix;
* :func:`fraction_of_time_in` — long-run share of steps spent in a set of
  profiles (e.g. the risk-dominant consensus).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..games.base import Game
from ..markov.tv import total_variation
from .logit import LogitDynamics

__all__ = [
    "empirical_distribution",
    "empirical_tv_to_stationary",
    "hitting_time_samples",
    "expected_hitting_time_exact",
    "fraction_of_time_in",
]


def empirical_distribution(
    game: Game, trajectory: np.ndarray, burn_in: int = 0
) -> np.ndarray:
    """Occupation frequencies over profile indices from a trajectory of profiles."""
    traj = np.asarray(trajectory, dtype=np.int64)
    if traj.ndim != 2 or traj.shape[1] != game.num_players:
        raise ValueError("trajectory must be a (steps, n) array of profiles")
    if burn_in >= traj.shape[0]:
        raise ValueError("burn_in removes the whole trajectory")
    indices = game.space.encode_many(traj[burn_in:])
    counts = np.bincount(indices, minlength=game.space.size).astype(float)
    return counts / counts.sum()


def empirical_tv_to_stationary(
    game: Game,
    beta: float,
    num_steps: int,
    burn_in: int | None = None,
    start: Sequence[int] | None = None,
    seed=None,
) -> float:
    """TV distance between the occupation measure and the stationary distribution.

    A cheap simulation-level convergence check: for an ergodic chain the
    occupation measure converges to ``pi`` as the trajectory grows, so this
    quantity should be small for ``num_steps`` well beyond the mixing time.
    """
    dynamics = LogitDynamics(game, beta)
    if start is None:
        start = (0,) * game.num_players
    trajectory = dynamics.simulate(start, num_steps, seed=seed)
    if burn_in is None:
        burn_in = num_steps // 10
    empirical = empirical_distribution(game, trajectory, burn_in=burn_in)
    return total_variation(empirical, dynamics.stationary_distribution())


def hitting_time_samples(
    game: Game,
    beta: float,
    start: Sequence[int],
    target_index: int,
    num_samples: int = 16,
    max_steps: int = 10**6,
    seed=None,
) -> np.ndarray:
    """Monte-Carlo samples of the hitting time of ``target_index`` from ``start``.

    Entries equal to ``-1`` mean the target was not hit within ``max_steps``.
    All samples are drawn in parallel — the ``num_samples`` trajectories run
    as one replica ensemble on the batched engine.
    """
    dynamics = LogitDynamics(game, beta)
    sim = dynamics.ensemble(
        num_samples, start=np.asarray(start, dtype=np.int64), seed=seed
    )
    return sim.hitting_times(int(target_index), max_steps=max_steps)


def expected_hitting_time_exact(
    game: Game, beta: float, start_index: int, target_index: int
) -> float:
    """Exact expected hitting time ``E_start[tau_target]`` via the linear solve."""
    dynamics = LogitDynamics(game, beta)
    chain = dynamics.markov_chain()
    hitting = chain.expected_hitting_time(target_index)
    return float(hitting[start_index])


def fraction_of_time_in(
    game: Game,
    beta: float,
    states: Sequence[int],
    num_steps: int,
    start: Sequence[int] | None = None,
    burn_in: int | None = None,
    seed=None,
) -> float:
    """Long-run fraction of steps the trajectory spends in the given profile set."""
    dynamics = LogitDynamics(game, beta)
    if start is None:
        start = (0,) * game.num_players
    trajectory = dynamics.simulate(start, num_steps, seed=seed)
    if burn_in is None:
        burn_in = num_steps // 10
    indices = game.space.encode_many(trajectory[burn_in:])
    target = np.zeros(game.space.size, dtype=bool)
    target[np.asarray(states, dtype=np.int64)] = True
    return float(np.mean(target[indices]))
