"""Exact reference values the benchmark checks its estimates against."""

from __future__ import annotations

import numpy as np


def ring_ising_welfare(num_players: int, beta: float, coupling: float = 1.0) -> float:
    """Stationary expected welfare of the Ising game on a ring, in closed form.

    Welfare is ``2 J sum_edges s_u s_v``, and under the Gibbs measure the
    nearest-neighbour correlation on an ``n``-cycle is ``(t + t^(n-1)) /
    (1 + t^n)`` with ``t = tanh(beta J)`` (transfer matrix), so
    ``E[W] = 2 J n (t + t^(n-1)) / (1 + t^n)``.
    """
    n = int(num_players)
    t = np.tanh(beta * coupling)
    return float(2.0 * coupling * n * (t + t ** (n - 1)) / (1.0 + t**n))


def truncated_hitting_law(
    dynamics, start: int, target: int, horizon: int, q: float
) -> tuple[float, float]:
    """``E[min(tau, T)]`` and the ``q``-quantile of ``min(tau, T)``, exactly.

    ``tau`` is the first time the chain started at profile ``start`` hits
    profile ``target``.  The survival function ``P(tau > t)`` is propagated
    through the chain's sparse transition matrix restricted to the
    non-target states (the absorbing-chain construction), so
    ``E[min(tau, T)] = sum_{t<T} P(tau > t)`` and the quantile is the first
    ``t`` at which ``P(min(tau, T) <= t)`` reaches ``q``.
    """
    matrix = dynamics.sparse_transition_matrix().tocsr()
    size = matrix.shape[0]
    if not (0 <= start < size and 0 <= target < size) or start == target:
        raise ValueError("start and target must be distinct profile indices")
    keep = np.flatnonzero(np.arange(size) != target)
    # row vector v_t = e_start Q^t, advanced as Q^T v
    advance = matrix[keep][:, keep].T.tocsr()
    mass = np.zeros(keep.size)
    mass[np.searchsorted(keep, start)] = 1.0
    survival = np.empty(int(horizon))
    for t in range(int(horizon)):
        survival[t] = mass.sum()
        mass = advance @ mass
    reached = np.flatnonzero(1.0 - survival >= q)
    quantile = float(reached[0]) if reached.size else float(horizon)
    return float(survival.sum()), quantile
