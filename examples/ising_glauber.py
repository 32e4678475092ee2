"""The Ising model as a logit dynamics: Glauber dynamics, magnetization, mixing.

Section 5 of the paper observes that the Ising model is exactly the graphical
coordination game without risk dominance and that its Glauber (heat-bath)
dynamics is the logit dynamics.  This example:

1. verifies numerically that the Ising game and the delta0 = delta1 = 2J
   coordination game generate the *same* Markov chain,
2. sweeps the inverse temperature beta on a ring and on a 2x3 torus-like grid
   and reports the exact mixing time next to the Gibbs expectation of the
   absolute magnetization |m| (the usual order parameter),
3. runs a Glauber trajectory and prints the empirical magnetization to show
   the simulation path agrees with the exact Gibbs expectation.

Run with:  python examples/ising_glauber.py
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro import LogitDynamics, measure_mixing_time, render_table
from repro.core import gibbs_expectation
from repro.games import IsingGame
from repro.games.ising import spins_from_profile

BETAS = (0.1, 0.3, 0.6, 1.0)


def magnetization_observable(game: IsingGame) -> np.ndarray:
    profiles = game.space.all_profiles()
    spins = spins_from_profile(profiles)
    return np.abs(spins.mean(axis=1))


def sweep(name: str, graph: nx.Graph) -> list[list[object]]:
    game = IsingGame(graph, coupling=1.0)
    observable = magnetization_observable(game)
    rows = []
    for beta in BETAS:
        mixing = measure_mixing_time(game, beta).mixing_time
        mean_abs_m = gibbs_expectation(game.potential_vector(), beta, observable)
        rows.append([name, beta, mixing, mean_abs_m])
    return rows


def main() -> None:
    # 1. Glauber dynamics == logit dynamics of the coordination game
    graph = nx.cycle_graph(5)
    ising = IsingGame(graph, coupling=1.0)
    coordination = IsingGame.as_coordination_game(graph, coupling=1.0)
    P_ising = LogitDynamics(ising, beta=0.8).transition_matrix()
    P_coord = LogitDynamics(coordination, beta=0.8).transition_matrix()
    print(
        "Glauber chain equals coordination-game logit chain:",
        bool(np.allclose(P_ising, P_coord)),
    )

    # 2. beta sweep on two topologies
    rows = sweep("ring(6)", nx.cycle_graph(6)) + sweep("grid(2x3)", nx.grid_2d_graph(2, 3))
    print()
    print(render_table(["graph", "beta", "t_mix (exact)", "E_pi |magnetization|"], rows))

    # 3. a Glauber trajectory vs the exact Gibbs expectation
    beta = 0.6
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    dynamics = LogitDynamics(game, beta)
    trajectory = dynamics.simulate(start=(0,) * 6, num_steps=30_000, seed=0)
    spins = spins_from_profile(trajectory[3000:])
    empirical = float(np.abs(spins.mean(axis=1)).mean())
    exact = gibbs_expectation(
        game.potential_vector(), beta, magnetization_observable(game)
    )
    print(
        f"\nbeta={beta}: empirical |m| from a Glauber trajectory = {empirical:.3f}, "
        f"exact Gibbs expectation = {exact:.3f}"
    )
    print(
        "\nLow beta (high temperature) gives fast mixing and small magnetization; raising\n"
        "beta aligns the spins (|m| -> 1) and slows the chain down, exactly the trade-off\n"
        "the paper quantifies for coordination games."
    )


if __name__ == "__main__":
    main()
