"""The benchmark's four workloads: inputs, the timed call, checks and counts.

Every workload exposes the same four steps:

* ``build(seed)`` -- the set-up: graphs and games made from the seed;
* ``run(inputs, executor, tracer, scratch)`` -- the timed call into the
  program, returning its result; ``executor`` is a warm 2-shard process
  executor when the workload's ``sharded`` is true, and None otherwise;
* ``check(inputs, result, executor, scratch)`` -- the correctness checks,
  returning a :class:`Verdict`;
* ``work(inputs, result)`` -- the deterministic work counts of the result
  (replica-steps, samples, operations, TV checkpoints, shard tasks), which
  repeat exactly for the same code and seed.

Program entry points are looked up on the ``repro`` package at call time
(``repro.analysis.scenario_matrix``), so the span wrappers of a traced run
(:mod:`spans`) see every call.  Why each workload exists, and which layer
it exercises or bypasses, is in ``README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
import repro.analysis
import repro.core
import repro.core.metastability
import repro.core.variants
import repro.games
import repro.graphs

from exact import ring_ising_welfare, truncated_hitting_law

#: shards per executor call; fixed so the task counts do not depend on the
#: machine (the pool itself has at most ``nproc`` workers)
NUM_SHARDS = 2


@dataclass
class Verdict:
    """Correctness of one iteration: failed operations and why."""

    failed: int = 0
    messages: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.messages.append(message)


# -- matrix -------------------------------------------------------------------


class MatrixWorkload:
    """The standing scenario matrix from the non-Gibbs-mode consensus start."""

    name = "matrix"
    sharded = True
    num_players = 10
    beta = 2.0
    num_replicas = 256
    max_time = 100
    families = ("opinion", "ising", "coordination")
    topologies = ("ring", "star", "path")
    dynamics = ("logit", "parallel")

    @property
    def nominal_operations(self) -> int:
        return len(self.families) * len(self.topologies) * len(self.dynamics)

    def build(self, seed: int) -> dict:
        n = self.num_players
        graphs = repro.graphs
        topologies = {
            "ring": graphs.ring_graph(n),
            "star": graphs.star_graph(n),
            "path": graphs.path_graph(n),
        }
        # fixed beliefs, as in the standing E-MAT grid: the seed drives the
        # random streams only, so the work of a cell does not swing with it
        beliefs = (np.arange(n) % 3) / 3.0 + 0.1
        return {"seed": int(seed), "topologies": topologies, "beliefs": beliefs}

    def _families(self, inputs: dict) -> dict:
        games = repro.games
        beliefs = inputs["beliefs"]
        return {
            "opinion": lambda g: games.FiniteOpinionGame(g, beliefs),
            "ising": lambda g: games.IsingGame(g, coupling=0.5),
            "coordination": lambda g: games.GraphicalCoordinationGame(
                g, games.CoordinationParams.from_deltas(2.0, 1.0)
            ),
        }

    def _dynamics(self) -> dict:
        beta = self.beta
        return {
            "logit": lambda g: repro.core.LogitDynamics(g, beta),
            "parallel": lambda g: repro.core.variants.ParallelLogitDynamics(g, beta),
        }

    def run(self, inputs, executor, tracer, scratch):
        return repro.analysis.scenario_matrix(
            self._families(inputs),
            inputs["topologies"],
            self._dynamics(),
            num_replicas=self.num_replicas,
            max_time=self.max_time,
            check_every=self.num_players,
            # the all-last-strategy consensus is not the Gibbs mode of any
            # family: from the default argmax start the coordination cells
            # would converge at t=0 and measure nothing
            start=lambda game: game.space.size - 1,
            seed=inputs["seed"],
            executor=executor,
            store=str(scratch),
            tracer=tracer,
        )

    @staticmethod
    def _comparable(result) -> dict:
        payload = repro.analysis.scenario_matrix_payload(result)
        for cell in payload["cells"]:
            for record in cell["records"]:
                record.pop("provenance", None)
        return payload

    def _final_time(self, record) -> int:
        return int(record.mixing_time) if record.extra["converged"] else self.max_time

    def _theorem34_bounds(self, inputs: dict) -> dict:
        """Theorem 3.4 mixing bound of every potential-game cell (cached)."""
        if "theorem34" not in inputs:
            bounds = {}
            for family, make_game in self._families(inputs).items():
                for topology, graph in inputs["topologies"].items():
                    game = make_game(graph)
                    if isinstance(game, repro.games.PotentialGame):
                        bounds[family, topology] = repro.theorem34_mixing_upper(
                            game.num_players,
                            game.max_strategies,
                            self.beta,
                            game.max_global_variation(),
                        )
            inputs["theorem34"] = bounds
        return inputs["theorem34"]

    def check(self, inputs, result, executor, scratch) -> Verdict:
        verdict = Verdict()
        cells = {(c.game_family, c.topology): c for c in result.cells}
        expected = {(f, t) for f in self.families for t in self.topologies}
        if set(cells) != expected:
            verdict.fail(
                f"matrix returned cells {sorted(cells)}", self.nominal_operations
            )
            return verdict
        tic = perf_counter()
        warm = self.run(inputs, executor, None, scratch)
        verdict.extra["resume_s"] = perf_counter() - tic
        cold_payload = self._comparable(result)["cells"]
        warm_payload = self._comparable(warm)["cells"]
        warm_cells = {(c.game_family, c.topology): c for c in warm.cells}
        bounds = self._theorem34_bounds(inputs)
        for index, key in enumerate((c.game_family, c.topology) for c in result.cells):
            records = cells[key].sweep.records
            names = tuple(r.extra["dynamics"] for r in records)
            if names != self.dynamics:
                verdict.fail(f"{key}: dynamics {names}", len(self.dynamics))
                continue
            for position, record in enumerate(records):
                label = f"{key[0]}::{key[1]}::{names[position]}"
                extra = record.extra
                problems = []
                warm_record = warm_cells[key].sweep.records[position]
                if warm_record.extra.get("provenance") != "store":
                    problems.append("warm re-run did not resume from the store")
                if warm_payload[index]["records"][position] != cold_payload[index][
                    "records"
                ][position]:
                    problems.append("resumed record differs from the computed one")
                lower, mean, upper = (
                    extra["welfare_lower"],
                    extra["mean_welfare"],
                    extra["welfare_upper"],
                )
                if not (np.isfinite([lower, upper]).all() and lower <= mean <= upper):
                    problems.append(f"welfare CS not certified: [{lower}, {upper}]")
                if names[position] == "logit" and key in bounds:
                    # a converged cell must sit below the bound, and a capped
                    # one must have been capped before the bound's horizon
                    if self._final_time(record) > bounds[key]:
                        problems.append(
                            f"t={self._final_time(record)} exceeds Theorem 3.4 "
                            f"bound {bounds[key]:.4g}"
                        )
                if problems:
                    verdict.fail(f"{label}: " + "; ".join(problems))
        return verdict

    def work(self, inputs, result) -> dict:
        records = [r for c in result.cells for r in c.sweep.records]
        finals = [self._final_time(r) for r in records]
        checkpoints = sum(1 + math.ceil(t / self.num_players) for t in finals)
        widths = [r.extra["welfare_upper"] - r.extra["welfare_lower"] for r in records]
        return {
            "operations": len(records),
            "replica_steps": sum(self.num_replicas * t for t in finals),
            "samples": self.num_replicas * len(records),
            "chunks": 0,
            "tv_checkpoints": checkpoints,
            "tasks": checkpoints * min(NUM_SHARDS, self.num_replicas),
            "final_width": float(np.median(widths)),
        }


# -- stationary welfare -------------------------------------------------------


class WelfareWorkload:
    """``estimate_stationary_welfare`` of an Ising game on a large social graph."""

    sharded = True
    beta = 0.25
    coupling = 1.0
    alpha = 0.01
    chunk_size = 128  # 64 replicas per shard
    max_replicas = 128
    # one welfare unit is far below the interval width one chunk reaches, so
    # the cap binds: every seed folds the one chunk and does the same work
    precision = 1.0

    def __init__(self, name: str, num_players: int, sweeps: int):
        self.name = name
        self.num_players = num_players
        self.sweeps = sweeps

    @property
    def num_steps(self) -> int:
        return self.sweeps * self.num_players

    @property
    def nominal_operations(self) -> int:
        return math.ceil(self.max_replicas / self.chunk_size)

    def graph(self, seed: int):
        raise NotImplementedError

    def build(self, seed: int) -> dict:
        game = repro.games.IsingGame(self.graph(seed), coupling=self.coupling)
        return {"seed": int(seed), "game": game}

    def run(self, inputs, executor, tracer, scratch):
        return repro.analysis.estimate_stationary_welfare(
            inputs["game"],
            self.beta,
            num_steps=self.num_steps,
            precision=self.precision,
            alpha=self.alpha,
            chunk_size=self.chunk_size,
            max_replicas=self.max_replicas,
            seed=inputs["seed"],
            executor=executor,
        )

    def check(self, inputs, result, executor, scratch) -> Verdict:
        verdict = Verdict()
        operations = math.ceil(result.n / self.chunk_size)
        if not (np.isfinite([result.lower, result.upper]).all()
                and result.lower <= result.estimate <= result.upper):
            verdict.fail(
                f"interval [{result.lower}, {result.upper}] does not hold the "
                f"estimate {result.estimate}",
                operations,
            )
        if result.samples is None or result.samples.shape != (result.n,):
            verdict.fail("the estimate kept no per-replica samples", operations)
        return verdict

    def work(self, inputs, result) -> dict:
        chunks = math.ceil(result.n / self.chunk_size)
        return {
            "operations": chunks,
            "replica_steps": int(result.n) * self.num_steps,
            "samples": int(result.n),
            "chunks": chunks,
            "tv_checkpoints": 0,
            "tasks": chunks * min(NUM_SHARDS, self.chunk_size),
            "final_width": float(result.upper - result.lower),
        }


class WelfareRingWorkload(WelfareWorkload):
    """Bounded degree: engine-bound on the row-wise ``MatrixState`` path."""

    def __init__(self):
        super().__init__("welfare_ring", num_players=4000, sweeps=20)

    def graph(self, seed: int):
        return repro.graphs.ring_graph(self.num_players)

    def check(self, inputs, result, executor, scratch) -> Verdict:
        verdict = super().check(inputs, result, executor, scratch)
        exact = ring_ising_welfare(self.num_players, self.beta, self.coupling)
        verdict.extra["exact"] = exact
        if not result.lower <= exact <= result.upper:
            verdict.fail(
                f"interval [{result.lower:.3f}, {result.upper:.3f}] misses the "
                f"exact stationary welfare {exact:.3f}",
                math.ceil(result.n / self.chunk_size),
            )
        return verdict


class WelfarePAWorkload(WelfareWorkload):
    """Heavy-tailed degrees: the padded max-degree neighbour gather dominates."""

    def __init__(self):
        super().__init__("welfare_pa", num_players=5000, sweeps=2)

    #: one fixed graph instance: its maximum degree sets the padded gather
    #: width, hence the cost of every step, so it must not vary with the seed
    graph_seed = 20111

    def graph(self, seed: int):
        return repro.graphs.preferential_attachment_graph(
            self.num_players, 2, rng=np.random.default_rng(self.graph_seed)
        )

    def check(self, inputs, result, executor, scratch) -> Verdict:
        verdict = super().check(inputs, result, executor, scratch)
        # welfare is 2J(E - 2k) with k the number of disagreeing edges, an
        # integer in [0, E]
        edges = inputs["game"].num_edges
        k = (2.0 * self.coupling * edges - result.samples) / (4.0 * self.coupling)
        bad = ~(
            (np.abs(k - np.round(k)) < 1e-6) & (k >= -1e-9) & (k <= edges + 1e-9)
        )
        if bad.any():
            verdict.fail(
                f"{int(bad.sum())} welfare samples are not achievable on a graph "
                f"with {edges} edges (first: {result.samples[bad][0]})",
                math.ceil(result.n / self.chunk_size),
            )
        return verdict


# -- hitting-time tail --------------------------------------------------------


class HittingTailWorkload:
    """Adaptive hitting times on a 1024-profile chain, in many small chunks."""

    name = "hitting_tail"
    # in-process: a chunk's two 32-replica shards on two workers made every
    # chunk wait for the slower core, and interleaved with the unsharded
    # call on a 2-vCPU VM the sharded one's wall-clock varied 2-3 times as
    # much (CV 10-11% against 4-7%); ``matrix`` measures shard dispatch
    sharded = False
    num_players = 10
    beta = 0.7
    coupling = 1.0
    # just past the law's 70% point (568): about 27% of the replicas reach
    # the horizon, so every chunk's 64-replica first-passage loop runs all
    # 600 steps and the work of a chunk does not swing with the seed.  The
    # P99 of min(tau, T) is then the horizon itself.
    horizon = 600
    alpha = 0.01
    q = 0.99
    # the mean target is not reachable below the cap, so the cap binds and
    # every seed folds the same number of chunks
    precision = 0.01
    precision_quantile = 0.05
    chunk_size = 64
    max_replicas = 1024

    @property
    def nominal_operations(self) -> int:
        return math.ceil(self.max_replicas / self.chunk_size)

    def build(self, seed: int) -> dict:
        game = repro.games.IsingGame(
            repro.graphs.ring_graph(self.num_players), coupling=self.coupling
        )
        # strategy 0 is spin -1: index 0 is all -1, the last index all +1
        return {
            "seed": int(seed),
            "game": game,
            "start": 0,
            "target": game.space.size - 1,
        }

    def run(self, inputs, executor, tracer, scratch):
        return repro.core.metastability.empirical_hitting_times(
            inputs["game"],
            self.beta,
            inputs["start"],
            inputs["target"],
            max_steps=self.horizon,
            precision=self.precision,
            alpha=self.alpha,
            chunk_size=self.chunk_size,
            max_replicas=self.max_replicas,
            seed=inputs["seed"],
            executor=executor,
            q=self.q,
            precision_quantile=self.precision_quantile,
            tracer=tracer,
        )

    def exact(self, inputs: dict) -> tuple[float, float]:
        """Exact truncated mean and P99 (cached: the chain does not change)."""
        if "exact" not in inputs:
            inputs["exact"] = truncated_hitting_law(
                repro.core.LogitDynamics(inputs["game"], self.beta),
                inputs["start"],
                inputs["target"],
                self.horizon,
                self.q,
            )
        return inputs["exact"]

    def check(self, inputs, result, executor, scratch) -> Verdict:
        verdict = Verdict()
        operations = math.ceil(result.n / self.chunk_size)
        mean, quantile = self.exact(inputs)
        verdict.extra["exact_mean"] = mean
        verdict.extra["exact_quantile"] = quantile
        if not result.lower <= mean <= result.upper:
            verdict.fail(
                f"mean interval [{result.lower:.2f}, {result.upper:.2f}] misses "
                f"the exact truncated mean {mean:.2f}",
                operations,
            )
        tail = result.quantile
        if tail is None or not tail.lower <= quantile <= tail.upper:
            verdict.fail(
                f"P{self.q * 100:g} interval misses the exact value {quantile}",
                operations,
            )
        return verdict

    def work(self, inputs, result) -> dict:
        chunks = math.ceil(result.n / self.chunk_size)
        return {
            "operations": chunks,
            "replica_steps": int(result.samples.sum()),
            "samples": int(result.n),
            "chunks": chunks,
            "tv_checkpoints": 0,
            "tasks": 0,
            "final_width": float(result.upper - result.lower),
        }


WORKLOADS = {
    w.name: w
    for w in (
        MatrixWorkload(),
        WelfareRingWorkload(),
        WelfarePAWorkload(),
        HittingTailWorkload(),
    )
}
