"""E-ENG — batched ensemble engine vs. the single-replica loops.

Measures simulation throughput (replica-steps per second) of the
:class:`repro.engine.EnsembleSimulator` against the pure-Python
single-replica reference loops on the n-player ring Ising game (the Glauber
dynamics workload of Section 5): the sequential logit kernel in both engine
modes, and the variant kernels (parallel, round-robin) against their own
scalar loops.  Asserts the batched engine delivers at least the required
speedup per kernel.  Also re-checks the fixed-seed equivalence contracts so
that the speed being measured is the speed of the *same* dynamics.

E-ENG-K records the engine's serial replica-steps/s for each of the five
update kernels (sequential, parallel, probabilistic, round-robin,
annealed) on the same ring, every one drawing from per-replica streams.

A second case family (E-ENG-L) measures the *matrix state* backend on
local-interaction games far past the int64 profile-index ceiling: ring and
torus Ising games at n in ENGINE_BENCH_LOCAL_SIZES (default 100 and 1000
players, i.e. profile spaces of 2**100 and 2**1000) against a scalar
reference loop that computes each step's deviation utilities from neighbor
spins.  No profile index exists at these sizes, so this exercises the
index-free path end to end.

Tunables (environment variables) let CI smoke-run this with tiny
parameters: ENGINE_BENCH_N, ENGINE_BENCH_STEPS, ENGINE_BENCH_REPLICAS,
ENGINE_BENCH_LOCAL_SIZES, ENGINE_BENCH_MIN_SPEEDUP (set to 0 to disable
the speedup assertion on underpowered runners).
"""

from __future__ import annotations

import os
import time

import networkx as nx
import numpy as np

from perf_record import record_bench_cases
from repro.analysis import render_experiment
from repro.core import LogitDynamics
from repro.core.logit import logit_update_distribution
from repro.core.variants import (
    AnnealedLogitDynamics,
    ConcurrentLogitDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.engine.kernels import SEQUENTIAL_BLOCK_SIZE
from repro.engine.sampling import sample_inverse_cdf
from repro.games import IsingGame

N = int(os.environ.get("ENGINE_BENCH_N", 12))
STEPS = int(os.environ.get("ENGINE_BENCH_STEPS", 2000))
REPLICAS = int(os.environ.get("ENGINE_BENCH_REPLICAS", 1024))
MIN_SPEEDUP = float(os.environ.get("ENGINE_BENCH_MIN_SPEEDUP", 10.0))
LOCAL_SIZES = tuple(
    int(s)
    for s in os.environ.get("ENGINE_BENCH_LOCAL_SIZES", "100,1000").split(",")
    if s.strip()
)
BETA = 1.0


def _local_cases() -> list[tuple[str, IsingGame]]:
    """Ring and torus Ising games at the configured local sizes."""
    cases = []
    for n in LOCAL_SIZES:
        cases.append((f"ring n={n}", IsingGame(nx.cycle_graph(n), coupling=1.0)))
        rows = max(int(np.sqrt(n)), 3)
        cols = max(n // rows, 3)
        cases.append(
            (
                f"torus {rows}x{cols}",
                IsingGame(nx.grid_2d_graph(rows, cols, periodic=True), coupling=1.0),
            )
        )
    return cases


def _scalar_local_loop(
    game: IsingGame,
    beta: float,
    start: np.ndarray,
    num_steps: int,
    seed: int,
) -> np.ndarray:
    """Scalar matrix-free reference: one single-site logit update per step.

    Utilities come from the game's profile-row method on a 1-row batch —
    the same numbers the engine uses — and the draws follow the sequential
    kernel's stream of replica 0 (``SeedSequence`` child 0 of ``seed``, in
    blocks of a players block then a uniforms block), so a single engine
    replica reproduces this loop bit-for-bit.
    """
    n = game.space.num_players
    g = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    block = SEQUENTIAL_BLOCK_SIZE
    profile = np.asarray(start, dtype=np.int64).copy()
    for t in range(num_steps):
        if t % block == 0:
            players = g.integers(0, n, size=block)
            uniforms = g.random(block)
        i = int(players[t % block])
        utilities = game.utility_deviations_profiles(i, profile[None, :])[0]
        probs = logit_update_distribution(utilities, beta)
        profile[i] = sample_inverse_cdf(probs, float(uniforms[t % block]))
    return profile


def _best_of(fn, repeats: int = 3) -> float:
    """Fastest wall-clock of a few repeats (standard microbenchmark hygiene)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def measure_throughputs() -> tuple[list[list[object]], dict[str, float]]:
    game = IsingGame(nx.cycle_graph(N), coupling=1.0)
    dynamics = LogitDynamics(game, BETA)
    start = (0,) * N

    dynamics.simulate_loop(start, min(STEPS, 200), seed=0)  # warmup
    loop_steps = min(STEPS, 2000)  # the loop is the slow side; keep it bounded
    loop_time = _best_of(lambda: dynamics.simulate_loop(start, loop_steps, seed=0))
    rates = {"loop": loop_steps / loop_time}

    rows: list[list[object]] = [
        ["loop (reference)", 1, loop_steps, f"{rates['loop']:,.0f}", "1.0x"]
    ]
    for mode in ("matrix_free", "gather"):
        sim = dynamics.ensemble(REPLICAS, start=start, seed=0, mode=mode)
        sim.run(min(STEPS, 100))  # warmup (gather mode builds its caches here)
        engine_time = _best_of(lambda: sim.run(STEPS))
        rates[mode] = STEPS * REPLICAS / engine_time
        rows.append(
            [
                f"engine ({mode})",
                REPLICAS,
                STEPS,
                f"{rates[mode]:,.0f}",
                f"{rates[mode] / rates['loop']:.1f}x",
            ]
        )
    return rows, rates


def measure_variant_throughputs() -> tuple[list[list[object]], dict[str, float]]:
    """Variant kernels vs. their scalar loops on the same ring game."""
    game = IsingGame(nx.cycle_graph(N), coupling=1.0)
    start = (0,) * N
    rows: list[list[object]] = []
    speedups: dict[str, float] = {}
    for name, dynamics in (
        ("parallel", ParallelLogitDynamics(game, BETA)),
        ("round_robin", RoundRobinLogitDynamics(game, BETA)),
    ):
        loop_steps = min(STEPS, 500)  # variant loops do n utility calls/step
        dynamics.simulate_loop(start, min(loop_steps, 100), seed=0)  # warmup
        loop_time = _best_of(lambda: dynamics.simulate_loop(start, loop_steps, seed=0))
        loop_rate = loop_steps / loop_time
        sim = dynamics.ensemble(REPLICAS, start=start, seed=0)
        sim.run(min(STEPS, 100))  # warmup (gather caches build here)
        engine_time = _best_of(lambda: sim.run(STEPS))
        engine_rate = STEPS * REPLICAS / engine_time
        speedups[name] = engine_rate / loop_rate
        rows.append(
            [
                f"{name} loop (reference)", 1, loop_steps, f"{loop_rate:,.0f}", "1.0x",
            ]
        )
        rows.append(
            [
                f"{name} kernel (engine)",
                REPLICAS,
                STEPS,
                f"{engine_rate:,.0f}",
                f"{speedups[name]:.1f}x",
            ]
        )
    return rows, speedups


def measure_local_throughputs() -> tuple[list[list[object]], dict[str, float]]:
    """Matrix-state engine vs. the scalar loop on index-free local games."""
    rows: list[list[object]] = []
    speedups: dict[str, float] = {}
    for name, game in _local_cases():
        dynamics = LogitDynamics(game, BETA)
        n = game.space.num_players
        start = np.zeros(n, dtype=np.int64)
        loop_steps = min(STEPS, 500)
        _scalar_local_loop(game, BETA, start, min(loop_steps, 100), 0)  # warmup
        loop_time = _best_of(
            lambda: _scalar_local_loop(game, BETA, start, loop_steps, 0)
        )
        loop_rate = loop_steps / loop_time
        sim = dynamics.ensemble(REPLICAS, start=start, seed=0)
        assert sim.state.kind == "matrix", "local cases must run index-free"
        sim.run(min(STEPS, 100))  # warmup
        engine_time = _best_of(lambda: sim.run(STEPS))
        engine_rate = STEPS * REPLICAS / engine_time
        speedups[name] = engine_rate / loop_rate
        rows.append([f"{name} loop", 1, loop_steps, f"{loop_rate:,.0f}", "1.0x"])
        rows.append(
            [
                f"{name} engine",
                REPLICAS,
                STEPS,
                f"{engine_rate:,.0f}",
                f"{speedups[name]:.1f}x",
            ]
        )
    return rows, speedups


def measure_kernel_rates() -> tuple[list[list[object]], dict[str, float]]:
    """Serial engine replica-steps/s of every update kernel on the ring."""
    game = IsingGame(nx.cycle_graph(N), coupling=1.0)
    start = (0,) * N
    rows: list[list[object]] = []
    rates: dict[str, float] = {}
    for name, dynamics in (
        ("sequential", LogitDynamics(game, BETA)),
        ("parallel", ParallelLogitDynamics(game, BETA)),
        ("probabilistic", ConcurrentLogitDynamics(game, BETA, p=0.5)),
        ("round_robin", RoundRobinLogitDynamics(game, BETA)),
        ("annealed", AnnealedLogitDynamics(game, lambda t: BETA)),
    ):
        sim = dynamics.ensemble(REPLICAS, start=start, seed=0)
        sim.run(min(STEPS, 100))  # warmup (gather caches build here)
        engine_time = _best_of(lambda: sim.run(STEPS))
        rates[name] = STEPS * REPLICAS / engine_time
        rows.append([name, sim.mode, REPLICAS, STEPS, f"{rates[name]:,.0f}"])
    return rows, rates


def test_engine_equivalence_before_timing():
    """The engine must be fast *and* exact: same seed, same trajectory."""
    game = IsingGame(nx.cycle_graph(N), coupling=1.0)
    dynamics = LogitDynamics(game, BETA)
    start = (0,) * N
    loop = dynamics.simulate_loop(start, 300, seed=123)
    batched = dynamics.simulate(start, 300, seed=123)
    np.testing.assert_array_equal(loop, batched)


def test_variant_kernel_equivalence_before_timing():
    """Same contract for the variant kernels: same seed, same trajectory."""
    game = IsingGame(nx.cycle_graph(N), coupling=1.0)
    start = (0,) * N
    for dynamics in (
        ParallelLogitDynamics(game, BETA),
        RoundRobinLogitDynamics(game, BETA),
    ):
        loop = dynamics.simulate_loop(start, 200, seed=7)
        batched = dynamics.simulate(start, 200, seed=7)
        np.testing.assert_array_equal(loop, batched)


def test_local_game_equivalence_before_timing():
    """The matrix-state engine must reproduce the scalar local-game loop
    bit-for-bit — at n=100 no profile index even fits in int64."""
    n = min(LOCAL_SIZES) if LOCAL_SIZES else 100
    game = IsingGame(nx.cycle_graph(n), coupling=1.0)
    dynamics = LogitDynamics(game, BETA)
    start = np.zeros(n, dtype=np.int64)
    loop = _scalar_local_loop(game, BETA, start, 300, 11)
    sim = dynamics.ensemble(1, start=start, seed=11)
    sim.run(300)
    np.testing.assert_array_equal(loop, sim.profiles[0])


def test_kernel_rates(benchmark):
    rows, rates = benchmark.pedantic(measure_kernel_rates, rounds=1, iterations=1)
    record_bench_cases(
        "engine_throughput",
        [
            {"case": f"E-ENG-K {name}", "n": N, "steps_per_sec": rate,
             "speedup": None}
            for name, rate in rates.items()
        ],
    )
    print()
    print(
        render_experiment(
            f"E-ENG-K  Serial replica-steps/s per update kernel — n={N} ring "
            f"Ising, beta={BETA}",
            ["kernel", "mode", "replicas", "steps", "replica-steps/s"],
            rows,
            notes=(
                "Every kernel draws from one stream per replica (seed=0); the\n"
                "annealed schedule is constant, so it differs from the sequential\n"
                "kernel only in running matrix-free."
            ),
        )
    )
    assert all(rate > 0 for rate in rates.values())


def test_local_game_throughput(benchmark):
    rows, speedups = benchmark.pedantic(
        measure_local_throughputs, rounds=1, iterations=1
    )
    record_bench_cases(
        "engine_throughput",
        [
            {"case": f"E-ENG-L {name}", "n": None, "steps_per_sec": None,
             "speedup": speedup}
            for name, speedup in speedups.items()
        ],
    )
    print()
    print(
        render_experiment(
            f"E-ENG-L  Matrix-state engine on local-interaction games — "
            f"ring/torus Ising, beta={BETA}",
            ["simulator", "replicas", "steps", "replica-steps/s", "speedup"],
            rows,
            notes=(
                "Index-free path: replicas are (R, n) strategy rows, deviation\n"
                "utilities come from neighbor spins only — the profile spaces here\n"
                "(2**100 .. 2**1000 states) have no int64 profile indices at all.\n"
                f"Required speedup per case: >= {MIN_SPEEDUP:g}x."
            ),
        )
    )
    for name, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"local case {name} delivers only {speedup:.1f}x over the scalar "
            f"loop (required {MIN_SPEEDUP:g}x)"
        )


def test_variant_kernel_throughput(benchmark):
    rows, speedups = benchmark.pedantic(
        measure_variant_throughputs, rounds=1, iterations=1
    )
    record_bench_cases(
        "engine_throughput",
        [
            {"case": f"E-ENG-V {name}", "n": N, "steps_per_sec": None,
             "speedup": speedup}
            for name, speedup in speedups.items()
        ],
    )
    print()
    print(
        render_experiment(
            f"E-ENG-V  Variant kernels throughput — n={N} ring Ising, beta={BETA}",
            ["simulator", "replicas", "steps", "replica-steps/s", "speedup"],
            rows,
            notes=(
                "Each variant kernel is measured against its own scalar reference loop;\n"
                f"required speedup per kernel: >= {MIN_SPEEDUP:g}x."
            ),
        )
    )
    for name, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{name} kernel delivers only {speedup:.1f}x over its loop "
            f"(required {MIN_SPEEDUP:g}x)"
        )


def test_engine_throughput(benchmark):
    # one round: the measurement function already does its own best-of-three
    rows, rates = benchmark.pedantic(measure_throughputs, rounds=1, iterations=1)
    record_bench_cases(
        "engine_throughput",
        [
            {"case": f"E-ENG {mode}", "n": N, "steps_per_sec": rate,
             "speedup": rate / rates["loop"]}
            for mode, rate in rates.items()
        ],
    )
    print()
    print(
        render_experiment(
            f"E-ENG  Ensemble engine throughput — n={N} ring Ising (Glauber), beta={BETA}",
            ["simulator", "replicas", "steps", "replica-steps/s", "speedup"],
            rows,
            notes=(
                "The batched engine advances all replicas per step with a handful of numpy\n"
                "ops; gather mode additionally replaces utility+softmax work by an indexed\n"
                f"gather of precomputed update rows. Required speedup: >= {MIN_SPEEDUP:g}x."
            ),
        )
    )
    best = max(rates["matrix_free"], rates["gather"])
    assert best >= MIN_SPEEDUP * rates["loop"], (
        f"engine delivers only {best / rates['loop']:.1f}x over the loop "
        f"(required {MIN_SPEEDUP:g}x)"
    )
