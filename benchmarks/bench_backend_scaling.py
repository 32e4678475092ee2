"""E-ENG-XL — array-backend scaling: million-node local-interaction games.

Measures sequential logit stepping throughput (replica-steps per second)
of the matrix-state engine on ring / torus / preferential-attachment Ising
games at n in BACKEND_BENCH_SIZES (default 10^4, 10^5, 10^6 players),
comparing the default numpy backend against the numba-JIT backend
(:mod:`repro.engine.backend`), and records peak RSS per case.  This is the
regime the local-interaction follow-up papers (arXiv 1207.2908,
1311.1610) actually talk about — "millions of users" taken literally.

When numba is installed, the numba backend must deliver at least
BACKEND_BENCH_MIN_SPEEDUP x the numpy row-wise path on the ring/torus
cases at n >= 10^5 (auto-relaxed with a loud note on constrained runners:
fewer than BACKEND_BENCH_MIN_CPUS cpus, or BACKEND_BENCH_MIN_SPEEDUP=0).
Without numba the benchmark still runs every case on numpy and reports
speedup 1.0 — the fallback path is itself part of the contract.

Every run writes the measured cases to ``BENCH_backend_scaling.json`` at
the repo root (see :mod:`benchmarks.perf_record`); CI uploads the file as
a build artifact.

Tunables: BACKEND_BENCH_SIZES, BACKEND_BENCH_TOPOLOGIES (comma list of
ring/torus/pa), BACKEND_BENCH_REPLICAS, BACKEND_BENCH_STEPS,
BACKEND_BENCH_MIN_SPEEDUP, BACKEND_BENCH_DENSE_CAP (largest n for the
denser torus/pa topologies; the ring runs at every size).
"""

from __future__ import annotations

import os
import time

import networkx as nx
import numpy as np

from perf_record import bench_tracer, record_bench_cases
from repro.analysis import render_experiment
from repro.core import LogitDynamics
from repro.engine import numba_available
from repro.games import IsingGame
from repro.graphs import preferential_attachment_graph

SIZES = tuple(
    int(float(s))
    for s in os.environ.get("BACKEND_BENCH_SIZES", "10000,100000,1000000").split(",")
    if s.strip()
)
TOPOLOGIES = tuple(
    t.strip()
    for t in os.environ.get("BACKEND_BENCH_TOPOLOGIES", "ring,torus,pa").split(",")
    if t.strip()
)
REPLICAS = int(os.environ.get("BACKEND_BENCH_REPLICAS", 64))
STEPS = int(os.environ.get("BACKEND_BENCH_STEPS", 2000))
MIN_SPEEDUP = float(os.environ.get("BACKEND_BENCH_MIN_SPEEDUP", 5.0))
#: torus / preferential-attachment cases are denser (and their generators
#: slower) than the ring; above this n only the ring case runs
DENSE_CAP = int(float(os.environ.get("BACKEND_BENCH_DENSE_CAP", 200_000)))
MIN_CPUS = int(os.environ.get("BACKEND_BENCH_MIN_CPUS", 4))
BETA = 1.0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (0.0 if unavailable)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0.0
    # ru_maxrss is KiB on Linux, bytes on macOS
    return peak / 1024.0 if os.uname().sysname != "Darwin" else peak / (1024.0**2)


def _graph(topology: str, n: int) -> nx.Graph:
    if topology == "ring":
        return nx.cycle_graph(n)
    if topology == "torus":
        side = max(int(np.sqrt(n)), 3)
        return nx.grid_2d_graph(side, side, periodic=True)
    if topology == "pa":
        return preferential_attachment_graph(n, 2, rng=np.random.default_rng(n))
    raise ValueError(f"unknown topology {topology!r} (expected ring/torus/pa)")


def _cases() -> list[tuple[str, str, int]]:
    """(case name, topology, n) triples, dense topologies capped."""
    cases = []
    for topology in TOPOLOGIES:
        for n in SIZES:
            if topology != "ring" and n > DENSE_CAP:
                continue
            cases.append((f"{topology} n={n}", topology, n))
    return cases


def _throughput(sim, steps: int) -> float:
    """Replica-steps per second of ``sim.run(steps)``, best of two."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        sim.run(steps)
        times.append(time.perf_counter() - t0)
    return steps * sim.num_replicas / min(times)


def measure_backend_scaling() -> tuple[list[list[object]], list[dict], dict[str, float]]:
    """Per-case numpy vs numba throughput, JSON records, and speedups."""
    rows: list[list[object]] = []
    records: list[dict] = []
    speedups: dict[str, float] = {}
    have_numba = numba_available()
    # every case's engine.run timings, backend_resolved events — and,
    # without numba, the structured backend_fallback event — land in
    # TRACE_backend_scaling.jsonl next to the JSON record
    with bench_tracer("backend_scaling") as tracer:
        tracer.annotate(
            bench="backend_scaling", replicas=REPLICAS, numba=have_numba
        )
        if not have_numba:
            # record the structured numba-fallback event in the trace — the
            # numpy-only measurement below never requests backend="numba"
            from repro.engine.backend import resolve_backend

            resolve_backend("numba", tracer=tracer)
        for name, topology, n in _cases():
            game = IsingGame(_graph(topology, n), coupling=1.0)
            dynamics = LogitDynamics(game, BETA)
            start = np.zeros(game.space.num_players, dtype=np.int64)

            sim = dynamics.ensemble(
                REPLICAS,
                start=start,
                seed=0,
                state="matrix",
                tracer=tracer,
            )
            sim.run(min(STEPS, 200))  # warmup (scratch buffers allocate here)
            numpy_rate = _throughput(sim, STEPS)

            numba_rate = None
            if have_numba:
                jit = dynamics.ensemble(
                    REPLICAS,
                    start=start,
                    seed=0,
                    state="matrix",
                    backend="numba",
                    tracer=tracer,
                )
                assert jit.backend.name == "numba"
                jit.run(min(STEPS, 200))  # warmup includes JIT compilation
                numba_rate = _throughput(jit, STEPS)

            speedup = (numba_rate / numpy_rate) if numba_rate else 1.0
            speedups[name] = speedup
            rss = _peak_rss_mb()
            rows.append([name, f"{numpy_rate:,.0f}",
                         f"{numba_rate:,.0f}" if numba_rate else "n/a",
                         f"{speedup:.1f}x", f"{rss:,.0f}"])
            records.append(
                {
                    "case": name,
                    "n": n,
                    "topology": topology,
                    "replicas": REPLICAS,
                    "steps": STEPS,
                    "steps_per_sec": numba_rate if numba_rate else numpy_rate,
                    "steps_per_sec_numpy": numpy_rate,
                    "steps_per_sec_numba": numba_rate,
                    "speedup": speedup,
                    "peak_rss_mb": rss,
                }
            )
            tracer.gauge(f"bench.steps_per_sec[{name}]", numpy_rate)
    return rows, records, speedups


def test_backend_fixed_seed_equivalence_before_timing():
    """Numpy and numba backends must walk the same trajectory under a
    fixed seed on a small-degree game (ULP-level softmax differences flip
    a sample with probability ~1e-16 — never over a smoke run)."""
    game = IsingGame(nx.cycle_graph(64), coupling=1.0)
    dynamics = LogitDynamics(game, BETA)
    a = dynamics.ensemble(
        16, seed=42, state="matrix", backend="numpy"
    )
    a.run(500)
    if not numba_available():
        # fallback: backend="numba" must resolve to the same numpy engine
        b = dynamics.ensemble(
            16, seed=42, state="matrix", backend="numba"
        )
        assert b.backend.name == "numpy"
        b.run(500)
        np.testing.assert_array_equal(a.profiles, b.profiles)
        return
    b = dynamics.ensemble(
        16, seed=42, state="matrix", backend="numba"
    )
    assert b.backend.name == "numba"
    b.run(500)
    np.testing.assert_array_equal(a.profiles, b.profiles)


def test_backend_scaling(benchmark):
    rows, records, speedups = benchmark.pedantic(
        measure_backend_scaling, rounds=1, iterations=1
    )
    record_bench_cases("backend_scaling", records)
    have_numba = numba_available()
    cpus = os.cpu_count() or 1
    print()
    print(
        render_experiment(
            f"E-ENG-XL  Array-backend scaling — sequential logit kernel, "
            f"R={REPLICAS}, beta={BETA}"
            + ("" if have_numba else "  [numba NOT installed: numpy only]"),
            ["case", "numpy steps/s", "numba steps/s", "speedup", "peak RSS MiB"],
            rows,
            notes=(
                "Matrix-state engine, replica-steps/s; the numba backend fuses\n"
                "gather -> deviation -> softmax -> sample into one compiled kernel.\n"
                f"Required numba speedup on ring/torus at n >= 1e5: "
                f">= {MIN_SPEEDUP:g}x (when numba is installed).\n"
                "Record written to BENCH_backend_scaling.json."
            ),
        )
    )
    if not have_numba or MIN_SPEEDUP <= 0:
        print(
            "NOTE: numba speedup NOT asserted "
            + ("(numba not installed — numpy fallback measured only)."
               if not have_numba else "(BACKEND_BENCH_MIN_SPEEDUP=0).")
        )
        return
    if cpus < MIN_CPUS:
        print(
            f"NOTE: numba speedup assertion auto-relaxed — constrained runner "
            f"({cpus} cpus < {MIN_CPUS}); measured: "
            + ", ".join(f"{k}: {v:.1f}x" for k, v in speedups.items())
        )
        return
    for name, speedup in speedups.items():
        topology = name.split()[0]
        n = int(name.split("=")[1])
        if topology in ("ring", "torus") and n >= 100_000:
            assert speedup >= MIN_SPEEDUP, (
                f"numba backend delivers only {speedup:.1f}x over numpy on "
                f"{name} (required {MIN_SPEEDUP:g}x)"
            )
