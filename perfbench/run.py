"""The repository benchmark: one workload per call, checked and timed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``README.md``).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full record -- every iteration, the deterministic work
counts, the machine fingerprint and, for traced runs, the per-layer
attribution -- is written to ``.perfbench_out/`` next to the trace.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is imported, here and (inherited)
# in every shard worker, so the executor's workers are the only parallelism.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
#: share of a typical iteration that may run past ``--seconds``
OVERRUN = 0.5
#: traced wall-clock and attributed self times must agree to this share
ATTRIBUTION_TOLERANCE = 0.02
#: work counts that must repeat exactly for the same code and seed
DETERMINISTIC = ("replica_steps", "samples", "chunks", "tv_checkpoints", "tasks")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- machine fingerprint ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process, no parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Content digest of the program's sources: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(),
        "source_digest": _source_digest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- set-up and iterations ---------------------------------------------------------


def start_executor():
    """A warm 2-shard process executor: both workers forked and answering."""
    from repro.parallel import ShardedExecutor
    from workloads import NUM_SHARDS

    executor = ShardedExecutor(
        num_shards=NUM_SHARDS,
        backend="process",
        max_workers=max(1, min(NUM_SHARDS, os.cpu_count() or 1)),
    )
    executor.map_tasks(os.getpid, [()] * NUM_SHARDS)
    return executor


IMPORT_PROBE = (
    "from time import perf_counter\n"
    "tic = perf_counter()\n"
    "import numpy, repro\n"
    "print(perf_counter() - tic)\n"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the program."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def set_up(workload, seed: int):
    """Import, build the inputs and start a warm executor if the workload shards.

    Returns the inputs, the executor (or None) and the seconds the three
    took; the imports are timed in a fresh interpreter, since this one has
    them.
    """
    imports = import_seconds()
    tic = perf_counter()
    inputs = workload.build(seed)
    executor = start_executor() if workload.sharded else None
    return inputs, executor, imports + perf_counter() - tic


def one_iteration(workload, inputs, executor, scratch: Path, recorder=None):
    """Run, time and check the workload once; returns the iteration record."""
    from repro.obs import RunManifest, Tracer

    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    tracer = None
    if recorder is not None:
        # an in-memory tracer with an explicit manifest: collecting one would
        # start a git process that searches outside the checkout
        tracer = Tracer(manifest=RunManifest(python=platform.python_version()))
        recorder.reset()
        recorder.enter("bench.iteration")
    record: dict = {"traced": recorder is not None}
    tic = perf_counter()
    try:
        result = workload.run(inputs, executor, tracer, scratch)
    except Exception:  # a failing operation is measured, not fatal
        result = None
        record["error"] = traceback.format_exc()
    wall = perf_counter() - tic
    record["wall_s"] = wall
    if recorder is not None:
        recorder.exit()
        record["spans"] = {
            "self_s": dict(recorder.self_s),
            "busy_s": dict(recorder.busy_s),
            "incl_s": dict(recorder.incl_s),
            "calls": dict(recorder.calls),
            "counts": dict(recorder.counts),
        }
        record["layers"] = recorder.layer_self_s()
        record["dispatches"] = list(recorder.dispatches)
        record["tasks"] = list(recorder.tasks)
        record["tracer"] = {
            "counters": dict(tracer.counters),
            "checkpoints": sum(
                1 for e in tracer.events if e["name"] == "mixing.checkpoint"
            ),
        }
    if result is None:
        record["operations"] = workload.nominal_operations
        record["failed"] = workload.nominal_operations
        record["messages"] = [record["error"].strip().splitlines()[-1]]
        return record
    try:
        verdict = workload.check(inputs, result, executor, scratch)
        record["work"] = workload.work(inputs, result)
    except Exception:
        record["operations"] = workload.nominal_operations
        record["failed"] = workload.nominal_operations
        record["messages"] = ["check raised: " + traceback.format_exc()]
        return record
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["operations"] = record["work"]["operations"]
    record["failed"] = min(verdict.failed, record["operations"])
    record["messages"] = verdict.messages
    record["check"] = verdict.extra
    return record


def measure(workload, inputs, executor, seconds: float, scratch: Path, recorder=None):
    """Iterate until ``seconds`` are (nearly) used; at least one iteration."""
    records = []
    start = perf_counter()
    while True:
        records.append(
            one_iteration(
                workload, inputs, executor, scratch / str(len(records)), recorder
            )
        )
        typical = statistics.median(r["wall_s"] for r in records)
        if perf_counter() - start + OVERRUN * typical >= seconds:
            return records


# -- metrics --------------------------------------------------------------------------


def _worker_peak_rss() -> tuple[int, int]:
    # holding this worker for a moment makes the other one take the next task
    time.sleep(0.25)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb(executor) -> float:
    """Peak RSS of this process plus the peak RSS of each shard worker."""
    from workloads import NUM_SHARDS

    workers = {}
    if executor is not None:
        workers = dict(executor.map_tasks(_worker_peak_rss, [()] * NUM_SHARDS))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(workers.values())) / 1024.0


def end_to_end(records, setup_s: float, rss_mb: float) -> dict:
    ok = [r for r in records if "work" in r]
    if not ok:
        return {}
    wall = statistics.median(r["wall_s"] for r in ok)
    return {
        "wall_s": (wall, "s"),
        "replica_steps_per_s": (
            statistics.median(r["work"]["replica_steps"] / r["wall_s"] for r in ok),
            "1/s",
        ),
        "samples_per_s": (
            statistics.median(r["work"]["samples"] / r["wall_s"] for r in ok),
            "1/s",
        ),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _median(records, fn) -> float:
    return float(statistics.median(fn(r) for r in records))


def per_layer(traced, untraced, setup_spans: dict, workload) -> dict:
    """Per-layer metrics of the traced iterations (medians of times)."""
    ok = [r for r in traced if "work" in r]

    def incl(name):
        return lambda r: r["spans"]["incl_s"].get(name, 0.0)

    def busy(*names):
        return lambda r: sum(r["spans"]["busy_s"].get(n, 0.0) for n in names)

    def calls(name):
        return lambda r: r["spans"]["calls"].get(name, 0)

    def count(name):
        return lambda r: r["spans"]["counts"].get(name, 0)

    last = ok[-1]
    steps = count("engine.replica_steps")(last)
    builds = calls("engine.build")(last)
    dispatches = [d for r in ok for d in r["dispatches"]]
    metrics = {
        "games.build_s": (
            setup_spans.get("games.graph", 0.0)
            + setup_spans.get("games.build", 0.0)
            + _median(ok, lambda r: incl("games.graph")(r) + incl("games.build")(r)),
            "s",
        ),
        "games.deviation_s": (_median(ok, incl("games.deviation")), "s"),
        "games.deviation_calls": (calls("games.deviation")(last), "count"),
        "engine.run_s": (_median(ok, incl("engine.run")), "s"),
        "engine.replica_steps": (steps, "count"),
        "engine.replica_steps_per_s": (
            _median(ok, lambda r: steps / max(incl("engine.run")(r), 1e-12)),
            "1/s",
        ),
        "engine.sim_builds": (builds, "count"),
        "engine.sim_build_s": (_median(ok, incl("engine.build")), "s"),
        "engine.replicas_per_sim": (
            count("engine.replicas_built")(last) / builds if builds else 0.0,
            "count",
        ),
        "markov.stationary_s": (_median(ok, incl("markov.stationary")), "s"),
        "core.tv_checkpoints": (last["tracer"]["checkpoints"], "count"),
        "core.tv_s": (_median(ok, busy("core.mixing")), "s"),
        "stats.chunks": (count("stats.chunks")(last), "count"),
        "stats.samples_to_stop": (count("stats.samples")(last), "count"),
        "stats.fold_s": (_median(ok, incl("stats.fold")), "s"),
        "stats.final_width": (last["work"]["final_width"], "units"),
        "parallel.sharding.tasks": (sum(d["tasks"] for d in last["dispatches"]), "count"),
        "parallel.sharding.dispatch_s": (
            _median(ok, incl("parallel.sharding.dispatch")),
            "s",
        ),
        "parallel.sharding.worker_s": (
            _median(ok, lambda r: sum(d["worker_s"] for d in r["dispatches"])),
            "s",
        ),
        "parallel.sharding.ipc_s": (_median(ok, busy("parallel.sharding.dispatch")), "s"),
        "parallel.sharding.imbalance": (
            statistics.fmean(d["imbalance"] for d in dispatches) if dispatches else 1.0,
            "ratio",
        ),
        "parallel.sharding.payload_bytes": (
            sum(d["bytes"] for d in last["dispatches"]),
            "bytes",
        ),
        "parallel.store.get_s": (_median(ok, incl("parallel.store.get")), "s"),
        "parallel.store.put_s": (_median(ok, incl("parallel.store.put")), "s"),
        "parallel.store.hits": (count("parallel.store.hits")(last), "count"),
        "parallel.store.misses": (count("parallel.store.misses")(last), "count"),
        "parallel.store.bytes_written": (
            last["tracer"]["counters"].get("store.bytes_written", 0),
            "bytes",
        ),
        "parallel.store.resume_s": (
            _median(ok, lambda r: r["check"].get("resume_s", 0.0)),
            "s",
        ),
        "analysis.cells": (
            last["work"]["operations"] if workload.name == "matrix" else 0,
            "count",
        ),
        "analysis.cell_overhead_s": (
            _median(ok, busy("analysis.matrix", "analysis.sweep")),
            "s",
        ),
        "obs.trace_overhead_frac": (
            _median(ok, lambda r: r["wall_s"]) / _median(untraced, lambda r: r["wall_s"])
            - 1.0,
            "frac",
        ),
    }
    import spans

    for layer in spans.LAYERS:
        metrics[f"self.{layer}_s"] = (_median(ok, lambda r: r["layers"][layer]), "s")
    metrics["self.unattributed_s"] = (_median(ok, unattributed), "s")
    return metrics


def unattributed(record) -> float:
    return record["wall_s"] - sum(record["layers"].values())


def consistency(records, traced) -> list[str]:
    """Deterministic counts repeat, and the traced counts agree with them."""
    problems = []
    works = [r["work"] for r in records + traced if "work" in r]
    for key in DETERMINISTIC:
        values = {w[key] for w in works}
        if len(values) > 1:
            problems.append(f"{key} differs between iterations: {sorted(values)}")
    for r in traced:
        if "work" not in r:
            continue
        work, counts = r["work"], r["spans"]["counts"]
        pairs = {
            "replica_steps": counts.get("engine.replica_steps", 0),
            "tasks": sum(d["tasks"] for d in r["dispatches"]),
        }
        if work["chunks"]:
            pairs["chunks"] = counts.get("stats.chunks", 0)
            pairs["samples"] = counts.get("stats.samples", 0)
        if work["tv_checkpoints"]:
            pairs["tv_checkpoints"] = r["tracer"]["checkpoints"]
        for key, traced_value in pairs.items():
            if traced_value != work[key]:
                problems.append(
                    f"traced {key} {traced_value} != {work[key]} from the result"
                )
        if unattributed(r) < -ATTRIBUTION_TOLERANCE * r["wall_s"]:
            problems.append("layer self times exceed the traced wall-clock")
    return problems


def attribution_table(workload: str, record: dict) -> str:
    """Per-layer self seconds of one traced iteration, summing to its wall."""
    rows = [(layer, seconds) for layer, seconds in record["layers"].items()]
    rows.append(("unattributed", unattributed(record)))
    wall = record["wall_s"]
    lines = [f"{workload}: per-layer self time of a traced iteration (wall {wall:.3f} s)"]
    lines.append(f"  {'layer':<20}{'self s':>10}{'share':>9}")
    for layer, seconds in rows:
        lines.append(f"  {layer:<20}{seconds:>10.4f}{seconds / wall:>8.1%}")
    lines.append(f"  {'total':<20}{sum(s for _, s in rows):>10.4f}")
    return "\n".join(lines)


# -- entry point ----------------------------------------------------------------------


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = OUT / f"scratch-{os.getpid()}"
    # set up several times and keep the last; the others are dropped at once,
    # so their inputs do not count towards the peak RSS
    setups = []
    for repeat in range(SETUP_REPEATS):
        inputs, executor, seconds = set_up(workload, args.seed)
        setups.append(seconds)
        if repeat < SETUP_REPEATS - 1:
            if executor is not None:
                executor.close()
            del inputs, executor
    setup_s = statistics.median(setups)

    traced: list[dict] = []
    setup_spans: dict = {}
    try:
        if args.trace:
            untraced = measure(workload, inputs, executor, args.seconds / 2, scratch)
            recorder = spans.Recorder()
            spans.install(recorder)
            try:
                recorder.enter("bench.setup")
                workload.build(args.seed)
                recorder.exit()
                setup_spans = dict(recorder.incl_s)
                traced = measure(
                    workload, inputs, executor, args.seconds / 2, scratch, recorder
                )
            finally:
                spans.uninstall()
        else:
            untraced = measure(workload, inputs, executor, args.seconds, scratch)
            rss_mb = peak_rss_mb(executor)
    finally:
        if executor is not None:
            executor.close()
        shutil.rmtree(scratch, ignore_errors=True)

    records = untraced + traced
    attempted = sum(r["operations"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = consistency(untraced, traced)
    for r in records:
        for message in r["messages"]:
            print(f"check: {message}")
    for problem in problems:
        print(f"consistency: {problem}")
    correct = failed == 0 and not problems

    if args.trace:
        ok = [r for r in traced if "work" in r]
        metrics = per_layer(traced, untraced, setup_spans, workload) if ok else {}
        if ok:
            print(attribution_table(workload.name, ok[-1]))
    else:
        metrics = end_to_end(untraced, setup_s, rss_mb)
    if not metrics:
        correct = False

    trace_path = OUT / f"{stem}.trace.jsonl" if args.trace else None
    machine = fingerprint()
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", "workload": workload.name,
                                 "seed": args.seed, "machine": machine}) + "\n")
            for index, r in enumerate(traced):
                for key in ("spans", "layers", "tracer"):
                    fh.write(json.dumps({"kind": key, "iteration": index,
                                         "data": r.get(key)}) + "\n")
                for d in r.get("dispatches", []):
                    fh.write(json.dumps({"kind": "dispatch", "iteration": index,
                                         **d}) + "\n")
                for t in r.get("tasks", []):
                    fh.write(json.dumps({"kind": "worker_task", "iteration": index,
                                         **t}) + "\n")
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_path": str(trace_path.relative_to(ROOT)) if trace_path else None,
        "machine": machine,
        "skipped_span_targets": spans.skipped_targets(),
        "setup_repeats_s": setups,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "work": next((r["work"] for r in records if "work" in r), None),
        "iterations": [
            {k: r[k] for k in ("traced", "wall_s", "operations", "failed", "messages",
                               "check", "layers") if k in r}
            for r in records
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, default=float)
    print(
        f"{workload.name}: seed {args.seed}, {len(untraced)} untraced + "
        f"{len(traced)} traced iterations, record {OUT.name}/{stem}.json, "
        f"machine {machine['cpu']} x{machine['nproc']}"
    )
    print(_result_line(correct, max(attempted, 1), failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
