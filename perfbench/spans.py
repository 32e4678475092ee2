"""Per-layer spans for the benchmark's traced runs, recorded from outside.

The program under test is never edited: :func:`install` wraps the public
functions of each layer (game construction and deviation utilities, the
engine's simulator, the dense stationary references, the TV estimator, the
sample driver and its consumers, the sharded executor, the experiment store
and the analysis sweeps) with a span that records into a :class:`Recorder`,
and :func:`uninstall` puts the originals back.  Spans are aggregated in
memory as they close -- self seconds, inclusive seconds of the outermost
span of each name, call counts and a few work counters -- so a traced run
keeps constant memory however many engine steps it takes.

A span's *self* time is its duration minus the time covered by the spans
it encloses, so the self times of one process add up to the wall-clock of
its outermost span.  Shard workers record into a recorder of their own:
on the process backend every task is shipped through
:func:`_run_traced_task`, which installs the same wrappers inside the
worker, runs the task under a root span and sends the worker's aggregates
back with the result.  Payload sizes are counted with a pickler that
writes nothing, so tracing does not copy the payloads a second time.  The coordinator then charges each dispatch with the
slowest task's layer self times (the critical path) and keeps the rest of
the dispatch wall-clock as ``parallel.sharding`` self time -- the
pickling, queueing and waiting between coordinator and workers.  Busy
seconds (:attr:`Recorder.busy_s`) sum every process instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pickle
import sys
from time import perf_counter

import numpy as np

#: span name -> layer row of the attribution table
SPAN_LAYER = {
    "games.graph": "games",
    "games.build": "games",
    "games.deviation": "games",
    "engine.build": "engine",
    "engine.run": "engine",
    "markov.stationary": "markov",
    "core.mixing": "core",
    "core.hitting": "core",
    "core.task": "core",
    "stats.driver": "stats",
    "stats.fold": "stats",
    "stats.task": "stats",
    "parallel.sharding.dispatch": "parallel.sharding",
    "parallel.sharding.task": "parallel.sharding",
    "parallel.store.get": "parallel.store",
    "parallel.store.put": "parallel.store",
    "analysis.matrix": "analysis",
    "analysis.sweep": "analysis",
    "analysis.welfare": "analysis",
}

#: rows of the attribution table, in print order
LAYERS = (
    "games",
    "engine",
    "markov",
    "core",
    "stats",
    "parallel.sharding",
    "parallel.store",
    "analysis",
)

DEVIATION_METHODS = (
    "utility_deviations",
    "utility_deviations_many",
    "utility_deviations_profiles",
    "utility_deviations_rowwise",
    "utility_matrix",
    "utility_profile_many",
    "utilities_of_profiles",
)
CS_CLASSES = (
    "repro.stats.confseq:EmpiricalBernsteinCS",
    "repro.stats.confseq:NormalMixtureCS",
    "repro.stats.quantile:QuantileCS",
)

#: (span name, "module" or "module:Class", attribute names)
TARGETS = (
    (
        "games.graph",
        "repro.graphs.topologies",
        ("ring_graph", "star_graph", "path_graph", "preferential_attachment_graph"),
    ),
    ("games.build", "repro.games.local:LocalInteractionGame", ("__init__",)),
    ("games.build", "repro.games.ising:IsingGame", ("__init__",)),
    ("games.build", "repro.games.opinion:FiniteOpinionGame", ("__init__",)),
    ("games.build", "repro.games.coordination:GraphicalCoordinationGame", ("__init__",)),
    ("games.deviation", "repro.games.local:LocalInteractionGame", DEVIATION_METHODS),
    ("engine.build", "repro.engine.ensemble:EnsembleSimulator", ("__init__",)),
    ("engine.run", "repro.engine.ensemble:EnsembleSimulator", ("run", "hitting_times")),
    ("markov.stationary", "repro.core.logit:LogitDynamics", ("stationary_distribution",)),
    (
        "markov.stationary",
        "repro.core.variants:ParallelLogitDynamics",
        ("stationary_distribution",),
    ),
    ("core.mixing", "repro.core.mixing", ("estimate_tv_convergence",)),
    ("core.hitting", "repro.core.metastability", ("empirical_hitting_times",)),
    ("stats.driver", "repro.stats.stream:SampleDriver", ("__init__", "run")),
    *(("stats.fold", owner, ("update", "interval")) for owner in CS_CLASSES),
    ("stats.fold", "repro.stats.accumulators:StreamingMoments", ("update",)),
    ("parallel.store.get", "repro.parallel.store:ExperimentStore", ("get",)),
    ("parallel.store.put", "repro.parallel.store:ExperimentStore", ("put",)),
    ("analysis.matrix", "repro.analysis.scenario_matrix", ("scenario_matrix",)),
    ("analysis.sweep", "repro.analysis.sweep", ("dynamics_family_sweep",)),
    ("analysis.welfare", "repro.analysis.welfare", ("estimate_stationary_welfare",)),
)


def _add(table: dict, key, value) -> None:
    table[key] = table.get(key, 0) + value


class Recorder:
    """In-memory span aggregates of one process (see the module docstring)."""

    def __init__(self):
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (one recorder per iteration)."""
        self.stack: list[list] = []  # [name, start, covered seconds]
        self.open: dict[str, int] = {}
        self.self_s: dict[str, float] = {}  # critical path of the run
        self.busy_s: dict[str, float] = {}  # summed over every process
        self.incl_s: dict[str, float] = {}  # outermost span of each name
        self.calls: dict[str, int] = {}  # outermost span of each name
        self.counts: dict[str, float] = {}
        self.dispatches: list[dict] = []
        self.tasks: list[dict] = []
        self._driver_chunk: dict[int, int] = {}

    def enter(self, name: str) -> None:
        self.open[name] = self.open.get(name, 0) + 1
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, covered = self.stack.pop()
        duration = perf_counter() - start
        own = duration - covered
        _add(self.self_s, name, own)
        _add(self.busy_s, name, own)
        self.open[name] -= 1
        if self.open[name] == 0:
            _add(self.incl_s, name, duration)
            _add(self.calls, name, 1)
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def count(self, name: str, value) -> None:
        _add(self.counts, name, value)

    def snapshot(self) -> dict:
        """The picklable aggregates a shard worker sends back."""
        return {
            "pid": self.pid,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge_dispatch(self, stats: list[dict], sent: int) -> None:
        """Fold the worker aggregates of one dispatch into the open span.

        Busy seconds, outermost spans and counters of every task are summed;
        only the slowest task's self times join the critical path, where
        they are subtracted from the enclosing dispatch span.
        """
        seconds = [s["seconds"] for s in stats]
        for s in stats:
            for table, values in (
                (self.busy_s, s["self_s"]),
                (self.incl_s, s["incl_s"]),
                (self.calls, s["calls"]),
                (self.counts, s["counts"]),
            ):
                for key, value in values.items():
                    _add(table, key, value)
            self.tasks.append(
                {"pid": s["pid"], "seconds": s["seconds"], "self_s": s["self_s"]}
            )
        if stats:
            slowest = stats[seconds.index(max(seconds))]
            for key, value in slowest["self_s"].items():
                _add(self.self_s, key, value)
            self.stack[-1][2] += slowest["seconds"]
        mean = sum(seconds) / len(seconds) if seconds else 0.0
        self.dispatches.append(
            {
                "tasks": len(stats),
                "worker_s": sum(seconds),
                "slowest_s": max(seconds) if seconds else 0.0,
                "imbalance": max(seconds) / mean if mean > 0 else 1.0,
                "bytes": sent + sum(s["result_bytes"] for s in stats),
            }
        )

    def layer_self_s(self) -> dict[str, float]:
        """Critical-path self seconds summed per attribution-table layer."""
        layers = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = SPAN_LAYER.get(name)
            if layer is not None:
                layers[layer] += seconds
        return layers


# The recorder the wrappers write to.  A wrapper installed in a process reads
# it at call time, which is how the same wrappers serve the coordinator and,
# after a fork, each shard worker (which swaps in a recorder of its own).
_active: Recorder | None = None
# (owner object, attribute, original) of every wrapper in place
_installed: list[tuple[object, str, object]] = []
_skipped: list[str] = []


def active() -> Recorder | None:
    return _active


def _span(name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _active
        if rec is None:
            return fn(*args, **kwargs)
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return wrapper


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# -- counters taken at the layer boundaries ---------------------------------


def _after_sim_build(rec, args, kwargs, out) -> None:
    sim = args[0]
    rec.count("engine.replicas_built", sim.num_replicas)


def _after_engine_run(fn):
    def after(rec, args, kwargs, out) -> None:
        if fn.__name__ == "run":
            steps = _bound(fn, args, kwargs)["num_steps"]
            rec.count("engine.replica_steps", int(steps) * args[0].num_replicas)
        else:
            # first-passage runs stop each replica at its hitting time, so
            # the steps taken are sum(min(tau, horizon))
            horizon = int(_bound(fn, args, kwargs)["max_steps"])
            rec.count(
                "engine.replica_steps", int(np.where(out < 0, horizon, out).sum())
            )

    return after


def _after_driver(fn):
    def after(rec, args, kwargs, out) -> None:
        driver = args[0]
        if fn.__name__ == "__init__":
            chunk = _bound(fn, args, kwargs)["chunk_size"]
            rec._driver_chunk[id(driver)] = max(int(chunk), 1)
            return
        chunk = rec._driver_chunk.pop(id(driver), 1)
        rec.count("stats.samples", int(out))
        rec.count("stats.chunks", math.ceil(int(out) / chunk))

    return after


def _after_store_get(rec, args, kwargs, out) -> None:
    rec.count("parallel.store.misses" if out is None else "parallel.store.hits", 1)


def _hook(name: str, fn):
    if name == "engine.build":
        return _after_sim_build
    if name == "engine.run":
        return _after_engine_run(fn)
    if name == "stats.driver":
        return _after_driver(fn)
    if name == "parallel.store.get":
        return _after_store_get
    return None


# -- the sharded executor -----------------------------------------------------


def _task_span_name(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    if module.startswith("repro.parallel"):
        return "parallel.sharding.task"
    if module.startswith("repro.stats"):
        return "stats.task"
    return "core.task"


class _ByteCounter:
    """A write-only file that only counts what a pickler writes to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, data) -> None:
        self.bytes += memoryview(data).nbytes


def pickled_size(obj) -> int:
    """Bytes ``obj`` pickles to, without building the pickle.

    Protocol 5 hands large contiguous buffers (numpy arrays) to the
    callback out of band, so they are counted, not copied.
    """
    counter = _ByteCounter()

    def out_of_band(buffer) -> None:
        counter.bytes += buffer.raw().nbytes

    pickle.Pickler(counter, protocol=5, buffer_callback=out_of_band).dump(obj)
    return counter.bytes


def _run_traced_task(fn, task):
    """Worker side of a traced dispatch: run one task under a root span.

    Installs the wrappers in this worker on first use (or adopts the ones a
    fork inherited) with a recorder of its own, and returns the task's
    result with the worker's aggregates.
    """
    global _active
    if _active is None or _active.pid != os.getpid():
        _active = Recorder()
        if not _installed:
            _patch_all()
    rec = _active
    rec.reset()
    rec.enter(_task_span_name(fn))
    try:
        out = fn(*task)
    finally:
        seconds = rec.exit()
    stats = rec.snapshot()
    stats["seconds"] = seconds
    stats["result_bytes"] = pickled_size(out)
    return out, stats


def _wrap_map_tasks(original):
    @functools.wraps(original)
    def map_tasks(self, fn, tasks, tracer=None):
        rec = _active
        if rec is None:
            return original(self, fn, tasks, tracer=tracer)
        rec.enter("parallel.sharding.dispatch")
        try:
            if self.backend != "process":
                results = original(self, fn, tasks, tracer=tracer)
                rec.merge_dispatch([], 0)
            else:
                sent = sum(pickled_size((fn, tuple(task))) for task in tasks)
                replies = original(
                    self,
                    _run_traced_task,
                    [(fn, tuple(task)) for task in tasks],
                    tracer=tracer,
                )
                results = [out for out, _ in replies]
                rec.merge_dispatch([stats for _, stats in replies], sent)
        finally:
            rec.exit()
        return results

    return map_tasks


# -- installing and removing the wrappers -------------------------------------


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _set(owner, attr: str, value) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, value)
    _installed.append((owner, attr, original))


def _rebind_module_aliases(original, wrapper) -> None:
    """Point every ``from x import f`` alias in the program at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _set(module, attr, wrapper)


def _patch_all() -> None:
    _skipped.clear()
    for name, owner_path, attrs in TARGETS:
        try:
            owner = _resolve(owner_path)
        except (ImportError, AttributeError):
            _skipped.append(owner_path)
            continue
        for attr in attrs:
            if isinstance(owner, type):
                if attr not in owner.__dict__:
                    if not any(attr in vars(base) for base in owner.__mro__):
                        _skipped.append(f"{owner_path}.{attr}")
                    continue
                fn = owner.__dict__[attr]
                _set(owner, attr, _span(name, fn, _hook(name, fn)))
            else:
                fn = getattr(owner, attr, None)
                if fn is None:
                    _skipped.append(f"{owner_path}.{attr}")
                    continue
                _rebind_module_aliases(fn, _span(name, fn, _hook(name, fn)))
    executor = _resolve("repro.parallel.sharding:ShardedExecutor")
    _set(executor, "map_tasks", _wrap_map_tasks(executor.__dict__["map_tasks"]))


def install(recorder: Recorder) -> None:
    """Wrap every target and record into ``recorder`` until :func:`uninstall`."""
    global _active
    if _installed:
        raise RuntimeError("the benchmark's span wrappers are already installed")
    _patch_all()
    _active = recorder


def uninstall() -> None:
    """Restore every wrapped function and stop recording."""
    global _active
    _active = None
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


def skipped_targets() -> list[str]:
    """Targets that no longer exist in the program (reported, not fatal)."""
    return list(_skipped)
