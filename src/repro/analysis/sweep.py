"""Parameter sweeps over beta, system size and graph topology.

The paper's qualitative claims are about *scaling*: mixing time exponential
in ``beta * DeltaPhi`` (Theorem 3.4/3.5), polynomial for small ``beta``
(Theorem 3.6), beta-independent for dominant-strategy games (Theorem 4.2),
and exponential in ``2 delta beta`` on the ring (Theorems 5.6/5.7).  The
sweep helpers here run a game family over a grid of parameters, collect the
measured mixing/relaxation times next to the paper's bounds, and extract
the empirical exponential growth rate so the benchmarks can check slopes as
well as sandwich inequalities.

The sampled sweeps and :func:`~repro.analysis.scenario_matrix.scenario_matrix`
share one cell lifecycle, :func:`run_cells`: each grid point is a ``(name,
spec, compute)`` cell, and the runner owns the knob checks, the executor,
the store round-trip (``ExperimentStore.get_or_compute``) and the trace
events, so a sweep is its own knob validation, a spec builder and a compute.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import partial
from time import perf_counter
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.mixing import (
    estimate_mixing_time_ensemble,
    estimate_tv_convergence,
    measure_mixing_time,
    measure_relaxation_time,
)
from ..core.samplers import TruncatedGibbsEscapeSampler
from ..engine.kernels import replica_seeds
from ..games.base import Game
from ..obs import as_tracer
from ..parallel.sharding import claim_executor
from ..parallel.store import as_store, describe
from ..stats.confseq import NormalMixtureCS
from ..stats.knobs import (
    reject_executor_without_precision,
    require_executor_seed,
    require_store_seed,
)
from ..stats.quantile import QuantileCS

__all__ = [
    "SweepRecord",
    "SweepResult",
    "beta_sweep",
    "dynamics_family_sweep",
    "ensemble_beta_sweep",
    "hitting_time_size_sweep",
    "size_sweep",
    "exponential_growth_rate",
]


def _described_factories(store_tag: str | None, **factories) -> object:
    """Spec component naming the sweep's callables (or the explicit tag).

    ``store_tag`` short-circuits the description — the escape hatch for
    lambdas and closures, which have no run-to-run-stable name; the caller
    then owns uniqueness of the tag per (game family, factory bundle).
    """
    if store_tag is not None:
        return {"store_tag": str(store_tag)}
    return {
        name: (describe(fn) if fn is not None else None)
        for name, fn in factories.items()
    }


def _named_seed_children(
    root: np.random.SeedSequence, name: str, count: int
) -> list[np.random.SeedSequence]:
    """Per-name deterministic seed children, independent of sweep position.

    The family sweeps key their cells by *name*, so the randomness must
    follow the name too — otherwise reordering the families would hand
    every family a different seed and silently invalidate its cached
    cell.  The name is hashed into four ``uint32`` spawn-key words
    appended to the root's spawn key, giving a ``SeedSequence`` child
    that depends only on (master seed, name); its first ``count`` spawned
    children are returned.
    """
    digest = hashlib.sha256(str(name).encode("utf-8")).digest()
    words = tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )
    child = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + words
    )
    return child.spawn(count)


def _root_seed(seed) -> np.random.SeedSequence | None:
    """The sweep's master ``SeedSequence`` (``None`` stays ``None``)."""
    if seed is None or isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _cell_name(store_tag: str | None, label) -> str:
    """Hierarchical cell name: the sweep's ``store_tag``, then the label."""
    return f"{store_tag}::{label}" if store_tag is not None else str(label)


def _as_record(cell: Mapping) -> SweepRecord:
    """Rebuild a :class:`SweepRecord` from a cell's stored dict."""
    return SweepRecord(
        parameter=float(cell["parameter"]),
        mixing_time=float(cell.get("mixing_time", float("nan"))),
        relaxation_time=float(cell.get("relaxation_time", float("nan"))),
        extra=dict(cell.get("extra", {})),
    )


def run_cells(
    kind: str, cells, /, *, seed, executor, store, tracer, **begin
) -> list:
    """Run ``(name, spec, compute)`` cells through the one cell lifecycle.

    ``cells`` is consumed lazily, so a sweep derives each cell's seed and
    spec as it reaches the cell.  ``compute(executor)`` returns the cell's
    result: for a cacheable cell, the record dict the store keeps.  With a
    ``store``, a cell whose ``spec`` is not ``None`` is loaded or computed
    and written at once (a killed sweep resumes from its last completed
    cell), and its ``extra["provenance"]`` says ``"store"`` or
    ``"computed"``; ``spec=None`` marks a cell that is never cached.

    Traces ``{kind}.begin`` (``begin`` plus the ``store``/``sharded``
    flags), one ``{kind}.cell`` per cell (full ``cell`` name,
    ``provenance``, wall-clock ``seconds``) and ``{kind}.end``, with
    ``store.hit``/``store.miss`` counters that agree with
    :func:`~repro.analysis.report.provenance_summary`.
    """
    store = as_store(store, tracer=tracer)
    require_store_seed(store, seed)
    require_executor_seed(executor, seed)
    executor, owned_executor = claim_executor(executor)
    if tracer.enabled:
        tracer.event(
            f"{kind}.begin",
            **begin,
            store=store is not None,
            sharded=executor is not None,
        )
    results = []
    try:
        for name, spec, compute in cells:
            tic = perf_counter() if tracer.enabled else 0.0
            provenance = "computed"
            if store is None or spec is None:
                result = compute(executor)
            else:
                result, cached = store.get_or_compute(spec, lambda: compute(executor))
                provenance = "store" if cached else "computed"
                if tracer.enabled:
                    tracer.count("store.hit" if cached else "store.miss")
                extra = {**result.get("extra", {}), "provenance": provenance}
                result = {**result, "extra": extra}
            results.append(result)
            if tracer.enabled:
                tracer.event(
                    f"{kind}.cell",
                    cell=name,
                    provenance=provenance,
                    seconds=perf_counter() - tic,
                )
        if tracer.enabled:
            tracer.event(f"{kind}.end", cells=len(results))
    finally:
        if owned_executor:
            executor.close()
    return results


def _trace_welfare_curve(
    tracer, family: str, samples: np.ndarray, alpha: float, chunks: int = 12
) -> None:
    """Emit a CS-width-vs-n curve for the welfare samples, trace only.

    The reported welfare interval is a one-shot evaluation over the full
    ensemble; this replays the same samples through a *fresh*
    :class:`~repro.stats.confseq.NormalMixtureCS` in prefix blocks so the
    trace carries a ``driver.convergence`` curve without perturbing the
    reported numbers (the final replayed interval coincides with the
    reported one — the mixture boundary depends only on the pooled
    sufficient statistics).
    """
    if not tracer.enabled:
        return
    samples = np.asarray(samples, dtype=float)
    cs = NormalMixtureCS(alpha=alpha)
    n = 0
    for block in np.array_split(samples, min(chunks, max(samples.size, 1))):
        if block.size == 0:
            continue
        cs.update(block)
        n += block.size
        try:
            lower, upper = (float(bound) for bound in cs.interval())
        except Exception:
            continue
        tracer.event(
            "driver.convergence",
            consumer=f"NormalMixtureCS[welfare:{family}]",
            n=int(n),
            lower=lower,
            upper=upper,
            width=upper - lower,
        )


@dataclass(frozen=True)
class SweepRecord:
    """One point of a sweep: the parameters and the measured quantities."""

    parameter: float
    mixing_time: float
    relaxation_time: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    """A full sweep: records plus the name of the swept parameter."""

    parameter_name: str
    records: tuple[SweepRecord, ...]

    def parameters(self) -> np.ndarray:
        """Swept parameter values, in sweep order."""
        return np.array([r.parameter for r in self.records], dtype=float)

    def mixing_times(self) -> np.ndarray:
        """Measured mixing times, in sweep order."""
        return np.array([r.mixing_time for r in self.records], dtype=float)

    def relaxation_times(self) -> np.ndarray:
        """Measured relaxation times, in sweep order."""
        return np.array([r.relaxation_time for r in self.records], dtype=float)

    def as_rows(self) -> list[list[object]]:
        """Rows suitable for :func:`repro.analysis.report.render_table`."""
        rows: list[list[object]] = []
        for r in self.records:
            row: list[object] = [r.parameter, r.mixing_time, r.relaxation_time]
            row.extend(r.extra.values())
            rows.append(row)
        return rows


def beta_sweep(
    game: Game,
    betas: Sequence[float],
    epsilon: float = 0.25,
    max_time: int = 10**7,
    include_relaxation: bool = True,
    extra: Callable[[Game, float], dict] | None = None,
) -> SweepResult:
    """Measure mixing (and optionally relaxation) time over a grid of betas."""
    records = []
    for beta in betas:
        beta = float(beta)
        mix = measure_mixing_time(game, beta, epsilon=epsilon, max_time=max_time)
        relax = measure_relaxation_time(game, beta) if include_relaxation else float("nan")
        extras = extra(game, beta) if extra is not None else {}
        records.append(
            SweepRecord(
                parameter=beta,
                mixing_time=float(mix.mixing_time),
                relaxation_time=float(relax),
                extra=extras,
            )
        )
    return SweepResult(parameter_name="beta", records=tuple(records))


def ensemble_beta_sweep(
    game: Game,
    betas: Sequence[float],
    num_replicas: int = 1024,
    epsilon: float = 0.25,
    max_time: int = 10**5,
    extra: Callable[[Game, float], dict] | None = None,
    alpha: float | None = None,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    store=None,
    store_tag: str | None = None,
    tracer=None,
) -> SweepResult:
    """Sampled mixing-time sweep via the batched replica ensemble.

    Drop-in companion to :func:`beta_sweep` for games whose profile space is
    beyond the dense/spectral pipeline: each grid point runs
    :func:`~repro.core.mixing.estimate_mixing_time_ensemble` instead of the
    exact computation.  Relaxation times are not available in this regime
    and are reported as NaN; each record's ``extra`` carries the TV value at
    the reported estimate, an explicit ``converged`` flag (grid points that
    never crossed ``epsilon`` report the ``-1`` sentinel as their mixing
    time, not the horizon), and — when ``alpha`` is given — the endpoints
    of the anytime-valid TV sampling band at the stopping checkpoint
    (certified stopping; see
    :func:`~repro.core.mixing.estimate_tv_convergence`).

    ``seed`` makes the whole sweep reproducible (one spawned master-seed
    child per grid point), ``executor``
    runs every grid point on the sharded multi-process TV driver
    (shard-count-invariant results; see
    :func:`~repro.core.mixing.estimate_tv_convergence`), and ``store``
    (an :class:`~repro.parallel.ExperimentStore` or a directory path)
    caches each grid point under a content address of its spec — cells
    already in the store are loaded instead of re-simulated (their
    ``extra`` carries ``provenance = "store"``), so a completed sweep
    re-runs for free and a killed sweep resumes from its last completed
    cell.  ``store`` requires ``seed``.  The game identifies itself in
    the spec by content (``store_spec()``); ``store_tag`` *adds* a
    caller-owned label to the spec and replaces the ``extra`` callable's
    description when it has no stable name (a lambda) — it never
    replaces the game identity, so reusing a tag across games cannot
    collide their caches.

    ``tracer`` (:mod:`repro.obs`) records the sweep's cell lifecycle —
    ``sweep.begin`` / ``sweep.cell`` / ``sweep.end`` events plus
    sweep-level ``store.hit`` / ``store.miss`` counters that agree with
    :func:`~repro.analysis.report.provenance_summary` — and is threaded
    through to the per-cell estimator; tracing never changes the sample
    stream.
    """
    tracer = as_tracer(tracer)
    root = _root_seed(seed)
    betas = [float(beta) for beta in betas]

    def cells():
        for beta in betas:
            cell_seed = root.spawn(1)[0] if root is not None else None
            spec = None if store is None else {
                "sweep": "ensemble_beta_sweep",
                "game": describe(game),
                "tag": store_tag,
                "beta": beta,
                "num_replicas": int(num_replicas),
                "epsilon": float(epsilon),
                "max_time": int(max_time),
                "alpha": alpha,
                "extra": _described_factories(store_tag, extra=extra),
                # serial and sharded runs draw different samples from the
                # same seed (a sharded checkpoint starts a fresh sequential
                # draw block); the contract is part of the cell's identity
                "randomness": "sharded" if executor is not None else "per-replica",
                "seed": describe(cell_seed),
            }
            yield _cell_name(store_tag, beta), spec, partial(measure, beta, cell_seed)

    def measure(beta, cell_seed, executor):
        estimate = estimate_mixing_time_ensemble(
            game,
            beta,
            num_replicas=num_replicas,
            epsilon=epsilon,
            max_time=max_time,
            alpha=alpha,
            executor=executor,
            seed=cell_seed,
            tracer=tracer,
        )
        extras = {
            "tv_at_estimate": float(estimate.tv_curve[-1, 1]),
            "capped": estimate.capped,
            "converged": estimate.converged,
        }
        if estimate.tv_band is not None:
            extras["tv_lower"] = float(estimate.tv_band[-1, 0])
            extras["tv_upper"] = float(estimate.tv_band[-1, 1])
        if extra is not None:
            extras.update(extra(game, beta))
        return {
            "parameter": beta,
            "mixing_time": float(estimate.mixing_time_estimate),
            "relaxation_time": float("nan"),
            "extra": extras,
        }

    records = run_cells(
        "sweep", cells(), seed=seed, executor=executor, store=store,
        tracer=tracer, sweep="ensemble_beta_sweep", cells=len(betas),
    )
    return SweepResult(parameter_name="beta", records=tuple(map(_as_record, records)))


def dynamics_family_sweep(
    game: Game,
    dynamics_factories: Mapping[str, Callable[[Game], object]]
    | Sequence[tuple[str, Callable[[Game], object]]],
    reference: np.ndarray | None = None,
    num_replicas: int = 1024,
    epsilon: float = 0.25,
    max_time: int = 10**4,
    check_every: int | None = None,
    start: Sequence[int] | int | None = None,
    escape_states: Sequence[int] | np.ndarray | None = None,
    max_escape_steps: int = 10**5,
    welfare_alpha: float = 0.05,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    store=None,
    store_tag: str | None = None,
    tail_q: float | None = None,
    tracer=None,
) -> SweepResult:
    """Compare dynamics families on one game via the batched engine.

    The sweep axis is a *dynamics factory*: each entry maps the game to a
    dynamics object exposing ``ensemble`` — the standard
    :class:`~repro.core.LogitDynamics` or any Section 6 variant (parallel,
    best response, annealed schedules, round-robin), at any ``beta`` or
    ``beta_t`` schedule.  For every family the sweep measures, on one
    engine-backed replica ensemble each:

    * the time for the ensemble's empirical distribution to come within
      ``epsilon`` TV of ``reference`` (per family when ``reference`` is
      ``None``: the family's own ``stationary_distribution()``; pass the
      Gibbs measure explicitly to diagnose *which* families do **not**
      converge to Gibbs — e.g. the parallel trap), reported as the record's
      ``mixing_time``;
    * when ``escape_states`` is given, the empirical escape time from that
      well (mean over escaped replicas, plus the escaped fraction), which
      is the metastability comparison across families.

    Every record's ``extra`` also carries ``welfare_lower`` /
    ``welfare_upper`` — a level-``welfare_alpha`` confidence interval for
    the settled ensemble's mean welfare (CLT-style normal-mixture
    boundary) — and an explicit ``converged`` flag next to the legacy
    ``capped`` one, so the sweep tables render error bars and
    non-convergence honestly.

    Records carry ``parameter = position in the sweep`` and the family name
    in ``extra["dynamics"]``; non-convergent families come back with
    ``extra["capped"] = True`` rather than an error (a best-response chain
    pinned at a Nash equilibrium is a result, not a failure).  Annealed
    families with a finite schedule are clamped to their horizon by the
    estimator and the engine's first-passage machinery, so running out of
    schedule is likewise reported as ``capped``, not raised.

    ``seed`` makes the sweep reproducible — every family gets its own
    spawned master-seed children (one for the TV measurement, one for the
    escape ensemble, whose replicas draw their uniform start in the well
    from their own streams).  ``executor`` runs each family's TV
    measurement on the sharded multi-process driver (see
    :func:`~repro.core.mixing.estimate_tv_convergence`).  ``store`` caches
    each family's cell under a content address of (game, family *name*,
    parameters, seed): the name — the mapping key — identifies the
    factory in the spec, so renaming a family recomputes it while
    reordering families does not.  ``store`` requires ``seed``.  The game
    identifies itself by content (``store_spec()``); ``store_tag`` *adds*
    a caller-owned label to every cell spec (useful to disambiguate games
    without a ``store_spec``) — it never replaces the game identity.

    ``tail_q`` (requires ``escape_states``) adds a certified quantile of
    the horizon-truncated escape time per family: a
    :class:`~repro.stats.quantile.QuantileCS` evaluated once over the
    fixed escape ensemble (one-shot use of the time-uniform boundary —
    conservative, never invalid, same caveat as the welfare interval),
    reported in ``extra`` as ``escape_quantile_q`` /
    ``escape_quantile`` / ``escape_quantile_lower`` /
    ``escape_quantile_upper``.

    ``tracer`` (:mod:`repro.obs`) records the sweep's cell lifecycle —
    ``sweep.begin`` / ``sweep.cell`` / ``sweep.end`` events plus
    sweep-level ``store.hit`` / ``store.miss`` counters that agree with
    :func:`~repro.analysis.report.provenance_summary` — threads through
    to the TV estimator and the escape ensemble, and replays each
    family's welfare samples as a ``driver.convergence`` CS-width curve.
    Tracing never changes the sample stream: traced and untraced runs of
    the same seed produce bit-for-bit identical records.
    """
    if tail_q is not None and escape_states is None:
        raise ValueError(
            "tail_q certifies a quantile of the escape time; pass "
            "escape_states to say which well the escapes are measured from"
        )
    if isinstance(dynamics_factories, Mapping):
        entries = list(dynamics_factories.items())
    else:
        entries = list(dynamics_factories)
    if not entries:
        raise ValueError("need at least one dynamics factory to sweep")
    tracer = as_tracer(tracer)
    root = _root_seed(seed)

    def cells():
        for position, (name, factory) in enumerate(entries):
            tv_seed, escape_seed = (
                _named_seed_children(root, name, 2)
                if root is not None
                else (None, None)
            )
            spec = None if store is None else {
                "sweep": "dynamics_family_sweep",
                "game": describe(game),
                "tag": store_tag,
                "family": str(name),
                "reference": describe(
                    None if reference is None else np.asarray(reference, dtype=float)
                ),
                "num_replicas": int(num_replicas),
                "epsilon": float(epsilon),
                "max_time": int(max_time),
                "check_every": check_every,
                "start": describe(start),
                "escape_states": describe(
                    None
                    if escape_states is None
                    else np.asarray(escape_states, dtype=np.int64)
                ),
                "max_escape_steps": int(max_escape_steps),
                "welfare_alpha": float(welfare_alpha),
                # serial and sharded TV drivers draw different samples
                # from the same seed; the contract is part of the spec
                "randomness": "sharded" if executor is not None else "per-replica",
                "seed": [describe(tv_seed), describe(escape_seed)],
                # the escape ensemble draws its uniform starts from the
                # replicas' own streams; the field joins the spec only for
                # cells with escapes, so the others keep their addresses
                **(
                    {}
                    if escape_states is None
                    else {"escape_randomness": "per-replica"}
                ),
                # joins the spec only when set — pre-tail cells keep their
                # content addresses
                **({} if tail_q is None else {"tail_q": float(tail_q)}),
            }
            yield _cell_name(store_tag, name), spec, partial(
                measure, position, name, factory, tv_seed, escape_seed
            )

    def measure(position, name, factory, tv_seed, escape_seed, executor):
        dynamics = factory(game)
        if reference is None:
            if not hasattr(dynamics, "stationary_distribution"):
                raise ValueError(
                    f"dynamics family {name!r} exposes no stationary_"
                    f"distribution(); pass an explicit reference distribution"
                )
            target = np.asarray(dynamics.stationary_distribution(), dtype=float)
        else:
            target = np.asarray(reference, dtype=float)
        estimate = estimate_tv_convergence(
            dynamics,
            target,
            num_replicas=num_replicas,
            epsilon=epsilon,
            start=start,
            max_time=max_time,
            check_every=check_every,
            executor=executor,
            seed=tv_seed,
            tracer=tracer,
        )
        # utilitarian welfare of the settled ensemble: one batched
        # all-player utility gather over the final replica states, with a
        # CLT-style confidence interval for the mean (one-shot evaluation
        # of the time-uniform boundary — conservative, never invalid)
        welfare_samples = game.utility_profile_many(
            estimate.final_indices
        ).sum(axis=1)
        welfare_cs = NormalMixtureCS(alpha=welfare_alpha)
        welfare_cs.update(welfare_samples)
        welfare_lower, welfare_upper = welfare_cs.interval()
        _trace_welfare_curve(tracer, str(name), welfare_samples, welfare_alpha)
        extras: dict = {
            "dynamics": name,
            "tv_at_estimate": float(estimate.tv_curve[-1, 1]),
            "capped": estimate.capped,
            "converged": estimate.converged,
            "mean_welfare": float(welfare_samples.mean()),
            "welfare_lower": float(welfare_lower),
            "welfare_upper": float(welfare_upper),
        }
        if escape_states is not None:
            well = np.unique(np.asarray(escape_states, dtype=np.int64))
            uniform = np.full(well.size, 1.0 / well.size)
            times = TruncatedGibbsEscapeSampler(
                dynamics, well, uniform, max_escape_steps
            ).first_passage(replica_seeds(escape_seed, num_replicas), tracer)
            escaped = times[times >= 0]
            extras["escape_fraction"] = float(escaped.size / times.size)
            extras["mean_escape_time"] = (
                float(escaped.mean()) if escaped.size else float("nan")
            )
            if tail_q is not None:
                # quantile of the *truncated* escape time min(tau, horizon):
                # one-shot evaluation of the time-uniform quantile CS over
                # the fixed ensemble (conservative, never invalid)
                truncated = np.where(
                    times < 0, max_escape_steps, times
                ).astype(float)
                tail_cs = QuantileCS(
                    float(tail_q),
                    alpha=welfare_alpha,
                    support=(0.0, float(max_escape_steps)),
                )
                tail_cs.update(truncated)
                tail = tail_cs.result()
                extras["escape_quantile_q"] = float(tail.q)
                extras["escape_quantile"] = float(tail.estimate)
                extras["escape_quantile_lower"] = float(tail.lower)
                extras["escape_quantile_upper"] = float(tail.upper)
        return {
            "parameter": float(position),
            "mixing_time": float(estimate.mixing_time_estimate),
            "relaxation_time": float("nan"),
            "extra": extras,
        }

    records = run_cells(
        "sweep", cells(), seed=seed, executor=executor, store=store,
        tracer=tracer, sweep="dynamics_family_sweep", cells=len(entries),
    )
    # parameter is the *current* position in the sweep order, not whatever
    # position a stored cell was computed at
    records = [replace(_as_record(r), parameter=float(i)) for i, r in enumerate(records)]
    return SweepResult(parameter_name="dynamics_family", records=tuple(records))


def size_sweep(
    game_factory: Callable[[int], Game],
    sizes: Sequence[int],
    beta: float,
    epsilon: float = 0.25,
    max_time: int = 10**7,
    include_relaxation: bool = True,
    extra: Callable[[Game, int], dict] | None = None,
) -> SweepResult:
    """Measure mixing time of ``game_factory(n)`` over a grid of sizes ``n``."""
    records = []
    for n in sizes:
        game = game_factory(int(n))
        mix = measure_mixing_time(game, beta, epsilon=epsilon, max_time=max_time)
        relax = measure_relaxation_time(game, beta) if include_relaxation else float("nan")
        extras = extra(game, int(n)) if extra is not None else {}
        records.append(
            SweepRecord(
                parameter=float(n),
                mixing_time=float(mix.mixing_time),
                relaxation_time=float(relax),
                extra=extras,
            )
        )
    return SweepResult(parameter_name="n", records=tuple(records))


def hitting_time_size_sweep(
    game_factory: Callable[[int], Game],
    sizes: Sequence[int],
    beta: float,
    start_factory: Callable[[Game], np.ndarray],
    target_factory: Callable[[Game], Callable[[np.ndarray], np.ndarray]],
    num_replicas: int = 64,
    max_steps: int = 10**5,
    dynamics_factory: Callable[[Game, float], object] | None = None,
    precision: float | None = None,
    alpha: float = 0.05,
    seed: int | np.random.SeedSequence | None = None,
    chunk_size: int = 64,
    max_replicas: int = 4096,
    executor=None,
    store=None,
    store_tag: str | None = None,
    q: float | None = None,
    precision_quantile: float | None = None,
    tracer=None,
) -> SweepResult:
    """Monte-Carlo hitting-time scaling over system size, fully index-free.

    The size-scaling companion of :func:`size_sweep` for the regime where
    neither the dense pipeline nor profile indices exist: each grid point
    builds ``game_factory(n)`` (typically a
    :class:`~repro.games.local.LocalInteractionGame` on an ``n``-node
    graph), starts ``num_replicas`` engine replicas at
    ``start_factory(game)`` (an ``(n,)`` or ``(R, n)`` profile array) and
    measures first-hitting times of the *profile predicate* returned by
    ``target_factory(game)`` — e.g. a magnetization threshold.  Because
    targets are predicates and the engine auto-selects the matrix state
    backend past int64, the sweep runs unchanged from ``n = 10`` to
    ``n = 1000+``.

    Records carry ``parameter = n``; the hitting statistics live in
    ``extra`` (``mean_hitting_time`` over reached replicas,
    ``median_hitting_time``, ``reached_fraction``), and the mixing /
    relaxation columns are NaN (they are not measured here).  Replicas
    that never reach the target within ``max_steps`` are excluded from the
    mean — a ``reached_fraction`` well below 1 flags that the estimate is
    censored.

    ``precision`` switches every grid point to the adaptive chunked
    estimator (:func:`~repro.core.metastability.empirical_hitting_times`
    with ``precision=``): per size, replica chunks keep coming until the
    anytime-valid interval for the truncated mean ``E[min(tau,
    max_steps)]`` is at most ``precision * max_steps`` wide, and the
    ``extra`` dict instead carries the interval (``mean_hitting_time``,
    ``hitting_lower``, ``hitting_upper``), the replica count the point
    actually needed (``num_replicas_used``) and ``stopped_early``; instead
    of the legacy ``reached_fraction`` it reports ``truncated_fraction``
    — the fraction of samples clamped at the horizon, under whose
    convention a replica hitting exactly *at* ``max_steps`` is
    indistinguishable from a censored one (their contribution to the
    truncated mean is identical).  Grid points are seeded from one master
    ``seed`` (a spawned child per size, in both modes), so the whole sweep
    is reproducible end to end.

    ``executor`` (adaptive mode only) shards every grid point's replica
    chunks across processes via :class:`repro.parallel.ShardedExecutor`;
    pooled samples per cell are bit-for-bit identical to the serial run
    for any shard count.  ``store`` (an
    :class:`~repro.parallel.ExperimentStore` or directory path; adaptive
    mode with an explicit ``seed`` only) caches every grid point under a
    content address of its spec: cells found in the store are loaded with
    zero ensemble steps (``extra["provenance"] = "store"``) and cells are
    written the moment they complete, so a killed sweep resumes from its
    last completed cell.  The spec names the factories by
    ``module.qualname``; for lambdas pass ``store_tag=`` — a caller-owned
    stable name for the (game, start, target, dynamics) factory bundle.

    ``q`` / ``precision_quantile`` (adaptive mode only; fractions of
    ``max_steps``, like ``precision``) certify — and, with
    ``precision_quantile``, stop on — a quantile of the truncated hitting
    time per grid point, on the same sample stream as the mean; the
    ``extra`` dict then also carries ``quantile_q``, ``quantile_estimate``,
    ``quantile_lower`` and ``quantile_upper``.

    ``tracer`` (:mod:`repro.obs`) records the sweep's cell lifecycle —
    ``sweep.begin`` / ``sweep.cell`` / ``sweep.end`` events plus
    sweep-level ``store.hit`` / ``store.miss`` counters that agree with
    :func:`~repro.analysis.report.provenance_summary` — and threads
    through to the adaptive estimator's sample driver; tracing never
    changes the sample stream.
    """
    tracer = as_tracer(tracer)
    if q is None and precision_quantile is not None:
        raise ValueError(
            "precision_quantile= sets the tail interval's target width; pass "
            "q= (the quantile level, e.g. 0.99) to say which quantile to "
            "certify"
        )
    if q is not None and precision is None:
        raise ValueError(
            "the sweep's tail columns ride the adaptive estimator; pass "
            "precision= (and seed=) together with q="
        )
    if store is not None and precision is None:
        raise ValueError(
            "store= caches adaptive (precision=) cells; the fixed-replica "
            "path is not cached — pass precision= (and seed=)"
        )
    reject_executor_without_precision(
        precision, executor, fixed_path="runs one in-process ensemble per size"
    )
    sizes = [int(n) for n in sizes]
    # cells are always seeded: fresh entropy when seed is None
    root = _root_seed(seed) if seed is not None else np.random.SeedSequence()

    def cells():
        for n in sizes:
            # spawned unconditionally — cache hits must not shift the
            # seeds of the cells that still need computing
            cell_seed = root.spawn(1)[0]
            # store= implies precision=: only adaptive cells are cached
            spec = None if store is None else {
                "sweep": "hitting_time_size_sweep",
                "factories": _described_factories(
                    store_tag,
                    game_factory=game_factory,
                    start_factory=start_factory,
                    target_factory=target_factory,
                    dynamics_factory=dynamics_factory,
                ),
                "n": int(n),
                "beta": float(beta),
                "max_steps": int(max_steps),
                "precision": float(precision),
                "alpha": float(alpha),
                "chunk_size": int(chunk_size),
                "max_replicas": int(max_replicas),
                "seed": describe(cell_seed),
                # tail knobs join the spec only when set, so pre-tail
                # cells keep their content addresses (cache stability)
                **({} if q is None else {"q": float(q)}),
                **(
                    {}
                    if precision_quantile is None
                    else {"precision_quantile": float(precision_quantile)}
                ),
            }
            yield _cell_name(store_tag, n), spec, partial(measure, n, cell_seed)

    def measure(n, cell_seed, executor):
        game = game_factory(n)
        if dynamics_factory is None:
            from ..core.logit import LogitDynamics

            dynamics = LogitDynamics(game, float(beta))
        else:
            dynamics = dynamics_factory(game, float(beta))
        if precision is None:
            sim = dynamics.ensemble(
                num_replicas,
                start=np.asarray(start_factory(game)),
                seed=cell_seed,
                tracer=tracer,
            )
            times = sim.hitting_times(target_factory(game), max_steps=max_steps)
            reached = times[times >= 0]
            extras = {
                "mean_hitting_time": (
                    float(reached.mean()) if reached.size else float("nan")
                ),
                "median_hitting_time": (
                    float(np.median(reached)) if reached.size else float("nan")
                ),
                "reached_fraction": float(reached.size / times.size),
            }
        else:
            from ..core.metastability import empirical_hitting_times

            estimate = empirical_hitting_times(
                game,
                float(beta),
                np.asarray(start_factory(game)),
                target_factory(game),
                max_steps=max_steps,
                dynamics=dynamics,
                precision=precision,
                alpha=alpha,
                chunk_size=chunk_size,
                max_replicas=max_replicas,
                seed=cell_seed,
                keep_samples=True,
                executor=executor,
                q=q,
                precision_quantile=precision_quantile,
                tracer=tracer,
            )
            times = estimate.samples
            extras = {
                "mean_hitting_time": float(estimate.estimate),
                "hitting_lower": float(estimate.lower),
                "hitting_upper": float(estimate.upper),
                "num_replicas_used": int(estimate.n),
                "stopped_early": bool(estimate.stopped_early),
                "truncated_fraction": float(
                    np.count_nonzero(times >= max_steps) / times.size
                ),
            }
            if estimate.quantile is not None:
                extras["quantile_q"] = float(estimate.quantile.q)
                extras["quantile_estimate"] = float(estimate.quantile.estimate)
                extras["quantile_lower"] = float(estimate.quantile.lower)
                extras["quantile_upper"] = float(estimate.quantile.upper)
        return {
            "parameter": float(n),
            "mixing_time": float("nan"),
            "relaxation_time": float("nan"),
            "extra": extras,
        }

    records = run_cells(
        "sweep", cells(), seed=seed, executor=executor, store=store,
        tracer=tracer, sweep="hitting_time_size_sweep", cells=len(sizes),
    )
    return SweepResult(parameter_name="n", records=tuple(map(_as_record, records)))


def exponential_growth_rate(parameters: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of ``log(values)`` against ``parameters``.

    For a quantity growing like ``C * exp(rate * p)`` this recovers
    ``rate``; the benchmarks compare the fitted rate against the paper's
    predicted exponent (``DeltaPhi`` for Theorem 3.4/3.5, ``zeta`` for
    Theorem 3.8/3.9, ``2 delta`` for the ring).  Non-positive values are
    rejected because they have no logarithm.
    """
    p = np.asarray(parameters, dtype=float)
    v = np.asarray(values, dtype=float)
    if p.shape != v.shape or p.ndim != 1:
        raise ValueError("parameters and values must be 1-D arrays of equal length")
    if p.size < 2:
        raise ValueError("need at least two points to fit a growth rate")
    if np.any(v <= 0):
        raise ValueError("values must be positive to fit an exponential growth rate")
    slope, _intercept = np.polyfit(p, np.log(v), deg=1)
    return float(slope)
