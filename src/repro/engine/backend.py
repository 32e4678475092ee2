"""Pluggable array/compute backends for the engine's per-step hot path.

The matrix-state fast path of the engine spends essentially all of its time
in one shape of work per step: gather the neighbor strategies of each
replica's mover (CSR adjacency), compute the mover's ``m`` deviation
utilities, softmax them in log space, and map one uniform through the
row-wise inverse CDF.  Pure vectorised numpy executes that as a pipeline of
temporaries sized by the movers' total degree — correct, and 55-104x over
scalar loops, but memory traffic on the temporaries dominates once the
graphs reach 10^5 .. 10^6 players.

This module factors the choice of *how* that pipeline executes behind a
small backend namespace:

* :class:`NumpyBackend` (``backend="numpy"``, the default) — no fused
  kernels: the simulator keeps using the existing vectorised numpy path,
  bit-for-bit identical to the pre-backend engine under fixed seeds.
* :class:`NumbaBackend` (``backend="numba"``) — compiles one fused
  per-step kernel (gather -> deviation utilities -> log-space softmax ->
  inverse-CDF sample -> in-place strategy write) over the ``(R, n)``
  strategy rows with :func:`numba.njit`, eliminating every intermediate
  array.  Kernels are compiled lazily on first use and cached on disk, and
  are only offered for (game, rule) pairs that can be fused: games exposing
  CSR local structure (:meth:`repro.games.local.LocalInteractionGame.
  csr_arrays`) under softmax move rules (``rule.softmax_rule``).  For
  every other combination the backend silently behaves like numpy.

Selection is by name through :func:`resolve_backend` (``"numpy"``,
``"numba"``, ``"auto"``); when numba is not installed, ``"numba"`` degrades
gracefully to the numpy backend with a one-line warning (``"auto"`` picks
numpy silently).  See ``docs/ARCHITECTURE.md`` for which guarantees are
bit-for-bit and which are statistical.

Float-identity contract: the fused kernels replay the numpy reference ops
in the same order — per-strategy payoff sums accumulate sequentially over
the CSR neighbor order (the numpy path reduces over a non-contiguous axis,
which numpy also accumulates sequentially), the external field is added
once after the payoff sum, and softmax/inverse-CDF mirror
:func:`repro.core.logit.logit_update_distribution` +
:func:`repro.engine.sampling.sample_from_cumulative` term by term.  The
remaining differences are ULP-level (``exp`` implementations, numpy's
pairwise summation once a row exceeds 8 terms), so trajectories agree
bit-for-bit on small-degree graphs with m <= 8 in practice, and the
compiled backend is certified *statistically* on large ones
(``tests/test_backend_equivalence.py``).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "NumbaBackend",
    "resolve_backend",
    "numba_available",
]

_UNSET = object()
#: cached numba module (``_UNSET`` = import not attempted yet, ``None`` =
#: attempted and failed) — tests monkeypatch this to simulate absence
_NUMBA = _UNSET
#: one-line fallback warning fires once per process, not per simulator
_warned_numba_fallback = False
#: lazily compiled fused kernels (shared by every NumbaBackend instance)
_KERNELS: dict | None = None


def _numba_module():
    global _NUMBA
    if _NUMBA is _UNSET:
        try:
            import numba  # type: ignore[import-not-found]

            _NUMBA = numba
        except Exception:
            _NUMBA = None
    return _NUMBA


def numba_available() -> bool:
    """Whether the numba JIT compiler is importable in this environment."""
    return _numba_module() is not None


class ArrayBackend:
    """How the engine executes its per-step hot path.

    A backend may offer *fused steppers* for a (game, rule) pair: callables
    that advance a batch of replicas through gather -> deviation utilities
    -> softmax -> inverse-CDF sample -> strategy write in one call,
    operating in place on the live ``(R, n)`` strategy matrix.  Returning
    ``None`` from the ``fused_*`` factories means "no acceleration for this
    combination" and the simulator falls back to the generic vectorised
    numpy path — so a backend only ever *adds* capability, never changes
    which dynamics are simulable.
    """

    name = "abstract"

    def can_fuse(self, game, rule) -> bool:
        """Whether this backend offers fused kernels for (game, rule)."""
        return False

    def fused_rowwise_stepper(self, game, rule):
        """Fused sequential-type stepper, or ``None``.

        The stepper signature is ``stepper(matrix, rows, players, uniforms,
        beta)``: replica row ``rows[j]`` of ``matrix`` has its player
        ``players[j]`` resample from the softmax at inverse noise ``beta``
        using ``uniforms[j]``, in place.
        """
        return None

    def fused_parallel_stepper(self, game, rule):
        """Fused all-players-at-once stepper, or ``None``.

        The stepper signature is ``stepper(matrix, rows, old, uniforms,
        beta)``: every player of replica row ``rows[j]`` resamples against
        the pre-step profile ``old[j]`` using ``uniforms[j, player]`` (the
        same ``(k, n)`` uniform block, in player order, that the numpy
        :class:`~repro.engine.kernels.ParallelKernel` consumes).
        """
        return None

    def fused_probabilistic_stepper(self, game, rule):
        """Fused probabilistic-schedule stepper, or ``None``.

        The stepper signature is ``stepper(matrix, rows, old, mask,
        uniforms, beta)``: player ``i`` of replica row ``rows[j]``
        resamples against the pre-step profile ``old[j]`` using
        ``uniforms[j, i]`` iff ``mask[j, i]``, and keeps ``old[j, i]``
        otherwise — the masked variant of the parallel stepper the
        :class:`~repro.engine.kernels.ProbabilisticKernel` consumes
        (masked-out players' uniforms are drawn by the kernel but unused,
        so the stream is mask-independent).
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(ArrayBackend):
    """The default backend: the existing vectorised numpy hot path.

    Offers no fused kernels, so the simulator's stepping code is exactly
    the pre-backend engine — bit-for-bit identical trajectories under
    fixed seeds (pinned by the loop-vs-engine regression tests).
    """

    name = "numpy"


def _fusable(game, rule) -> bool:
    """Fused kernels exist for CSR-structured games under softmax rules."""
    return bool(getattr(rule, "softmax_rule", False)) and callable(
        getattr(game, "csr_arrays", None)
    )


class NumbaBackend(ArrayBackend):
    """JIT backend: one compiled kernel per step, no intermediate arrays.

    Only constructed when numba imports (see :func:`resolve_backend`).
    Kernels compile lazily on the first fused step (with ``cache=True``,
    so repeat processes pay no compile time) and parallelise over replicas
    with ``prange``.
    """

    name = "numba"

    def can_fuse(self, game, rule) -> bool:
        return _fusable(game, rule)

    def fused_rowwise_stepper(self, game, rule):
        if not self.can_fuse(game, rule):
            return None
        offsets, nbr, nbr_edge, payoffs, field = game.csr_arrays()
        m = int(payoffs.shape[1])
        scratch: dict = {"k": -1, "util": None}

        def stepper(matrix, rows, players, uniforms, beta):
            k = rows.shape[0]
            if scratch["k"] != k:
                scratch["k"] = k
                scratch["util"] = np.empty((k, m), dtype=np.float64)
            _kernels()["rowwise"](
                matrix,
                rows,
                players,
                uniforms,
                float(beta),
                offsets,
                nbr,
                nbr_edge,
                payoffs,
                field,
                scratch["util"],
            )

        return stepper

    def fused_parallel_stepper(self, game, rule):
        if not self.can_fuse(game, rule):
            return None
        offsets, nbr, nbr_edge, payoffs, field = game.csr_arrays()
        m = int(payoffs.shape[1])
        scratch: dict = {"k": -1, "util": None}

        def stepper(matrix, rows, old, uniforms, beta):
            k = rows.shape[0]
            if scratch["k"] != k:
                scratch["k"] = k
                scratch["util"] = np.empty((k, m), dtype=np.float64)
            _kernels()["parallel"](
                matrix,
                rows,
                old,
                uniforms,
                float(beta),
                offsets,
                nbr,
                nbr_edge,
                payoffs,
                field,
                scratch["util"],
            )

        return stepper

    def fused_probabilistic_stepper(self, game, rule):
        if not self.can_fuse(game, rule):
            return None
        offsets, nbr, nbr_edge, payoffs, field = game.csr_arrays()
        m = int(payoffs.shape[1])
        scratch: dict = {"k": -1, "util": None}

        def stepper(matrix, rows, old, mask, uniforms, beta):
            k = rows.shape[0]
            if scratch["k"] != k:
                scratch["k"] = k
                scratch["util"] = np.empty((k, m), dtype=np.float64)
            _kernels()["probabilistic"](
                matrix,
                rows,
                old,
                mask,
                uniforms,
                float(beta),
                offsets,
                nbr,
                nbr_edge,
                payoffs,
                field,
                scratch["util"],
            )

        return stepper


def _kernels() -> dict:
    """Compile (once) and return the fused numba kernels."""
    global _KERNELS
    if _KERNELS is not None:
        return _KERNELS
    numba = _numba_module()
    if numba is None:  # pragma: no cover - steppers only exist with numba
        raise RuntimeError("numba kernels requested but numba is not importable")
    njit = numba.njit
    prange = numba.prange

    @njit(cache=True, parallel=True)
    def fused_rowwise(
        matrix, rows, players, uniforms, beta, offsets, nbr, nbr_edge, payoffs, field, util
    ):  # pragma: no cover - compiled
        k = rows.shape[0]
        m = payoffs.shape[1]
        for j in prange(k):
            r = rows[j]
            i = players[j]
            lo = offsets[i]
            hi = offsets[i + 1]
            # deviation utilities: sequential CSR accumulation per strategy
            # (same summation order as the numpy reference path)
            for s in range(m):
                util[j, s] = 0.0
            for d in range(lo, hi):
                e = nbr_edge[d]
                t = matrix[r, nbr[d]]
                for s in range(m):
                    util[j, s] += payoffs[e, s, t]
            # max-shifted softmax in log space, mirroring
            # logit_update_distribution term by term
            mx = -np.inf
            for s in range(m):
                v = beta * (util[j, s] + field[i, s])
                util[j, s] = v
                if v > mx:
                    mx = v
            total = 0.0
            for s in range(m):
                w = math.exp(util[j, s] - mx)
                util[j, s] = w
                total += w
            # inverse CDF: smallest s with cumulative > u, clamped to m-1
            u = uniforms[j]
            choice = m - 1
            c = 0.0
            for s in range(m - 1):
                c += util[j, s] / total
                if c > u:
                    choice = s
                    break
            matrix[r, i] = choice

    @njit(cache=True, parallel=True)
    def fused_parallel(
        matrix, rows, old, uniforms, beta, offsets, nbr, nbr_edge, payoffs, field, util
    ):  # pragma: no cover - compiled
        k = rows.shape[0]
        n = matrix.shape[1]
        m = payoffs.shape[1]
        for j in prange(k):
            r = rows[j]
            for i in range(n):
                lo = offsets[i]
                hi = offsets[i + 1]
                for s in range(m):
                    util[j, s] = 0.0
                for d in range(lo, hi):
                    e = nbr_edge[d]
                    t = old[j, nbr[d]]
                    for s in range(m):
                        util[j, s] += payoffs[e, s, t]
                mx = -np.inf
                for s in range(m):
                    v = beta * (util[j, s] + field[i, s])
                    util[j, s] = v
                    if v > mx:
                        mx = v
                total = 0.0
                for s in range(m):
                    w = math.exp(util[j, s] - mx)
                    util[j, s] = w
                    total += w
                u = uniforms[j, i]
                choice = m - 1
                c = 0.0
                for s in range(m - 1):
                    c += util[j, s] / total
                    if c > u:
                        choice = s
                        break
                matrix[r, i] = choice

    @njit(cache=True, parallel=True)
    def fused_probabilistic(
        matrix, rows, old, mask, uniforms, beta, offsets, nbr, nbr_edge, payoffs, field, util
    ):  # pragma: no cover - compiled
        k = rows.shape[0]
        n = matrix.shape[1]
        m = payoffs.shape[1]
        for j in prange(k):
            r = rows[j]
            for i in range(n):
                if not mask[j, i]:
                    matrix[r, i] = old[j, i]
                    continue
                lo = offsets[i]
                hi = offsets[i + 1]
                for s in range(m):
                    util[j, s] = 0.0
                for d in range(lo, hi):
                    e = nbr_edge[d]
                    t = old[j, nbr[d]]
                    for s in range(m):
                        util[j, s] += payoffs[e, s, t]
                mx = -np.inf
                for s in range(m):
                    v = beta * (util[j, s] + field[i, s])
                    util[j, s] = v
                    if v > mx:
                        mx = v
                total = 0.0
                for s in range(m):
                    w = math.exp(util[j, s] - mx)
                    util[j, s] = w
                    total += w
                u = uniforms[j, i]
                choice = m - 1
                c = 0.0
                for s in range(m - 1):
                    c += util[j, s] / total
                    if c > u:
                        choice = s
                        break
                matrix[r, i] = choice

    _KERNELS = {
        "rowwise": fused_rowwise,
        "parallel": fused_parallel,
        "probabilistic": fused_probabilistic,
    }
    return _KERNELS


_NUMPY_BACKEND = NumpyBackend()
_NUMBA_BACKEND: NumbaBackend | None = None


_FALLBACK_EVENT_RUNS: set = set()


def _record_numba_fallback(tracer) -> None:
    """Warn once per process and emit one structured event per traced run.

    Headless runs routinely swallow ``RuntimeWarning``; the
    ``engine.backend_fallback`` trace event makes the degradation durable.
    The event fires at most once per (process, run id) so a sharded run
    that resolves the backend in the coordinator records exactly one.
    """
    global _warned_numba_fallback
    if not _warned_numba_fallback:
        warnings.warn(
            "backend='numba' requested but numba is not installed — "
            "falling back to the numpy backend (same dynamics, no fused "
            "kernels)",
            RuntimeWarning,
            stacklevel=3,
        )
        _warned_numba_fallback = True
    if tracer is None or not getattr(tracer, "enabled", False):
        from ..obs import get_global_tracer

        tracer = get_global_tracer()
    if not tracer.enabled or tracer.run_id in _FALLBACK_EVENT_RUNS:
        return
    _FALLBACK_EVENT_RUNS.add(tracer.run_id)
    tracer.event(
        "engine.backend_fallback",
        backend="numba",
        reason="numba is not importable in this environment",
        fallback="numpy",
    )


def resolve_backend(
    backend: str | ArrayBackend | None, tracer=None
) -> ArrayBackend:
    """Resolve a ``backend=`` knob value to an :class:`ArrayBackend`.

    ``"numpy"`` (or ``None``) is the default vectorised path; ``"numba"``
    returns the JIT backend, degrading gracefully — with a one-line
    warning, once per process, plus a structured
    ``engine.backend_fallback`` event on ``tracer`` (or the global tracer)
    once per traced run — to numpy when numba is not installed; ``"auto"``
    silently picks numba when available and numpy otherwise.  An
    :class:`ArrayBackend` instance passes through unchanged.
    """
    global _NUMBA_BACKEND
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None or backend == "numpy":
        return _NUMPY_BACKEND
    if backend in ("numba", "auto"):
        if numba_available():
            if _NUMBA_BACKEND is None:
                _NUMBA_BACKEND = NumbaBackend()
            return _NUMBA_BACKEND
        if backend == "numba":
            _record_numba_fallback(tracer)
        return _NUMPY_BACKEND
    raise ValueError(
        f"unknown array backend {backend!r}; available backends: "
        f"'numpy' (default), 'numba' (JIT-fused step kernels), 'auto'"
    )
