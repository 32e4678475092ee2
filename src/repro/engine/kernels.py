"""Pluggable update-rule kernels for the batched simulation engine.

The paper's standard logit dynamics and all of its Section 6 variants share
one shape: at every step some player (or set of players) revises her
strategy by drawing from a per-player move distribution.  A *kernel*
captures exactly that decomposition so the engine can advance ``R``
replicas of *any* of the variants with the same vectorised machinery:

* the **kernel** decides *who moves* at each step (a uniformly random
  player, every player at once, the next player in a cyclic order, ...) and
  *how the randomness is consumed*;
* the **rule** decides *how a mover picks her new strategy*: any object
  exposing ``game`` and ``update_distribution_many(player, profile_indices)
  -> (k, m_player)`` probability rows (plus ``player_update_matrix(player)``
  for the engine's gather mode, and ``update_distribution_profiles(player,
  profiles)`` for the matrix state backend, which hands the rule ``(k, n)``
  strategy rows instead of indices).  :class:`~repro.core.logit.LogitDynamics`
  and :class:`~repro.core.variants.BestResponseDynamics` are both rules —
  the best-response chain is just the sequential kernel under a different
  rule, which is the beta -> infinity limit the paper contrasts against.

Kernel contract
---------------
A kernel subclasses :class:`UpdateKernel` and implements:

``step(sim, where=None)``
    Advance the selected replicas of ``sim`` (an
    :class:`~repro.engine.ensemble.EnsembleSimulator`) by one step, each
    replica drawing from its own generator in
    ``sim.kernel_state["generators"]``.  ``where`` is an optional array of
    replica positions (first-passage runs retire replicas one by one).

``begin_run(sim, num_steps) -> draws | None`` and
``run_step(sim, t, draws)``
    Optional bulk hooks used by :meth:`EnsembleSimulator.run`; kernels
    that buffer nothing inherit the default (``begin_run`` returns
    ``None`` and ``run_step`` falls through to :meth:`step`).

``init_state(sim) -> dict``
    Per-simulator mutable state, stored by the simulator and reset together
    with the replicas: the per-replica generators, the step counter
    ``"step"`` (the dynamics' clock, which the round-robin cursor and the
    annealed schedule read) and any draw buffers — on the simulator, not on
    the kernel, so one kernel object can serve several simulators.  A
    simulator rebuilt mid-run (a TV shard at a checkpoint) sets ``"step"``
    to the checkpoint time to continue the schedule.

``supports_gather``
    Whether the per-player update rows are time-invariant, i.e. whether the
    engine may precompute ``(|S|, m_i)`` cumulative update matrices once
    and simulate by indexed gathers.  Time-inhomogeneous kernels (annealed
    schedules) must say ``False``.

Randomness contract
-------------------
Every kernel draws from one independent generator per replica, so a
replica's trajectory is a pure function of its own seed: pooled samples are
bit-for-bit invariant to how many replicas share an ensemble, to chunk
size and to shard count.  Per replica and per step:

=============================  ===============================================
kernel                         consumes, from the replica's own generator
=============================  ===============================================
:class:`SequentialKernel`      one player index and one uniform, read from
                               blocks of ``SEQUENTIAL_BLOCK_SIZE`` steps (a
                               players block, then a uniforms block)
                               refilled when the replica has used its
                               block up
:class:`ParallelKernel`        one row of ``n`` move uniforms, player order
:class:`ProbabilisticKernel`   one row of ``n`` mask uniforms, then one row
                               of ``n`` move uniforms (the mask row is
                               skipped at ``p = 1``, which recovers the
                               :class:`ParallelKernel` stream bit-for-bit)
:class:`RoundRobinKernel`      one uniform (the mover is the cursor)
:class:`AnnealedKernel`        as :class:`SequentialKernel`
=============================  ===============================================

The block size is part of the sequential stream's definition, like the
seed.  The row kernels have no block in their definition: a bulk run
reads ``k`` steps of rows with one ``g.random((k, width))`` call per
replica, which yields exactly the values of ``k`` successive
``g.random(width)`` calls, and never draws past the end of the run — the
sharded drivers ship generators back between checkpoints.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "UpdateKernel",
    "SequentialKernel",
    "ParallelKernel",
    "ProbabilisticKernel",
    "RoundRobinKernel",
    "AnnealedKernel",
    "replica_seeds",
    "spawn_block",
]


#: steps per block of the sequential stream (part of its definition)
SEQUENTIAL_BLOCK_SIZE = 256


def spawn_block(
    root: np.random.SeedSequence, start: int, count: int
) -> list[np.random.SeedSequence]:
    """Children ``start .. start + count - 1`` of ``root``, shard-aware.

    Parameters
    ----------
    root:
        The master :class:`numpy.random.SeedSequence`.  Not mutated — in
        particular its ``n_children_spawned`` counter is left alone.
    start:
        Absolute index of the first child to construct, counted from a
        *fresh* root (``root.spawn`` called on a root that has never
        spawned produces child ``i`` at position ``i``).
    count:
        Number of consecutive children to construct.

    Returns
    -------
    list[numpy.random.SeedSequence]
        Bit-for-bit the children a fresh ``root.spawn(start + count)``
        would have produced at positions ``start .. start + count - 1``:
        ``numpy`` derives child ``i`` purely from ``(entropy, spawn_key +
        (i,))``, so a shard can construct its own block of per-replica
        seeds from ``(root, offset, count)`` alone — no shared mutable
        spawn cursor, no communication between shards.  This is the
        seeding contract the sharded executors (:mod:`repro.parallel`)
        build on: per-sample streams are identical no matter how many
        shards the ensemble is split into.

    Example
    -------
    >>> import numpy as np
    >>> root = np.random.SeedSequence(7)
    >>> serial = np.random.SeedSequence(7).spawn(6)[2:5]
    >>> block = spawn_block(root, 2, 3)
    >>> [c.spawn_key for c in block] == [c.spawn_key for c in serial]
    True
    >>> all(
    ...     np.random.default_rng(a).random() == np.random.default_rng(b).random()
    ...     for a, b in zip(block, serial)
    ... )
    True
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    base = tuple(root.spawn_key)
    return [
        np.random.SeedSequence(entropy=root.entropy, spawn_key=base + (i,))
        for i in range(start, start + count)
    ]


def replica_seeds(seed, count: int) -> list:
    """The per-replica seeds of a ``count``-replica ensemble.

    ``seed`` is a master seed — ``None`` (fresh entropy), an int or a
    :class:`numpy.random.SeedSequence` — whose children ``0 .. count - 1``
    (counted from the root's current spawn position, without mutating it)
    seed replicas ``0 .. count - 1``; replica ``r`` therefore draws the
    same stream whatever ``count`` is, and the same stream as sample ``r``
    of an adaptive run on that seed.  Or ``seed`` is a sequence of
    ``count`` per-replica seeds: ``SeedSequence`` children or ints, which
    replay their stream on every reset, or ``Generator`` objects, which
    are adopted as-is and continue across resets (how the sharded drivers
    round-trip streams between checkpoints).
    """
    if seed is None or isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        return spawn_block(root, root.n_children_spawned, count)
    seeds = list(seed)
    if len(seeds) != count:
        raise ValueError(
            f"{len(seeds)} per-replica streams given for {count} replicas"
        )
    return seeds


class UpdateKernel(abc.ABC):
    """Decides which player(s) move per step and with what distribution.

    Parameters
    ----------
    rule:
        The move-distribution provider: exposes ``game`` and
        ``update_distribution_many(player, profile_indices)`` (and, for the
        gather mode, ``player_update_matrix(player)``).
    """

    #: whether per-player update rows are time-invariant (gather mode legal)
    supports_gather: bool = True

    def __init__(self, rule):
        self.rule = rule

    @property
    def game(self):
        """The game the rule plays on."""
        return self.rule.game

    def init_state(self, sim) -> dict:
        """Fresh per-simulator state: one generator per replica, the clock."""
        return {
            # default_rng adopts a Generator as-is and seeds one otherwise
            "generators": [np.random.default_rng(s) for s in sim.seeds],
            "step": 0,
        }

    def begin_run(self, sim, num_steps: int):
        """Prepare a bulk run of ``num_steps`` steps; ``None`` = nothing."""
        return None

    def run_step(self, sim, t: int, draws) -> None:
        """Advance all replicas at run step ``t`` (default: :meth:`step`)."""
        self.step(sim)

    def remaining_steps(self, time: int) -> int | None:
        """How many steps this kernel can take from step ``time`` on.

        ``None`` means unbounded.  Finite annealing schedules are the
        bounded case: first-passage and TV runs clamp their horizon to this
        budget so that running out of schedule reads as "not reached"
        instead of raising mid-flight.
        """
        return None

    @abc.abstractmethod
    def step(self, sim, where: np.ndarray | None = None) -> None:
        """Advance the selected replicas one step."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rule={self.rule!r})"


def _check_update_probability(p: float) -> float:
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError("the update probability p must lie in (0, 1]")
    return p


def _fill_sequential_blocks(
    generators, bits, clean, n: int, players, uniforms, raw
) -> None:
    """Draw the next sequential block of each generator into column ``j``.

    Column ``j`` of ``players`` / ``uniforms`` (``(B, k)`` arrays, so that
    one step's draws are a contiguous row) receives
    bit-for-bit ``g.integers(0, n, size=B)`` / ``g.random(B)`` of
    ``generators[j]``, which is what the stream is defined by — but those
    two calls cost about 10 us of argument handling per replica, several
    times the work of drawing 256 values.  For PCG64 generators with no
    buffered 32-bit half (``clean[j]``, which this function keeps up to
    date) the block is instead read with one ``random_raw`` call per
    replica into the ``raw`` scratch (at least ``(k, 3 B / 2)`` uint64)
    and decoded for all of them at once by numpy's own algorithms: a
    bounded integer is Lemire's multiply-shift of a 32-bit draw (each
    64-bit output yields its low, then its high half), a double is the top
    53 bits of a 64-bit output.  Any other generator, and a replica that
    hits Lemire's rejection branch (probability about ``n / 2**32`` per
    draw), is rewound and drawn with the two calls instead.  ``bits`` are
    the generators' bit generators (fetching the attribute costs a
    microsecond per replica).
    """
    B, k = players.shape
    width = B // 2 + B
    fast = np.zeros(k, dtype=bool)
    if n >= 2:  # numpy draws nothing for integers(0, 1)
        for j in np.flatnonzero(~clean):
            clean[j] = (
                type(bits[j]) is np.random.PCG64 and not bits[j].state["has_uint32"]
            )
        fast = clean.copy()
    ids = np.flatnonzero(fast)
    if ids.size:
        every = ids.size == k
        raw = raw[: ids.size, :width]
        for i, j in enumerate(ids.tolist()):
            raw[i] = bits[j].random_raw(width)
        halves = raw[:, : B // 2].view(np.uint32)
        rejected = (halves * np.uint32(n) < np.uint32((2**32 - n) % n)).any(axis=1)
        out = players if every else np.empty((B, ids.size), dtype=np.int64)
        scaled = out.view(np.uint64)
        np.multiply(halves.T, np.uint64(n), out=scaled)
        np.right_shift(scaled, np.uint64(32), out=scaled)
        top = raw[:, B // 2 :]
        np.right_shift(top, np.uint64(11), out=top)
        unit = uniforms if every else np.empty((B, ids.size), dtype=float)
        np.multiply(top.T.view(np.int64), 2.0**-53, out=unit)
        if not every:
            players[:, ids] = out
            uniforms[:, ids] = unit
        for j in ids[rejected]:
            bits[j].advance(-width)
            fast[j] = clean[j] = False
    for j in np.flatnonzero(~fast):
        players[:, j] = generators[j].integers(0, n, size=B)
        uniforms[:, j] = generators[j].random(B)


class SequentialKernel(UpdateKernel):
    """One uniformly random player revises per step (the paper's dynamics).

    With a :class:`~repro.core.logit.LogitDynamics` rule this is the
    standard logit chain (Equation 3); with a
    :class:`~repro.core.variants.BestResponseDynamics` rule it is the
    sequential best-response chain.

    Replica ``r`` reads its mover and uniform from blocks of
    ``SEQUENTIAL_BLOCK_SIZE`` steps drawn from its own generator (a players
    block, then a uniforms block).  Blocks are refilled per replica, exactly when
    that replica has used its block up, so a replica retired early by a
    first-passage run simply stops consuming its stream and a later run
    continues it where it stopped.  While every replica has taken the same
    number of steps — every bulk run, and every step without ``where=`` —
    one scalar offset serves them all; the per-replica cursors only come
    into play after a ``where=`` step.
    """

    def init_state(self, sim) -> dict:
        state = super().init_state(sim)
        shape = (SEQUENTIAL_BLOCK_SIZE, sim.num_replicas)
        state.update(
            bits=[g.bit_generator for g in state["generators"]],
            # draws every replica has consumed while they move in lockstep
            drawn=0,
            # per-replica draw counts once a where= step has split them
            cursors=None,
            players=np.empty(shape, dtype=np.int64),
            uniforms=np.empty(shape, dtype=float),
            raw=np.empty((sim.num_replicas, SEQUENTIAL_BLOCK_SIZE * 3 // 2), np.uint64),
            # generators known to be PCG64 with no buffered 32-bit half:
            # the ones seeded here; adopted ones are checked on first use
            clean=np.array(
                [
                    isinstance(s, (int, np.integer, np.random.SeedSequence))
                    for s in sim.seeds
                ],
                dtype=bool,
            ),
        )
        return state

    def _refill(self, sim, replicas: np.ndarray | None) -> None:
        """Refill the listed replicas' blocks (``None``: every replica)."""
        state = sim.kernel_state
        n = sim.space.num_players
        if replicas is None:
            _fill_sequential_blocks(
                state["generators"], state["bits"], state["clean"], n,
                state["players"], state["uniforms"], state["raw"],
            )
            return
        clean = state["clean"][replicas]
        players = np.empty((SEQUENTIAL_BLOCK_SIZE, replicas.size), dtype=np.int64)
        uniforms = np.empty((SEQUENTIAL_BLOCK_SIZE, replicas.size), dtype=float)
        _fill_sequential_blocks(
            [state["generators"][r] for r in replicas],
            [state["bits"][r] for r in replicas],
            clean, n, players, uniforms, state["raw"],
        )
        state["players"][:, replicas] = players
        state["uniforms"][:, replicas] = uniforms
        state["clean"][replicas] = clean

    def _draws(self, sim, where) -> tuple[np.ndarray, np.ndarray]:
        """The selected replicas' next ``(players, uniforms)``."""
        state = sim.kernel_state
        B = SEQUENTIAL_BLOCK_SIZE
        cursors = state["cursors"]
        if where is None and cursors is None:
            offset = state["drawn"] % B
            if offset == 0:
                self._refill(sim, None)
            state["drawn"] += 1
            return state["players"][offset], state["uniforms"][offset]
        if cursors is None:
            cursors = np.full(sim.num_replicas, state["drawn"], dtype=np.int64)
            state["cursors"] = cursors
        sel = sim._rows_all if where is None else where
        drawn = cursors[sel]
        offsets = drawn % B
        refill = sel[offsets == 0]
        if refill.size:
            self._refill(sim, refill)
        cursors[sel] = drawn + 1
        return state["players"][offsets, sel], state["uniforms"][offsets, sel]

    def begin_run(self, sim, num_steps: int):
        state = sim.kernel_state
        cursors = state["cursors"]
        if cursors is not None and cursors.min() == cursors.max():
            # the replicas are back in step: return to the scalar offset
            state["drawn"] = int(cursors[0])
            state["cursors"] = None
        return None

    def step(self, sim, where: np.ndarray | None = None) -> None:
        players, uniforms = self._draws(sim, where)
        sim._advance_batch(players, uniforms, where=where)
        sim.kernel_state["step"] += 1


class AnnealedKernel(SequentialKernel):
    """Sequential revision under a time-varying ``beta_t`` schedule.

    ``rule`` must be an :class:`~repro.core.variants.AnnealedLogitDynamics`
    (exposing ``beta_at(t)`` and ``update_distribution_many_at(beta, player,
    idx)``).  Movers and uniforms follow the :class:`SequentialKernel`
    stream; the step counter is shared by all replicas — every replica sees
    the same ``beta_t`` — and lives in the simulator's kernel state, so
    consecutive :meth:`run` calls continue the schedule where the previous
    one stopped.  Finite schedules shorter than a requested run raise up
    front rather than mid-flight; first-passage runs instead clamp to the
    remaining schedule (via :meth:`remaining_steps`) and report the ``-1``
    not-reached sentinel at exhaustion.
    """

    supports_gather = False

    def remaining_steps(self, time: int) -> int | None:
        horizon = self.rule.horizon
        if horizon is None:
            return None
        return max(0, int(horizon) - int(time))

    def begin_run(self, sim, num_steps: int):
        start = sim.kernel_state["step"]
        if num_steps > 0:
            # fail before any replica moves, not at the step that exhausts a
            # finite schedule
            self.rule.validate_horizon(start, start + num_steps)
        return super().begin_run(sim, num_steps)

    def step(self, sim, where: np.ndarray | None = None) -> None:
        state = sim.kernel_state
        # the engine routes the explicit beta through the state backend
        # (update_distribution_many_at on index batches, the _profiles_at /
        # _rowwise_at counterparts on strategy-row batches)
        beta = self.rule.beta_at(state["step"])
        players, uniforms = self._draws(sim, where)
        sim._advance_batch(players, uniforms, where=where, at_beta=beta)
        state["step"] += 1


class _RowKernel(UpdateKernel):
    """A kernel that consumes one fixed-width row of uniforms per step.

    Per replica and step the kernel reads ``row_width(sim)`` uniforms from
    the replica's generator and :meth:`apply` turns the ``(k, width)``
    rows of the selected replicas into one step.  A bulk run reads its rows
    in blocks of at most ``_BLOCK_UNIFORMS`` values, one generator call per
    replica per block, and never past its own last step.
    """

    #: uniforms buffered per block of a bulk run (8 MB of float64)
    _BLOCK_UNIFORMS = 1 << 20

    @abc.abstractmethod
    def row_width(self, sim) -> int:
        """Uniforms one replica consumes per step."""

    @abc.abstractmethod
    def apply(self, sim, where: np.ndarray | None, rows: np.ndarray) -> None:
        """Advance the selected replicas one step from their ``(k, width)`` rows."""

    def step(self, sim, where: np.ndarray | None = None) -> None:
        state = sim.kernel_state
        sel = range(sim.num_replicas) if where is None else where
        rows = np.empty((len(sel), self.row_width(sim)), dtype=float)
        for j, r in enumerate(sel):
            state["generators"][r].random(out=rows[j])
        self.apply(sim, where, rows)
        state["step"] += 1

    def begin_run(self, sim, num_steps: int):
        return {"end": int(num_steps), "first": 0, "block": None}

    def run_step(self, sim, t: int, draws) -> None:
        state = sim.kernel_state
        block = draws["block"]
        if block is None or t - draws["first"] == block.shape[0]:
            R, width = sim.num_replicas, self.row_width(sim)
            k = min(draws["end"] - t, max(1, self._BLOCK_UNIFORMS // (R * width)))
            block = np.empty((k, R, width), dtype=float)
            for r, g in enumerate(state["generators"]):
                block[:, r] = g.random((k, width))
            draws["block"], draws["first"] = block, t
        self.apply(sim, None, block[t - draws["first"]])
        state["step"] += 1


def _concurrent_sweep(sim, where, old, mask, uniforms) -> None:
    """Apply one concurrent sweep from pre-drawn mask / move uniforms.

    ``old`` is the pre-step batch in the state backend's representation,
    ``mask`` the ``(k, n)`` boolean update mask (``None`` = every player
    updates, the ``p = 1`` case) and ``uniforms`` the ``(k, n)`` move
    uniforms in player order.  Every updating player's move distribution is
    evaluated against the *old* profile and all moves land at once.
    """
    state = sim.state
    n = sim.space.num_players
    beta = getattr(sim.dynamics, "beta", None)
    rows = sim._rows_all if where is None else where
    if mask is None:
        fused = getattr(sim, "_fused_parallel", None)
        if fused is not None and beta is not None:
            fused(state.matrix, rows, old, uniforms, beta)
            return
        new = old.copy()
        for player in range(n):
            chosen = sim._sample_moves(player, old, uniforms[:, player])
            new = state.set_strategies(new, player, chosen)
        state.put(where, new)
        return
    fused = getattr(sim, "_fused_probabilistic", None)
    if fused is not None and beta is not None:
        fused(state.matrix, rows, old, mask, uniforms, beta)
        return
    new = old.copy()
    for player in range(n):
        movers = np.flatnonzero(mask[:, player])
        if movers.size == 0:
            continue
        chosen = sim._sample_moves(player, old[movers], uniforms[movers, player])
        new[movers] = state.set_strategies(new[movers], player, chosen)
    state.put(where, new)


class ProbabilisticKernel(_RowKernel):
    """Each player independently revises with probability ``p`` per step.

    The probabilistic ("all-logit") schedule of the concurrent-update
    follow-up work (arXiv 1207.2908): one step flips an independent
    ``p``-coin per player, and every selected player resamples from her
    move distribution *against the pre-step profile* — all moves land at
    once.  ``p = 1`` is exactly :class:`ParallelKernel` (the mask row is
    skipped entirely, so even the random stream matches bit-for-bit);
    ``p -> 0`` approaches the sequential dynamics' one-expected-update-per-
    ``1/p``-steps intensity while keeping the concurrent (non-reversible)
    update semantics.

    Per step each replica consumes ``n`` mask uniforms (player order; a
    player updates iff her uniform is below ``p``) followed by ``n`` move
    uniforms — uniforms of unselected players are drawn and discarded, so
    the stream is independent of the realised mask.
    """

    def __init__(self, rule, p: float = 1.0):
        super().__init__(rule)
        self.p = _check_update_probability(p)

    def row_width(self, sim) -> int:
        n = sim.space.num_players
        return n if self.p >= 1.0 else 2 * n

    def apply(self, sim, where, rows) -> None:
        n = sim.space.num_players
        old = sim.state.take(where)
        if self.p >= 1.0:
            _concurrent_sweep(sim, where, old, None, rows)
        else:
            _concurrent_sweep(sim, where, old, rows[:, :n] < self.p, rows[:, n:])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rule={self.rule!r}, p={self.p})"


class ParallelKernel(ProbabilisticKernel):
    """Every player revises simultaneously from the pre-step profile.

    The ``p = 1`` schedule: one step consumes ``n`` uniforms per replica
    (player order); every player's move distribution is evaluated against
    the *old* profile and all moves land at once, which is what makes the
    chain non-reversible and produces the coordination-game "parallel
    trap".
    """

    def __init__(self, rule):
        super().__init__(rule, p=1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rule={self.rule!r})"


class RoundRobinKernel(_RowKernel):
    """Players revise in the fixed cyclic order 0, 1, ..., n-1, 0, ...

    The mover at step ``t`` is player ``t mod n``, read off the simulator's
    step counter — which advances exactly once per step and is *never*
    touched by snapshot recording or by splitting a run into several
    :meth:`EnsembleSimulator.run` calls, so recording mid-round cannot
    desync the player order (the round-bookkeeping regression in
    ``tests/test_variant_kernels.py`` pins this).
    """

    def row_width(self, sim) -> int:
        return 1

    def apply(self, sim, where, rows) -> None:
        player = sim.kernel_state["step"] % sim.space.num_players
        k = rows.shape[0]
        sim._advance_batch(np.full(k, player, dtype=np.int64), rows[:, 0], where=where)
