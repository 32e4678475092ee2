"""Local-interaction games: graph-structured games that scale past |S|.

The follow-up work the reproduction cites — "Logit Dynamics with Concurrent
Updates for Local-Interaction Games" (Auletta et al.) and "Metastability of
Asymptotically Well-Behaved Potential Games" (Ferraioli–Ventre) — studies
logit dynamics on games whose players sit on a graph and interact only with
their neighbors.  Those are exactly the games whose profile spaces explode
(``m**n`` profiles for ``n`` players) while their *utilities* stay cheap:
a player's payoff is a sum of ``deg(i)`` per-edge terms, so a single-site
update touches ``O(deg)`` numbers no matter how large ``|S|`` is.

:class:`LocalInteractionGame` makes that structure first-class:

* every player has the same ``m`` strategies; every edge ``(u, v)`` of the
  social graph carries an ``(m, m)`` *payoff matrix* ``M_e``, read by both
  endpoints with their **own** strategy as the row index — endpoint ``u``
  earns ``M_e[s_u, s_v]`` and endpoint ``v`` earns ``M_e[s_v, s_u]`` (the
  symmetric-role convention of
  :class:`~repro.games.coordination.GraphicalCoordinationGame`);
* an optional per-player *external field* adds ``field[i, s_i]`` to player
  ``i``'s utility (the Ising magnetic field, a strategy bias, ...);
* the hot engine call :meth:`utility_deviations_profiles` computes
  deviation payoffs **from neighbor strategy columns only** — no profile
  index is encoded or decoded anywhere, so the game composes with the
  engine's matrix state backend at ``n`` in the thousands;
* the adjacency is held once, in CSR form (:meth:`csr_arrays`), so the
  game's memory is ``O(n + E)``; the sequential kernels' batched call
  :meth:`utility_deviations_rowwise` gathers just the movers' CSR neighbor
  slices, so a step costs the movers' *total* degree rather than the
  number of movers times the maximum degree — which is what keeps the
  heavy-tailed social graphs of the follow-ups cheap;
* when the per-edge games admit exact potentials the whole game is an
  exact potential game with ``Phi(x) = sum_e P_e[s_u, s_v] - sum_i
  field[i, s_i]`` — the potential is *derived automatically* whenever it
  exists (and can be supplied explicitly to pin a particular additive
  normalisation, e.g. the Ising Hamiltonian); dense accessors
  (:meth:`potential_vector`, :meth:`utility_matrix`) stay available below
  the dense cap so every small-space tool keeps working.

:class:`~repro.games.ising.IsingGame` is the canonical subclass.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import networkx as nx
import numpy as np

from .coordination import CoordinationParams
from .potential import PotentialGame
from .space import ProfileSpace

__all__ = ["LocalInteractionGame", "derive_edge_potential"]


def derive_edge_potential(payoff: np.ndarray, tol: float = 1e-9) -> np.ndarray | None:
    """Exact potential of the symmetric-role two-player game, or ``None``.

    ``payoff`` is the ``(m, m)`` matrix both endpoints read with their own
    strategy as the row.  The candidate is integrated along deviation paths
    from ``(0, 0)`` (the Monderer–Shapley construction specialised to two
    players)::

        P[s, t] = M[0, 0] - M[t, 0] + M[0, t] - M[s, t]

    then verified against Equation (1) of the paper for *both* endpoints —
    which forces ``P`` to be symmetric.  Returns the normalised potential
    (``P[0, 0] = 0``) or ``None`` when the edge game has no exact
    potential.
    """
    M = np.asarray(payoff, dtype=float)
    P = M[0, 0] - M[:, 0][np.newaxis, :] + M[0, :][np.newaxis, :] - M
    if _edge_potential_consistent(M, P, tol=tol):
        return P
    return None


def _edge_potential_consistent(
    payoff: np.ndarray, potential: np.ndarray, tol: float = 1e-9
) -> bool:
    """Equation (1) on one edge, for both endpoints: ``M[a,t] - M[b,t] =
    P[b,t] - P[a,t]`` for all ``a, b, t`` and ``P`` symmetric."""
    M = np.asarray(payoff, dtype=float)
    P = np.asarray(potential, dtype=float)
    if not np.allclose(P, P.T, atol=tol):
        return False
    du = M[:, None, :] - M[None, :, :]  # (a, b, t) -> M[a,t] - M[b,t]
    dp = P[None, :, :] - P[:, None, :]  # (a, b, t) -> P[b,t] - P[a,t]
    return bool(np.allclose(du, dp, atol=tol))


#: rtol of np.isclose — the stack helpers below replicate np.allclose
#: elementwise so that their per-edge verdicts match the scalar helpers
_ISCLOSE_RTOL = 1e-5


def _derive_edge_potential_stack(payoffs: np.ndarray) -> np.ndarray:
    """:func:`derive_edge_potential`'s candidate for a whole ``(E, m, m)`` stack.

    Same path integration, same float-op order per edge — one vectorised
    pass instead of an ``O(E)`` Python loop, which is what keeps
    construction of million-edge games in milliseconds.  Candidates are
    *not* verified here; pair with :func:`_edge_potential_consistent_stack`.
    """
    M = payoffs
    return M[:, 0, 0][:, None, None] - M[:, :, 0][:, None, :] + M[:, 0, :][:, None, :] - M


def _edge_potential_consistent_stack(
    payoffs: np.ndarray, potentials: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Per-edge Equation (1) verdicts for whole stacks: an ``(E,)`` bool array."""
    M = np.asarray(payoffs, dtype=float)
    P = np.asarray(potentials, dtype=float)

    def close(a, b):
        return np.abs(a - b) <= tol + _ISCLOSE_RTOL * np.abs(b)

    Pt = P.transpose(0, 2, 1)
    sym = np.all(close(P, Pt), axis=(1, 2))
    du = M[:, :, None, :] - M[:, None, :, :]  # (e, a, b, t) -> M[a,t] - M[b,t]
    dp = P[:, None, :, :] - P[:, :, None, :]  # (e, a, b, t) -> P[b,t] - P[a,t]
    return sym & np.all(close(du, dp), axis=(1, 2, 3))


class LocalInteractionGame(PotentialGame):
    """Game on a social graph with per-edge payoff matrices.

    Parameters
    ----------
    graph:
        The social graph; nodes are relabelled to ``0..n-1`` in sorted
        order and become the players.
    edge_payoffs:
        Either one ``(m, m)`` payoff matrix shared by every edge, or a
        mapping from edges (either orientation) to per-edge ``(m, m)``
        matrices.  Endpoint ``u`` of edge ``(u, v)`` earns
        ``M_e[s_u, s_v]``; endpoint ``v`` earns ``M_e[s_v, s_u]``.
    edge_potentials:
        Optional explicit per-edge potential matrices in the same
        one-or-mapping format (useful to pin an additive normalisation,
        e.g. the Ising Hamiltonian).  Validated against Equation (1); when
        omitted, exact potentials are derived automatically whenever they
        exist (normalised to ``P_e[0, 0] = 0``), and the game simply has no
        potential otherwise (the potential accessors then raise).
    external_field:
        Optional per-strategy utility bonus: an ``(m,)`` vector applied to
        every player or an ``(n, m)`` per-player array.  Contributes
        ``field[i, s_i]`` to player ``i``'s utility and ``-field[i, s_i]``
        to the potential.
    num_strategies:
        Number of strategies per player (shared), default 2; must match
        the payoff-matrix shapes.
    """

    def __init__(
        self,
        graph: nx.Graph,
        edge_payoffs: np.ndarray | Mapping[tuple[int, int], np.ndarray],
        edge_potentials: np.ndarray | Mapping[tuple[int, int], np.ndarray] | None = None,
        external_field: np.ndarray | Sequence[float] | None = None,
        num_strategies: int = 2,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("the social graph must have at least one node")
        m = int(num_strategies)
        if m < 2:
            raise ValueError("local-interaction games need at least two strategies")
        nodes = sorted(graph.nodes())
        self._node_index = {node: i for i, node in enumerate(nodes)}
        self.graph = nx.relabel_nodes(graph, self._node_index, copy=True)
        n = self.graph.number_of_nodes()
        self.space = ProfileSpace((m,) * n)

        if self.graph.number_of_edges():
            edges = np.asarray(self.graph.edges(), dtype=np.int64)
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
        self._edge_u = np.ascontiguousarray(edges[:, 0])
        self._edge_v = np.ascontiguousarray(edges[:, 1])
        self._edge_payoffs = self._edge_matrix_array(edge_payoffs, edges, m, "edge_payoffs")

        if edge_potentials is not None:
            pots = self._edge_matrix_array(edge_potentials, edges, m, "edge_potentials")
            ok = _edge_potential_consistent_stack(self._edge_payoffs, pots)
            if not ok.all():
                bad = int(np.flatnonzero(~ok)[0])
                raise ValueError(
                    f"edge_potentials for edge "
                    f"{(int(edges[bad, 0]), int(edges[bad, 1]))} do not satisfy "
                    f"Equation (1) against the edge payoffs (or are not "
                    f"symmetric)"
                )
            self._edge_potentials: np.ndarray | None = pots
        else:
            derived = _derive_edge_potential_stack(self._edge_payoffs)
            ok = _edge_potential_consistent_stack(self._edge_payoffs, derived)
            self._edge_potentials = derived if bool(ok.all()) else None

        field = np.zeros((n, m), dtype=float) if external_field is None else (
            np.asarray(external_field, dtype=float)
        )
        if field.ndim == 1:
            if field.shape != (m,):
                raise ValueError(f"external_field must have shape ({m},) or ({n}, {m})")
            field = np.tile(field, (n, 1))
        elif field.shape != (n, m):
            raise ValueError(f"external_field must have shape ({m},) or ({n}, {m})")
        self._field = field

        # CSR adjacency: per player, the neighbor ids and the row of the
        # edge-matrix stack to read (the symmetric-role convention means
        # both endpoints read the same matrix, own strategy as the row).
        # It is the game's only adjacency layout — O(n + E) memory, read by
        # every deviation path here and by the fused backend kernels.
        # Built fully vectorised — graphs with 10^6 nodes construct in
        # milliseconds, not in a per-edge Python loop.  The stable lexsort
        # (endpoint first, edge id second) reproduces the cursor-fill order
        # exactly: within a player, CSR entries are ordered by edge id.
        E = len(edges)
        eids = np.concatenate([np.arange(E, dtype=np.int64)] * 2)
        endpoints = np.concatenate([self._edge_u, self._edge_v])
        partners = np.concatenate([self._edge_v, self._edge_u])
        degrees = np.bincount(endpoints, minlength=n)
        self._nbr_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(degrees)]
        )
        order = np.lexsort((eids, endpoints))
        self._nbr = partners[order]
        self._nbr_edge = eids[order]
        self._rowwise_out: np.ndarray | None = None
        self._potential_cache: np.ndarray | None = None

    @staticmethod
    def _edge_matrix_array(
        spec, edges: np.ndarray, m: int, what: str
    ) -> np.ndarray:
        """Materialise the ``(E, m, m)`` per-edge matrix stack from a spec."""
        out = np.empty((len(edges), m, m), dtype=float)
        if isinstance(spec, Mapping):
            for e, (u, v) in enumerate(edges):
                u, v = int(u), int(v)
                if (u, v) in spec:
                    mat = spec[(u, v)]
                elif (v, u) in spec:
                    mat = spec[(v, u)]
                else:
                    raise ValueError(f"{what} mapping is missing edge {(u, v)}")
                mat = np.asarray(mat, dtype=float)
                if mat.shape != (m, m):
                    raise ValueError(
                        f"{what} for edge {(u, v)} must have shape ({m}, {m}), "
                        f"got {mat.shape}"
                    )
                out[e] = mat
        else:
            mat = np.asarray(spec, dtype=float)
            if mat.shape != (m, m):
                raise ValueError(f"{what} must have shape ({m}, {m}), got {mat.shape}")
            out[:] = mat
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{what} must be finite")
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def coordination(
        cls, graph: nx.Graph, params: CoordinationParams
    ) -> "LocalInteractionGame":
        """Graphical coordination game as a local-interaction game.

        Same utilities and same potential as
        :class:`~repro.games.coordination.GraphicalCoordinationGame` (which
        tabulates the whole profile space), but index-free — usable at any
        ``n``.
        """
        payoff = np.array(
            [[params.a, params.c], [params.d, params.b]], dtype=float
        )
        potential = np.array(
            [
                [params.edge_potential(0, 0), params.edge_potential(0, 1)],
                [params.edge_potential(1, 0), params.edge_potential(1, 1)],
            ],
            dtype=float,
        )
        game = cls(graph, payoff, edge_potentials=potential)
        game.params = params
        return game

    # -- graph structure ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of edges of the social graph."""
        return int(self._edge_u.size)

    def csr_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The game's CSR local structure, for fused backend kernels.

        Returns ``(offsets, neighbors, neighbor_edge, edge_payoffs, field)``:
        player ``i``'s neighbors are ``neighbors[offsets[i]:offsets[i+1]]``,
        each contributing ``edge_payoffs[neighbor_edge[d], s, t]`` to the
        deviation utility of strategy ``s`` when the neighbor plays ``t``,
        plus the per-player external field ``field[i, s]``.  This accessor
        *is* the contract that makes a game fusable by the engine's array
        backends (:mod:`repro.engine.backend`); the arrays are the live
        internals, not copies — callers must treat them as read-only.
        """
        return (
            self._nbr_offsets,
            self._nbr,
            self._nbr_edge,
            self._edge_payoffs,
            self._field,
        )

    def neighbors_of(self, player: int) -> np.ndarray:
        """Neighbor player ids of ``player`` (read-only view)."""
        self.space._check_player(player)
        view = self._nbr[self._nbr_offsets[player] : self._nbr_offsets[player + 1]]
        view = view.view()
        view.flags.writeable = False
        return view

    @property
    def has_potential(self) -> bool:
        """Whether the edge payoffs admit an exact potential."""
        return self._edge_potentials is not None

    def _require_potential(self) -> np.ndarray:
        if self._edge_potentials is None:
            raise ValueError(
                "the edge payoff matrices do not admit an exact potential "
                "(Equation 1 has no solution on at least one edge); this "
                "local-interaction game is not a potential game"
            )
        return self._edge_potentials

    # -- utilities (index-free hot path) -----------------------------------

    def utility_deviations_profiles(
        self, player: int, profiles: np.ndarray
    ) -> np.ndarray:
        """``(k, m)`` deviation utilities from ``(k, n)`` profile rows.

        Reads only the neighbor columns of ``profiles`` — ``O(deg(player))``
        work per row, no profile index anywhere — which is what lets the
        engine's matrix state backend run this game at ``n`` in the
        thousands.
        """
        self.space._check_player(player)
        prof = np.asarray(profiles)
        if prof.ndim != 2 or prof.shape[1] != self.space.num_players:
            raise ValueError(
                f"profiles must have shape (k, {self.space.num_players}), "
                f"got {prof.shape}"
            )
        k = prof.shape[0]
        m = self.space.num_strategies[player]
        lo, hi = self._nbr_offsets[player], self._nbr_offsets[player + 1]
        utilities = np.tile(self._field[player], (k, 1))
        if hi > lo:
            nbrs = self._nbr[lo:hi]
            mats = self._edge_payoffs[self._nbr_edge[lo:hi]]  # (deg, m, m)
            nb_strats = prof[:, nbrs].astype(np.int64, copy=False)  # (k, deg)
            # picked[j, d, s] = mats[d, s, nb_strats[j, d]]
            picked = mats[np.arange(hi - lo), :, nb_strats]  # (k, deg, m)
            utilities += picked.sum(axis=1)
        return utilities

    def utility_deviations_rowwise(
        self, players: np.ndarray, profiles: np.ndarray
    ) -> np.ndarray:
        """``(k, m)`` deviation utilities, a *different mover per row*.

        Row ``j`` is ``(u_{players[j]}(s, x_-i))_s`` at the profile
        ``profiles[j]`` — the fully vectorised form of
        :meth:`utility_deviations_profiles` for the sequential kernels,
        where every replica revises its own uniformly drawn player.  One
        gather over the movers' concatenated CSR neighbor slices replaces
        ``k`` per-player groups, so a step costs the movers' *total* degree
        — not ``k`` times the maximum degree — which is what keeps the
        engine fast on heavy-tailed graphs.  Each row is summed in the CSR
        order of :meth:`utility_deviations_profiles`, one term at a time
        (``np.bincount`` accumulates its weights sequentially), so both
        paths produce identical floats at every degree.

        Only games with a uniform strategy count per player can offer this
        (all rows share the ``m`` axis) — which local-interaction games do
        by construction.

        The returned ``(k, m)`` array is a per-game buffer reused by the
        next call with the same ``k``: the values are only valid until then,
        so copy them to keep them across steps.
        """
        p = np.asarray(players, dtype=np.int64)
        prof = np.asarray(profiles)
        k = p.shape[0]
        n = self.space.num_players
        if prof.shape != (k, n):
            raise ValueError(
                f"profiles must have shape ({k}, {n}), got {prof.shape}"
            )
        m = int(self.space.num_strategies[0])
        # the movers' CSR slices laid end to end: batch entry t belongs to
        # row[t] and reads CSR entry slot[t]
        starts = self._nbr_offsets.take(p)
        degrees = self._nbr_offsets.take(p + 1) - starts
        row = np.arange(k).repeat(degrees)
        # per entry: CSR start of its slice minus the slice's batch start
        shift = (starts - np.cumsum(degrees) + degrees).repeat(degrees)
        slot = np.arange(shift.size) + shift
        # neighbor strategies, gathered through the flattened profile matrix
        strat = prof.ravel().take(row * n + self._nbr.take(slot))
        # flat payoff index of (edge, s, neighbor strategy) is
        # e*m*m + s*m + t; base holds the s = 0 plane
        base = self._nbr_edge.take(slot) * (m * m) + strat
        payoffs = self._edge_payoffs.reshape(-1)
        out = self._rowwise_out
        if out is None or out.shape[0] != k:
            out = self._rowwise_out = np.empty((k, m), dtype=float)
        for strategy in range(m):
            out[:, strategy] = np.bincount(
                row, weights=payoffs.take(base + strategy * m), minlength=k
            )
        out += self._field.take(p, axis=0)
        # the engine consumes the utilities into softmax rows before the
        # next step, so the hot path never copies
        return out

    def utilities_of_profiles(self, player: int, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` realised utilities of ``player`` at ``(k, n)`` profile rows."""
        prof = np.asarray(profiles)
        devs = self.utility_deviations_profiles(player, prof)
        own = prof[:, player].astype(np.int64, copy=False)
        return devs[np.arange(prof.shape[0]), own]

    # -- Game interface ----------------------------------------------------

    def utility(self, player: int, profile_index: int) -> float:
        # scalar decode is pure-Python arithmetic: works past int64
        profile = np.asarray(self.space.decode(profile_index), dtype=np.int64)
        return float(self.utilities_of_profiles(player, profile[None, :])[0])

    def utility_deviations(self, player: int, profile_index: int) -> np.ndarray:
        profile = np.asarray(self.space.decode(profile_index), dtype=np.int64)
        return self.utility_deviations_profiles(player, profile[None, :])[0]

    def utility_deviations_many(
        self, player: int, profile_indices: np.ndarray
    ) -> np.ndarray:
        profiles = self.space.decode_many(np.asarray(profile_indices, dtype=np.int64))
        return self.utility_deviations_profiles(player, profiles)

    def utility_profile_many(self, profile_indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(profile_indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, self.num_players), dtype=float)
        profiles = self.space.decode_many(idx)
        return np.stack(
            [
                self.utilities_of_profiles(player, profiles)
                for player in range(self.num_players)
            ],
            axis=1,
        )

    def utility_matrix(self, player: int) -> np.ndarray:
        # dense accessor for the small-space exact machinery; all_profiles
        # enforces the dense cap with a clear error
        return self.utilities_of_profiles(player, self.space.all_profiles())

    # -- potential ---------------------------------------------------------

    def potential_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` potential values at ``(k, n)`` profile rows, index-free.

        ``Phi(x) = sum_e P_e[s_u, s_v] - sum_i field[i, s_i]`` — the
        matrix-free counterpart of :meth:`potential_vector`, usable at any
        ``n`` (and the building block for Gibbs-weight ratios on large
        spaces).
        """
        pots = self._require_potential()
        prof = np.asarray(profiles)
        if prof.ndim != 2 or prof.shape[1] != self.space.num_players:
            raise ValueError(
                f"profiles must have shape (k, {self.space.num_players}), "
                f"got {prof.shape}"
            )
        prof64 = prof.astype(np.int64, copy=False)
        phi = np.zeros(prof.shape[0], dtype=float)
        if self.num_edges:
            su = prof64[:, self._edge_u]  # (k, E)
            sv = prof64[:, self._edge_v]  # (k, E)
            phi += pots[np.arange(self.num_edges), su, sv].sum(axis=1)
        phi -= self._field[np.arange(self.num_players)[None, :], prof64].sum(axis=1)
        return phi

    def potential(self, profile_index: int) -> float:
        profile = np.asarray(self.space.decode(profile_index), dtype=np.int64)
        return float(self.potential_of_profiles(profile[None, :])[0])

    def potential_vector(self) -> np.ndarray:
        if self._potential_cache is None:
            self._require_potential()
            self._potential_cache = self.potential_of_profiles(
                self.space.all_profiles()
            )
        return self._potential_cache.copy()

    def store_spec(self) -> dict:
        """Content identity for :func:`repro.parallel.describe`.

        Class, strategy count, the full edge list and the per-edge payoff
        / potential / field content (digested when large) — so two
        local-interaction games hash identically iff they play the same
        game on the same graph.  In particular an
        :class:`~repro.games.ising.IsingGame`'s coupling, field and
        topology are all captured through the payoff matrices and edge
        arrays; the cosmetic ``__repr__`` (which only shows sizes) is
        deliberately not used.
        """
        return {
            "class": type(self).__qualname__,
            "num_players": self.num_players,
            "num_strategies": int(self.space.num_strategies[0]),
            "edges": np.stack([self._edge_u, self._edge_v], axis=1),
            "edge_payoffs": self._edge_payoffs,
            "edge_potentials": self._edge_potentials,
            "external_field": self._field,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(players={self.num_players}, "
            f"strategies={self.space.num_strategies[0]}, edges={self.num_edges})"
        )
