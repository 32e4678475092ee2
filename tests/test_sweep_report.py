"""Tests for analysis helpers (repro.analysis.sweep, repro.analysis.report)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import format_value, render_experiment, render_table
from repro.analysis.sweep import (
    beta_sweep,
    dynamics_family_sweep,
    exponential_growth_rate,
    size_sweep,
)
from repro.games import (
    CoordinationParams,
    GraphicalCoordinationGame,
    IsingGame,
    TwoWellGame,
)

import networkx as nx


class TestReportRendering:
    def test_format_value_variants(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(3) == "3"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value(0.123456, precision=3) == "0.123"
        assert format_value("text") == "text"

    def test_render_table_alignment(self):
        table = render_table(["a", "longer"], [[1, 2.5], [33, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        # all lines have equal width
        assert len({len(line) for line in lines}) == 1
        assert "longer" in lines[0]

    def test_render_table_row_length_check(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_render_experiment_contains_title_and_notes(self):
        text = render_experiment("Theorem X", ["col"], [[1]], notes="shape holds")
        assert "== Theorem X ==" in text
        assert "shape holds" in text
        assert text.endswith("\n")


class TestGrowthRate:
    def test_recovers_exact_exponent(self):
        betas = np.linspace(0.0, 3.0, 7)
        values = 5.0 * np.exp(1.7 * betas)
        assert exponential_growth_rate(betas, values) == pytest.approx(1.7)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            exponential_growth_rate(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            exponential_growth_rate(np.array([1.0]), np.array([2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            exponential_growth_rate(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestSweeps:
    def test_beta_sweep_records(self):
        game = TwoWellGame(num_players=3, barrier=1.0)
        result = beta_sweep(game, betas=[0.0, 1.0], include_relaxation=True)
        assert result.parameter_name == "beta"
        assert len(result.records) == 2
        np.testing.assert_allclose(result.parameters(), [0.0, 1.0])
        assert np.all(result.mixing_times() > 0)
        assert np.all(result.relaxation_times() >= 1.0)

    def test_beta_sweep_extra_columns(self):
        game = TwoWellGame(num_players=3, barrier=1.0)
        result = beta_sweep(
            game,
            betas=[0.5],
            extra=lambda g, b: {"bound": 123.0},
        )
        rows = result.as_rows()
        assert rows[0][-1] == 123.0

    def test_size_sweep(self):
        def factory(n: int):
            return GraphicalCoordinationGame(
                nx.cycle_graph(n), CoordinationParams.ising(1.0)
            )

        result = size_sweep(factory, sizes=[3, 4], beta=0.5, include_relaxation=False)
        assert result.parameter_name == "n"
        np.testing.assert_allclose(result.parameters(), [3.0, 4.0])
        assert np.all(np.isnan(result.relaxation_times()))
        # mixing time grows with the ring size
        times = result.mixing_times()
        assert times[1] >= times[0]


class TestDynamicsFamilySweep:
    def test_compares_families_and_reports_escape(self):
        from repro.core import LogitDynamics, gibbs_measure
        from repro.core.variants import BestResponseDynamics, RoundRobinLogitDynamics

        game = TwoWellGame(num_players=3, barrier=1.0)
        beta = 0.6
        result = dynamics_family_sweep(
            game,
            {
                "sequential": lambda g: LogitDynamics(g, beta),
                "round_robin": lambda g: RoundRobinLogitDynamics(g, beta),
                "best_response": lambda g: BestResponseDynamics(g),
            },
            reference=gibbs_measure(game.potential_vector(), beta),
            num_replicas=2048,
            epsilon=0.12,
            max_time=500,
            start=0,
            escape_states=[0],
            max_escape_steps=5000,
            seed=0,
        )
        assert result.parameter_name == "dynamics_family"
        assert [r.extra["dynamics"] for r in result.records] == [
            "sequential", "round_robin", "best_response",
        ]
        by_name = {r.extra["dynamics"]: r for r in result.records}
        # the ergodic logit families reach the Gibbs measure ...
        assert not by_name["sequential"].extra["capped"]
        assert not by_name["round_robin"].extra["capped"]
        # ... the absorbing best-response chain does not (a result, not an error)
        assert by_name["best_response"].extra["capped"]
        # everyone escapes the single-profile "well" except best response,
        # which at a strict equilibrium never moves
        assert by_name["sequential"].extra["escape_fraction"] == 1.0
        assert by_name["best_response"].extra["escape_fraction"] == 0.0
        assert np.isnan(by_name["best_response"].extra["mean_escape_time"])
        for record in result.records:
            assert np.isfinite(record.extra["mean_welfare"])

    def test_finite_annealed_schedule_caps_instead_of_raising(self):
        """Regression: a finite schedule shorter than max_time must come back
        as a capped record, not crash the sweep mid-run."""
        from repro.core import gibbs_measure
        from repro.core.variants import AnnealedLogitDynamics

        game = TwoWellGame(num_players=3, barrier=1.0)
        pi = gibbs_measure(game.potential_vector(), 0.05)
        result = dynamics_family_sweep(
            game,
            {"annealed": lambda g: AnnealedLogitDynamics(g, np.full(50, 0.05))},
            reference=pi,
            num_replicas=64,
            epsilon=1e-9,  # unreachable: force the run to the horizon
            max_time=10**4,
            escape_states=[0],
            max_escape_steps=10**4,
            seed=1,
        )
        record = result.records[0]
        assert record.extra["capped"]
        assert record.mixing_time <= 50  # clamped to the schedule horizon

    def test_requires_reference_for_families_without_stationary(self):
        from repro.core.variants import AnnealedLogitDynamics

        game = TwoWellGame(num_players=3, barrier=1.0)
        with pytest.raises(ValueError, match="reference"):
            dynamics_family_sweep(
                game,
                {"annealed": lambda g: AnnealedLogitDynamics(g, lambda t: 0.5)},
                num_replicas=8,
                max_time=10,
            )

    def test_rejects_empty_factory_list(self):
        game = TwoWellGame(num_players=3, barrier=1.0)
        with pytest.raises(ValueError, match="at least one"):
            dynamics_family_sweep(game, {})


# ---------------------------------------------------------------------------
# pinned cell identity: one tiny seeded, stored cell per sweep
# ---------------------------------------------------------------------------


def _pinned_ring(n):
    return IsingGame(nx.cycle_graph(int(n)), coupling=1.0)


def _pinned_start(game):
    return np.zeros(game.num_players, dtype=np.int64)


def _pinned_target(game):
    return lambda profiles: game.magnetization_of_profiles(profiles) >= 0.5


def _pinned_beta_cell(store):
    from repro.analysis.sweep import ensemble_beta_sweep

    return ensemble_beta_sweep(
        _pinned_ring(5), [0.5], num_replicas=32, max_time=60, seed=11, store=store
    ).records


def _pinned_family_cell(store):
    from repro.core.logit import LogitDynamics

    return dynamics_family_sweep(
        _pinned_ring(5),
        {"logit": lambda g: LogitDynamics(g, 0.5)},
        num_replicas=32,
        max_time=60,
        escape_states=[0],
        max_escape_steps=100,
        tail_q=0.5,
        seed=12,
        store=store,
        store_tag="pin",
    ).records


def _pinned_hitting_cell(store):
    from repro.analysis.sweep import hitting_time_size_sweep

    return hitting_time_size_sweep(
        _pinned_ring,
        [5],
        beta=0.7,
        start_factory=_pinned_start,
        target_factory=_pinned_target,
        precision=0.5,
        seed=13,
        max_steps=100,
        chunk_size=16,
        max_replicas=32,
        store=store,
        store_tag="pin-hitting",
    ).records


def _pinned_matrix_cell(store):
    from repro.analysis.scenario_matrix import scenario_matrix
    from repro.core.logit import LogitDynamics
    from repro.graphs import ring_graph

    result = scenario_matrix(
        {"ising": lambda g: IsingGame(g, coupling=0.5)},
        {"ring4": ring_graph(4)},
        {"logit": lambda g: LogitDynamics(g, 1.0)},
        num_replicas=32,
        max_time=60,
        seed=14,
        store=store,
    )
    return result.cells[0].sweep.records


# (run, store key, parameter, mixing_time, extra without provenance)
PINNED_CELLS = {
    "ensemble_beta_sweep": (
        _pinned_beta_cell,
        "c0203edf1211c32c7aca90b91e1035e6cb82a72f6487d32898ca4cb43b41f74d",
        0.5,
        -1.0,
        {"tv_at_estimate": 0.34788823623100706, "capped": True, "converged": False},
    ),
    "dynamics_family_sweep": (
        _pinned_family_cell,
        "4bb0233c3b52909abd4466cf8b576f75ccf0e5883d8d5f2d7f1fb118316d5046",
        0.0,
        45.0,
        {
            "dynamics": "logit",
            "tv_at_estimate": 0.2481980520476196,
            "capped": False,
            "converged": True,
            "mean_welfare": 5.5,
            "welfare_lower": 3.0030844221221815,
            "welfare_upper": 7.996915577877818,
            "escape_fraction": 1.0,
            "mean_escape_time": 5.5625,
            "escape_quantile_q": 0.5,
            "escape_quantile": 3.131115459882583,
            "escape_quantile_lower": 0.9784735812133072,
            "escape_quantile_upper": 14.090019569471623,
        },
    ),
    "hitting_time_size_sweep": (
        _pinned_hitting_cell,
        "c55f65acbc32745499bf355b5297f50c78ac31b98023d9fac02c47db7787bd88",
        5.0,
        float("nan"),
        {
            "mean_hitting_time": 79.3125,
            "hitting_lower": 53.16976513551393,
            "hitting_upper": 100.0,
            "num_replicas_used": 32,
            "stopped_early": False,
            "truncated_fraction": 0.46875,
        },
    ),
    "scenario_matrix": (
        _pinned_matrix_cell,
        "a30bfe5017d5413ec8ef236c93f7ad9a415cadd6946c10b87875b7415fca6884",
        0.0,
        24.0,
        {
            "dynamics": "logit",
            "tv_at_estimate": 0.20966409900229382,
            "capped": False,
            "converged": True,
            "mean_welfare": 2.25,
            "welfare_lower": 1.0706288454027917,
            "welfare_upper": 3.4293711545972085,
        },
    ),
}


class TestCellIdentityPinned:
    """Hard-coded store keys and record values of one cell per sweep.

    A changed spec or seed derivation re-keys every cell already in a
    user's store, and a changed sample stream silently changes results;
    either must fail here, loudly.  Each cell is also re-run warm to pin
    the load path: the same values come back tagged ``store``.
    """

    @pytest.mark.parametrize("sweep", sorted(PINNED_CELLS))
    def test_key_and_record_are_pinned(self, sweep, tmp_path):
        from repro.parallel import ExperimentStore

        run, key, parameter, mixing_time, extra = PINNED_CELLS[sweep]
        store = ExperimentStore(tmp_path)
        for provenance in ("computed", "store"):
            (record,) = run(store)
            assert store.keys() == [key]
            assert record.parameter == parameter
            np.testing.assert_equal(record.mixing_time, mixing_time)
            assert np.isnan(record.relaxation_time)
            assert record.extra == {**extra, "provenance": provenance}
