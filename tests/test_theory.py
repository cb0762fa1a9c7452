"""Analysis constants, parameter selection, and their numeric sanity checks."""

import re
from dataclasses import replace

import numpy as np
import pytest

from caden import engine, graphs, theory
from caden.engine import CadenConfig
from caden.config import ExperimentConfig
from caden.errors import ConfigError, ParameterSelectionError
from caden.harness import run_experiment
from caden.losses import LossStack, QuadraticLoss
from caden.verify import constants_grid, verify_constants

from helpers import Row, augmented_gradient_error, batch_of, corollary_scaling_check, neighbors

K2_SPECTRUM = graphs.laplacian_spectrum(graphs.complete_graph(2))


class TestSelectParameters:
    def test_mu_z_is_two_l_plus_one(self):
        sel = theory.select_parameters(1.0, K2_SPECTRUM, p_min=1.0, rate=0.5)
        assert sel.mu_z == 3.0

    def test_k2_mu_y_floor(self):
        # 1152 * d^2 * lambda_max * mu_z / (lambda_min^2 p) = 1152*1*2*3/4.
        sel = theory.select_parameters(1.0, K2_SPECTRUM, p_min=1.0, rate=0.5)
        assert sel.mu_y == pytest.approx(1728.0)

    def test_returned_tau_satisfies_power_bound(self):
        for rate in (0.9, 0.5, 0.1):
            sel = theory.select_parameters(1.0, K2_SPECTRUM, p_min=0.8, rate=rate)
            bound = theory.rate_power_bound(K2_SPECTRUM, 0.8, sel.mu_z)
            assert rate**sel.tau <= bound

    def test_rejects_rate_outside_unit_interval(self):
        with pytest.raises(ParameterSelectionError, match="contraction"):
            theory.select_parameters(1.0, K2_SPECTRUM, p_min=1.0, rate=1.0)


class TestComputeConstants:
    def _prescribed(self, spectral, lip=1.0, p_min=1.0, rate=0.5):
        sel = theory.select_parameters(lip, spectral, p_min, rate)
        return theory.compute_constants(lip, spectral, p_min, rate, sel)

    def test_prescribed_parameters_meet_all_conditions(self):
        # Dense graph: the positivity margin scales with the degree.
        spectral = graphs.laplacian_spectrum(graphs.complete_graph(6))
        report = self._prescribed(spectral)
        assert report.ok
        c = report.constants
        assert 0.0 < c.chat1 < 1.0
        assert c.c3 > 0.0 and c.c4 > 0.0
        assert c.c1 > 0.0 and np.isfinite(c.c1)
        assert c.c2 > 0.0 and np.isfinite(c.c2)

    def test_k2_hypotheses_hold_but_c3_needs_slack(self):
        # At the exact floor parameters on a single edge the hypotheses all
        # hold yet c3 comes out negative; the dominant term of c3 decays like
        # 1/d_max^2 and only dense graphs leave a margin.  Extra budget
        # (rate power well below its bound) restores positivity.  The report
        # names the negative c3, so it is not ok.
        report = self._prescribed(K2_SPECTRUM)
        paper = ("mu_z_at_least_1_plus_2L", "mu_y_at_least_floor", "rate_power_below_bound",
                 "chat1_positive", "chat4_gap_positive")
        assert all(report.conditions_met[name] for name in paper)
        assert report.violations == ("c3_positive",)
        assert report.constants.c3 < 0.0 < report.constants.c4
        sel = theory.select_parameters(1.0, K2_SPECTRUM, p_min=1.0, rate=0.5)
        relaxed = theory.compute_constants(
            1.0, K2_SPECTRUM, 1.0, 0.5, replace(sel, tau=sel.tau + 10)
        )
        assert relaxed.constants.c3 > 0.0 and relaxed.constants.c4 > 0.0

    def test_chat2_at_full_participation(self):
        report = self._prescribed(K2_SPECTRUM, p_min=1.0)
        assert report.constants.chat2 == pytest.approx(1.0)

    def test_negative_c3_and_c4_are_violations(self):
        # A theory run on a sparse random graph: every hypothesis of the
        # paper holds, but c3 and c4 come out negative and the bound is
        # vacuous (c1 infinite), so the report names both.
        cfg = ExperimentConfig(
            seed=0, rounds=0, mode="theory", topology_kind="random", topology_m=8,
            loss_kind="quadratic", quadratic_style="random", loss_dimension=5,
            metrics_wall_time=False,
        )
        report = run_experiment(cfg, write_outputs=False).summary["theory"]["report"]
        assert report["violations"] == ["c3_positive", "c4_positive"]
        assert report["constants"]["c3"] < 0.0 and report["constants"]["c4"] < 0.0

    def test_violation_report_instead_of_nan(self):
        # tau = 1 with rate 0.9 leaves chat1 = 1 - 4*0.9 < 0.
        params = theory.SelectedParameters(mu_z=3.0, mu_y=1728.0, tau=1)
        report = theory.compute_constants(1.0, K2_SPECTRUM, 1.0, 0.9, params)
        assert report.constants is None
        assert not report.conditions_met["chat1_positive"]
        assert "chat1_positive" in report.violations

    @pytest.mark.parametrize(
        "lip, p_min, rate, mu_z, mu_y, tau, name",
        [
            (1.0, 0.0, 0.5, 3.0, 1728.0, 5, "p_min"),
            (1.0, 1.0, 1.0, 3.0, 1728.0, 5, "rate"),
            (0.0, 1.0, 0.5, 3.0, 1728.0, 5, "lipschitz"),
            (1.0, 1.0, 0.5, 0.0, 1728.0, 5, "mu_z"),
            (1.0, 1.0, 0.5, 3.0, -1.0, 5, "mu_y"),
            (1.0, 1.0, 0.5, 3.0, 1728.0, 0, "tau"),
        ],
    )
    def test_out_of_domain_input_raises(self, lip, p_min, rate, mu_z, mu_y, tau, name):
        # The inputs that are config parameters are refused as their keys.
        keys = {"p_min": "caden.participation", "mu_z": "caden.mu_z", "mu_y": "caden.mu_y",
                "tau": "caden.tau"}
        error, named = (ConfigError, keys[name]) if name in keys else (ValueError, name)
        params = theory.SelectedParameters(mu_z=mu_z, mu_y=mu_y, tau=tau)
        with pytest.raises(error, match=f"^{re.escape(named)} must"):
            theory.compute_constants(lip, K2_SPECTRUM, p_min, rate, params)

    def test_monotone_in_rate_at_fixed_parameters(self):
        # On K6 every rate gives positive c3 and c4, so c1 and c2 are finite.
        spectral = graphs.laplacian_spectrum(graphs.complete_graph(6))
        sel = theory.select_parameters(1.0, spectral, p_min=1.0, rate=0.9)
        prev_c1 = prev_c2 = np.inf
        for rate in (0.9, 0.5, 0.1):
            report = theory.compute_constants(1.0, spectral, 1.0, rate, sel)
            assert report.ok and np.isfinite(report.constants.c1)
            assert report.constants.c1 <= prev_c1
            assert report.constants.c2 <= prev_c2
            prev_c1, prev_c2 = report.constants.c1, report.constants.c2

    @pytest.mark.parametrize("rate", [0.9, 0.5, 0.1])
    def test_selection_passes_preconditions_on_grid(self, rate):
        for spectral, lip, p_min in constants_grid():
            sel = theory.select_parameters(lip, spectral, p_min, rate)
            report = theory.compute_constants(lip, spectral, p_min, rate, sel)
            assert report.ok, (spectral, lip, p_min, report.violations)

    def test_full_grid_suite(self):
        result = verify_constants()
        assert result.passed, result.details["failures"]


class TestScalingCheck:
    def test_doubling_smoothness_scales_c1_boundedly(self):
        # All else fixed: evaluate at L and 2L under one parameter triple
        # (selected for the larger L so the hypotheses hold at both).
        spectral = graphs.laplacian_spectrum(graphs.complete_graph(8))
        lip = 0.5
        sel = theory.select_parameters(2 * lip, spectral, p_min=1.0, rate=0.5)
        c1 = []
        for level in (lip, 2 * lip):
            report = theory.compute_constants(level, spectral, 1.0, 0.5, sel)
            assert report.ok
            c1.append(report.constants.c1)
        assert c1[1] / c1[0] <= 2.0 * 1.5

    def test_ratio_bounded_across_grid(self):
        report = corollary_scaling_check(constants_grid(), rate=0.5)
        assert np.isfinite(report.ratio_max)
        assert report.ratio_max < 1e3
        assert report.spread >= 1.0

    def test_halving_participation_logged(self):
        # Diagnostic only: the claim is asymptotic order, so the growth is
        # reported, not asserted.
        spectral = graphs.laplacian_spectrum(graphs.complete_graph(8))
        report = corollary_scaling_check(
            [(spectral, 1.0, 1.0), (spectral, 1.0, 0.5)], rate=0.5
        )
        assert len(report.entries) == 2
        assert report.entries[1].claimed == pytest.approx(2 * report.entries[0].claimed)


class TestInitialError:
    def test_consensus_stationary_point_is_zero(self):
        # Zero duals at round 0: every block vanishes only when the agents
        # share a minimizer and start there in consensus.
        topology = graphs.complete_graph(3)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.array([1.0])) for _ in range(3)])
        x = np.full((3, 1), 1.0)
        config = CadenConfig(mu_z=3.0, mu_y=1.0)
        assert augmented_gradient_error(x, np.zeros_like(x), losses, topology,
                                        config.mu_z) == 0.0

    def test_k2_hand_value(self):
        topology = graphs.complete_graph(2)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
                            QuadraticLoss(q=np.ones(1), a=np.array([2.0]))])
        x = np.array([[0.0], [2.0]])
        config = CadenConfig(mu_z=3.0, mu_y=1.0)
        e0 = augmented_gradient_error(x, np.zeros_like(x), losses, topology, config.mu_z)
        assert e0 == pytest.approx(18.0)

    def test_round_t_diagnostic_reduces_to_e0_at_start(self):
        topology = graphs.complete_graph(2)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
                            QuadraticLoss(q=np.ones(1), a=np.array([2.0]))])
        state = engine.init_states(losses, topology, np.array([[0.0], [2.0]]))
        x, phi = state.x, state.phi
        config = CadenConfig(mu_z=3.0, mu_y=1.0)
        e0 = augmented_gradient_error(x, np.zeros_like(x), losses, topology, config.mu_z)
        assert augmented_gradient_error(
            x, phi, losses, topology, config.mu_z
        ) == pytest.approx(e0)
        engine.run_round(state, losses, topology, config, 0)
        assert augmented_gradient_error(x, phi, losses, topology, config.mu_z) >= 0.0

    def test_matches_subproblem_gradient_blocks(self):
        rng = np.random.default_rng(0)
        topology = graphs.build_random_graph(5, 0.6, seed=1)
        losses = LossStack([QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2))
                            for _ in range(5)])
        x0 = rng.standard_normal((5, 2))
        config = CadenConfig(mu_z=2.0, mu_y=1.0)
        total = 0.0
        for i in range(5):
            anchors = np.array([0.5 * (x0[i] + x0[j]) for j in neighbors(topology, i)])
            batch = batch_of([Row(loss=losses[i], phi=np.zeros(2), anchors=anchors, mu_z=2.0)])
            block = batch.evaluate(x0[i][None])[1][0]
            total += float(block @ block)
        e0 = augmented_gradient_error(x0, np.zeros_like(x0), losses, topology, config.mu_z)
        assert e0 == pytest.approx(total)
