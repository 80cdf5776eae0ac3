import numpy as np
import pytest

import inhibopt as ib
from conftest import WEEK, rel_err, reference_alpha, reference_averaged

ZERO = lambda t: np.zeros_like(np.asarray(t, dtype=float))  # noqa: E731
ONE = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731


class TestSemiflowStep:
    def test_no_pressure_is_identity(self):
        out = ib.semiflow_step(0.37, 0.0, 0.5, ZERO, ZERO, 0.3)
        assert out == 0.37

    def test_constant_coefficients_closed_form(self):
        # alpha=1, u=0: Theta(t) = x*e^-t + (1 - e^-t)
        out = ib.semiflow_step(0.4, 0.0, 1.0, ONE, ZERO, 0.7)
        expected = 0.4 * np.exp(-1.0) + (1.0 - np.exp(-1.0))
        assert rel_err(out, expected) < 1e-12

    def test_equilibrium_is_fixed(self):
        sigma, uval = 0.3, 0.8
        out = ib.semiflow_step(1.0 - sigma * uval, 0.0, 2.0, ONE,
                               lambda t: np.full_like(np.asarray(t, dtype=float), uval), sigma)
        assert out == pytest.approx(1.0 - sigma * uval, abs=1e-14)

    @pytest.mark.parametrize("uval", [0.0, 0.8])
    def test_agrees_with_the_simulated_run(self, uval):
        # the closed form and the chunk maps of simulate_averaged on one uniform grid
        tg = ib.TimeGrid(0.031, 1e-3, ())
        alpha = reference_alpha()
        prob = ib.AveragedProblem(tg, alpha, ib.ChemicalParams(0.3, 0.0), 0.4)
        traj = ib.simulate_averaged(prob, ib.ContinuousControl.constant(tg, uval))
        out = ib.semiflow_step(0.4, 0.0, 0.031, alpha,
                               lambda t: np.full_like(np.asarray(t, dtype=float), uval), 0.3)
        assert out == pytest.approx(traj.values[-1], abs=1e-14)

    def test_composition_consistency(self):
        alpha = reference_alpha()
        # spans aligned with the sub-step grid compose exactly
        s1 = ib.semiflow_step(0.4, 0.0, 0.013, alpha, ZERO, 0.3, step=1e-3)
        s2 = ib.semiflow_step(s1, 0.013, 0.031, alpha, ZERO, 0.3, step=1e-3)
        s12 = ib.semiflow_step(0.4, 0.0, 0.031, alpha, ZERO, 0.3, step=1e-3)
        assert abs(s2 - s12) < 1e-10

    def test_rejects_reversed_span(self):
        with pytest.raises(ib.ProblemError):
            ib.semiflow_step(0.4, 1.0, 0.5, ONE, ZERO, 0.3)

    def test_nonfinite_pressure_reported(self):
        def bad(t):
            t = np.asarray(t, dtype=float)
            return np.where(t > 0.5, np.nan, 1.0)

        with pytest.raises(ib.QuadratureError):
            ib.semiflow_step(0.4, 0.0, 1.0, bad, ZERO, 0.0)


class TestSimulateAveraged:
    def test_noop_pulses_have_pre_equal_post(self):
        prob = reference_averaged()
        traj = ib.simulate_averaged(prob)  # v = 1 everywhere
        assert len(traj.jumps) == 51
        for j in traj.jumps:
            assert j.post == j.pre

    def test_weekly_candidates_realize_51_pulses(self):
        prob = reference_averaged(sigma_star=0.0)
        traj = ib.simulate_averaged(prob)
        assert len(traj.jumps) == 51

    def test_unreachable_threshold_gives_no_pulses(self):
        prob = reference_averaged(sigma_star=2.0)
        traj = ib.simulate_averaged(prob)
        assert traj.jumps == []

    def test_jump_identity_exact(self, rng):
        prob = reference_averaged()
        v = ib.PulseStrategy(rng.random(prob.time_grid.n_candidates))
        traj = ib.simulate_averaged(prob, v=v)
        for j in traj.jumps:
            assert j.post == j.applied * j.pre

    def test_strategy_length_checked(self):
        prob = reference_averaged()
        with pytest.raises(ib.ProblemError):
            ib.simulate_averaged(prob, v=ib.PulseStrategy(np.ones(3)))

    def test_constant_coefficient_closed_form_all_nodes(self):
        tg = ib.TimeGrid(1.0, 1e-3, ())
        prob = ib.AveragedProblem(tg, ONE, ib.ChemicalParams(0.0, 0.0), 0.4)
        traj = ib.simulate_averaged(prob)
        exact = 1.0 + (0.4 - 1.0) * np.exp(-traj.times)
        assert np.max(np.abs(traj.values - exact) / exact) < 1e-12

    def test_piecewise_constant_closed_form(self):
        # alpha jumps at t=0.5 (a node); the exponential step is exact per piece
        tg = ib.TimeGrid(1.0, 1e-3, (0.5,))

        def alpha(t):
            t = np.asarray(t, dtype=float)
            return np.where(t < 0.5, 2.0, 0.5)

        prob = ib.AveragedProblem(tg, alpha, ib.ChemicalParams(0.0, 0.0), 0.1)
        v = ib.PulseStrategy(np.array([0.6]))
        traj = ib.simulate_averaged(prob, v=v)

        def exact(t):
            first = 1.0 + (0.1 - 1.0) * np.exp(-2.0 * t)
            at_mid = 1.0 + (0.1 - 1.0) * np.exp(-1.0)
            after = 1.0 + (0.6 * at_mid - 1.0) * np.exp(-0.5 * (t - 0.5))
            return np.where(t <= 0.5, first, after)

        assert np.max(np.abs(traj.values - exact(traj.times))) < 1e-8

    def test_invariance_bounds_random_problems(self, rng):
        for _ in range(25):
            tg = ib.TimeGrid.regular(0.5, 1e-3, WEEK)
            a = rng.uniform(0.2, 2.0)
            prob = ib.AveragedProblem(
                tg, ib.seasonal_profile(a, rng.uniform(0, 1), rng.uniform(0.05, 1.0)),
                ib.ChemicalParams(rng.uniform(0, 0.9), 0.0), rng.uniform(0, 1),
            )
            u = ib.ContinuousControl.constant(tg, rng.uniform(0, 0.9))
            v = ib.PulseStrategy(rng.random(tg.n_candidates))
            traj = ib.simulate_averaged(prob, u, v)
            assert traj.values.min() >= -1e-9 and traj.values.max() <= 1 + 1e-9

    def test_pulse_monotone_damage(self, rng):
        prob = reference_averaged()
        m = prob.time_grid.n_candidates
        v_hi = rng.random(m)
        v_lo = v_hi * rng.random(m)  # pointwise <= v_hi
        t_hi = ib.simulate_averaged(prob, v=ib.PulseStrategy(v_hi))
        t_lo = ib.simulate_averaged(prob, v=ib.PulseStrategy(v_lo))
        assert np.all(t_lo.values <= t_hi.values + 1e-12)


class TestCostAveraged:
    def test_zero_state_zero_cost(self):
        tg = ib.TimeGrid.regular(1.0, 1e-3, WEEK)
        prob = ib.AveragedProblem(tg, ZERO, ib.ChemicalParams(0.3, 0.0), 0.0)
        traj = ib.simulate_averaged(prob)
        cost = ib.cost_averaged(traj, ib.PulseStrategy.no_intervention(tg), None,
                                ib.CostSpec.constant(tg, 0.5))
        assert cost.total == 0.0

    def test_constant_trajectory_quadrature(self):
        # alpha=0 keeps Theta at 0.4; J = 0.4*T + C_f*0.4 = 0.6
        tg = ib.TimeGrid.regular(1.0, 1e-3, WEEK)
        prob = ib.AveragedProblem(tg, ZERO, ib.ChemicalParams(0.3, 0.0), 0.4)
        traj = ib.simulate_averaged(prob)
        cost = ib.cost_averaged(traj, ib.PulseStrategy.no_intervention(tg), None,
                                ib.CostSpec.constant(tg, 0.5, final=0.5))
        assert rel_err(cost.total, 0.6) < 1e-12
        assert cost.pulse == 0.0

    def test_single_pulse_component(self):
        # one candidate, v=0, c=0.25, alpha=0 so Theta(tau)=0.4 -> pulse cost 0.1
        tg = ib.TimeGrid(1.0, 1e-3, (0.5,))
        prob = ib.AveragedProblem(tg, ZERO, ib.ChemicalParams(0.0, 0.0), 0.4)
        v = ib.PulseStrategy(np.array([0.0]))
        traj = ib.simulate_averaged(prob, v=v)
        cost = ib.cost_averaged(traj, v, None, ib.CostSpec.constant(tg, 0.25))
        assert cost.pulse == pytest.approx(0.1, rel=1e-12)

    def test_running_control_term(self):
        tg = ib.TimeGrid.regular(1.0, 1e-3, WEEK)
        prob = ib.AveragedProblem(tg, ZERO, ib.ChemicalParams(0.3, 0.0), 0.0)
        u = ib.ContinuousControl.constant(tg, 0.5)
        traj = ib.simulate_averaged(prob, u)
        cost = ib.cost_averaged(traj, ib.PulseStrategy.no_intervention(tg), u,
                                ib.CostSpec.constant(tg, 0.5, continuous_unit=0.8))
        assert rel_err(cost.running_control, 0.8 * 0.5 * 1.0) < 1e-12

    def test_cost_bound(self, rng):
        # J <= 1 + T*(1 + max C) + sum(c_i)
        for _ in range(10):
            prob = reference_averaged(theta0=rng.uniform(0, 1))
            tg = prob.time_grid
            c = rng.uniform(0, 1)
            cmax = rng.uniform(0, 1)
            costs = ib.CostSpec.constant(tg, c, continuous_unit=cmax, final=rng.uniform(0, 1))
            u = ib.ContinuousControl.constant(tg, rng.random())
            v = ib.PulseStrategy(rng.random(tg.n_candidates))
            traj = ib.simulate_averaged(prob, u, v)
            cost = ib.cost_averaged(traj, v, u, costs)
            bound = 1.0 + 1.0 * (1.0 + cmax) + tg.n_candidates * c + float(costs.final)
            assert 0.0 <= cost.total <= bound

    def test_length_mismatch_rejected(self):
        prob = reference_averaged()
        tg = prob.time_grid
        traj = ib.simulate_averaged(prob)
        short = ib.CostSpec(np.ones(3), np.zeros(tg.n_steps), np.asarray(0.0))
        with pytest.raises(ib.ProblemError):
            ib.cost_averaged(traj, ib.PulseStrategy.no_intervention(tg), None, short)


class TestSensitivityPulse:
    def test_zero_direction_gives_zero(self):
        prob = reference_averaged()
        v = ib.PulseStrategy(np.full(prob.time_grid.n_candidates, 0.7))
        z = ib.sensitivity_pulse_averaged(prob, None, v, np.zeros(prob.time_grid.n_candidates))
        assert np.all(z.values == 0.0)

    def test_constant_between_jumps_when_pressure_zero(self):
        tg = ib.TimeGrid(1.0, 1e-3, (0.5,))
        prob = ib.AveragedProblem(tg, ZERO, ib.ChemicalParams(0.0, 0.0), 0.4)
        v = ib.PulseStrategy(np.array([0.5]))
        z = ib.sensitivity_pulse_averaged(prob, None, v, np.array([1.0]))
        # zero decay: z stays 0 before the pulse and at d*Theta(tau) after
        pulse_node = tg.candidate_indices[0]
        assert np.all(z.values[: pulse_node + 1] == 0.0)
        assert np.all(z.values[pulse_node + 1:] == z.values[-1])
        assert z.values[-1] == pytest.approx(0.4, rel=1e-12)
