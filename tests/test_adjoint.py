from dataclasses import replace

import numpy as np
import pytest

import inhibopt as ib
from conftest import rel_err, reference_averaged, reference_pde

ONE = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731
FD_EPS = 1e-5


def averaged_setup(rng, h=5e-4, continuous_unit=0.3, final=0.25):
    prob = reference_averaged(h=h)
    tg = prob.time_grid
    costs = ib.CostSpec(np.full(tg.n_candidates, 0.4), np.full(tg.n_steps, continuous_unit),
                        np.asarray(final))
    v = ib.PulseStrategy(0.2 + 0.6 * rng.random(tg.n_candidates))
    u = ib.ContinuousControl(np.full(tg.n_steps, 0.5))
    forward = ib.simulate_averaged(prob, u, v)
    adjoint = ib.solve_adjoint_averaged(prob, u, v, costs, forward)
    return prob, tg, costs, v, u, forward, adjoint


def cost_of_averaged(prob, costs, u, v):
    traj = ib.simulate_averaged(prob, u, v)
    return ib.cost_averaged(traj, v, u, costs).total


class TestAdjointAveraged:
    def test_terminal_value(self, rng):
        _, _, costs, _, _, _, adjoint = averaged_setup(rng)
        assert adjoint.values[-1] == float(costs.final)

    def test_constant_coefficient_closed_form(self):
        # alpha=1, u=0, C_f=0, no pulses: p(t) = 1 - e^{-(1-t)}
        tg = ib.TimeGrid(1.0, 1e-3, ())
        prob = ib.AveragedProblem(tg, ONE, ib.ChemicalParams(0.0, 0.0), 0.4)
        forward = ib.simulate_averaged(prob)
        costs = ib.CostSpec.constant(tg, 0.5)
        adjoint = ib.solve_adjoint_averaged(prob, None, ib.PulseStrategy.no_intervention(tg),
                                            costs, forward)
        exact = 1.0 - np.exp(-(1.0 - tg.times))
        assert rel_err(adjoint.values[0], 1.0 - np.exp(-1.0)) < 1e-12
        assert np.max(np.abs(adjoint.values[:-1] - exact[:-1])) < 1e-12

    def test_jump_formula(self, rng):
        prob, _, costs, v, u, forward, adjoint = averaged_setup(rng)
        for j in adjoint.jumps:
            c_i = float(costs.pulse_unit[j.candidate_index])
            assert j.p_minus == j.applied * j.p_plus + c_i * (1.0 - j.applied)

    def test_jump_value_example(self):
        # v=0, c=0.3, p_plus=0.5 -> p(tau) = 0.3
        tg = ib.TimeGrid(1.0, 1e-3, (0.5,))
        prob = ib.AveragedProblem(tg, lambda t: np.zeros_like(np.asarray(t, float)),
                                  ib.ChemicalParams(0.0, 0.0), 0.4)
        v = ib.PulseStrategy(np.array([0.0]))
        forward = ib.simulate_averaged(prob, None, v)
        # C_f = 0 and source -1 over [0.5, 1] gives p(tau^+) = 0.5 exactly
        costs = ib.CostSpec(np.array([0.3]), np.zeros(tg.n_steps), np.asarray(0.0))
        adjoint = ib.solve_adjoint_averaged(prob, None, v, costs, forward)
        (jump,) = adjoint.jumps
        assert jump.p_plus == pytest.approx(0.5, rel=1e-12)
        assert jump.p_minus == pytest.approx(0.3, rel=1e-12)

    def test_positive_costate(self, rng):
        for _ in range(5):
            prob = reference_averaged(sigma=float(rng.uniform(0, 0.9)))
            tg = prob.time_grid
            costs = ib.CostSpec.constant(tg, float(rng.uniform(0, 1)), final=float(rng.uniform(0, 1)))
            v = ib.PulseStrategy(rng.random(tg.n_candidates))
            u = ib.ContinuousControl.constant(tg, float(rng.uniform(0, 0.9)))
            forward = ib.simulate_averaged(prob, u, v)
            adjoint = ib.solve_adjoint_averaged(prob, u, v, costs, forward)
            assert adjoint.values.min() >= 0.0


class TestAdjointPde:
    def test_zero_final_cost_terminal(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2)
        v = ib.PulseStrategy.no_intervention(prob.time_grid)
        costs = ib.CostSpec.constant(prob.time_grid, 0.5)
        forward = ib.simulate_pde(prob, None, v)
        adjoint = ib.solve_adjoint_pde(prob, None, v, costs, forward)
        assert np.all(adjoint.values[-1] == 0.0)

    def test_pure_time_integration_without_dynamics(self):
        # alpha=0, A=0, no pulses: p(t,x) = C_f(x) + (T - t)
        grid = ib.SpaceGrid.from_cells(2, 2, 1)
        tg = ib.TimeGrid(0.5, 1e-3, ())
        cf = np.linspace(0, 1, grid.npoints).reshape(grid.dims)
        prob = ib.PdeProblem(tg, grid, ib.ConstantPressure.uniform(grid, 0.0),
                             ib.DiffusionField.isotropic(grid, 0.0),
                             ib.ChemicalParams(0.0, 0.0), ib.ScalarField.uniform(grid, 0.4))
        v = ib.PulseStrategy.no_intervention(tg)
        costs = ib.CostSpec(np.zeros(0), np.zeros(tg.n_steps), cf)
        forward = ib.simulate_pde(prob, None, v)
        adjoint = ib.solve_adjoint_pde(prob, None, v, costs, forward)
        expected = cf[None] + (0.5 - tg.times)[:, None, None, None]
        assert np.max(np.abs(adjoint.values - expected)) < 1e-10

    def test_uniform_data_matches_averaged(self, rng):
        prob = reference_pde(cells=(3, 3, 2), t_end=0.5, h=2e-4)
        tg = prob.time_grid
        v_scalar = rng.random(tg.n_candidates)
        costs = ib.CostSpec.constant(tg, 0.4, final=0.3)
        u = ib.ContinuousControl.constant(tg, 0.5)
        fwd_p = ib.simulate_pde(prob, u, ib.PulseStrategy(v_scalar))
        adj_p = ib.solve_adjoint_pde(prob, u, ib.PulseStrategy(v_scalar), costs, fwd_p)
        fwd_a = ib.simulate_averaged(prob.averaged(), u, ib.PulseStrategy(v_scalar))
        adj_a = ib.solve_adjoint_averaged(prob.averaged(), u, ib.PulseStrategy(v_scalar),
                                          costs, fwd_a)
        dev = np.max(np.abs(adj_p.values.mean(axis=(1, 2, 3)) - adj_a.values))
        assert dev < 1e-8
        spread = np.max(adj_p.values.max(axis=(1, 2, 3)) - adj_p.values.min(axis=(1, 2, 3)))
        assert spread == 0.0


class TestGradientPulse:
    def test_zero_direction(self, rng):
        _, tg, costs, v, u, forward, adjoint = averaged_setup(rng)
        report = ib.gradient_pulse(forward, adjoint, costs, direction=np.zeros(tg.n_candidates))
        assert report.directional_value == 0.0

    def test_stationary_when_cost_equals_costate(self):
        # c_i = p(tau_i^+) makes the coefficient vanish identically
        tg = ib.TimeGrid(1.0, 1e-3, (0.5,))
        prob = ib.AveragedProblem(tg, lambda t: np.zeros_like(np.asarray(t, float)),
                                  ib.ChemicalParams(0.0, 0.0), 0.4)
        v = ib.PulseStrategy(np.array([0.7]))
        forward = ib.simulate_averaged(prob, None, v)
        costs = ib.CostSpec(np.array([0.5]), np.zeros(tg.n_steps), np.asarray(0.0))
        adjoint = ib.solve_adjoint_averaged(prob, None, v, costs, forward)
        report = ib.gradient_pulse(forward, adjoint, costs)
        assert report.pulse_gradient[0] == 0.0

    def test_matches_finite_differences(self, rng):
        prob, tg, costs, v, u, forward, adjoint = averaged_setup(rng)
        d = rng.random(tg.n_candidates) - 0.5
        adj_val = ib.gradient_pulse(forward, adjoint, costs, direction=d).directional_value
        fd = (cost_of_averaged(prob, costs, u, ib.PulseStrategy(v.values + FD_EPS * d))
              - cost_of_averaged(prob, costs, u, ib.PulseStrategy(v.values - FD_EPS * d))) / (2 * FD_EPS)
        assert rel_err(adj_val, fd) < 1e-4

    @pytest.mark.parametrize("pulses", ["missing", "extra"])
    def test_unpaired_pulse_sets_are_refused(self, rng, pulses):
        _, _, costs, _, _, forward, adjoint = averaged_setup(rng)
        jumps = adjoint.jumps[1:] if pulses == "missing" else [
            *adjoint.jumps, adjoint.jumps[0]._replace(node_index=len(adjoint.times) - 1)]
        with pytest.raises(ib.ProblemError, match="forward and adjoint pulse sets differ"):
            ib.gradient_pulse(forward, replace(adjoint, jumps=jumps), costs)

    def test_strategy_direction_is_its_values(self, rng):
        _, tg, costs, _, _, forward, adjoint = averaged_setup(rng)
        d = rng.random(tg.n_candidates) - 0.5
        assert (ib.gradient_pulse(forward, adjoint, costs, direction=ib.PulseStrategy(d)).directional_value
                == ib.gradient_pulse(forward, adjoint, costs, direction=d).directional_value)

    def test_duality_with_forward_sensitivity(self, rng):
        prob, tg, costs, v, u, forward, adjoint = averaged_setup(rng)
        d = rng.random(tg.n_candidates) - 0.5
        adj_val = ib.gradient_pulse(forward, adjoint, costs, direction=d).directional_value
        z = ib.sensitivity_pulse_averaged(prob, u, v, d, forward=forward)
        var_val = ib.variational_pulse_value(forward, z, v, d, costs)
        assert rel_err(var_val, adj_val) < 1e-6


class TestGradientContinuous:
    def test_sigma_zero_returns_unit_cost(self, rng):
        prob = reference_averaged(sigma=0.0)
        tg = prob.time_grid
        costs = ib.CostSpec.constant(tg, 0.4, continuous_unit=0.7)
        v = ib.PulseStrategy.no_intervention(tg)
        u = ib.ContinuousControl.constant(tg, 0.3)
        forward = ib.simulate_averaged(prob, u, v)
        adjoint = ib.solve_adjoint_averaged(prob, u, v, costs, forward)
        report = ib.gradient_continuous(prob, forward, adjoint, u, costs)
        assert np.array_equal(report.continuous_gradient, costs.continuous_unit)

    def test_pointwise_arithmetic(self):
        # C=0.5, sigma=0.3, alpha=1, p=0.5, theta=0.4, u=0 -> 0.5 - 0.06 = 0.44
        val = 0.5 - 0.3 * 1.0 * 0.5 * 0.4 / (1.0 - 0.0) ** 2
        assert val == pytest.approx(0.44, abs=1e-15)
        tg = ib.TimeGrid(1.0, 0.5, ())
        prob = ib.AveragedProblem(tg, ONE, ib.ChemicalParams(0.3, 0.0), 0.4)
        forward = ib.AveragedTrajectory(tg.times.copy(), np.full(len(tg.times), 0.4), [])
        adjoint = ib.AdjointTrajectory(tg.times.copy(), np.full(len(tg.times), 0.5), [])
        u = ib.ContinuousControl.constant(tg, 0.0)
        costs = ib.CostSpec.constant(tg, 0.4, continuous_unit=0.5)
        report = ib.gradient_continuous(prob, forward, adjoint, u, costs)
        assert np.max(np.abs(report.continuous_gradient - 0.44)) < 1e-15

    def test_matches_finite_differences(self, rng):
        prob, tg, costs, v, u, forward, adjoint = averaged_setup(rng)
        d = rng.random(tg.n_steps) - 0.5
        adj_val = ib.gradient_continuous(prob, forward, adjoint, u, costs,
                                         direction=d).directional_value
        fd = (cost_of_averaged(prob, costs, ib.ContinuousControl(np.clip(u.samples + FD_EPS * d, 0, 1)), v)
              - cost_of_averaged(prob, costs, ib.ContinuousControl(np.clip(u.samples - FD_EPS * d, 0, 1)), v)) / (2 * FD_EPS)
        assert rel_err(adj_val, fd) < 1e-4

    def test_control_direction_is_its_samples(self, rng):
        prob, tg, costs, _, u, forward, adjoint = averaged_setup(rng)
        d = rng.random(tg.n_steps) - 0.5
        assert (ib.gradient_continuous(prob, forward, adjoint, u, costs,
                                       direction=ib.ContinuousControl(d)).directional_value
                == ib.gradient_continuous(prob, forward, adjoint, u, costs, direction=d).directional_value)

    def test_duality_with_forward_sensitivity(self, rng):
        prob, tg, costs, v, u, forward, adjoint = averaged_setup(rng)
        d = rng.random(tg.n_steps) - 0.5
        adj_val = ib.gradient_continuous(prob, forward, adjoint, u, costs,
                                         direction=d).directional_value
        z = ib.sensitivity_continuous(prob, u, d, forward)
        var_val = ib.variational_continuous_value(z, v, d, costs)
        assert rel_err(var_val, adj_val) < 1e-6

    def test_division_guard(self, rng):
        prob = reference_averaged(sigma=1.0)
        tg = prob.time_grid
        costs = ib.CostSpec.constant(tg, 0.4)
        v = ib.PulseStrategy.no_intervention(tg)
        u = ib.ContinuousControl.constant(tg, 1.0)  # sigma*u = 1
        forward = ib.AveragedTrajectory(tg.times.copy(), np.full(len(tg.times), 0.4), [])
        adjoint = ib.AdjointTrajectory(tg.times.copy(), np.zeros(len(tg.times)), [])
        with pytest.raises(ib.ProblemError):
            ib.gradient_continuous(prob, forward, adjoint, u, costs)


class TestSensitivityContinuous:
    def test_zero_direction(self, rng):
        prob, tg, costs, v, u, forward, _ = averaged_setup(rng)
        z = ib.sensitivity_continuous(prob, u, np.zeros(tg.n_steps), forward)
        assert np.all(z.values == 0.0)

    def test_impotent_control_when_sigma_zero(self, rng):
        prob = reference_averaged(sigma=0.0)
        tg = prob.time_grid
        v = ib.PulseStrategy.no_intervention(tg)
        u = ib.ContinuousControl.constant(tg, 0.5)
        forward = ib.simulate_averaged(prob, u, v)
        z = ib.sensitivity_continuous(prob, u, rng.random(tg.n_steps), forward)
        assert np.all(z.values == 0.0)


class TestPdeGradients:
    """Space-dependent analogues on a small grid with non-uniform data, at two
    spacings: the oracles integrate over space in the records' own quadrature."""

    @pytest.fixture(params=[1.0, 0.5], ids=["ds=1", "ds=0.5"])
    def setup(self, request, rng):
        grid = ib.SpaceGrid.from_cells(2, 2, 1, spacing=request.param)
        amp = ib.build_random_amplitude(grid, 1.2, seed=11)
        prob = reference_pde(cells=(2, 2, 1), t_end=0.3, amplitude=amp, spacing=request.param,
                         initial=ib.ScalarField(grid, 0.2 + 0.5 * rng.random(grid.dims)))
        tg = prob.time_grid
        costs = ib.CostSpec(np.full(tg.n_candidates, 0.4), np.full(tg.n_steps, 0.3),
                            np.asarray(0.25))
        v = ib.PulseStrategy(0.2 + 0.6 * rng.random((tg.n_candidates, *grid.dims)))
        u = ib.ContinuousControl(np.full((tg.n_steps, *grid.dims), 0.5))
        forward = ib.simulate_pde(prob, u, v)
        adjoint = ib.solve_adjoint_pde(prob, u, v, costs, forward)
        return prob, tg, grid, costs, v, u, forward, adjoint

    @staticmethod
    def cost_of(prob, costs, u, v):
        traj = ib.simulate_pde(prob, u, v)
        return ib.cost_pde(traj, v, u, costs, prob).total

    def test_pulse_gradient_fd_and_duality(self, setup, rng):
        prob, tg, grid, costs, v, u, forward, adjoint = setup
        d = rng.random((tg.n_candidates, *grid.dims)) - 0.5
        adj_val = ib.gradient_pulse(forward, adjoint, costs, direction=d).directional_value
        fd = (self.cost_of(prob, costs, u, ib.PulseStrategy(v.values + FD_EPS * d))
              - self.cost_of(prob, costs, u, ib.PulseStrategy(v.values - FD_EPS * d))) / (2 * FD_EPS)
        assert rel_err(adj_val, fd) < 1e-4
        z = ib.sensitivity_pulse_pde(prob, u, d, forward)
        var_val = ib.variational_pulse_value(forward, z, v, d, costs)
        assert rel_err(var_val, adj_val) < 1e-6

    def test_continuous_gradient_fd_and_duality(self, setup, rng):
        prob, tg, grid, costs, v, u, forward, adjoint = setup
        d = rng.random((tg.n_steps, *grid.dims)) - 0.5
        adj_val = ib.gradient_continuous(prob, forward, adjoint, u, costs,
                                         direction=d).directional_value
        fd = (self.cost_of(prob, costs, ib.ContinuousControl(np.clip(u.samples + FD_EPS * d, 0, 1)), v)
              - self.cost_of(prob, costs, ib.ContinuousControl(np.clip(u.samples - FD_EPS * d, 0, 1)), v)) / (2 * FD_EPS)
        assert rel_err(adj_val, fd) < 1e-4
        z = ib.sensitivity_continuous(prob, u, d, forward)
        var_val = ib.variational_continuous_value(z, v, d, costs)
        assert rel_err(var_val, adj_val) < 1e-6

    def test_records_carry_the_space_weight(self, setup, rng):
        prob, tg, grid, costs, v, u, forward, adjoint = setup
        tangent = ib.sensitivity_pulse_pde(prob, u, rng.random(v.values.shape), forward)
        report = ib.gradient_pulse(forward, adjoint, costs)
        for weighted in (forward, adjoint, tangent, report):
            assert weighted.space_weight == grid.spacing**3
        averaged = reference_averaged(t_end=0.3)
        for scalar in (ib.simulate_averaged(averaged), ib.spatial_average(forward)):
            assert scalar.space_weight == 1.0
