import numpy as np
import pytest

import inhibopt as ib
from conftest import REF_AMPLITUDE, REF_PEAK_TIME, REF_PERIOD, WEEK, reference_averaged, reference_pde


class TestTimeGrid:
    def test_weekly_candidate_count(self):
        tg = ib.TimeGrid.regular(1.0, 1e-3, WEEK)
        assert tg.n_candidates == 51
        assert tg.candidate_pulse_times[0] == pytest.approx(WEEK)
        assert tg.candidate_pulse_times[-1] == pytest.approx(51 * WEEK)

    def test_candidates_on_nodes(self):
        tg = ib.TimeGrid(1.0, 1e-3, (0.1, 0.25, 0.777))
        for idx, t in zip(tg.candidate_indices, tg.candidate_pulse_times):
            assert tg.times[idx] == t

    def test_step_bound_and_monotonicity(self):
        tg = ib.TimeGrid.regular(0.5, 1e-3, WEEK)
        assert tg.dt.max() <= 1e-3 + 1e-15
        assert np.all(tg.dt > 0)
        assert tg.times[0] == 0.0 and tg.times[-1] == 0.5

    def test_rejects_bad_candidates(self):
        with pytest.raises(ib.ProblemError):
            ib.TimeGrid(1.0, 1e-3, (0.2, 0.2))
        with pytest.raises(ib.ProblemError):
            ib.TimeGrid(1.0, 1e-3, (0.5, 1.5))
        with pytest.raises(ib.ProblemError):
            ib.TimeGrid(1.0, -1e-3, ())


class TestInhibitionPressure:
    def test_zero_at_peak_time(self):
        grid = ib.SpaceGrid.from_cells(2, 2, 2)
        p = ib.InhibitionPressure.uniform(grid, REF_AMPLITUDE, REF_PEAK_TIME, REF_PERIOD)
        assert ib.eval_inhibition_pressure(p, REF_PEAK_TIME, (1, 1, 1)) == 0.0

    def test_zero_at_origin(self):
        grid = ib.SpaceGrid.from_cells(2, 2, 2)
        p = ib.InhibitionPressure.uniform(grid, REF_AMPLITUDE, REF_PEAK_TIME, REF_PERIOD)
        assert ib.eval_inhibition_pressure(p, 0.0, (0, 0, 0)) == 0.0

    def test_value_at_085(self):
        # a*(t-b)^2*(1-cos(2*pi*t/c)) at t=0.85: cos(8.5*pi)=0, so 0.01*a
        grid = ib.SpaceGrid.from_cells(1, 1, 1)
        p = ib.InhibitionPressure.uniform(grid, REF_AMPLITUDE, REF_PEAK_TIME, REF_PERIOD)
        got = ib.eval_inhibition_pressure(p, 0.85, (0, 0, 0))
        assert got == pytest.approx(0.005 * np.log(10.0), rel=1e-12)

    def test_nonnegative_everywhere(self, rng):
        grid = ib.SpaceGrid.from_cells(3, 3, 2)
        amp = ib.build_random_amplitude(grid, 1.3, seed=5)
        p = ib.InhibitionPressure(amp, REF_PEAK_TIME, REF_PERIOD)
        for t in rng.uniform(0.0, 3.0, size=200):
            assert p.field_at(t).min() >= 0.0

    def test_point_validation(self):
        grid = ib.SpaceGrid.from_cells(2, 2, 2)
        p = ib.InhibitionPressure.uniform(grid, 1.0, REF_PEAK_TIME, REF_PERIOD)
        with pytest.raises(ib.ProblemError):
            ib.eval_inhibition_pressure(p, -1.0, (0, 0, 0))
        with pytest.raises(ib.ProblemError):
            ib.eval_inhibition_pressure(p, 0.5, (5, 0, 0))


class TestInitialCondition:
    def test_boundary_face_equals_floor(self):
        grid = ib.SpaceGrid.from_cells(10, 10, 3)
        field = ib.build_initial_condition(grid, 0.4, floor=0.2)
        assert np.all(field.values[0] == 0.2)
        assert np.all(field.values[:, 0, :] == 0.2)
        assert np.all(field.values[:, :, 0] == 0.2)

    def test_mean_matches_target(self):
        grid = ib.SpaceGrid.from_cells(10, 10, 3)
        field = ib.build_initial_condition(grid, 0.4, floor=0.2)
        assert abs(field.mean() - 0.4) <= 1e-12
        assert field.values.min() >= 0.2 and field.values.max() <= 1.0

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ib.ProblemError):
            ib.build_initial_condition(ib.SpaceGrid.from_cells(1, 1, 1), 0.4, floor=0.2)

    def test_unreachable_mean_rejected(self):
        # pushing the mean close to 1 forces the sine peak above 1
        with pytest.raises(ib.ProblemError):
            ib.build_initial_condition(ib.SpaceGrid.from_cells(10, 10, 3), 0.95, floor=0.0)

    def test_bad_floor_target_combination(self):
        grid = ib.SpaceGrid.from_cells(4, 4, 2)
        with pytest.raises(ib.ProblemError):
            ib.build_initial_condition(grid, 0.2, floor=0.4)


class TestRandomAmplitude:
    def test_seed_determinism(self):
        grid = ib.SpaceGrid.from_cells(10, 10, 3)
        f1 = ib.build_random_amplitude(grid, REF_AMPLITUDE, seed=42)
        f2 = ib.build_random_amplitude(grid, REF_AMPLITUDE, seed=42)
        assert np.array_equal(f1.values, f2.values)
        f3 = ib.build_random_amplitude(grid, REF_AMPLITUDE, seed=43)
        assert not np.array_equal(f1.values, f3.values)

    def test_mean_and_positivity(self):
        grid = ib.SpaceGrid.from_cells(10, 10, 3)
        field = ib.build_random_amplitude(grid, REF_AMPLITUDE, seed=7)
        assert abs(field.mean() - REF_AMPLITUDE) <= 1e-12
        assert field.values.min() > 0.0


class TestValidate:
    def test_reference_bundle_clean(self):
        prob = reference_averaged()
        tg = prob.time_grid
        report = ib.validate(
            prob,
            ib.ContinuousControl.constant(tg, 0.0),
            ib.PulseStrategy.no_intervention(tg),
            ib.CostSpec.constant(tg, 0.5),
        )
        assert report.ok, list(report)

    def test_reference_pde_bundle_clean(self):
        prob = reference_pde(cells=(4, 4, 2))
        report = ib.validate(prob)
        assert report.ok, list(report)

    def test_sigma_out_of_range(self):
        prob = reference_averaged(sigma=1.2)
        report = ib.validate(prob)
        assert any("sigma out of [0,1]" in m for m in report)

    @pytest.mark.parametrize("model", ["averaged", "pde"])
    def test_control_with_sigma_u_of_one_flagged(self, model):
        # 1 - sigma*u = 0 makes the rate alpha/(1 - sigma*u) infinite
        prob = (reference_averaged(sigma=1.0) if model == "averaged"
                else reference_pde(cells=(3, 3, 2), t_end=0.05, sigma=1.0))
        tg = prob.time_grid
        u = ib.ContinuousControl.constant(tg, 1.0)
        messages = [m for m in ib.validate(prob, u=u) if "sigma * u" in m]
        assert len(messages) == 1 and "sigma = 1.0" in messages[0] and "u up to 1.0" in messages[0]
        # a field control that reaches 1 at one point of one step only
        if model == "pde":
            samples = np.full((tg.n_steps, *prob.grid.dims), 0.5)
            samples[3, 1, 2, 0] = 1.0
            assert any("sigma * u" in m for m in ib.validate(prob, u=ib.ContinuousControl(samples)))
        # sigma*u just below 1 is allowed
        below = ib.ContinuousControl.constant(tg, 1.0 - 1e-12)
        assert ib.validate(prob, u=below).ok
        assert ib.validate(prob, u=u).messages == messages

    def test_control_out_of_range_flags_h6(self):
        prob = reference_averaged()
        u = ib.ContinuousControl(np.full(prob.time_grid.n_steps, -0.1))
        report = ib.validate(prob, u=u)
        assert any("H6" in m for m in report)

    def test_pulse_out_of_range_flags_h7(self):
        prob = reference_averaged()
        v = ib.PulseStrategy(np.full(prob.time_grid.n_candidates, 1.5))
        report = ib.validate(prob, v=v)
        assert any("H7" in m for m in report)

    def test_negative_cost_flagged(self):
        prob = reference_averaged()
        costs = ib.CostSpec(
            np.full(prob.time_grid.n_candidates, -0.1),
            np.zeros(prob.time_grid.n_steps),
            np.asarray(0.0),
        )
        report = ib.validate(prob, costs=costs)
        assert any("pulse_unit" in m for m in report)

    def test_boundary_diffusion_flagged(self):
        prob = reference_pde(cells=(2, 2, 2))
        a1 = prob.diffusion.a1.copy()
        a1[0] = 1.0  # nonzero boundary face
        bad = ib.PdeProblem(
            prob.time_grid, prob.grid, prob.pressure,
            ib.DiffusionField(prob.grid, a1, prob.diffusion.a2, prob.diffusion.a3),
            prob.chem, prob.initial,
        )
        report = ib.validate(bad)
        assert any("boundary faces" in m for m in report)


class TestCostBreakdown:
    def test_total_is_component_sum(self):
        cb = ib.CostBreakdown.assemble(0.1, 0.2, 0.3, 0.4)
        assert cb.total == 0.1 + 0.2 + 0.3 + 0.4


def test_scalar_field_shape_check():
    grid = ib.SpaceGrid.from_cells(2, 2, 2)
    with pytest.raises(ib.ProblemError):
        ib.ScalarField(grid, np.zeros((2, 2, 2)))


def test_space_grid_quadrature_volume():
    grid = ib.SpaceGrid.from_cells(10, 10, 3, spacing=0.5)
    assert grid.npoints == 11 * 11 * 4
    assert grid.volume == pytest.approx(grid.npoints * 0.125)
