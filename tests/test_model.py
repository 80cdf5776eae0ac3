import tracemalloc
from dataclasses import replace

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

    @staticmethod
    def _violation(name):
        """A problem and the data given with it that break one assumption, and its message."""
        avg = reference_averaged(t_end=0.25)
        field = lambda **kw: reference_pde(cells=(2, 2, 1), t_end=0.25, **kw)  # noqa: E731
        tg = avg.time_grid
        n, m = tg.n_steps, tg.n_candidates

        def unevaluable(t):
            raise ValueError("no arrays here")

        return {
            "sigma_star": (reference_averaged(t_end=0.25, sigma_star=-0.1), {}, "sigma_star must be >= 0: -0.1"),
            "theta0": (reference_averaged(t_end=0.25, theta0=1.5), {}, "initial state out of [0,1]: 1.5"),
            "alpha-nan": (replace(avg, alpha=lambda t: np.full_like(t, np.nan)), {},
                          "alpha profile is non-finite on the integration grid"),
            "alpha-negative": (replace(avg, alpha=lambda t: -np.ones_like(t)), {},
                               "alpha profile is negative on the integration grid"),
            "alpha-raises": (replace(avg, alpha=unevaluable), {},
                             "alpha profile not evaluable on arrays: no arrays here"),
            "field-initial": (field(initial=1.2), {}, "initial condition out of [0,1] somewhere"),
            "pressure": (field(amplitude=ib.ScalarField.uniform(ib.SpaceGrid.from_cells(2, 2, 1), -1.0)), {},
                         "pressure amplitude negative somewhere"),
            "diffusion": (field(diffusion=-1.0), {}, "diffusion coefficients a1 negative somewhere"),
            "control-steps": (avg, {"u": ib.ContinuousControl(np.zeros(n + 1))},
                              f"control has {n + 1} step samples, grid has {n} steps"),
            "control-shape": (field(), {"u": ib.ContinuousControl(np.zeros((n, 1, 1, 1)))},
                              "control sample shape (1, 1, 1) does not match problem"),
            "strategy-length": (avg, {"v": ib.PulseStrategy(np.ones(m - 1))},
                                f"pulse strategy has {m - 1} values, grid has {m} candidates"),
            "pulse-shape": (field(), {"v": ib.PulseStrategy(np.ones((m, 1, 1, 1)))},
                            "pulse value shape (1, 1, 1) does not match problem"),
            "pulse-costs": (avg, {"costs": ib.CostSpec(np.full(m + 1, 0.4), np.zeros(n), np.asarray(0.0))},
                            f"{m + 1} pulse unit costs for {m} candidates"),
            "continuous-costs": (avg, {"costs": ib.CostSpec(np.full(m, 0.4), np.zeros(n - 1), np.asarray(0.0))},
                                 f"{n - 1} continuous cost samples for {n} steps"),
        }[name]

    @pytest.mark.parametrize("name", [
        "sigma_star", "theta0", "alpha-nan", "alpha-negative", "alpha-raises", "field-initial",
        "pressure", "diffusion", "control-steps", "control-shape", "strategy-length", "pulse-shape",
        "pulse-costs", "continuous-costs"])
    def test_each_violated_assumption_is_named(self, name):
        prob, data, message = self._violation(name)
        assert message in ib.validate(prob, **data).messages

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


class TestStorage:
    """A control, strategy or cost keeps one read-only copy of its distinct values."""

    tg = ib.TimeGrid.regular(1.0, 1e-3, WEEK)
    grid = ib.SpaceGrid.from_cells(40, 40, 12)

    def _stored(self):
        tg, grid = self.tg, self.grid
        m_shape = (tg.n_candidates, *grid.dims)
        field_costs = ib.CostSpec(np.broadcast_to(0.5, m_shape),
                                  np.broadcast_to(0.005, (tg.n_steps,)), np.broadcast_to(0.1, grid.dims))
        costs = ib.CostSpec.constant(tg, 0.5, 0.005, 0.1)
        return {
            "constant field control": ib.ContinuousControl.constant(tg, 0.3, grid).samples,
            "constant control": ib.ContinuousControl.constant(tg, 0.3).samples,
            "no field intervention": ib.PulseStrategy.no_intervention(tg, grid).values,
            **{f"field {name}": getattr(field_costs, name)
               for name in ("pulse_unit", "continuous_unit", "final")},
            **{name: getattr(costs, name) for name in ("pulse_unit", "continuous_unit", "final")},
        }

    def test_constants_hold_one_value(self):
        want = {"constant field control": (self.tg.n_steps, *self.grid.dims),
                "no field intervention": (self.tg.n_candidates, *self.grid.dims),
                "field pulse_unit": (self.tg.n_candidates, *self.grid.dims),
                "field final": self.grid.dims}
        for name, a in self._stored().items():
            assert a.dtype == float and not a.flags.writeable, name
            if name in want:
                assert a.shape == want[name], name
            data = a if a.base is None else a.base
            assert data.nbytes == 8, name  # one float, whatever the shape

    def test_a_field_profile_holds_one_value_per_step(self):
        u = ib.ContinuousControl.from_profile(self.tg, lambda t: 0.5 * t, self.grid)
        assert u.samples.shape == (self.tg.n_steps, *self.grid.dims)
        assert u.samples.base.shape == (self.tg.n_steps, 1, 1, 1)
        assert np.array_equal(u.samples[:, 3, 7, 2], 0.5 * self.tg.mid_times)

    def test_writing_through_the_stored_arrays_raises(self):
        for name, a in self._stored().items():
            with pytest.raises(ValueError):
                a[...] = 0.7
            with pytest.raises(ValueError):
                a.flat[0] = 0.7

    def test_the_caller_writing_to_its_source_changes_nothing(self):
        source = np.array([0.2, 0.4, 0.6])[:, None]
        writable = np.lib.stride_tricks.as_strided(source, (3, 5), (source.strides[0], 0))
        assert writable.flags.writeable
        full = np.full((3, 5), 0.25)
        u_broadcast, u_full = ib.ContinuousControl(writable), ib.ContinuousControl(full)
        source[:] = 0.9
        full[:] = 0.9
        assert np.array_equal(u_broadcast.samples, np.repeat([[0.2], [0.4], [0.6]], 5, axis=1))
        assert u_broadcast.samples.base.shape == (3, 1)
        assert np.array_equal(u_full.samples, np.full((3, 5), 0.25))

    def test_other_inputs_are_copied_c_contiguous(self):
        rng = np.random.default_rng(0)
        for given in (np.asfortranarray(rng.random((6, 4, 3, 2))), rng.random((12, 4, 3, 2))[::2],
                      rng.random((6, 4, 3, 2)), [[1, 2], [3, 4]]):
            samples = ib.ContinuousControl(given).samples
            assert samples.dtype == float and samples.flags.c_contiguous and samples.flags.owndata
            assert not samples.flags.writeable
            assert not np.shares_memory(samples, given)
            assert np.array_equal(samples, given)

    def test_batch_constants_allocate_under_one_megabyte(self):
        # 600 scalar scenarios, each with a constant control and a constant cost
        tracemalloc.start()
        try:
            kept = [(ib.ContinuousControl.constant(self.tg, 0.2),
                     ib.CostSpec.constant(self.tg, 0.4, 0.0, 0.1)) for _ in range(600)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == 600
        assert peak < 2**20
