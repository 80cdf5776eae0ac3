import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import inhibopt as ib
from conftest import REF_PEAK_TIME, REF_PERIOD, WEEK, rel_err, reference_pde
from inhibopt import core
from inhibopt import io as iomod
from inhibopt import pde as pde_mod
from inhibopt.presets import PRESETS


def random_diffusion(grid, rng, scale=1.0):
    d1, d2, d3 = grid.dims
    a1 = np.zeros((d1 + 1, d2, d3))
    a2 = np.zeros((d1, d2 + 1, d3))
    a3 = np.zeros((d1, d2, d3 + 1))
    a1[1:-1] = scale * rng.random((max(d1 - 1, 0), d2, d3))
    a2[:, 1:-1] = scale * rng.random((d1, max(d2 - 1, 0), d3))
    a3[:, :, 1:-1] = scale * rng.random((d1, d2, max(d3 - 1, 0)))
    return ib.DiffusionField(grid, a1, a2, a3)


class TestApplyDivergence:
    def test_uniform_field_maps_to_exact_zero(self, rng):
        grid = ib.SpaceGrid.from_cells(4, 3, 2)
        A = random_diffusion(grid, rng)
        out = ib.apply_divergence(A, ib.ScalarField.uniform(grid, 0.7))
        assert np.all(out.values == 0.0)

    def test_unit_spike_seven_point_stencil(self):
        grid = ib.SpaceGrid.from_cells(2, 2, 2)  # 3x3x3 points, ds=1
        A = ib.DiffusionField.isotropic(grid, 1.0)
        spike = np.zeros(grid.dims)
        spike[1, 1, 1] = 1.0
        out = ib.apply_divergence(A, ib.ScalarField(grid, spike)).values
        assert out[1, 1, 1] == -6.0
        for n in ((0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)):
            assert out[n] == 1.0
        assert out.sum() == 0.0

    def test_conservation_on_random_data(self, rng):
        for _ in range(100):
            cells = tuple(int(n) for n in rng.integers(1, 6, size=3))
            grid = ib.SpaceGrid.from_cells(*cells, spacing=float(rng.uniform(0.5, 2.0)))
            A = random_diffusion(grid, rng, scale=float(rng.uniform(0.1, 10.0)))
            phi = ib.ScalarField(grid, rng.random(grid.dims))
            out = ib.apply_divergence(A, phi)
            scale = grid.npoints * max(A.max_abs(), 1e-300) * np.abs(phi.values).max()
            assert abs(out.values.sum()) <= 1e-12 * scale

    def test_grid_mismatch_rejected(self):
        g1 = ib.SpaceGrid.from_cells(2, 2, 2)
        g2 = ib.SpaceGrid.from_cells(3, 2, 2)
        with pytest.raises(ib.ProblemError):
            ib.apply_divergence(ib.DiffusionField.isotropic(g1, 1.0),
                                ib.ScalarField.uniform(g2, 0.5))


def _reference_divergence(diffusion, phi, spacing):
    """The seven-point formula as written: a zero-filled output, a multiply by every
    face's own coefficient, no boundary-crossing face and a final division by ds^2."""
    out = np.zeros(phi.shape)
    for axis, faces in enumerate(diffusion.interior_faces()):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        flux = (phi[hi] - phi[lo]) * faces
        out[lo] += flux
        out[hi] -= flux
    return out / spacing**2


class TestStencilOracle:
    """The stencil's shortcuts (one weight per uniform axis, no multiply by 1.0, no
    zero fill, no division by 1.0) leave every bit of the plain formula."""

    @pytest.mark.parametrize("spacing", [1.0, 0.7])
    @pytest.mark.parametrize("faces", ["one", "uniform", "random"])
    def test_divergence_equals_the_plain_formula_bit_for_bit(self, rng, faces, spacing):
        grid = ib.SpaceGrid.from_cells(4, 3, 2, spacing=spacing)
        diffusion = {"one": ib.DiffusionField.isotropic(grid, 1.0),
                     "uniform": ib.DiffusionField.isotropic(grid, 2.5),
                     "random": random_diffusion(grid, rng, scale=3.0)}[faces]
        stencil = pde_mod._Stencil(diffusion, spacing)
        weights = [w for _, w, _, _ in stencil.axes]
        kind = {"one": type(None), "uniform": float, "random": np.ndarray}[faces]
        assert all(isinstance(w, kind) for w in weights)
        phi = rng.normal(size=grid.dims)
        phi_inf = phi.copy()
        phi_inf[1, 2, -1] = np.inf  # the end of a row: its crossings give inf * 0 or inf * A
        for values in (phi, phi_inf):
            with np.errstate(invalid="ignore"):  # inf - inf and inf * 0
                got = stencil.divergence(values, np.full(grid.dims, np.nan))
                want = _reference_divergence(diffusion, values, spacing)
            assert np.array_equal(got, want, equal_nan=True)
            assert got.tobytes() == want.tobytes()

    def test_zero_control_takes_either_rate_path_to_the_same_bits(self, rng):
        grid = ib.SpaceGrid.from_cells(3, 3, 2)
        prob = reference_pde(cells=(3, 3, 2), amplitude=ib.build_random_amplitude(grid, 1.5, seed=5))
        assert prob.chem.sigma > 0
        theta = ib.ScalarField(grid, rng.random(grid.dims))
        # 1 - sigma*1e-300 rounds to 1: the division path with a divisor of exactly 1
        controls = (0.0, ib.ScalarField.uniform(grid, 0.0), ib.ScalarField.uniform(grid, 1e-300))
        unit = [pde_mod._unit_divisor(prob.chem.sigma, getattr(u, "values", u)) for u in controls]
        assert unit == [True, True, False]
        steps = [ib.cn_step(theta, 0.4, 1e-3, prob, u_sample=u).values for u in controls]
        assert steps[0].tobytes() == steps[1].tobytes() == steps[2].tobytes()

    def test_field_control_rate_in_the_buffer_is_the_plain_quotient(self, rng):
        grid = ib.SpaceGrid.from_cells(3, 3, 2)
        prob = reference_pde(cells=(3, 3, 2))
        alpha, u = rng.random(grid.dims), rng.random(grid.dims)
        buffer = np.empty(grid.dims)
        assert pde_mod._rate(prob.chem.sigma, u, alpha, False, buffer) is buffer
        assert buffer.tobytes() == (alpha / (1.0 - prob.chem.sigma * u)).tobytes()

    def test_propagator_takes_either_rate_path_to_the_same_bits(self):
        prob = reference_pde(cells=(3, 3, 2), t_end=0.05)
        tiny = ib.ContinuousControl(np.full(prob.time_grid.n_steps, 1e-300))
        assert pde_mod.FieldPropagator(prob).unit_divisor
        assert not pde_mod.FieldPropagator(prob, tiny).unit_divisor
        halves = ib.PulseStrategy(np.full((prob.time_grid.n_candidates, *prob.grid.dims), 0.5))
        plain = ib.simulate_pde(prob, None, halves)
        divided = ib.simulate_pde(prob, tiny, halves)
        assert plain.jumps
        assert plain.fields.tobytes() == divided.fields.tobytes()


class TestCnStep:
    def test_no_dynamics_is_identity(self):
        grid = ib.SpaceGrid.from_cells(2, 2, 1)
        prob = reference_pde(cells=(2, 2, 1), diffusion=0.0,
                         amplitude=ib.ScalarField.uniform(grid, 0.0))
        theta = ib.ScalarField(grid, np.random.default_rng(0).random(grid.dims))
        out = ib.cn_step(theta, 0.0, 1e-3, prob)
        assert np.array_equal(out.values, theta.values)

    def test_scalar_closed_form_third_order_local_error(self):
        # single step with constant alpha=1 against the exact exponential
        grid = ib.SpaceGrid.from_cells(1, 1, 1)
        prob = ib.PdeProblem(
            ib.TimeGrid(1.0, 1e-3, ()), grid, ib.ConstantPressure.uniform(grid, 1.0),
            ib.DiffusionField.isotropic(grid, 0.0), ib.ChemicalParams(0.0, 0.0),
            ib.ScalarField.uniform(grid, 0.4),
        )
        errs = []
        for h in (1e-2, 5e-3):
            out = ib.cn_step(ib.ScalarField.uniform(grid, 0.4), 0.0, h, prob)
            exact = 1.0 + (0.4 - 1.0) * np.exp(-h)
            errs.append(abs(float(out.values[0, 0, 0]) - exact))
        assert errs[0] < 1e-7
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.2)  # O(h^3) per step

    def test_uniform_field_stays_uniform(self):
        prob = reference_pde(cells=(3, 3, 2), diffusion=7.5)
        theta = ib.ScalarField.uniform(prob.grid, 0.4)
        out = ib.cn_step(theta, 0.1, 1e-3, prob, u_sample=0.5)
        assert out.values.max() == out.values.min()

    def test_bad_step_rejected(self):
        prob = reference_pde(cells=(1, 1, 1))
        with pytest.raises(ib.ProblemError):
            ib.cn_step(ib.ScalarField.uniform(prob.grid, 0.4), 0.0, -1e-3, prob)


def _dense_cn_step(problem, theta, t, h, u):
    """One CN step with M assembled column by column from apply_divergence, solved densely."""
    grid = problem.grid
    columns = [ib.apply_divergence(problem.diffusion, ib.ScalarField(grid, e.reshape(grid.dims)))
               .values.ravel() for e in np.eye(grid.npoints)]
    alpha = problem.pressure.field_at(t + h / 2.0).ravel()
    m = np.column_stack(columns) - np.diag(alpha / (1.0 - problem.chem.sigma * u.ravel()))
    eye = np.eye(grid.npoints)
    rhs = h * alpha + (eye + h / 2.0 * m) @ theta.ravel()
    return np.linalg.solve(eye - h / 2.0 * m, rhs).reshape(grid.dims)


class TestDenseOracle:
    """cn_step and the propagator's reused workspace against a dense solve of the CN system."""

    @pytest.fixture
    def setup(self, rng):
        grid = ib.SpaceGrid.from_cells(3, 3, 2, spacing=0.7)  # 48 points
        problem = ib.PdeProblem(
            ib.TimeGrid(0.03, 0.01, (0.01, 0.02)), grid,
            ib.InhibitionPressure(ib.build_random_amplitude(grid, 1.5, seed=11), 0.75, 0.2),
            random_diffusion(grid, rng, scale=2.0), ib.ChemicalParams(0.3, 0.0),
            ib.ScalarField(grid, rng.random(grid.dims)),
        )
        return problem, rng.uniform(0.0, 0.9, (problem.time_grid.n_steps, *grid.dims))

    def test_cn_step_matches_dense_solve(self, setup):
        problem, u = setup
        theta = problem.initial
        for t in (0.3, 0.7):
            want = _dense_cn_step(problem, theta.values, t, 0.01, u[0])
            got = ib.cn_step(theta, t, 0.01, problem, u_sample=ib.ScalarField(problem.grid, u[0]))
            assert np.max(np.abs(got.values - want)) <= 1e-9 * np.max(np.abs(want))

    def test_consecutive_steps_match_dense_solves(self, setup):
        problem, u = setup
        tg = problem.time_grid
        traj = ib.simulate_pde(problem, ib.ContinuousControl(u))
        theta = problem.initial.values
        for n in range(tg.n_steps):
            theta = _dense_cn_step(problem, theta, tg.times[n], tg.dt[n], u[n])
            got = traj.fields[n + 1]
            assert np.max(np.abs(got - theta)) <= 1e-9 * np.max(np.abs(theta)), n
        # the records keep the states the steps returned: no step may hand out a work array
        assert [j.node_index for j in traj.jumps] == [1, 2]
        for j in traj.jumps:
            assert np.array_equal(j.pre, traj.fields[j.node_index])


def _plain_cn_step(diffusion, spacing, rate, theta, source, h):
    """One CN step in the kernel's order of operations, with nothing shared or prebuilt:
    the plain seven-point formula, fresh arrays, np.einsum inner products and CG from
    theta, whose first residual is h*source + h*M theta."""
    def dot(a, b):
        return np.einsum("i,i->", a.ravel(), b.ravel())

    def apply(phi):
        return _reference_divergence(diffusion, phi, spacing) - rate * phi

    half_h = h / 2.0
    m_theta = apply(theta)
    b = source * h + theta + m_theta * half_h
    r = m_theta * h + source * h
    bnorm = np.sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros(theta.shape)
    tol = pde_mod.CG_RTOL * bnorm
    x = theta
    rs = dot(r, r)
    if np.sqrt(rs) > tol:
        d = r
        while True:
            ad = d - apply(d) * half_h
            alpha = rs / dot(d, ad)
            x = x + d * alpha
            r = r - ad * alpha
            rs_new = dot(r, r)
            if np.sqrt(rs_new) <= tol:
                break
            d = d * (rs_new / rs) + r
            rs = rs_new
    return x


class TestPlainStepOracle:
    """cn_step and a propagator span, byte for byte against :func:`_plain_cn_step`."""

    @staticmethod
    def _problem(faces, spacing, cells=(4, 3, 2)):
        rng = np.random.default_rng(31)
        grid = ib.SpaceGrid.from_cells(*cells, spacing=spacing)
        diffusion = {"one": ib.DiffusionField.isotropic(grid, 1.0),
                     "uniform": ib.DiffusionField.isotropic(grid, 2.5),
                     "random": random_diffusion(grid, rng, scale=3.0)}[faces]
        problem = ib.PdeProblem(
            ib.TimeGrid.regular(0.05, 1e-3, WEEK), grid,
            ib.InhibitionPressure(ib.build_random_amplitude(grid, 1.5, seed=4),
                                  REF_PEAK_TIME, REF_PERIOD),
            diffusion, ib.ChemicalParams(0.3, 0.0),
            ib.ScalarField(grid, rng.uniform(0.3, 0.6, grid.dims)))
        n = problem.time_grid.n_steps
        controls = {"none": None,
                    "scalar": ib.ContinuousControl(rng.uniform(0.0, 1.0, n)),
                    "field": ib.ContinuousControl(rng.uniform(0.0, 1.0, (n, *grid.dims)))}
        return problem, controls, rng

    @staticmethod
    def _rate(problem, alpha, u):
        return alpha if u is None else alpha / (1.0 - problem.chem.sigma * u)

    @pytest.mark.parametrize("spacing", [1.0, 0.5])
    @pytest.mark.parametrize("faces", ["one", "uniform", "random"])
    def test_cn_step(self, faces, spacing):
        problem, controls, rng = self._problem(faces, spacing)
        theta = ib.ScalarField(problem.grid, rng.uniform(0.0, 1.0, problem.grid.dims))
        t, h = 0.3, 1e-3
        alpha = problem.pressure.field_at(t + h / 2.0)
        for name, u in controls.items():
            sample = None if u is None else u.samples[7]
            given = (0.0 if u is None else float(sample) if name == "scalar"
                     else ib.ScalarField(problem.grid, sample))
            got = ib.cn_step(theta, t, h, problem, u_sample=given).values
            want = _plain_cn_step(problem.diffusion, spacing, self._rate(problem, alpha, sample),
                                  theta.values, alpha, h)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("source", ["pressure", "costate"])
    @pytest.mark.parametrize("control", ["none", "scalar", "field"])
    @pytest.mark.parametrize("spacing", [1.0, 0.5])
    @pytest.mark.parametrize("faces", ["one", "uniform", "random"])
    def test_span(self, faces, spacing, control, source):
        problem, controls, rng = self._problem(faces, spacing)
        u = controls[control]
        tg = problem.time_grid
        prop = pde_mod.FieldPropagator(problem, u)
        walk = core._walk(tg, 1)
        # a forward span and, for the costate, a backward one; each starts from a state
        # that is none of the propagator's arrays, and walks on through its iterates
        span = walk.forward[1] if source == "pressure" else walk.backward[1]
        unit = None if source == "pressure" else [1.0] * tg.n_steps
        x0 = rng.uniform(0.0, 1.0, problem.grid.dims)
        for _ in range(2):  # a second walk reuses every buffer of the first
            rows = prop.record(tg.n_steps + 1)
            end = prop.flow(x0, span, unit, rows, None)
            x, want = x0, []
            for n in range(tg.n_steps)[span.steps]:
                alpha = problem.pressure.field_at(tg.mid_times[n])
                sample = None if u is None else u.samples[n]
                x = _plain_cn_step(problem.diffusion, spacing, self._rate(problem, alpha, sample),
                                   x, alpha if unit is None else unit[n], tg.dt[n])
                want.append(x)
            assert len(want) > 10
            assert end.tobytes() == want[-1].tobytes()
            assert rows[span.rows].tobytes() == np.array(want[:-1]).tobytes()


class TestReusedBuffers:
    """A propagator's step buffers (pressure, rate, and the stencil's span state
    and work arrays) never end up in what a run returns."""

    @staticmethod
    def _buffers(prop):
        """Every array a step writes, and every view of one that the stencil prebuilds."""
        work = prop.stencil
        views = [a for axis in work.axes for a in axis if isinstance(a, np.ndarray)]
        views += [a for phi, out, axes in work.bound for axis in ((phi, out), *axes)
                  for a in axis if isinstance(a, np.ndarray)]
        return [prop.alpha, prop.rate, prop.op.rate, work.state, work.rhs, work.residual,
                work.direction, work.image, work.tmp, work.flux, *views]

    def test_the_stencil_prebuilds_its_cg_apply_and_the_span_iterates(self):
        prop = pde_mod.FieldPropagator(reference_pde(cells=(3, 3, 2), t_end=0.05))
        work = prop.stencil
        pairs = [(phi, out) for phi, out, _ in work.bound]
        assert len(pairs) == 2
        assert pairs[0][0] is work.direction and pairs[0][1] is work.image
        assert pairs[1][0] is work.state and pairs[1][1] is work.residual
        assert prop.op.stencil is work and prop.op.rate is prop.alpha  # unit divisor

    def test_every_streamed_array_starts_a_cache_line(self):
        prob, controls, _ = TestPlainStepOracle._problem("random", 1.0)
        prop = pde_mod.FieldPropagator(prob, controls["scalar"])
        n = prob.time_grid.n_steps
        work = prop.stencil
        assert work.flux is work.tmp and work.rhs is work.direction
        weights = [w for _, w, _, _ in work.axes]
        assert all(isinstance(w, np.ndarray) for w in weights)  # non-uniform faces
        span = core._walk(prob.time_grid, 1).forward[0]
        end = prop.flow(prop.initial, span, None, prop.record(n + 1), None)
        arrays = [work.residual, work.direction, work.image, work.tmp, work.state, *weights,
                  prop.alpha, prop.rate, prop.op.rate, end]
        assert [a.ctypes.data % 64 for a in arrays] == [0] * len(arrays)

    @staticmethod
    def _outputs(forward, adjoint, end):
        return [forward.values, *(a for j in forward.jumps for a in (j.pre, j.post)),
                adjoint.values, *(a for j in adjoint.jumps for a in (j.p_plus, j.p_minus)), end]

    @staticmethod
    def _runs(prop, value, store_every):
        tg = prop.time_grid
        strategy = ib.PulseStrategy(np.full((tg.n_candidates, *prop.shape), value))
        costs = ib.CostSpec.constant(tg, value, final=value)
        forward = prop.forward(strategy, store_every)
        adjoint = prop.adjoint(strategy, costs, forward, store_every)
        span = core._walk(tg, store_every).forward[1]
        end = prop.flow(prop.initial, span, None, prop.record(forward.values.shape[0]), [])
        return forward, adjoint, end

    @pytest.mark.parametrize("store_every", [1, 3])
    def test_a_second_run_leaves_the_first_as_it_was(self, store_every):
        grid = ib.SpaceGrid.from_cells(3, 3, 2)
        rng = np.random.default_rng(8)
        prob = reference_pde(cells=(3, 3, 2), t_end=3.5 / 52,
                             amplitude=ib.build_random_amplitude(grid, 1.5, seed=2),
                             initial=ib.ScalarField(grid, rng.uniform(0.3, 0.6, grid.dims)))
        prop = pde_mod.FieldPropagator(prob)
        first = self._runs(prop, 0.5, store_every)
        assert len(first[0].jumps) == len(first[1].jumps) == 3
        outputs = self._outputs(*first)
        kept = [a.copy() for a in outputs]
        second = self._runs(prop, 0.25, store_every)
        assert not np.array_equal(second[0].values, first[0].values)
        for a, b in zip(outputs, kept):
            assert np.array_equal(a, b)
        for a in outputs + self._outputs(*second):
            assert not any(np.shares_memory(a, buf) for buf in self._buffers(prop))
        # reusing a propagator changes no result
        again = self._runs(pde_mod.FieldPropagator(prob), 0.25, store_every)
        for a, b in zip(self._outputs(*second), self._outputs(*again)):
            assert a.tobytes() == b.tobytes()

    def test_steps_inside_a_span_allocate_nothing(self):
        # with no control, with a scalar control and with a field control (0.3
        # everywhere), whose divisor 1 - sigma*u is built in the rate buffer
        prob = reference_pde(cells=(20, 20, 6), t_end=1.5 / 52)
        n = prob.time_grid.n_steps
        field = ib.ContinuousControl(np.full((n, *prob.grid.dims), 0.3))
        scalar = ib.ContinuousControl(np.full(n, 0.3))
        for prop in (pde_mod.FieldPropagator(prob), pde_mod.FieldPropagator(prob, scalar),
                     pde_mod.FieldPropagator(prob, field)):
            span = core._walk(prob.time_grid, 1).forward[0]
            assert span.steps.stop - span.steps.start > 10
            rows = prop.record(prob.time_grid.n_steps + 1)
            prop.flow(prop.initial, span, None, rows, [])
            tracemalloc.start()
            try:
                prop.flow(prop.initial, span, None, rows, [])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * prop.initial.nbytes  # the span's end state, and no other field


_THREAD_PROBE = """
import hashlib, sys
import numpy as np
import inhibopt as ib
grid = ib.SpaceGrid.from_cells(30, 30, 12)
rng = np.random.default_rng(7)
faces = [np.zeros(s) for s in ((32, 31, 13), (31, 32, 13), (31, 31, 14))]
for axis, a in enumerate(faces):
    inner = (slice(None),) * axis + (slice(1, -1),)
    a[inner] = rng.random(a[inner].shape)
problem = ib.PdeProblem(
    ib.TimeGrid(0.004, 1e-3, ()), grid,
    ib.InhibitionPressure(ib.build_random_amplitude(grid, 1.0, seed=3), 0.75, 0.2),
    ib.DiffusionField(grid, *faces), ib.ChemicalParams(0.3, 0.0),
    ib.ScalarField(grid, rng.random(grid.dims)),
)
sys.stdout.write(hashlib.sha256(ib.simulate_pde(problem).fields.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("n", [0, 1, 7, 484, 21_853])
def test_dot_is_einsum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=n), rng.normal(size=n) * 1e3
    for x, y in ((a, b), (a, a), (b, a)):
        got = pde_mod._dot(x, y)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.einsum("i,i->", x, y).tobytes()


def _at_offset(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of the float array ``a`` that starts ``offset`` bytes past a 64-byte boundary."""
    raw = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start:start + a.nbytes].view(np.float64).reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


@pytest.mark.parametrize("n", [7, 484, 21_853])
def test_dot_does_not_depend_on_where_its_inputs_sit(n):
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=n), rng.normal(size=n) * 1e3
    want = np.float64(pde_mod._dot(a, b)).tobytes()
    for offset_a in (0, 16, 32, 48):
        for offset_b in (0, 16, 32, 48):
            got = pde_mod._dot(_at_offset(a, offset_a), _at_offset(b, offset_b))
            assert np.float64(got).tobytes() == want


def test_cn_step_does_not_depend_on_where_theta_sits():
    """The solver's arrays start on cache lines; its input may start anywhere a
    float can, and the step gives the same bytes wherever it sits."""
    prob, _, rng = TestPlainStepOracle._problem("random", 1.0, cells=(12, 11, 5))
    grid = prob.grid
    values = rng.uniform(0.0, 1.0, grid.dims)
    u = rng.uniform(0.0, 1.0, grid.dims)
    steps = []
    for offset in (0, 16, 32, 48):
        theta = ib.ScalarField(grid, values)
        # ScalarField copies its values wherever the allocator puts them: place them
        object.__setattr__(theta, "values", _at_offset(values, offset))
        steps.append(ib.cn_step(theta, 0.1, 1e-3, prob, u_sample=u).values.tobytes())
    assert steps[1:] == steps[:1] * 3
    assert steps[0] != values.tobytes()


def test_results_do_not_depend_on_blas_thread_count():
    """A 12,493-point run gives the same bytes with 1 and 2 OpenBLAS threads.

    BLAS splits long inner products over its threads, which changes their
    rounding; the solver's reductions must not go through it.  On a
    single-core machine OpenBLAS caps its thread count at 1, so both runs
    are alike and the test passes trivially there.
    """
    src = str(Path(ib.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                             capture_output=True, text=True)
        digests.append(run.stdout)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestSimulatePde:
    def test_noop_pulses(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2)
        traj = ib.simulate_pde(prob)
        assert len(traj.jumps) == prob.time_grid.n_candidates
        for j in traj.jumps:
            assert np.array_equal(j.pre, j.post)

    def test_diffusion_invisible_on_uniform_data(self):
        t1 = ib.simulate_pde(reference_pde(cells=(4, 4, 2), t_end=0.3, diffusion=1.0))
        t10 = ib.simulate_pde(reference_pde(cells=(4, 4, 2), t_end=0.3, diffusion=10.0))
        assert np.array_equal(t1.fields, t10.fields)

    def test_pulse_is_exact_pointwise_multiplication(self, rng):
        prob = reference_pde(cells=(3, 2, 1), t_end=0.2)
        v = ib.PulseStrategy(rng.random((prob.time_grid.n_candidates, *prob.grid.dims)))
        traj = ib.simulate_pde(prob, None, v)
        for j in traj.jumps:
            assert np.array_equal(j.post, j.applied * j.pre)

    def test_zero_threshold_realizes_all_candidates(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.3, sigma_star=0.0)
        traj = ib.simulate_pde(prob)
        assert [j.candidate_index for j in traj.jumps] == list(range(prob.time_grid.n_candidates))

    def test_threshold_gates_pulses(self):
        # pick sigma_star so that the L2 gate opens partway through the run:
        # the state grows from 0.4, so early candidates stay unrealized
        grid = ib.SpaceGrid.from_cells(2, 2, 1)
        free = ib.simulate_pde(reference_pde(cells=(2, 2, 1), t_end=0.3, sigma_star=0.0))
        mid = free.fields[len(free.fields) // 2]
        thr = float(np.sqrt(np.sum(mid**2) * grid.cell_volume)) / grid.volume
        prob = reference_pde(cells=(2, 2, 1), t_end=0.3, sigma_star=thr)
        traj = ib.simulate_pde(prob)
        assert 0 < len(traj.jumps) < len(free.jumps)
        for j in traj.jumps:
            l2 = float(np.sqrt(np.sum(j.pre**2) * grid.cell_volume))
            assert l2 >= thr * grid.volume

    def test_storage_decimation_keeps_jumps_and_end(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2)
        traj = ib.simulate_pde(prob, store_every=7)
        nodes = set(int(n) for n in traj.node_indices)
        assert len(prob.time_grid.times) - 1 in nodes
        for j in traj.jumps:
            assert j.node_index in nodes

    def test_stored_nodes_are_the_multiples_the_pulses_and_the_end(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2)
        tg = prob.time_grid
        want = sorted({*range(0, tg.n_steps + 1, 7), *tg.candidate_indices, tg.n_steps})
        traj = ib.simulate_pde(prob, store_every=7)
        assert traj.node_indices.tolist() == want
        assert np.array_equal(traj.times, tg.times[want])
        assert ib.simulate_pde(prob).node_indices.tolist() == list(range(tg.n_steps + 1))

    def test_invariance_small_sweep(self, rng):
        for _ in range(5):
            cells = tuple(int(n) for n in rng.integers(1, 5, size=3))
            grid = ib.SpaceGrid.from_cells(*cells)
            prob = reference_pde(
                cells=cells, t_end=0.25,
                diffusion=float(rng.uniform(0, 10)),
                amplitude=ib.build_random_amplitude(grid, float(rng.uniform(0.2, 2.0)),
                                                    seed=int(rng.integers(1 << 31))),
                initial=ib.ScalarField(grid, rng.random(grid.dims)),
                sigma=float(rng.uniform(0, 0.9)),
            )
            u = ib.ContinuousControl.constant(prob.time_grid, float(rng.uniform(0, 0.9)))
            v = ib.PulseStrategy(rng.random((prob.time_grid.n_candidates, *grid.dims)))
            traj = ib.simulate_pde(prob, u, v)
            assert traj.fields.min() >= -1e-6 and traj.fields.max() <= 1 + 1e-6


@pytest.fixture(scope="module")
def fig5():
    """The fig5 preset problem with its optimal pulse strategy."""
    bundle = iomod.resolve_bundle(PRESETS["fig5"].runs[0].config)
    return bundle, ib.optimal_pulse(bundle.problem, bundle.u, bundle.costs)


class TestCostPde:
    def test_cost_does_not_depend_on_storage(self, fig5):
        bundle, res = fig5
        for k in (1, 7, 50, 10**9):
            traj = ib.simulate_pde(bundle.problem, bundle.u, res.strategy, store_every=k)
            cost = ib.cost_pde(traj, res.strategy, bundle.u, bundle.costs, bundle.problem)
            assert cost == res.cost, k

    def test_cost_copies_no_history(self, fig5):
        bundle, res = fig5
        traj = res.forward
        tracemalloc.start()
        try:
            ib.cost_pde(traj, res.strategy, bundle.u, bundle.costs, bundle.problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.fields.nbytes / 4

    def test_zero_field_zero_cost(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2, initial=0.0,
                         amplitude=ib.ScalarField.uniform(ib.SpaceGrid.from_cells(2, 2, 1), 0.0))
        traj = ib.simulate_pde(prob)
        v = ib.PulseStrategy.no_intervention(prob.time_grid)
        cost = ib.cost_pde(traj, v, None, ib.CostSpec.constant(prob.time_grid, 0.5), prob)
        assert cost.total == 0.0

    def test_uniform_problem_scales_with_point_count(self, rng):
        prob_p = reference_pde(cells=(3, 2, 1), t_end=0.3)
        tg = prob_p.time_grid
        n = prob_p.grid.npoints
        v_scalar = rng.random(tg.n_candidates)
        u = ib.ContinuousControl.constant(tg, 0.4)
        costs = ib.CostSpec.constant(tg, 0.5, continuous_unit=0.7, final=0.25)

        traj_p = ib.simulate_pde(prob_p, u, ib.PulseStrategy(v_scalar))
        cost_p = ib.cost_pde(traj_p, ib.PulseStrategy(v_scalar), u, costs, prob_p)

        prob_a = prob_p.averaged()
        traj_a = ib.simulate_averaged(prob_a, u, ib.PulseStrategy(v_scalar))
        cost_a = ib.cost_averaged(traj_a, ib.PulseStrategy(v_scalar), u, costs)

        for name in ("running_state", "running_control", "pulse", "final", "total"):
            assert rel_err(getattr(cost_p, name), n * getattr(cost_a, name)) < 1e-6, name


def test_uniform_reference_cost_reduces_to_averaged_times_volume():
    # uniform data, c = 0.55, C_f = 0: the space-dependent total is the
    # averaged total scaled by the quadrature volume
    prob_p = reference_pde(cells=(10, 10, 3))
    tg = prob_p.time_grid
    costs = ib.CostSpec.constant(tg, 0.55)
    v = ib.PulseStrategy.no_intervention(tg)
    total_p = ib.cost_pde(ib.simulate_pde(prob_p, None, v), v, None, costs, prob_p).total
    total_a = ib.cost_averaged(ib.simulate_averaged(prob_p.averaged(), None, v), v, None, costs).total
    assert rel_err(total_p, prob_p.grid.volume * total_a) < 1e-6


class TestSpatialAverage:
    def test_uniform_value_passthrough(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.1)
        avg = ib.spatial_average(ib.simulate_pde(prob))
        assert avg.values[0] == pytest.approx(0.4, abs=1e-15)

    def test_sine_initial_mean(self):
        grid = ib.SpaceGrid.from_cells(10, 10, 3)
        rho = ib.build_initial_condition(grid, 0.4, floor=0.2)
        prob = reference_pde(cells=(10, 10, 3), t_end=0.05, initial=rho)
        avg = ib.spatial_average(ib.simulate_pde(prob, store_every=10))
        assert abs(avg.values[0] - 0.4) <= 1e-12

    def test_uniform_run_tracks_averaged_solver(self):
        prob_p = reference_pde(cells=(4, 4, 2), t_end=0.5, diffusion=3.0)
        traj_p = ib.simulate_pde(prob_p)
        traj_a = ib.simulate_averaged(prob_p.averaged())
        avg = ib.spatial_average(traj_p)
        assert np.max(np.abs(avg.values - traj_a.values)) < 1e-8


class TestConvergenceOrder:
    def test_second_order_in_time_constant_coefficients(self):
        grid = ib.SpaceGrid.from_cells(1, 1, 1)

        def terminal(h):
            prob = ib.PdeProblem(
                ib.TimeGrid(1.0, h, ()), grid, ib.ConstantPressure.uniform(grid, 1.0),
                ib.DiffusionField.isotropic(grid, 0.0), ib.ChemicalParams(0.0, 0.0),
                ib.ScalarField.uniform(grid, 0.4),
            )
            return float(ib.simulate_pde(prob, store_every=10**9).fields[-1][0, 0, 0])

        exact = 1.0 + (0.4 - 1.0) * np.exp(-1.0)
        e1 = abs(terminal(1e-2) - exact)
        e2 = abs(terminal(5e-3) - exact)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_second_order_against_fine_reference_smooth_problem(self):
        grid = ib.SpaceGrid.from_cells(2, 2, 2)
        rho = ib.ScalarField(grid, 0.2 + 0.6 * np.random.default_rng(4).random(grid.dims))

        def terminal(h):
            prob = reference_pde(cells=(2, 2, 2), t_end=0.25, diffusion=2.0, initial=rho)
            prob = ib.PdeProblem(ib.TimeGrid(0.25, h, ()), prob.grid, prob.pressure,
                                 prob.diffusion, prob.chem, prob.initial)
            return ib.simulate_pde(prob, store_every=10**9).fields[-1]

        ref = terminal(2.5e-4)
        e1 = np.abs(terminal(4e-3) - ref).max()
        e2 = np.abs(terminal(2e-3) - ref).max()
        assert 3.5 <= e1 / e2 <= 4.5


class TestCgCounters:
    def test_counters_of_an_optimal_pulse(self, fig5):
        bundle, res = fig5
        cg = res.diagnostics["cg"]
        # the bang-bang sweep and the forward run, one CG solve per step each
        assert cg["solves"] == 2 * bundle.problem.time_grid.n_steps
        assert cg["iterations"] >= cg["solves"]
        assert 1 <= cg["max_iterations"] <= cg["iterations"]
        assert 0.0 < cg["worst_residual"] <= pde_mod.CG_RTOL

    def test_counters_are_deterministic(self):
        prob = reference_pde(cells=(3, 2, 1), t_end=0.2, sigma_star=0.01)
        costs = ib.CostSpec.constant(prob.time_grid, 0.5)
        first = ib.fixed_point_pulse(prob, None, costs).diagnostics["cg"]
        assert first == ib.fixed_point_pulse(prob, None, costs).diagnostics["cg"]
        assert first["worst_residual"] <= pde_mod.CG_RTOL

    def test_averaged_results_have_no_cg_counters(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2).averaged()
        res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.5))
        assert "cg" not in res.diagnostics


def test_non_finite_right_hand_side_raises_instead_of_returning_theta():
    # sigma*u = 1: the rate alpha/(1 - sigma*u) is infinite, so is the CN right-hand side
    prob = reference_pde(cells=(3, 3, 2), t_end=0.05, sigma=1.0)
    u = ib.ContinuousControl.constant(prob.time_grid, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ib.LinearSolverError, match="non-finite norm"):
            ib.simulate_pde(prob, u)
        with pytest.raises(ib.LinearSolverError, match="non-finite norm"):
            ib.cn_step(prob.initial, 0.0, 1e-3, prob, u_sample=1.0)
    grid = prob.grid
    op = ib.DiscreteOperator(ib.DiffusionField.isotropic(grid, 1.0), np.full(grid.dims, 0.5), 1.0)
    for bad in (np.inf, np.nan):
        b = np.ones(grid.dims)
        b[1, 1, 1] = bad
        with pytest.raises(ib.LinearSolverError):
            pde_mod._cg(op, 0.5, b, np.zeros(grid.dims), b, pde_mod.CGCounters(),
                        np.empty(grid.dims))  # x0 = 0: the first residual is b


def test_cg_iteration_budget_failure_reports_residual(monkeypatch, rng):
    import inhibopt.pde as pde_mod

    monkeypatch.setattr(pde_mod, "CG_ITER_FACTOR", 0)  # exhaust the budget immediately
    grid = ib.SpaceGrid.from_cells(2, 2, 1)
    op = ib.DiscreteOperator(ib.DiffusionField.isotropic(grid, 1.0),
                             np.full(grid.dims, 0.5), 1.0)
    with pytest.raises(ib.LinearSolverError) as err:
        b = rng.random(grid.dims)
        pde_mod._cg(op, 0.5, b, np.zeros(grid.dims), b, pde_mod.CGCounters(),
                    np.empty(grid.dims))  # x0 = 0: the first residual is b
    assert err.value.residual > 0
