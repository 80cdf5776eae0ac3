"""Crank-Nicolson solver for the space-dependent impulsive model.

Semi-discrete operator M = -diag(alpha/(1-sigma*u)) + div(A grad .) with the
seven-point face-weighted divergence stencil

    (div A grad phi)_ijk = [ A1_(i+.5) (phi_(i+1)-phi_i) - A1_(i-.5) (phi_i-phi_(i-1))
                             + ... (axes 2,3) ] / ds^2,

whose face coefficients vanish on boundary-crossing faces (no-flux).  The
stencil telescopes, so the grid sum of div(A grad phi) is exactly zero.

Time stepping solves the centered-difference update

    (I - h/2 M) theta^(1) = h*alpha^(.5) + (I + h/2 M) theta^(0)

with matrix-free conjugate gradient (the operator is symmetric positive
definite for admissible inputs).  alpha is evaluated at t + h/2, u at the
step's stored sample.  Pulses are exact pointwise multiplications applied at
realized candidate times; realization is gated by the grid-quadrature L2
threshold ||theta|| >= sigma_star * |Omega|.

:class:`FieldPropagator` builds the step operator and takes one CN step per
call; the forward run, costate sweep (the same operator with source +1),
sensitivities and cost are the shared loops of :mod:`inhibopt.core`.

All reductions are single-threaded numpy sums, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .averaged import AveragedTrajectory
from .core import Jump, Propagator, _cost, _rows
from .model import (
    ContinuousControl,
    CostBreakdown,
    CostSpec,
    DiffusionField,
    LinearSolverError,
    PdeProblem,
    ProblemError,
    PulseStrategy,
    ScalarField,
)

CG_RTOL = 1e-10
CG_ITER_FACTOR = 10


def _div(diffusion: DiffusionField, phi: np.ndarray, spacing: float) -> np.ndarray:
    """Face-weighted divergence stencil; grid sum is exactly zero."""
    out = np.zeros_like(phi)
    f1, f2, f3 = diffusion.interior_faces()
    flux = f1 * np.diff(phi, axis=0)
    out[:-1] += flux
    out[1:] -= flux
    flux = f2 * np.diff(phi, axis=1)
    out[:, :-1] += flux
    out[:, 1:] -= flux
    flux = f3 * np.diff(phi, axis=2)
    out[:, :, :-1] += flux
    out[:, :, 1:] -= flux
    out /= spacing**2
    return out


def apply_divergence(diffusion: DiffusionField, phi: ScalarField) -> ScalarField:
    """div(A grad phi) on the grid; conservative by construction."""
    if diffusion.grid.dims != phi.grid.dims:
        raise ProblemError(
            f"diffusion grid {diffusion.grid.dims} does not match field grid {phi.grid.dims}"
        )
    return ScalarField(phi.grid, _div(diffusion, phi.values, phi.grid.spacing))


@dataclass(frozen=True)
class DiscreteOperator:
    """The affine map's linear part M = -diag(rate) + div(A grad .), applied by stencil."""

    diffusion: DiffusionField
    rate: np.ndarray  # alpha^(.5) / (1 - sigma * u^(.5)), one value per point
    spacing: float

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return -self.rate * phi + _div(self.diffusion, phi, self.spacing)


def _cg(op: DiscreteOperator, half_h: float, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Solve (I - half_h*M) x = b by matrix-free conjugate gradient."""

    def apply_system(x: np.ndarray) -> np.ndarray:
        return x - half_h * op.apply(x)

    bnorm = float(np.sqrt(np.vdot(b, b).real))
    if bnorm == 0.0:
        return np.zeros_like(b)
    maxiter = CG_ITER_FACTOR * b.size
    x = x0.copy()
    r = b - apply_system(x)
    d = r.copy()
    rs = float(np.vdot(r, r).real)
    for _ in range(maxiter):
        if np.sqrt(rs) <= CG_RTOL * bnorm:
            return x
        ad = apply_system(d)
        alpha = rs / float(np.vdot(d, ad).real)
        x += alpha * d
        r -= alpha * ad
        rs_new = float(np.vdot(r, r).real)
        d = r + (rs_new / rs) * d
        rs = rs_new
    if np.sqrt(rs) <= CG_RTOL * bnorm:
        return x
    raise LinearSolverError(float(np.sqrt(rs)) / bnorm, maxiter)


def _cn_advance(
    theta: np.ndarray,
    op: DiscreteOperator,
    source: np.ndarray | float,
    h: float,
) -> np.ndarray:
    """One Crank-Nicolson step: solve (I - h/2 M) x = h*source + (I + h/2 M) theta."""
    rhs = h * source + theta + (h / 2.0) * op.apply(theta)
    return _cg(op, h / 2.0, rhs, theta)


def _step_operator(problem: PdeProblem, u_sample: np.ndarray | float, t_mid: float) -> DiscreteOperator:
    rate = problem.pressure.field_at(t_mid) / (1.0 - problem.chem.sigma * u_sample)
    rate = np.broadcast_to(rate, problem.grid.dims)
    return DiscreteOperator(problem.diffusion, rate, problem.grid.spacing)


def cn_step(
    theta: ScalarField,
    t: float,
    h: float,
    problem: PdeProblem,
    u_sample: ScalarField | np.ndarray | float = 0.0,
) -> ScalarField:
    """Advance the field from t to t+h (no pulse inside the step)."""
    if not h > 0:
        raise ProblemError(f"step must be > 0, got {h}")
    if theta.grid.dims != problem.grid.dims:
        raise ProblemError("field grid does not match problem grid")
    u_val = u_sample.values if isinstance(u_sample, ScalarField) else u_sample
    op = _step_operator(problem, u_val, t + h / 2.0)
    source = problem.pressure.field_at(t + h / 2.0)
    return ScalarField(theta.grid, _cn_advance(theta.values, op, source, h))


@dataclass
class FieldTrajectory:
    """Field per stored node (left limits), with every jump always recorded.

    ``node_indices`` maps stored rows to global integration nodes; with
    ``store_every`` > 1 the stored rows are every m-th node plus all pulse
    nodes and the final node.  ``values``/``post_values`` alias the fields.
    """

    grid: object
    times: np.ndarray
    node_indices: np.ndarray
    fields: np.ndarray  # (n_stored, d1, d2, d3)
    jumps: list[Jump]
    store_every: int = 1

    @property
    def complete(self) -> bool:
        return self.store_every == 1

    @property
    def values(self) -> np.ndarray:
        return self.fields

    def post_fields(self) -> np.ndarray:
        """Stored fields with post-jump values substituted at pulse rows."""
        out = self.fields.copy()
        row_of = {int(n): r for r, n in enumerate(self.node_indices)}
        for j in self.jumps:
            out[row_of[j.node_index]] = j.post
        return out

    post_values = post_fields


class FieldPropagator(Propagator):
    """Crank-Nicolson steps of the space-dependent model for one chemical control."""

    def __init__(self, problem: PdeProblem, u: ContinuousControl | None = None):
        tg = problem.time_grid
        self.problem, self.time_grid, self.sigma = problem, tg, problem.chem.sigma
        self.shape, self.space_weight = problem.grid.dims, problem.grid.cell_volume
        self.u_samples = u.samples if u is not None else np.zeros(tg.n_steps)
        self._u = _rows(self.u_samples)
        self.threshold = problem.chem.sigma_star * problem.grid.volume
        self.initial = problem.initial.values.copy()
        self.zero = np.zeros(self.shape)

    def state(self, a) -> np.ndarray:
        return np.broadcast_to(a, self.shape).astype(float)

    def step(self, x: np.ndarray, n: int, source) -> np.ndarray:
        tg = self.time_grid
        op = _step_operator(self.problem, self._u[n], tg.mid_times[n])
        return _cn_advance(x, op, source, tg.dt[n])

    def advance(self, x: np.ndarray, n: int) -> np.ndarray:
        return self.step(x, n, self.problem.pressure.field_at(self.time_grid.mid_times[n]))

    def gate(self, x: np.ndarray) -> bool:
        """Grid-quadrature L2 threshold ||theta|| >= sigma_star * |Omega|."""
        return float(np.sqrt(np.sum(x**2) * self.space_weight)) >= self.threshold

    def alpha_mid(self) -> np.ndarray:
        pressure = self.problem.pressure
        seasonal = pressure.seasonal(self.time_grid.mid_times)
        return seasonal[:, None, None, None] * pressure.amplitude_field.values[None]

    def trajectory(self, rows, states, jumps, store_every) -> FieldTrajectory:
        times = self.time_grid.times[rows]
        return FieldTrajectory(self.problem.grid, times, rows, states, jumps, store_every)


def simulate_pde(
    problem: PdeProblem,
    u: ContinuousControl | None = None,
    v: PulseStrategy | None = None,
    store_every: int = 1,
) -> FieldTrajectory:
    """Step the field with cn_step, applying threshold-gated multiplicative pulses."""
    return FieldPropagator(problem, u).forward(v, store_every)


def cost_pde(
    traj: FieldTrajectory,
    v: PulseStrategy,
    u: ContinuousControl | None,
    costs: CostSpec,
    problem: PdeProblem,
) -> CostBreakdown:
    """Cost functional with space integrals by grid quadrature sum(.) * ds^3."""
    return _cost(traj, v, u, costs, problem.grid.cell_volume, problem.time_grid.dt)


def spatial_average(traj: FieldTrajectory) -> AveragedTrajectory:
    """Per-time grid mean of the field trajectory; jump records averaged likewise."""
    values = traj.fields.mean(axis=(1, 2, 3))
    jumps = [replace(j, pre=float(np.mean(j.pre)), post=float(np.mean(j.post)),
                     applied=float(np.mean(j.applied))) for j in traj.jumps]
    return AveragedTrajectory(traj.times.copy(), values, jumps)
