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

:class:`FieldPropagator` builds the step operator and walks a pulse-free
span one CN step at a time, writing each stored node as it is reached, so a
thinned record never holds a whole span; the forward run, costate sweep (the
same operator with source +1), sensitivities and cost are the shared loops
of :mod:`inhibopt.core`.

A stencil built once per (diffusion, spacing) keeps the face coefficients
contiguous and holds every flux and CG work array, so stencil applies and CG
iterations allocate nothing; a step allocates only its pressure and rate
fields and the state it returns.  CG starts from theta, so its first residual
b - (I - h/2 M) theta = h*source + h*M theta reuses the M theta of the
right-hand side: a CN step costs one stencil apply plus one per CG iteration.
Every reduction (CG inner products, norms, grid sums) runs in numpy's own
loops and never in BLAS, so results do not depend on the BLAS thread count
and reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import FieldTrajectory, Propagator, Span, Trajectory, _cost, _rows  # noqa: F401
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


class _Stencil:
    """Face-weighted divergence of one (diffusion, spacing), with the work arrays of the CN step.

    Each axis is one shift of the flattened field, by d2*d3, d3 or 1 points.
    Its face coefficients are kept contiguous in that layout, zero where the
    shift wraps into the next row (a "crossing"), so every flux and update
    is one contiguous numpy call.  The flux, the CN right-hand side and the
    CG vectors live in arrays allocated once here.
    """

    def __init__(self, diffusion: DiffusionField, spacing: float):
        shape = diffusion.grid.dims
        size = math.prod(shape)
        self.scale = spacing**2
        flux = np.empty(shape)  # one axis at a time
        self.axes = []
        for axis, faces in enumerate(diffusion.interior_faces()):
            offset = math.prod(shape[axis + 1:])
            padded = np.zeros(shape)
            padded[(slice(None),) * axis + (slice(0, shape[axis] - 1),)] = faces
            crossings = flux[(slice(None),) * axis + (-1,)]
            self.axes.append((offset, padded.ravel()[:size - offset].copy(),
                              flux.reshape(-1)[:size - offset], crossings))
        # CN right-hand side; residual; CG direction and its image; a product that
        # every apply overwrites (rate*phi), so no caller keeps it across one
        self.rhs, self.residual, self.direction, self.image, self.tmp = (
            np.empty(shape) for _ in range(5))

    def divergence(self, phi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """div(A grad phi) into the C-contiguous ``out``; grid sum is exactly zero.

        Each point adds and subtracts its fluxes in the order of the
        seven-point formula.  A crossing's flux is +0.0, which leaves the
        running value (never -0.0: it starts at +0.0) as it is.
        """
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        phi_flat, out_flat = phi.reshape(-1), out.reshape(-1)
        out.fill(0.0)
        for offset, faces, flux, crossings in self.axes:
            np.subtract(phi_flat[offset:], phi_flat[:-offset], out=flux)
            flux *= faces
            crossings[...] = 0.0  # a non-finite phi would leave 0 * inf there
            out_flat[:-offset] += flux
            out_flat[offset:] -= flux
        out /= self.scale
        return out


def apply_divergence(diffusion: DiffusionField, phi: ScalarField) -> ScalarField:
    """div(A grad phi) on the grid; conservative by construction."""
    if diffusion.grid.dims != phi.grid.dims:
        raise ProblemError(
            f"diffusion grid {diffusion.grid.dims} does not match field grid {phi.grid.dims}"
        )
    stencil = _Stencil(diffusion, phi.grid.spacing)
    return ScalarField(phi.grid, stencil.divergence(phi.values, np.empty(phi.grid.dims)))


@dataclass(frozen=True)
class DiscreteOperator:
    """The affine map's linear part M = -diag(rate) + div(A grad .), applied by stencil."""

    diffusion: DiffusionField
    rate: np.ndarray  # alpha^(.5) / (1 - sigma * u^(.5)), one value per point
    spacing: float
    stencil: _Stencil | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.stencil is None:
            object.__setattr__(self, "stencil", _Stencil(self.diffusion, self.spacing))

    def apply(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M phi, into ``out`` when given (it must not be ``phi``)."""
        if out is None:
            out = np.empty(phi.shape)
        stencil = self.stencil
        stencil.divergence(phi, out)
        out -= np.multiply(self.rate, phi, out=stencil.tmp)
        return out


@dataclass
class CGCounters:
    """What the CG solves of one propagator did: deterministic, so reruns report the same."""

    solves: int = 0
    iterations: int = 0
    max_iterations: int = 0
    worst_residual: float = 0.0  # largest final ||r|| / ||b||

    def record(self, iterations: int, residual: float) -> None:
        self.solves += 1
        self.iterations += iterations
        self.max_iterations = max(self.max_iterations, iterations)
        self.worst_residual = max(self.worst_residual, residual)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product in numpy's own loop: never BLAS, so no thread count changes it."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _cg(op: DiscreteOperator, half_h: float, b: np.ndarray, x0: np.ndarray,
        r0: np.ndarray | None = None, counters: CGCounters | None = None) -> np.ndarray:
    """Solve (I - half_h*M) x = b by matrix-free conjugate gradient from x0.

    ``r0``, if given, is the first residual b - (I - half_h*M) x0 and is
    overwritten.  The solution is a fresh array; every other vector is a work
    array of the operator's stencil.
    """
    work = op.stencil

    def apply_system(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        op.apply(x, out=out)
        out *= half_h
        return np.subtract(x, out, out=out)

    def solved(x: np.ndarray, iterations: int, rs: float) -> np.ndarray:
        if counters is not None:
            counters.record(iterations, math.sqrt(rs) / bnorm)
        return x

    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0.0:
        if counters is not None:
            counters.record(0, 0.0)
        return np.zeros_like(b)
    maxiter = CG_ITER_FACTOR * b.size
    x = x0.copy()
    r, d, ad, tmp = r0, work.direction, work.image, work.tmp
    if r is None:
        r = np.subtract(b, apply_system(x, work.residual), out=work.residual)
    np.copyto(d, r)
    rs = _dot(r, r)
    for iteration in range(maxiter):
        if math.sqrt(rs) <= CG_RTOL * bnorm:
            return solved(x, iteration, rs)
        apply_system(d, ad)
        alpha = rs / _dot(d, ad)
        x += np.multiply(d, alpha, out=tmp)
        r -= np.multiply(ad, alpha, out=tmp)
        rs_new = _dot(r, r)
        d *= rs_new / rs
        d += r
        rs = rs_new
    if math.sqrt(rs) <= CG_RTOL * bnorm:
        return solved(x, maxiter, rs)
    raise LinearSolverError(math.sqrt(rs) / bnorm, maxiter)


def _cn_advance(
    theta: np.ndarray,
    op: DiscreteOperator,
    source: np.ndarray | float,
    h: float,
    counters: CGCounters | None = None,
) -> np.ndarray:
    """One Crank-Nicolson step: solve (I - h/2 M) x = h*source + (I + h/2 M) theta.

    CG starts from x0 = theta, whose residual h*source + h*M theta reuses the
    right-hand side's M theta: one stencil apply fewer than applying the system.
    """
    work = op.stencil
    m_theta = op.apply(theta, out=work.residual)
    rhs = np.multiply(source, h, out=work.rhs)
    rhs += theta
    rhs += np.multiply(m_theta, h / 2.0, out=work.tmp)
    m_theta *= h
    m_theta += np.multiply(source, h, out=work.tmp)
    return _cg(op, h / 2.0, rhs, theta, m_theta, counters)


def _step_operator(problem: PdeProblem, u_sample: np.ndarray | float, alpha: np.ndarray,
                   stencil: _Stencil | None = None) -> DiscreteOperator:
    """M at a step whose midpoint pressure is ``alpha`` and chemical sample ``u_sample``."""
    rate = np.broadcast_to(alpha / (1.0 - problem.chem.sigma * u_sample), problem.grid.dims)
    return DiscreteOperator(problem.diffusion, rate, problem.grid.spacing, stencil)


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
    alpha = problem.pressure.field_at(t + h / 2.0)
    op = _step_operator(problem, u_val, alpha)
    return ScalarField(theta.grid, _cn_advance(theta.values, op, alpha, h))


class FieldPropagator(Propagator):
    """Crank-Nicolson steps of the space-dependent model for one chemical control.

    One stencil, with its work arrays, serves every step, so one propagator
    must not step from two threads at once; ``cg`` counts the CG solves of
    all its steps.
    """

    def __init__(self, problem: PdeProblem, u: ContinuousControl | None = None):
        tg = problem.time_grid
        self.problem, self.time_grid, self.sigma = problem, tg, problem.chem.sigma
        self.grid, self.shape = problem.grid, problem.grid.dims
        self.space_weight = problem.grid.cell_volume
        self.u_samples = u.samples if u is not None else np.zeros(tg.n_steps)
        self._u = _rows(self.u_samples)
        self.threshold = problem.chem.sigma_star * problem.grid.volume
        self.initial = problem.initial.values.copy()
        self.zero = np.zeros(self.shape)
        self.stencil = _Stencil(problem.diffusion, problem.grid.spacing)
        self.cg = CGCounters()

    def state(self, a) -> np.ndarray:
        return np.broadcast_to(a, self.shape).astype(float)

    def _step(self, x: np.ndarray, n: int, source: list | None) -> np.ndarray:
        """One CN step n; the source is the step's pressure when ``source`` is None."""
        alpha = self.problem.pressure.field_at(self.time_grid.mid_times[n])
        op = _step_operator(self.problem, self._u[n], alpha, self.stencil)
        return _cn_advance(x, op, alpha if source is None else source[n],
                           self.time_grid.dt[n], self.cg)

    def flow(self, x: np.ndarray, span: Span, source: list | None, out: np.ndarray,
             skipped: list | None) -> np.ndarray:
        """Walk one span one CN step at a time, writing each stored node into its
        row as it is reached; see :mod:`inhibopt.core`."""
        steps = range(self.time_grid.n_steps)[span.steps]
        out = out[span.rows]
        kept = [True] * len(out) if span.kept is None else span.kept
        r = 0
        for n, store in zip(steps, kept):  # every step but the last, which ends the span
            x = self._step(x, n, source)
            if store:
                out[r] = x
                r += 1
            elif skipped is not None:
                skipped.append(np.sum(x))
        return self._step(x, steps[-1], source)

    def diagnostics(self) -> dict:
        return {"cg": asdict(self.cg)}

    def gate(self, x: np.ndarray) -> bool:
        """Grid-quadrature L2 threshold ||theta|| >= sigma_star * |Omega|."""
        return float(np.sqrt(np.sum(x**2) * self.space_weight)) >= self.threshold

    def alpha_mid(self) -> np.ndarray:
        pressure = self.problem.pressure
        seasonal = pressure.seasonal(self.time_grid.mid_times)
        return seasonal[:, None, None, None] * pressure.amplitude_field.values[None]


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
    """Cost functional with space integrals by grid quadrature sum(.) * ds^3.

    The value is that of the whole run: nodes the trajectory did not store
    enter through their recorded grid sums, so ``store_every`` never changes it.
    """
    return _cost(traj, v, u, costs, problem.grid.cell_volume, problem.time_grid.dt)


def spatial_average(traj: Trajectory) -> Trajectory:
    """Per-time grid mean of a field trajectory, its jump records and its unstored sums."""
    values = traj.fields.mean(axis=(1, 2, 3))
    jumps = [replace(j, pre=float(np.mean(j.pre)), post=float(np.mean(j.post)),
                     applied=float(np.mean(j.applied))) for j in traj.jumps]
    return replace(traj, times=traj.times.copy(), values=values, jumps=jumps, grid=None,
                   skipped_sums=np.asarray(traj.skipped_sums) / traj.values[0].size)
