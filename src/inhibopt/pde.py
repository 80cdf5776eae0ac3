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
iterations allocate nothing.  The propagator also owns the step's pressure
and rate and two states that the steps inside a span write in turn: such a
step allocates nothing, and only a span's end state (with the jump records)
and ``cn_step``'s result are fresh.  CG starts from theta, so its first
residual b - (I - h/2 M) theta = h*source + h*M theta reuses the M theta of
the right-hand side: a CN step costs one stencil apply plus one per CG
iteration.  Every reduction (CG inner products, norms, grid sums) runs in
numpy's own loops and never in BLAS, so results do not depend on the BLAS
thread count and reruns are byte-identical.

The kernel skips arithmetic that is exactly the identity, so the skips give
the same bits as the full arithmetic: an axis whose interior faces all hold
one coefficient multiplies by that float, and not at all when it is 1.0;
the first axis writes 0.0 + flux instead of adding to a zero-filled output;
division by ds^2 happens only when ds^2 != 1.0; the rate is alpha itself when
sigma = 0 or u = 0 everywhere (decided once per propagator), as
1 - sigma*u is then exactly 1; and CG tests convergence right after it
updates the residual, so the last iteration does not update its direction.
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


def _one_value(a: np.ndarray) -> float | None:
    """The value every entry of ``a`` holds bit for bit (+0.0 and -0.0 differ), or None."""
    if a.size == 0:
        return None
    first = a.flat[0]
    if np.all(a == first) and np.all(np.signbit(a) == np.signbit(first)):
        return float(first)
    return None


class _Stencil:
    """Face-weighted divergence of one (diffusion, spacing), with the work arrays of the CN step.

    Each axis is one shift of the flattened field, by d2*d3, d3 or 1 points.
    Its face coefficients are kept contiguous in that layout, zero where the
    shift wraps into the next row (a "crossing"), so every flux and update
    is one contiguous numpy call.  An axis whose interior faces all hold one
    coefficient keeps that float instead (None when it is 1.0: no multiply),
    which gives the same products.  The flux, the CN right-hand side and the
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
            weight = _one_value(faces)
            if weight is None:
                padded = np.zeros(shape)
                padded[(slice(None),) * axis + (slice(0, shape[axis] - 1),)] = faces
                weight = padded.ravel()[:size - offset].copy()
            elif weight == 1.0:
                weight = None  # flux * 1.0 is flux
            crossings = flux[(slice(None),) * axis + (-1,)]
            self.axes.append((offset, weight, flux.reshape(-1)[:size - offset], crossings))
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
        for axis, (offset, faces, flux, crossings) in enumerate(self.axes):
            np.subtract(phi_flat[offset:], phi_flat[:-offset], out=flux)
            if faces is not None:
                flux *= faces
            crossings[...] = 0.0  # a non-finite phi would leave 0 * inf there
            if axis:
                out_flat[:-offset] += flux
            else:  # 0.0 + flux, as a zero-filled out would give
                np.add(flux, 0.0, out=out_flat[:-offset])
                out_flat[-offset:] = 0.0
            out_flat[offset:] -= flux
        if self.scale != 1.0:
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

    def add(self, counts: dict) -> None:
        """Add another propagator's counters (its ``diagnostics()["cg"]``)."""
        self.solves += counts["solves"]
        self.iterations += counts["iterations"]
        self.max_iterations = max(self.max_iterations, counts["max_iterations"])
        self.worst_residual = max(self.worst_residual, counts["worst_residual"])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product in numpy's own loop: never BLAS, so no thread count changes it."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _cg(op: DiscreteOperator, half_h: float, b: np.ndarray, x0: np.ndarray,
        r0: np.ndarray | None = None, counters: CGCounters | None = None,
        out: np.ndarray | None = None) -> np.ndarray:
    """Solve (I - half_h*M) x = b by matrix-free conjugate gradient from x0.

    ``r0``, if given, is the first residual b - (I - half_h*M) x0 and is
    overwritten.  The solution goes into ``out`` (a fresh array when None;
    x0 is read once, before ``out`` is written); every other vector is a work
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
    x = np.empty_like(b) if out is None else out
    if bnorm == 0.0:
        if counters is not None:
            counters.record(0, 0.0)
        x.fill(0.0)
        return x
    maxiter = CG_ITER_FACTOR * b.size
    np.copyto(x, x0)
    r, d, ad, tmp = r0, work.direction, work.image, work.tmp
    if r is None:
        r = np.subtract(b, apply_system(x, work.residual), out=work.residual)
    rs = _dot(r, r)
    if math.sqrt(rs) <= CG_RTOL * bnorm:
        return solved(x, 0, rs)
    np.copyto(d, r)
    for iteration in range(1, maxiter + 1):
        apply_system(d, ad)
        alpha = rs / _dot(d, ad)
        x += np.multiply(d, alpha, out=tmp)
        r -= np.multiply(ad, alpha, out=tmp)
        rs_new = _dot(r, r)
        if math.sqrt(rs_new) <= CG_RTOL * bnorm:  # converged: the direction is not needed
            return solved(x, iteration, rs_new)
        d *= rs_new / rs
        d += r
        rs = rs_new
    raise LinearSolverError(math.sqrt(rs) / bnorm, maxiter)


def _cn_advance(
    theta: np.ndarray,
    op: DiscreteOperator,
    source: np.ndarray | float,
    h: float,
    counters: CGCounters | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One Crank-Nicolson step: solve (I - h/2 M) x = h*source + (I + h/2 M) theta.

    CG starts from x0 = theta, whose residual h*source + h*M theta reuses the
    right-hand side's M theta: one stencil apply fewer than applying the system.
    The new state goes into ``out`` (a fresh array when None).
    """
    work = op.stencil
    m_theta = op.apply(theta, out=work.residual)
    rhs = np.multiply(source, h, out=work.rhs)
    rhs += theta
    rhs += np.multiply(m_theta, h / 2.0, out=work.tmp)
    m_theta *= h
    m_theta += np.multiply(source, h, out=work.tmp)
    return _cg(op, h / 2.0, rhs, theta, m_theta, counters, out)


def _unit_divisor(sigma: float, u: np.ndarray | float) -> bool:
    """Whether 1 - sigma*u is exactly 1 at every point: sigma = 0 or u zero everywhere."""
    return sigma == 0.0 or not np.any(u)


def _step_operator(problem: PdeProblem, u_sample: np.ndarray | float, alpha: np.ndarray,
                   stencil: _Stencil | None = None, unit_divisor: bool = False,
                   rate: np.ndarray | None = None) -> DiscreteOperator:
    """M at a step whose midpoint pressure is ``alpha`` and chemical sample ``u_sample``.

    The rate alpha/(1 - sigma*u) goes into ``rate`` (a fresh array when None);
    it is ``alpha`` itself when the caller knows the divisor is exactly 1.
    """
    if not unit_divisor and rate is not None and np.ndim(u_sample):  # a field u: all in rate
        np.subtract(1.0, np.multiply(u_sample, problem.chem.sigma, out=rate), out=rate)
        alpha = np.divide(alpha, rate, out=rate)
    elif not unit_divisor:
        alpha = np.divide(alpha, 1.0 - problem.chem.sigma * u_sample, out=rate)
    return DiscreteOperator(problem.diffusion, alpha, problem.grid.spacing, stencil)


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
    op = _step_operator(problem, u_val, alpha, unit_divisor=_unit_divisor(problem.chem.sigma, u_val))
    return ScalarField(theta.grid, _cn_advance(theta.values, op, alpha, h))


class FieldPropagator(Propagator):
    """Crank-Nicolson steps of the space-dependent model for one chemical control.

    One stencil, with its work arrays, serves every step, and the propagator
    owns the step's pressure and rate and the two states that alternate inside
    a span, so one propagator must not step from two threads at once and a
    step inside a span allocates nothing; ``cg`` counts the CG solves of all
    its steps.
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
        self.unit_divisor = _unit_divisor(self.sigma, self.u_samples)
        # the step's pressure and rate, and the states of the steps inside a span
        self.alpha, self.rate, *self.iterates = (np.empty(self.shape) for _ in range(4))

    def state(self, a) -> np.ndarray:
        return np.broadcast_to(a, self.shape).astype(float)

    def _step(self, x: np.ndarray, n: int, source: list | None,
              out: np.ndarray | None = None) -> np.ndarray:
        """One CN step n into ``out`` (a fresh array when None); the source is the
        step's pressure when ``source`` is None."""
        alpha = self.problem.pressure.field_at(self.time_grid.mid_times[n], out=self.alpha)
        op = _step_operator(self.problem, self._u[n], alpha, self.stencil, self.unit_divisor,
                            self.rate)
        return _cn_advance(x, op, alpha if source is None else source[n],
                           self.time_grid.dt[n], self.cg, out)

    def flow(self, x: np.ndarray, span: Span, source: list | None, out: np.ndarray,
             skipped: list | None) -> np.ndarray:
        """Walk one span one CN step at a time, writing each stored node into its
        row as it is reached; see :mod:`inhibopt.core`.  The steps inside the
        span write the two iterates in turn; only the span's end state is fresh."""
        steps = range(self.time_grid.n_steps)[span.steps]
        out = out[span.rows]
        kept = [True] * len(out) if span.kept is None else span.kept
        r = 0
        for i, (n, store) in enumerate(zip(steps, kept)):  # every step but the last
            x = self._step(x, n, source, self.iterates[i % 2])
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
    jumps = [j._replace(pre=float(np.mean(j.pre)), post=float(np.mean(j.post)),
                        applied=float(np.mean(j.applied))) for j in traj.jumps]
    return replace(traj, times=traj.times.copy(), values=values, jumps=jumps, grid=None,
                   skipped_sums=np.asarray(traj.skipped_sums) / traj.values[0].size)
