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
contiguous and holds every flux and CG work array and the one state that the
steps inside a span overwrite in place, so stencil applies, CG iterations and
those steps allocate nothing.  Every array a step streams starts on a 64-byte
cache line (numpy guarantees 16 bytes, so a wider vector load would straddle
two lines at whatever offset the allocation history gave): the stencil's work
arrays and non-uniform face weights, the propagator's pressure and rate, and
each span's fresh end state.  Two pairs of work arrays whose contents never
live at the same time share one array: the flux, which the divergence uses
up, and the rate*phi product that the apply writes after it; and the CN
right-hand side, which CG reads once for its norm, and CG's direction, which
it writes only after that.  It also builds, once, the shifted flat views
with which its two fixed applies run: CG's direction into its image, and the
state into the residual, where each step's right-hand-side apply goes.
:class:`FieldPropagator` builds one :class:`DiscreteOperator` per control on
its rate buffer; every apply still enters through :meth:`DiscreteOperator.apply`.
Kernel calls write into buffers their caller owns: the propagator owns the
step's pressure and rate, a span's end state is fresh (as are the jump
records), and ``cn_step`` passes buffers of its own.  A CN step may overwrite
its input state, which CG reads once, before it writes.  CG starts from
theta, so its first residual b - (I - h/2 M) theta = h*source + h*M theta
reuses the M theta of the right-hand side: a CN step costs one stencil apply
plus one per CG iteration.  Every reduction (CG inner products,
norms, grid sums) runs in numpy's own loops and never in BLAS, so results do
not depend on the BLAS thread count and reruns are byte-identical; the CG
inner products call the kernel of ``np.einsum("i,i->")`` on flat views.
A right-hand side of non-finite norm (sigma*u = 1 somewhere, say) raises
LinearSolverError.

The kernel skips arithmetic that is exactly the identity, so the skips give
the same bits as the full arithmetic: an axis whose interior faces all hold
one coefficient multiplies by that float, and not at all when it is 1.0;
the first axis writes 0.0 + flux instead of adding to a zero-filled output,
and its crossings, which lie past its flux, are not zeroed;
division by ds^2 happens only when ds^2 != 1.0; the rate is alpha itself when
sigma = 0 or u = 0 everywhere (decided once per propagator and control), as
1 - sigma*u is then exactly 1; and CG tests convergence right after it
updates the residual, so the last iteration does not update its direction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _c_einsum

from .core import FieldTrajectory, Propagator, Span, Trajectory, _cost, _row_means, _rows  # noqa: F401
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


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float array whose first element starts a 64-byte cache line.

    numpy's allocator guarantees only 16 bytes, so an array's offset into its
    cache line follows the allocation history; a vector load from an array that
    does not start a line straddles two.  This over-allocates by one line and
    slices at its first boundary.
    """
    nbytes = math.prod(shape) * 8
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(np.float64).reshape(shape)


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
    which gives the same products.  The flux, the CN right-hand side, the CG
    vectors and the span state live in arrays allocated once here, each on a
    64-byte boundary, as are the non-uniform face weights; ``flux`` and
    ``tmp`` name one array, as do ``rhs`` and ``direction``, because neither
    pair's contents are ever needed at once (see the module docstring).  The
    views with which the divergence runs are built here for its two fixed
    (phi, out) pairs: CG's direction into its image and the state into the
    residual.
    """

    def __init__(self, diffusion: DiffusionField, spacing: float):
        shape = diffusion.grid.dims
        size = math.prod(shape)
        self.scale = spacing**2
        # the flux (one axis at a time), and the rate*phi product that every apply
        # writes after its divergence, so no caller keeps it across an apply
        self.flux = self.tmp = _aligned_empty(shape)
        self.axes = []
        for axis, faces in enumerate(diffusion.interior_faces()):
            offset = math.prod(shape[axis + 1:])
            weight = _one_value(faces)
            if weight is None:
                padded = _aligned_empty(shape)
                padded.fill(0.0)
                padded[(slice(None),) * axis + (slice(0, shape[axis] - 1),)] = faces
                weight = padded.reshape(-1)[:size - offset]
            elif weight == 1.0:
                weight = None  # flux * 1.0 is flux
            # axis 0's crossings (its last plane) lie past its flux view: none to zero
            crossings = self.flux[(slice(None),) * axis + (-1,)] if axis else None
            self.axes.append((offset, weight, self.flux.reshape(-1)[:size - offset], crossings))
        # residual; CG direction (and, until CG has its norm, the CN right-hand
        # side) and its image; the state that the steps inside a span overwrite
        self.residual, self.direction, self.image, self.state = (
            _aligned_empty(shape) for _ in range(4))
        self.rhs = self.direction
        self.bound = [(phi, out, self._views(phi, out))
                      for phi, out in ((self.direction, self.image), (self.state, self.residual))]

    def _views(self, phi: np.ndarray, out: np.ndarray) -> list:
        """Per axis: phi's upper and lower shifts, the flux and face weight, the
        slab to zero, the two terms whose sum goes into out's lower shift, and
        out's upper shift."""
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        phi_flat, out_flat = phi.reshape(-1), out.reshape(-1)
        views = []
        for offset, faces, flux, crossings in self.axes:
            lower, upper = out_flat[:-offset], out_flat[offset:]
            if crossings is None:  # the first axis: 0.0 + flux, as a zero-filled out would give
                update = (out_flat[-offset:], flux, 0.0)
            else:
                update = (crossings, lower, flux)
            views.append((phi_flat[offset:], phi_flat[:-offset], flux, faces, *update, lower, upper))
        return views

    def divergence(self, phi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """div(A grad phi) into the C-contiguous ``out``; grid sum is exactly zero.

        Each point adds and subtracts its fluxes in the order of the
        seven-point formula.  A crossing's flux is +0.0, which leaves the
        running value (never -0.0: it starts at +0.0) as it is.
        """
        for bound_phi, bound_out, views in self.bound:
            if phi is bound_phi and out is bound_out:
                break
        else:
            views = self._views(phi, out)
        subtract, multiply, add = np.subtract, np.multiply, np.add
        for upper, lower, flux, faces, zeros, augend, addend, out_lower, out_upper in views:
            subtract(upper, lower, flux)
            if faces is not None:
                multiply(flux, faces, flux)
            zeros.fill(0.0)  # out's last slab, or the crossings (a non-finite phi leaves 0 * inf)
            add(augend, addend, out_lower)
            subtract(out_upper, flux, out_upper)
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
        """M phi, into ``out`` when given.

        ``out`` must not be ``phi``, and neither may be the stencil's ``tmp``
        (which is also its flux): the divergence and rate*phi are written there.
        """
        if out is None:
            out = np.empty(phi.shape)
        stencil = self.stencil
        stencil.divergence(phi, out)
        out -= np.multiply(self.rate, phi, stencil.tmp)
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
    """Inner product of two flat arrays in the loop of ``np.einsum("i,i->", a, b)``,
    called without its dispatch wrapper: never BLAS, so no thread count changes it."""
    return float(_c_einsum("i,i->", a, b))


def _cg(op: DiscreteOperator, half_h: float, b: np.ndarray, x0: np.ndarray, r: np.ndarray,
        counters: CGCounters, out: np.ndarray) -> np.ndarray:
    """Solve (I - half_h*M) x = b by matrix-free conjugate gradient from x0.

    ``r`` is the first residual b - (I - half_h*M) x0 and is overwritten.  The
    solution goes into ``out`` (x0 is read once, before ``out`` is written, so
    ``out`` may be x0); every other vector is a work array of the operator's
    stencil.  b is read once, for its norm, before the direction is written,
    so b may be the stencil's direction.  A b of non-finite norm (say, from a
    rate alpha/(1 - sigma*u) with sigma*u = 1 somewhere) raises LinearSolverError.
    """
    work = op.stencil
    b_flat = b.reshape(-1)
    bnorm = math.sqrt(_dot(b_flat, b_flat))
    if not math.isfinite(bnorm):
        raise LinearSolverError(math.nan, 0, "got a right-hand side of non-finite norm")
    x = out
    if bnorm == 0.0:
        counters.record(0, 0.0)
        x.fill(0.0)
        return x
    tol = CG_RTOL * bnorm
    maxiter = CG_ITER_FACTOR * b.size
    np.copyto(x, x0)
    d, ad, tmp = work.direction, work.image, work.tmp
    r_flat, d_flat, ad_flat = r.reshape(-1), d.reshape(-1), ad.reshape(-1)
    rs = _dot(r_flat, r_flat)
    iteration = 0
    if math.sqrt(rs) > tol:
        np.copyto(d, r)
        for iteration in range(1, maxiter + 1):
            op.apply(d, ad)  # (I - half_h*M) d into ad
            ad *= half_h
            np.subtract(d, ad, ad)
            alpha = rs / _dot(d_flat, ad_flat)
            x += np.multiply(d, alpha, tmp)
            r -= np.multiply(ad, alpha, tmp)
            rs, rs_old = _dot(r_flat, r_flat), rs
            if math.sqrt(rs) <= tol:  # converged: the direction is not needed
                break
            d *= rs / rs_old
            d += r
        else:
            raise LinearSolverError(math.sqrt(rs) / bnorm, maxiter)
    counters.record(iteration, math.sqrt(rs) / bnorm)
    return x


def _cn_advance(
    theta: np.ndarray,
    op: DiscreteOperator,
    source: np.ndarray | float,
    h: float,
    counters: CGCounters,
    out: np.ndarray,
) -> np.ndarray:
    """One Crank-Nicolson step: solve (I - h/2 M) x = h*source + (I + h/2 M) theta.

    CG starts from x0 = theta, whose residual h*source + h*M theta reuses the
    right-hand side's M theta (one stencil apply fewer than applying the
    system) and its h*source, which is formed once.
    The new state goes into ``out``, which may be theta.
    """
    work = op.stencil
    half_h = h / 2.0
    m_theta = op.apply(theta, work.residual)
    rhs = np.multiply(source, h, work.rhs)
    half_h_m_theta = np.multiply(m_theta, half_h, work.tmp)
    m_theta *= h
    m_theta += rhs
    rhs += theta
    rhs += half_h_m_theta
    return _cg(op, half_h, rhs, theta, m_theta, counters, out)


def _unit_divisor(sigma: float, u: np.ndarray | float) -> bool:
    """Whether 1 - sigma*u is exactly 1 at every point: sigma = 0 or u zero everywhere."""
    return sigma == 0.0 or not np.any(u)


def _rate(sigma: float, u_sample: np.ndarray | float, alpha: np.ndarray, unit_divisor: bool,
          out: np.ndarray) -> np.ndarray:
    """alpha/(1 - sigma*u) into ``out``; ``alpha`` itself when the caller knows
    the divisor is exactly 1."""
    if unit_divisor:
        return alpha
    if np.ndim(u_sample):  # a field u: all in out
        np.subtract(1.0, np.multiply(u_sample, sigma, out), out)
        return np.divide(alpha, out, out)
    return np.divide(alpha, 1.0 - sigma * u_sample, out=out)


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
    rate = _rate(problem.chem.sigma, u_val, alpha, _unit_divisor(problem.chem.sigma, u_val),
                 np.empty(theta.grid.dims))
    op = DiscreteOperator(problem.diffusion, rate, problem.grid.spacing)
    return ScalarField(theta.grid, _cn_advance(theta.values, op, alpha, float(h), CGCounters(),
                                               np.empty(theta.grid.dims)))


class FieldPropagator(Propagator):
    """Crank-Nicolson steps of the space-dependent model for one chemical control.

    One stencil, with its work arrays and the state that the steps inside a
    span overwrite in place, and one operator on the rate buffer serve every
    step.  The propagator owns the step's pressure and rate, so one propagator
    must not step from two threads at once, and a step inside a span allocates
    nothing; ``cg`` counts the CG solves of all its steps under every control
    ``aim(u)`` sets, which changes only the u rows, unit divisor and operator.
    """

    def __init__(self, problem: PdeProblem, u: ContinuousControl | None = None):
        tg = problem.time_grid
        self.problem, self.time_grid, self.sigma = problem, tg, problem.chem.sigma
        self.grid, self.shape = problem.grid, problem.grid.dims
        self.threshold = problem.chem.sigma_star * problem.grid.volume
        self.initial = problem.initial.values.copy()
        self.zero = np.zeros(self.shape)
        self.mid_times, self.dt = tg.mid_times, tg.dt.tolist()
        self.stencil = _Stencil(problem.diffusion, problem.grid.spacing)
        self.cg = CGCounters()
        self.rate = _aligned_empty(self.shape)  # the step's rate
        # the array every step's pressure lands in: this buffer, or a constant
        # pressure's own field, which field_at returns whatever out is
        self.alpha = problem.pressure.field_at(0.0, out=_aligned_empty(self.shape))
        self.aim(u)

    def _aim(self) -> None:
        self._u = _rows(self.u_samples)
        self.unit_divisor = _unit_divisor(self.sigma, self.u_samples)
        rate = self.alpha if self.unit_divisor else self.rate
        self.op = DiscreteOperator(self.problem.diffusion, rate, self.grid.spacing, self.stencil)

    def state(self, a) -> np.ndarray:
        return np.broadcast_to(a, self.shape).astype(float)

    def _step(self, x: np.ndarray, n: int, source: list | None, out: np.ndarray) -> np.ndarray:
        """One CN step n into ``out``, which may be x; the source is the step's
        pressure when ``source`` is None."""
        alpha = self.problem.pressure.field_at(self.mid_times[n], out=self.alpha)
        _rate(self.sigma, self._u[n], alpha, self.unit_divisor, self.rate)
        return _cn_advance(x, self.op, alpha if source is None else source[n], self.dt[n],
                           self.cg, out)

    def flow(self, x: np.ndarray, span: Span, source: list | None, out: np.ndarray,
             skipped: list | None) -> np.ndarray:
        """Walk one span one CN step at a time, writing each stored node into its
        row as it is reached; see :mod:`inhibopt.core`.  The steps inside the
        span overwrite the stencil's state in place; only the span's end state is fresh."""
        steps = range(self.time_grid.n_steps)[span.steps]
        out = out[span.rows]
        kept = [True] * len(out) if span.kept is None else span.kept
        state, r = self.stencil.state, 0
        for n, store in zip(steps, kept):  # every step but the last
            x = self._step(x, n, source, state)
            if store:
                out[r] = x
                r += 1
            elif skipped is not None:
                skipped.append(np.sum(x))
        return self._step(x, steps[-1], source, _aligned_empty(self.shape))

    def diagnostics(self) -> dict:
        return {"cg": asdict(self.cg)}

    def gate(self, x: np.ndarray) -> bool:
        """Grid-quadrature L2 threshold ||theta|| >= sigma_star * |Omega|."""
        return self.grid.l2_norm(x) >= self.threshold

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
    """Run the field forward by :class:`FieldPropagator` spans of CN steps, applying
    threshold-gated multiplicative pulses (``cn_step`` is the separate one-step API)."""
    return FieldPropagator(problem, u).forward(v, store_every)


def cost_pde(
    traj: FieldTrajectory,
    v: PulseStrategy,
    u: ContinuousControl | None,
    costs: CostSpec,
    problem: PdeProblem,
) -> CostBreakdown:
    """Cost functional with space integrals by the record's grid quadrature sum(.) * ds^3.

    The value is that of the whole run on ``problem``'s step grid: nodes the
    trajectory did not store enter through their recorded grid sums, so
    ``store_every`` never changes it.
    """
    return _cost(traj, v, u, costs, problem.time_grid.dt)


def spatial_average(traj: Trajectory) -> Trajectory:
    """Per-time grid mean of a field trajectory, its jump records and its unstored sums."""
    values = _row_means(traj.fields)
    jumps = [j._replace(pre=float(np.mean(j.pre)), post=float(np.mean(j.post)),
                        applied=float(np.mean(j.applied))) for j in traj.jumps]
    return replace(traj, times=traj.times.copy(), values=values, jumps=jumps, grid=None,
                   skipped_sums=np.asarray(traj.skipped_sums) / traj.values[0].size)
