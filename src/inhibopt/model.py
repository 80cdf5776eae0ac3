"""Problem description shared by all solvers.

Grids, parameter fields, control representations and cost specifications for
the impulsive inhibition-rate model

    d/dt theta = alpha(t,x) * (1 - theta / (1 - sigma*u(t,x))) + div(A grad theta),
    theta(tau_i^+, x) = v_i(x) * theta(tau_i, x),

with no-flux boundaries.  All types are immutable after construction and safe
to share between threads.  Constructors only enforce structural consistency
(shapes, finiteness); range constraints such as sigma in [0,1] are reported by
:func:`validate` rather than raised, so that ill-posed bundles can be
inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ProblemError(ValueError):
    """Structurally inconsistent problem data (shape/grid mismatches)."""


class SolverError(RuntimeError):
    """Base class for numerical failures."""


class QuadratureError(SolverError):
    """Non-finite integrand encountered during time integration."""

    def __init__(self, t: float, message: str = "non-finite integrand"):
        super().__init__(f"{message} at t={t!r}")
        self.t = t


class LinearSolverError(SolverError):
    """Iterative linear solve did not reach the requested residual."""

    def __init__(self, residual: float, iterations: int, reason: str = "stalled"):
        super().__init__(
            f"conjugate gradient {reason}: relative residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of the distinct data of ``a``.

    Each axis of stride 0 (a broadcast) is copied at length 1 and broadcast back,
    so a constant holds one value and a space-uniform profile one value per step;
    any other array is copied C-contiguous.  Either way the copy is the stored
    data, so writing later to ``a`` changes nothing stored.
    """
    a = np.asarray(a)
    core = np.array(a[tuple(slice(None, 1) if s == 0 else slice(None) for s in a.strides)],
                    dtype=float, order="C")  # preserves 0-d shapes
    core.setflags(write=False)
    return core if core.shape == a.shape else np.broadcast_to(core, a.shape)


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class SpaceGrid:
    """Regular point grid on the box [0, N1*ds] x [0, N2*ds] x [0, N3*ds].

    ``dims`` are point counts per axis (N_m + 1 points for N_m cells).  The
    same ds applies to every axis.
    """

    dims: tuple[int, int, int]
    spacing: float = 1.0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ProblemError(f"grid dims must be three counts >= 1, got {self.dims}")
        if not self.spacing > 0:
            raise ProblemError(f"grid spacing must be > 0, got {self.spacing}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_cells(cls, n1: int, n2: int, n3: int, spacing: float = 1.0) -> "SpaceGrid":
        """Grid with N_m cells per axis, i.e. (N1+1) x (N2+1) x (N3+1) points."""
        return cls((n1 + 1, n2 + 1, n3 + 1), spacing)

    @property
    def npoints(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def volume(self) -> float:
        """Domain volume under the grid quadrature sum(.) * ds^3."""
        return self.npoints * self.cell_volume

    def l2_norm(self, values: np.ndarray) -> float | np.ndarray:
        """Grid quadrature of the spatial L2 norm, sqrt(sum(v^2) * ds^3), summed over the
        last three axes: of one field, or of each field of a stack."""
        return np.sqrt(np.sum(values**2, axis=(-3, -2, -1)) * self.cell_volume)


@dataclass(frozen=True)
class TimeGrid:
    """Integration nodes on [0, t_end] with pulse candidates on nodes.

    Every span between consecutive breakpoints (0, the candidate pulse times,
    t_end) is subdivided uniformly with step <= ``step``, so each candidate
    time coincides with an integration node by construction.

    Derived arrays: ``times`` (all nodes), ``dt`` (step sizes),
    ``mid_times`` (step midpoints) and ``candidate_indices`` (node index of
    each candidate pulse time).
    """

    t_end: float
    step: float
    candidate_pulse_times: tuple[float, ...] = ()
    times: np.ndarray = field(init=False, repr=False, compare=False)
    dt: np.ndarray = field(init=False, repr=False, compare=False)
    mid_times: np.ndarray = field(init=False, repr=False, compare=False)
    candidate_indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t_end > 0:
            raise ProblemError(f"t_end must be > 0, got {self.t_end}")
        if not self.step > 0:
            raise ProblemError(f"step must be > 0, got {self.step}")
        cands = tuple(float(t) for t in self.candidate_pulse_times)
        if any(b <= a for a, b in zip(cands, cands[1:])):
            raise ProblemError("candidate pulse times must be strictly increasing")
        if cands and (cands[0] < 0.0 or cands[-1] > self.t_end):
            raise ProblemError("candidate pulse times must lie in [0, t_end]")
        object.__setattr__(self, "candidate_pulse_times", cands)

        nodes = [0.0]
        cand_idx = []
        breakpoints = list(cands)
        if not breakpoints or breakpoints[-1] < self.t_end:
            breakpoints.append(self.t_end)
        if cands and cands[0] == 0.0:
            cand_idx.append(0)
            breakpoints = breakpoints[1:] if breakpoints[0] == 0.0 else breakpoints
        prev = 0.0
        for b in breakpoints:
            n = max(1, math.ceil((b - prev) / self.step - 1e-12))
            nodes.extend(prev + (b - prev) * (np.arange(1, n + 1) / n))
            nodes[-1] = b  # exact endpoint
            if b in cands:
                cand_idx.append(len(nodes) - 1)
            prev = b
        times = _readonly(np.array(nodes))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "dt", _readonly(np.diff(times)))
        object.__setattr__(self, "mid_times", _readonly((times[:-1] + times[1:]) / 2.0))
        object.__setattr__(self, "candidate_indices", tuple(cand_idx))

    @classmethod
    def regular(cls, t_end: float, step: float, pulse_interval: float) -> "TimeGrid":
        """Candidates at j*pulse_interval strictly inside (0, t_end)."""
        if not pulse_interval > 0:
            raise ProblemError("pulse_interval must be > 0")
        cands = []
        j = 1
        while j * pulse_interval < t_end - 1e-12 * t_end:
            cands.append(j * pulse_interval)
            j += 1
        return cls(t_end, step, tuple(cands))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_pulse_times)


# ---------------------------------------------------------------------------
# fields and parameters


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid point, shaped like ``grid.dims``."""

    grid: SpaceGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.dims:
            raise ProblemError(
                f"field shape {v.shape} does not match grid dims {self.grid.dims}"
            )
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def uniform(cls, grid: SpaceGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.dims, float(value)))

    def mean(self) -> float:
        return float(self.values.mean())

    def l2_norm(self) -> float:
        """Grid quadrature of the spatial L2 norm: sqrt(sum(v^2) * ds^3)."""
        return float(self.grid.l2_norm(self.values))


def seasonal_profile(amplitude: float, peak_time: float, period: float) -> Callable:
    """Time profile a*(t-b)^2*(1-cos(2*pi*t/c)); broadcasts over arrays."""
    if not period > 0:
        raise ProblemError("seasonal period must be > 0")

    def alpha(t):
        return amplitude * (t - peak_time) ** 2 * (1.0 - np.cos(2.0 * np.pi * t / period))

    return alpha


@dataclass(frozen=True)
class InhibitionPressure:
    """Seasonal inhibition pressure a(x)*(t-b)^2*(1-cos(2*pi*t/c))."""

    amplitude_field: ScalarField
    peak_time: float
    period: float

    def __post_init__(self):
        if not self.period > 0:
            raise ProblemError("inhibition pressure period must be > 0")

    @classmethod
    def uniform(cls, grid: SpaceGrid, amplitude: float, peak_time: float, period: float):
        return cls(ScalarField.uniform(grid, amplitude), peak_time, period)

    def seasonal(self, t):
        return (t - self.peak_time) ** 2 * (1.0 - np.cos(2.0 * np.pi * t / self.period))

    def field_at(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """a(x) * seasonal(t), into ``out`` when given."""
        return np.multiply(self.amplitude_field.values, self.seasonal(t), out=out)

    def mean_profile(self) -> Callable:
        """Spatially averaged time profile, for the averaged-model reduction."""
        return seasonal_profile(self.amplitude_field.mean(), self.peak_time, self.period)


@dataclass(frozen=True)
class ConstantPressure:
    """Time-independent pressure a(x); mainly for closed-form verification runs."""

    amplitude_field: ScalarField

    def seasonal(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def field_at(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """a(x) itself, whatever ``out`` is: it does not change with t."""
        return self.amplitude_field.values

    def mean_profile(self) -> Callable:
        a = self.amplitude_field.mean()

        def alpha(t):
            return np.full_like(np.asarray(t, dtype=float), a)

        return alpha

    @classmethod
    def uniform(cls, grid: SpaceGrid, amplitude: float) -> "ConstantPressure":
        return cls(ScalarField.uniform(grid, amplitude))


def eval_inhibition_pressure(p: InhibitionPressure, t: float, point: tuple[int, int, int]) -> float:
    """Pressure at one grid point and time; total on valid inputs, always >= 0."""
    if t < 0:
        raise ProblemError(f"time must be >= 0, got {t}")
    dims = p.amplitude_field.grid.dims
    if any(not 0 <= point[m] < dims[m] for m in range(3)):
        raise ProblemError(f"point {point} outside grid dims {dims}")
    return float(p.amplitude_field.values[point] * p.seasonal(t))


@dataclass(frozen=True)
class DiffusionField:
    """Per-axis diffusion coefficients on cell faces (diagonal A).

    ``a1`` has shape (d1+1, d2, d3) etc.; entries on faces that cross the
    domain boundary (first/last slab along the axis) must be zero, which is
    what enforces the no-flux boundary condition in the divergence stencil.
    """

    grid: SpaceGrid
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray

    def __post_init__(self):
        d1, d2, d3 = self.grid.dims
        shapes = {"a1": (d1 + 1, d2, d3), "a2": (d1, d2 + 1, d3), "a3": (d1, d2, d3 + 1)}
        for name, want in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise ProblemError(f"{name} shape {arr.shape}, expected {want}")
            object.__setattr__(self, name, _readonly(arr))

    @classmethod
    def isotropic(cls, grid: SpaceGrid, value: float) -> "DiffusionField":
        """A = value * I on interior faces, zero on boundary faces."""
        d1, d2, d3 = grid.dims
        a1 = np.zeros((d1 + 1, d2, d3))
        a2 = np.zeros((d1, d2 + 1, d3))
        a3 = np.zeros((d1, d2, d3 + 1))
        a1[1:-1], a2[:, 1:-1], a3[:, :, 1:-1] = value, value, value
        return cls(grid, a1, a2, a3)

    def interior_faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.a1[1:-1], self.a2[:, 1:-1], self.a3[:, :, 1:-1]

    def max_abs(self) -> float:
        return max(
            (float(np.abs(a).max()) if a.size else 0.0) for a in (self.a1, self.a2, self.a3)
        )


@dataclass(frozen=True)
class ChemicalParams:
    """Chemical-control parameters: efficacy sigma, observability threshold sigma_star."""

    sigma: float = 0.0
    sigma_star: float = 0.0


@dataclass(frozen=True)
class ContinuousControl:
    """Chemical control u, piecewise constant over integration steps.

    ``samples`` holds one entry per step: shape (n_steps,) for the averaged
    model or (n_steps, d1, d2, d3) for the space-dependent model.  It is a
    read-only copy of the distinct values given (see ``_readonly``): a
    constant control holds one value, a space-uniform profile one per step.
    """

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _readonly(self.samples))

    @classmethod
    def constant(cls, time_grid: TimeGrid, value: float, grid: SpaceGrid | None = None):
        shape = (time_grid.n_steps,) if grid is None else (time_grid.n_steps, *grid.dims)
        return cls(np.broadcast_to(float(value), shape))

    @classmethod
    def from_profile(cls, time_grid: TimeGrid, fn: Callable, grid: SpaceGrid | None = None):
        """Sample a time callable at step midpoints (uniform in space if a grid is given)."""
        vals = np.asarray(fn(time_grid.mid_times), dtype=float)
        if grid is not None:
            vals = np.broadcast_to(vals[:, None, None, None], (time_grid.n_steps, *grid.dims))
        return cls(vals)


@dataclass(frozen=True)
class PulseStrategy:
    """Multiplicative pulse values v_i, one per candidate pulse time.

    Shape (m,) for the averaged model, (m, d1, d2, d3) for the space-dependent
    model.  v_i = 1 leaves the state unchanged, v_i = 0 clears it.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))

    @classmethod
    def no_intervention(cls, time_grid: TimeGrid, grid: SpaceGrid | None = None):
        shape = (time_grid.n_candidates,) if grid is None else (time_grid.n_candidates, *grid.dims)
        return cls(np.broadcast_to(1.0, shape))

    @classmethod
    def from_fields(cls, fields: Sequence[ScalarField]) -> "PulseStrategy":
        return cls(np.stack([f.values for f in fields]))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CostSpec:
    """Cost functional data.

    J = integral(theta) + integral(C*u) + sum_i c_i*(1-v_i)*theta(tau_i) + C_f*theta(T).

    The running-state weight is fixed at 1.  ``pulse_unit`` holds c_i (one
    entry per candidate pulse time, scalar or field), ``continuous_unit``
    holds C per integration step, ``final`` holds C_f (scalar or field
    values).  Each is a read-only copy of the distinct values given (see
    ``_readonly``), so a constant cost holds one value.
    """

    RUNNING_STATE_WEIGHT = 1.0

    pulse_unit: np.ndarray
    continuous_unit: np.ndarray
    final: np.ndarray

    def __post_init__(self):
        for name in ("pulse_unit", "continuous_unit", "final"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @classmethod
    def constant(
        cls,
        time_grid: TimeGrid,
        pulse_unit: float,
        continuous_unit: float = 0.0,
        final: float = 0.0,
    ) -> "CostSpec":
        return cls(
            np.broadcast_to(float(pulse_unit), (time_grid.n_candidates,)),
            np.broadcast_to(float(continuous_unit), (time_grid.n_steps,)),
            np.asarray(float(final)),
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Evaluated cost components; ``total`` is their sum at accumulation order."""

    running_state: float
    running_control: float
    pulse: float
    final: float
    total: float

    @classmethod
    def assemble(cls, running_state, running_control, pulse, final) -> "CostBreakdown":
        total = running_state + running_control + pulse + final
        return cls(running_state, running_control, pulse, final, total)


# ---------------------------------------------------------------------------
# problem bundles


@dataclass(frozen=True)
class AveragedProblem:
    """Spatially averaged impulsive model: scalar state Theta in [0,1]."""

    time_grid: TimeGrid
    alpha: Callable  # time profile, must broadcast over numpy arrays
    chem: ChemicalParams
    theta0: float


@dataclass(frozen=True)
class PdeProblem:
    """Space-dependent impulsive reaction-diffusion model."""

    time_grid: TimeGrid
    grid: SpaceGrid
    pressure: InhibitionPressure
    diffusion: DiffusionField
    chem: ChemicalParams
    initial: ScalarField

    def __post_init__(self):
        if self.pressure.amplitude_field.grid.dims != self.grid.dims:
            raise ProblemError("pressure amplitude grid does not match problem grid")
        if self.diffusion.grid.dims != self.grid.dims:
            raise ProblemError("diffusion grid does not match problem grid")
        if self.initial.grid.dims != self.grid.dims:
            raise ProblemError("initial condition grid does not match problem grid")

    def averaged(self) -> AveragedProblem:
        """Spatially averaged reduction (exact for uniform data)."""
        return AveragedProblem(
            self.time_grid, self.pressure.mean_profile(), self.chem, self.initial.mean()
        )


# ---------------------------------------------------------------------------
# constructors for the bundled experiment inputs


def build_initial_condition(grid: SpaceGrid, target_mean: float, floor: float = 0.2) -> ScalarField:
    """Center-concentrated initial inhibition rate.

    Field q1*(sin(pi x1/L1)*sin(pi x2/L2)*sin(pi x3/L3))^(1/3) + q2 with
    q2 = floor and q1 solved so the grid mean equals target_mean exactly.
    Rejects geometries/targets for which no q1 >= 0 keeps values in [0, 1].
    """
    if not 0 <= floor < target_mean <= 1:
        raise ProblemError(
            f"need 0 <= floor < target_mean <= 1, got floor={floor}, target_mean={target_mean}"
        )
    def axis_profile(d: int) -> np.ndarray:
        # a one-point axis sits entirely on the boundary (sin = 0)
        if d == 1:
            return np.zeros(1)
        f = np.sin(np.pi * np.arange(d, dtype=float) / (d - 1))
        f[0] = f[-1] = 0.0  # exact zeros on the boundary faces
        return f

    f1, f2, f3 = (axis_profile(d) for d in grid.dims)
    shape = (f1[:, None, None] * f2[None, :, None] * f3[None, None, :]) ** (1.0 / 3.0)
    mean_shape = shape.mean()
    if mean_shape <= 0.0:
        raise ProblemError("degenerate geometry: interior sine profile vanishes identically")
    q1 = (target_mean - floor) / mean_shape
    if q1 * shape.max() + floor > 1.0 + 1e-12:
        raise ProblemError(
            f"no q1 >= 0 reaches mean {target_mean} with values in [0,1] (peak would be "
            f"{q1 * shape.max() + floor:.4f})"
        )
    return ScalarField(grid, q1 * shape + floor)


def build_random_amplitude(grid: SpaceGrid, target_mean: float, seed: int) -> ScalarField:
    """Seeded uniform(0,1) samples per point, rescaled to the target grid mean."""
    if not target_mean > 0:
        raise ProblemError(f"target_mean must be > 0, got {target_mean}")
    rng = np.random.default_rng(seed)
    raw = rng.random(grid.dims)
    return ScalarField(grid, raw * (target_mean / raw.mean()))


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    messages: list[str]

    @property
    def ok(self) -> bool:
        return not self.messages

    def __iter__(self):
        return iter(self.messages)


def validate(
    problem: AveragedProblem | PdeProblem,
    u: ContinuousControl | None = None,
    v: PulseStrategy | None = None,
    costs: CostSpec | None = None,
) -> ValidationReport:
    """List every violated model assumption; empty report iff well-posed.

    Covers the box constraints on sigma, u (H6) and v (H7), sigma*u < 1
    (the rate alpha/(1 - sigma*u) is finite), nonnegativity of
    costs and pressure, the initial condition range, and length/shape
    consistency between the time grid, controls and cost data.
    """
    msgs: list[str] = []
    chem = problem.chem
    tg = problem.time_grid
    if not 0.0 <= chem.sigma <= 1.0:
        msgs.append(f"sigma out of [0,1]: {chem.sigma}")
    if chem.sigma_star < 0.0:
        msgs.append(f"sigma_star must be >= 0: {chem.sigma_star}")

    if isinstance(problem, AveragedProblem):
        if not 0.0 <= problem.theta0 <= 1.0:
            msgs.append(f"initial state out of [0,1]: {problem.theta0}")
        try:
            a = np.asarray(problem.alpha(tg.mid_times), dtype=float)
            if not np.all(np.isfinite(a)):
                msgs.append("alpha profile is non-finite on the integration grid")
            elif np.any(a < 0):
                msgs.append("alpha profile is negative on the integration grid")
        except Exception as exc:  # profile not evaluatable
            msgs.append(f"alpha profile not evaluable on arrays: {exc}")
        state_shape: tuple[int, ...] = ()
    else:
        rho = problem.initial.values
        if rho.min() < 0.0 or rho.max() > 1.0:
            msgs.append("initial condition out of [0,1] somewhere")
        if problem.pressure.amplitude_field.values.min() < 0.0:
            msgs.append("pressure amplitude negative somewhere")
        for name, arr in (("a1", problem.diffusion.a1), ("a2", problem.diffusion.a2),
                          ("a3", problem.diffusion.a3)):
            if arr.min() < 0.0:
                msgs.append(f"diffusion coefficients {name} negative somewhere")
        b1, b2, b3 = problem.diffusion.a1, problem.diffusion.a2, problem.diffusion.a3
        boundary = [b1[0], b1[-1], b2[:, 0], b2[:, -1], b3[:, :, 0], b3[:, :, -1]]
        if any(np.any(b != 0.0) for b in boundary):
            msgs.append("diffusion coefficients nonzero on boundary faces")
        state_shape = problem.grid.dims

    if u is not None:
        if u.samples.shape[0] != tg.n_steps:
            msgs.append(
                f"control has {u.samples.shape[0]} step samples, grid has {tg.n_steps} steps"
            )
        if u.samples.ndim > 1 and u.samples.shape[1:] != state_shape:
            msgs.append(f"control sample shape {u.samples.shape[1:]} does not match problem")
        if u.samples.size:
            lo, hi = float(u.samples.min()), float(u.samples.max())
            if lo < 0.0 or hi > 1.0:
                msgs.append("H6 violated: control u out of [0,1] somewhere")
            worst = max(chem.sigma * lo, chem.sigma * hi)
            if worst >= 1.0:
                msgs.append(f"sigma * u reaches {worst} somewhere (sigma = {chem.sigma}, u up to "
                            f"{hi}): the attractor 1 - sigma*u must stay > 0")

    if v is not None:
        if len(v) != tg.n_candidates:
            msgs.append(
                f"pulse strategy has {len(v)} values, grid has {tg.n_candidates} candidates"
            )
        if v.values.ndim > 1 and v.values.shape[1:] != state_shape:
            msgs.append(f"pulse value shape {v.values.shape[1:]} does not match problem")
        if v.values.size and (v.values.min() < 0.0 or v.values.max() > 1.0):
            msgs.append("H7 violated: pulse values out of [0,1] somewhere")

    if costs is not None:
        if costs.pulse_unit.shape[0] != tg.n_candidates:
            msgs.append(
                f"{costs.pulse_unit.shape[0]} pulse unit costs for {tg.n_candidates} candidates"
            )
        if costs.continuous_unit.shape[0] != tg.n_steps:
            msgs.append(
                f"{costs.continuous_unit.shape[0]} continuous cost samples for {tg.n_steps} steps"
            )
        for name in ("pulse_unit", "continuous_unit", "final"):
            arr = getattr(costs, name)
            if arr.size and arr.min() < 0.0:
                msgs.append(f"cost {name} negative somewhere")

    return ValidationReport(msgs)
