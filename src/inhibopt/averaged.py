"""Forward simulation of the spatially averaged impulsive model.

Between pulses the scalar inhibition rate obeys

    d/dt Theta = alpha(t) * (1 - Theta / (1 - sigma*u(t))),

i.e. exponential relaxation towards the attractor 1 - sigma*u at rate
alpha/(1 - sigma*u); at each realized pulse time Theta jumps to v_i * Theta.
Each integration step freezes alpha at the step midpoint and u at the step's
stored sample and applies the exact exponential update

    Theta <- attr + (Theta - attr) * exp(-rate * dt).

This evaluates the semiflow's two integral terms in closed form for the
frozen coefficients: it is exact for (step-aligned) piecewise-constant
alpha and u, second-order for smooth alpha, and maps [0,1] into [0,1]
unconditionally since the update is a convex combination.

:class:`AveragedPropagator` holds per-step attractor, decay and source weight
w = (1 - e^{-rate*dt})/rate as Python lists.  Its ``flow`` runs one whole
pulse-free span (see :mod:`inhibopt.core`) as one comprehension over slices
of those lists with a local Python float: the state step
``attr + (x - attr)*decay`` (the closed form of the linear step with source
alpha), or the linear step ``decay*x + w*source`` of costate and tangent
runs, through reversed slices for the costate.  Its record is a list of
floats that the run converts to an array once.  The functions here are thin
wrappers over the shared loops of :mod:`inhibopt.core`.

Pulse thresholding: a candidate time t_k becomes a realized pulse time iff
Theta(t_k) >= sigma_star (pre-jump value, ties trigger).  Stored trajectory
values are left limits; post-jump values live in the jump records.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable

import numpy as np

from .core import AveragedTrajectory, Jump  # noqa: F401  (re-exported)
from .core import Propagator, Span, _as_direction_array, _cost, _rows
from .model import (
    AveragedProblem,
    ContinuousControl,
    CostBreakdown,
    CostSpec,
    ProblemError,
    PulseStrategy,
    QuadratureError,
)


def _alpha_samples(alpha: Callable, mids: np.ndarray) -> np.ndarray:
    """alpha at the step midpoints, each finite."""
    a = np.broadcast_to(np.asarray(alpha(mids), dtype=float), mids.shape)
    bad = ~np.isfinite(a)
    if bad.any():
        raise QuadratureError(float(mids[np.argmax(bad)]))
    return a


def _exponential_coefficients(a: np.ndarray, u_samples, sigma: float, dt: np.ndarray):
    """Per-step attractor, rate and decay of the midpoint alpha samples ``a`` and the u samples."""
    attr = 1.0 - sigma * u_samples
    rate = a / attr
    return attr, rate, np.exp(-rate * dt)


def _source_weights(rate: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Per-step integral of the unit source against the decay: (1 - e^-r*dt)/r."""
    safe = np.where(rate > 0.0, rate, 1.0)
    return np.where(rate > 0.0, -np.expm1(-rate * dt) / safe, dt)


class AveragedPropagator(Propagator):
    """Exact exponential steps of the scalar model for one chemical control (``aim(u)``
    keeps the alpha samples and recomputes each step's attractor, decay and weight)."""

    shape = ()
    zero = 0.0

    def __init__(self, problem: AveragedProblem, u: ContinuousControl | None = None):
        tg = problem.time_grid
        self._alpha_mid = _alpha_samples(problem.alpha, tg.mid_times)
        self.time_grid, self.sigma = tg, problem.chem.sigma
        self.initial = float(problem.theta0)
        self.threshold = problem.chem.sigma_star
        self.aim(u)

    def _aim(self) -> None:
        dt = self.time_grid.dt
        attr, rate, decay = _exponential_coefficients(self._alpha_mid, self.u_samples, self.sigma, dt)
        self.attr, self.decay = attr.tolist(), decay.tolist()
        self.w = _source_weights(rate, dt).tolist()

    def state(self, a) -> float:
        return float(a)

    def record(self, n: int) -> list:
        return [0.0] * n

    def flow(self, x: float, span: Span, source: list | None, out: list,
             skipped: list | None) -> float:
        """Walk one span, storing its kept nodes in ``out`` and the others in
        ``skipped``; returns the end state (the interface is in :mod:`inhibopt.core`)."""
        steps = span.steps
        if source is None:  # attr + (x - attr)*decay: the closed form of the step with source alpha
            xs = [x := at + (x - at) * d for at, d in zip(self.attr[steps], self.decay[steps])]
        else:
            xs = [x := d * x + w * s
                  for d, w, s in zip(self.decay[steps], self.w[steps], source[steps])]
        end = xs.pop()
        if span.kept is None:
            out[span.rows] = xs
        else:
            out[span.rows] = compress(xs, span.kept)
            if skipped is not None:
                skipped += [x for x, k in zip(xs, span.kept) if not k]
        return end

    def gate(self, x: float) -> bool:
        return x >= self.threshold

    def alpha_mid(self) -> np.ndarray:
        return self._alpha_mid


def semiflow_step(
    theta_start: float,
    t_from: float,
    t_to: float,
    alpha: Callable,
    u: Callable,
    sigma: float,
    step: float = 1e-3,
) -> float:
    """Advance the pulse-free flow from t_from to t_to.

    ``alpha`` and ``u`` are time callables (must broadcast over arrays); the
    span is subdivided with step <= ``step`` and integrated with the
    exponential midpoint update.  Composes exactly across aligned sub-spans.
    """
    if not t_from < t_to:
        raise ProblemError(f"need t_from < t_to, got {t_from} >= {t_to}")
    n = max(1, int(np.ceil((t_to - t_from) / step - 1e-12)))
    edges = t_from + (t_to - t_from) * np.arange(n + 1) / n
    mids = (edges[:-1] + edges[1:]) / 2.0
    u_samples = np.broadcast_to(np.asarray(u(mids), dtype=float), mids.shape)
    attr, _, decay = _exponential_coefficients(_alpha_samples(alpha, mids), u_samples, sigma,
                                               np.diff(edges))
    theta = float(theta_start)
    for a, d in zip(attr.tolist(), decay.tolist()):
        theta = a + (theta - a) * d
    return theta


def simulate_averaged(
    problem: AveragedProblem,
    u: ContinuousControl | None = None,
    v: PulseStrategy | None = None,
) -> AveragedTrajectory:
    """Integrate the averaged model with threshold-gated pulses.

    With sigma_star = 0 every candidate time is a realized pulse time.  The
    strategy must carry one value per candidate time; only realized
    candidates consume theirs.
    """
    return AveragedPropagator(problem, u).forward(v)


def cost_averaged(
    traj: AveragedTrajectory,
    v: PulseStrategy,
    u: ContinuousControl | None,
    costs: CostSpec,
) -> CostBreakdown:
    """Evaluate the cost functional on a simulated trajectory.

    Running state: trapezoid on the integration grid split at jumps (post-jump
    value starts each span).  Running control: exact per-step C*u*dt.
    Pulse: sum of c_i*(1-v_i)*Theta(tau_i) over realized pulses with pre-jump
    values.  Final: C_f*Theta(T) (left limit).
    """
    if not traj.complete:
        raise ProblemError("cost_averaged needs every node stored (its steps are the stored spans)")
    return _cost(traj, v, u, costs, np.diff(traj.times))


def sensitivity_pulse_averaged(
    problem: AveragedProblem,
    u: ContinuousControl | None,
    base: PulseStrategy,
    direction: PulseStrategy | np.ndarray,
    forward: AveragedTrajectory | None = None,
) -> AveragedTrajectory:
    """Directional state derivative z with respect to the pulse strategy.

    z decays at the same rate as the state between pulses and jumps by
    z(tau_i^+) = d_i*Theta(tau_i) + v_i*z(tau_i) where d is the direction.
    Verification oracle for the adjoint pulse gradient; the discrete z is the
    exact derivative of the discrete forward map.
    """
    prop = AveragedPropagator(problem, u)
    if forward is None:
        forward = prop.forward(base)
    d = _rows(_as_direction_array(direction))
    return prop.linear(forward, lambda j, z: d[j.candidate_index] * j.pre + j.applied * z)
