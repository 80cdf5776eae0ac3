"""Backward costate solvers and gradient assembly.

The costate p solves, backwards from p(T) = C_f,

    d/dt p = alpha * p / (1 - sigma*u) - 1            (averaged)
    d/dt p = alpha * p / (1 - sigma*u) - div(A grad p) - 1   (space-dependent)

with the jump p(tau_i) = v_i * p(tau_i^+) + c_i * (1 - v_i) at each realized
pulse time.  Both solvers are the one backward sweep of
:meth:`inhibopt.core.Propagator.backward` with the decisions fixed to a given
strategy: the exponential step, or the forward Crank-Nicolson operator in
reversed time, each with source +1, which keeps the discrete duality between
forward sensitivities and adjoint gradients tight.  :func:`_propagator` is
the one place that tells the two problem types apart.

Gradient identities implemented here:

    dJ/dv_i  ~  (p(tau_i^+) - c_i) * theta(tau_i)            (per pulse)
    dJ/du    ~  C - sigma * alpha * p * theta / (1 - sigma*u)^2   (per time)

The forward variational solvers (z with respect to v or u) are independent
verification oracles for these formulas, not part of the optimization path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaged import AveragedPropagator
from .core import (  # noqa: F401  (AdjointJump and AdjointTrajectory are re-exported)
    AdjointJump,
    AdjointTrajectory,
    Propagator,
    Trajectory,
    _as_direction_array,
    _control_inner,
    _cost,
    _per_point,
    _realized,
    _rows,
    _span_midpoints,
)
from .model import (
    AveragedProblem,
    ContinuousControl,
    CostSpec,
    PdeProblem,
    ProblemError,
    PulseStrategy,
)
from .pde import FieldPropagator

SIGMA_U_GUARD = 1e-9


def _propagator(problem: AveragedProblem | PdeProblem, u: ContinuousControl | None) -> Propagator:
    """The model's propagator for one chemical control."""
    if isinstance(problem, AveragedProblem):
        return AveragedPropagator(problem, u)
    return FieldPropagator(problem, u)


def solve_adjoint_averaged(
    problem: AveragedProblem,
    u: ContinuousControl | None,
    strategy: PulseStrategy,
    costs: CostSpec,
    forward: Trajectory,
) -> Trajectory:
    """Backward costate sweep on the realized pulse set of a forward run."""
    return AveragedPropagator(problem, u).adjoint(strategy, costs, forward)


def solve_adjoint_pde(
    problem: PdeProblem,
    u: ContinuousControl | None,
    strategy: PulseStrategy,
    costs: CostSpec,
    forward: Trajectory,
) -> Trajectory:
    """Backward Crank-Nicolson costate sweep (same operator as the forward solver)."""
    return FieldPropagator(problem, u).adjoint(strategy, costs, forward)


# ---------------------------------------------------------------------------
# gradient reports


@dataclass
class GradientReport:
    """Per-pulse and per-time gradient data plus an optional directional value.

    ``pulse_gradient`` holds (p(tau_i^+) - c_i) * theta(tau_i) per realized
    pulse (scalar or field); ``continuous_gradient`` holds the per-step
    steepest-ascent density C - sigma*alpha*p*theta/(1-sigma*u)^2.
    ``space_weight`` is the forward record's (ds^3 for fields, 1 for the
    averaged model), with which ``directional_value`` integrates over space.
    """

    candidate_indices: list[int]
    pulse_gradient: list
    continuous_gradient: np.ndarray | None
    directional_value: float | None
    space_weight: float


def gradient_pulse(
    forward: Trajectory,
    adjoint: Trajectory,
    costs: CostSpec,
    direction=None,
) -> GradientReport:
    """Adjoint pulse gradient; inner product against ``direction`` if given, in the
    space quadrature of ``forward``."""
    # a duplicated costate jump leaves the set as it is but not the count
    if _realized(adjoint) != _realized(forward) or len(adjoint.jumps) != len(forward.jumps):
        raise ProblemError("forward and adjoint pulse sets differ")
    p_plus = {j.candidate_index: j.p_plus for j in adjoint.jumps}
    indices = [j.candidate_index for j in forward.jumps]
    coeffs = [(p_plus[k] - costs.pulse_unit[k]) * j.pre for k, j in zip(indices, forward.jumps)]
    space_weight = forward.space_weight
    directional = None
    if direction is not None:
        d = _as_direction_array(direction)
        directional = float(sum(np.sum(c * d[k]) * space_weight
                                for k, c in zip(indices, coeffs)))
    return GradientReport(indices, coeffs, None, directional, space_weight)


def _ubar(switching: np.ndarray, sigma: float, u_samples: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """C - S/(1 - sigma*u)^2 from the per-step unit cost C and S = sigma*alpha*p*theta at midpoints."""
    if np.any(sigma * u_samples > 1.0 - SIGMA_U_GUARD):
        raise ProblemError("sigma*u too close to 1 (division guard)")
    return (_per_point(unit, switching.ndim)
            - switching / _per_point((1.0 - sigma * u_samples) ** 2, switching.ndim))


def _chemical_gradient(prop: Propagator, forward, adjoint, u: ContinuousControl | None, costs):
    """S = sigma*alpha*p*theta of a run and its costate, and ubar = C - S/(1 - sigma*u)^2."""
    switching = prop.chemical_rate(forward, _span_midpoints(adjoint))
    return switching, _ubar(switching, prop.sigma, np.zeros(1) if u is None else u.samples,
                            costs.continuous_unit)


def gradient_continuous(
    problem: AveragedProblem | PdeProblem,
    forward: Trajectory,
    adjoint: Trajectory,
    u: ContinuousControl | None,
    costs: CostSpec,
    direction=None,
) -> GradientReport:
    """Steepest-ascent density for the chemical control, per integration step.

    It is the exact gradient of J for the realized pulse set of ``forward``
    held fixed.  Under an observability threshold a change of u can move a
    pulse into or out of that set, where J(u) is not differentiable.
    """
    tg = problem.time_grid
    prop = _propagator(problem, None)  # S needs no u: no propagator divides by 1 - sigma*u
    ubar = _chemical_gradient(prop, forward, adjoint, u, costs)[1]

    directional = None
    if direction is not None:
        d = _per_point(_as_direction_array(direction), ubar.ndim)
        directional = _control_inner(ubar, d, prop.space_weight, tg.dt)
    return GradientReport([], [], ubar, directional, prop.space_weight)


# ---------------------------------------------------------------------------
# forward variational solvers (verification oracles)


def sensitivity_continuous(
    problem: AveragedProblem | PdeProblem,
    u_base: ContinuousControl | None,
    direction: ContinuousControl | np.ndarray,
    forward: Trajectory,
):
    """State derivative z in the direction of a chemical-control perturbation.

    z(0) = 0, z(tau_i^+) = v_i * z(tau_i) with v_i the value that ``forward``
    applied, and between pulses z decays at the state rate with source
    -sigma*alpha*d(t)*theta/(1-sigma*u)^2 where d is the perturbation direction.
    """
    prop = _propagator(problem, u_base)
    ndim = 1 + len(prop.shape)
    d = _per_point(_as_direction_array(direction), ndim)
    attr = 1.0 - prop.sigma * _per_point(prop.u_samples, ndim)
    forcing = -prop.chemical_rate(forward, d) / attr**2
    return prop.linear(forward, lambda j, z: j.applied * z, forcing)


def sensitivity_pulse_pde(
    problem: PdeProblem,
    u: ContinuousControl | None,
    direction: PulseStrategy | np.ndarray,
    forward: Trajectory,
) -> Trajectory:
    """Space-dependent analogue of the pulse sensitivity (verification oracle); the
    strategy is the one ``forward`` applied."""
    d = _rows(_as_direction_array(direction))
    return FieldPropagator(problem, u).linear(
        forward, lambda j, z: d[j.candidate_index] * j.pre + j.applied * z)


# ---------------------------------------------------------------------------
# variational assembly of directional cost derivatives


def variational_pulse_value(
    forward,
    z_traj,
    v_base: PulseStrategy,
    direction,
    costs: CostSpec,
) -> float:
    """Directional dJ from the pulse sensitivity z (independent of the adjoint).

    J_v = C_f z(T) + integral(z) + sum_i c_i [ (1-v_i) z(tau_i) - d_i theta(tau_i) ].
    The first three terms are the cost functional evaluated on z, in z's
    space quadrature.
    """
    d = _as_direction_array(direction)
    space_weight = z_traj.space_weight
    z_cost = _cost(z_traj, v_base, None, costs, np.diff(z_traj.times))
    state_term = sum(float(np.sum(costs.pulse_unit[j.candidate_index] * d[j.candidate_index]
                                  * j.pre)) * space_weight for j in forward.jumps)
    return z_cost.total - state_term


def variational_continuous_value(
    z_traj,
    v_base: PulseStrategy,
    direction,
    costs: CostSpec,
) -> float:
    """Directional dJ from the chemical sensitivity z (independent of the adjoint).

    J_u = integral(z + C*d) + sum_i c_i (1-v_i) z(tau_i) + C_f z(T): the cost
    functional evaluated on z with control d, on z's steps and in its space quadrature.
    """
    d = ContinuousControl(_as_direction_array(direction))
    return _cost(z_traj, v_base, d, costs, np.diff(z_traj.times)).total
