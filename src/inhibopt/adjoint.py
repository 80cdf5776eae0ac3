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

from .averaged import AveragedPropagator, AveragedTrajectory
from .core import (  # noqa: F401  (AdjointJump is re-exported)
    AdjointJump,
    AdjointTrajectory,
    Propagator,
    _as_direction_array,
    _cost,
    _midpoint,
    _per_point,
    _rows,
    _space_integral,
)
from .model import (
    AveragedProblem,
    ContinuousControl,
    CostSpec,
    PdeProblem,
    ProblemError,
    PulseStrategy,
)
from .pde import FieldPropagator, FieldTrajectory

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
    forward: AveragedTrajectory,
) -> AdjointTrajectory:
    """Backward costate sweep on the realized pulse set of a forward run."""
    return AveragedPropagator(problem, u).adjoint(strategy, costs, forward)


def solve_adjoint_pde(
    problem: PdeProblem,
    u: ContinuousControl | None,
    strategy: PulseStrategy,
    costs: CostSpec,
    forward: FieldTrajectory,
) -> AdjointTrajectory:
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
    """

    candidate_indices: list[int]
    pulse_gradient: list
    continuous_gradient: np.ndarray | None
    directional_value: float | None
    space_weight: float  # ds^3 for fields, 1 for the averaged model


def gradient_pulse(
    forward: AveragedTrajectory | FieldTrajectory,
    adjoint: AdjointTrajectory,
    costs: CostSpec,
    direction=None,
    space_weight: float = 1.0,
) -> GradientReport:
    """Adjoint pulse gradient; inner product against ``direction`` if given."""
    adj_by_node = {j.node_index: j for j in adjoint.jumps}
    indices: list[int] = []
    coeffs: list = []
    for j in forward.jumps:
        aj = adj_by_node.get(j.node_index)
        if aj is None:
            raise ProblemError("forward and adjoint pulse sets differ")
        indices.append(j.candidate_index)
        coeffs.append((aj.p_plus - costs.pulse_unit[j.candidate_index]) * j.pre)
    if len(adj_by_node) != len(forward.jumps):
        raise ProblemError("forward and adjoint pulse sets differ")
    directional = None
    if direction is not None:
        d = _as_direction_array(direction)
        directional = float(
            sum(np.sum(c * d[k]) * space_weight for k, c in zip(indices, coeffs))
        )
    return GradientReport(indices, coeffs, None, directional, space_weight)


def gradient_continuous(
    problem: AveragedProblem | PdeProblem,
    forward: AveragedTrajectory | FieldTrajectory,
    adjoint: AdjointTrajectory,
    u: ContinuousControl | None,
    costs: CostSpec,
    direction=None,
) -> GradientReport:
    """Steepest-ascent density for the chemical control, per integration step."""
    tg = problem.time_grid
    sigma = problem.chem.sigma
    u_samples = u.samples if u is not None else np.zeros(tg.n_steps)
    if np.any(sigma * u_samples > 1.0 - SIGMA_U_GUARD):
        raise ProblemError("sigma*u too close to 1 (division guard)")
    prop = _propagator(problem, u)
    rate = prop.chemical_rate(forward, _midpoint(adjoint.plus_values(), adjoint.values))
    ubar = (_per_point(costs.continuous_unit, rate.ndim)
            - rate / _per_point((1.0 - sigma * u_samples) ** 2, rate.ndim))

    directional = None
    if direction is not None:
        d = _per_point(_as_direction_array(direction), ubar.ndim)
        directional = float(np.sum(_space_integral(ubar * d, prop.space_weight) * tg.dt))
    return GradientReport([], [], ubar, directional, prop.space_weight)


# ---------------------------------------------------------------------------
# forward variational solvers (verification oracles)


def sensitivity_continuous(
    problem: AveragedProblem | PdeProblem,
    u_base: ContinuousControl | None,
    v_base: PulseStrategy,
    direction: ContinuousControl | np.ndarray,
    forward: AveragedTrajectory | FieldTrajectory,
):
    """State derivative z in the direction of a chemical-control perturbation.

    z(0) = 0, z(tau_i^+) = v_i * z(tau_i), and between pulses z decays at the
    state rate with source -sigma*alpha*d(t)*theta/(1-sigma*u)^2 where d is
    the perturbation direction.
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
    v_base: PulseStrategy,
    direction: PulseStrategy | np.ndarray,
    forward: FieldTrajectory,
) -> FieldTrajectory:
    """Space-dependent analogue of the pulse sensitivity (verification oracle)."""
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
    space_weight: float = 1.0,
) -> float:
    """Directional dJ from the pulse sensitivity z (independent of the adjoint).

    J_v = C_f z(T) + integral(z) + sum_i c_i [ (1-v_i) z(tau_i) - d_i theta(tau_i) ].
    The first three terms are the cost functional evaluated on z.
    """
    d = _as_direction_array(direction)
    z_cost = _cost(z_traj, v_base, None, costs, space_weight, np.diff(z_traj.times))
    state_term = sum(float(np.sum(costs.pulse_unit[j.candidate_index] * d[j.candidate_index]
                                  * j.pre)) * space_weight for j in forward.jumps)
    return z_cost.total - state_term


def variational_continuous_value(
    forward,
    z_traj,
    v_base: PulseStrategy,
    direction,
    costs: CostSpec,
    time_grid,
    space_weight: float = 1.0,
) -> float:
    """Directional dJ from the chemical sensitivity z (independent of the adjoint).

    J_u = integral(z + C*d) + sum_i c_i (1-v_i) z(tau_i) + C_f z(T): the cost
    functional evaluated on z with control d.
    """
    d = ContinuousControl(_as_direction_array(direction))
    return _cost(z_traj, v_base, d, costs, space_weight, time_grid.dt).total
