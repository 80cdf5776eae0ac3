"""Strategy computation.

The pulse problem has a bang-bang solution computable in one backward sweep
when the observability threshold is zero: integrating the costate p down from
p(T) = C_f, at each candidate time (descending) set v_i = 0 and p(tau_i) = c_i
if p(tau_i^+) > c_i, else v_i = 1 and p(tau_i) = p(tau_i^+).  This is
self-consistent because the costate between pulses does not depend on the
state or the strategy.  Ties p(tau_i^+) = c_i (within TIE_TOL) choose v_i = 1.

For sigma_star > 0 the realized pulse set depends on the state, so the sweep
is alternated with forward runs until the realized set and strategy
stabilize (fixed_point_pulse).  brute_force_pulse enumerates all vertex
strategies of the averaged model as an exact oracle.  The mixed problem is
handled by projected gradient on the chemical control with the pulse
strategy recomputed by the sweep after every control update.

Every optimizer builds one propagator per (problem, u) with
:func:`inhibopt.adjoint._propagator` and runs the shared loops of
:mod:`inhibopt.core` on it: the sweep is the costate sweep with the
bang-bang rule as its decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .adjoint import _propagator, gradient_continuous
from .averaged import AveragedPropagator
from .core import AdjointTrajectory, _midpoint, _per_point, _rows, _space_integral
from .model import (
    AveragedProblem,
    ContinuousControl,
    CostBreakdown,
    CostSpec,
    PdeProblem,
    ProblemError,
    PulseStrategy,
    SolverError,
)

TIE_TOL = 1e-12
BRUTE_FORCE_CAP = 20


class PulseCycleError(SolverError):
    """Threshold fixed-point iteration entered a cycle of realized pulse sets."""

    def __init__(self, set_a, set_b):
        super().__init__(
            f"realized pulse sets alternate without converging: {sorted(set_a)} <-> {sorted(set_b)}"
        )
        self.set_a = frozenset(set_a)
        self.set_b = frozenset(set_b)


@dataclass(frozen=True)
class PulseCertificate:
    """Per-pulse optimality record: the sweep's comparison and its margin."""

    time: float
    candidate_index: int
    p_plus: float | np.ndarray
    unit_cost: float | np.ndarray
    applied: float | np.ndarray
    margin: float | np.ndarray  # p_plus - unit_cost


@dataclass
class ContinuousCertificate:
    """Per-step record of the chemical bang-bang condition C vs sigma*alpha*p*theta/(1-sigma)."""

    mid_times: np.ndarray
    unit_cost: np.ndarray
    switch_level: np.ndarray
    control: np.ndarray
    margin: np.ndarray
    consistent: np.ndarray

    def agreement_fraction(self, margin_floor: float = 1e-6) -> float:
        decisive = self.margin > margin_floor
        if not decisive.any():
            return 1.0
        return float(np.count_nonzero(self.consistent & decisive) / np.count_nonzero(decisive))


@dataclass
class StrategyResult:
    strategy: PulseStrategy
    control: ContinuousControl | None
    cost: CostBreakdown
    certificate: list[PulseCertificate]
    forward: object
    adjoint: AdjointTrajectory | None
    iterations: int = 1
    converged: bool = True
    continuous_certificate: ContinuousCertificate | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# backward bang-bang sweep


def _sweep(prop, costs, realized_candidates=None):
    """Backward costate sweep deciding v at each (realized) candidate.

    v_i = 0 where p(tau_i^+) > c_i + TIE_TOL, else 1: the adjoint sweep with
    the bang-bang rule as its decision.  Returns (strategy values,
    AdjointTrajectory).  ``realized_candidates`` restricts the jump set (used
    by the threshold fixed point); None means every candidate pulses, which
    is the sigma_star = 0 situation.
    """
    c = _rows(costs.pulse_unit)
    return prop.backward(costs, realized_candidates,
                         lambda k, p_plus: 1.0 - (p_plus > c[k] + TIE_TOL))


def _certificate(forward, adjoint, costs) -> list[PulseCertificate]:
    realized = {j.node_index for j in forward.jumps}
    c = costs.pulse_unit
    return [PulseCertificate(aj.time, aj.candidate_index, aj.p_plus, c[aj.candidate_index],
                             aj.applied, aj.p_plus - c[aj.candidate_index])
            for aj in adjoint.jumps if aj.node_index in realized]


def _result(prop, strategy, u, costs, forward=None, adjoint=None, **extra) -> StrategyResult:
    """Forward run, cost, costate and certificate of a decided strategy."""
    if forward is None:
        forward = prop.forward(strategy)
    if adjoint is None:
        adjoint = prop.adjoint(strategy, costs, forward)
    cost = prop.cost(forward, strategy, u, costs)
    certificate = _certificate(forward, adjoint, costs)
    return StrategyResult(strategy, u, cost, certificate, forward, adjoint, **extra)


def optimal_pulse(
    problem: AveragedProblem | PdeProblem,
    u: ContinuousControl | None,
    costs: CostSpec,
) -> StrategyResult:
    """Constructive bang-bang pulse strategy via a single backward sweep.

    Only valid with sigma_star = 0 (every candidate time pulses); otherwise
    use fixed_point_pulse.
    """
    if problem.chem.sigma_star > 0:
        raise ProblemError("optimal_pulse requires sigma_star = 0; use fixed_point_pulse")
    prop = _propagator(problem, u)
    v_values, adjoint = _sweep(prop, costs)
    return _result(prop, PulseStrategy(v_values), u, costs, adjoint=adjoint)


# ---------------------------------------------------------------------------
# exhaustive oracle (averaged model)


def _segment_aggregates(prop: AveragedPropagator):
    """Affine per-segment maps between consecutive candidate nodes.

    Over a pulse-free segment the step recursion and its running trapezoid
    integral are affine in the segment's start value x:
        end value   = offset + slope * x
        integral    = int_offset + int_slope * x
    """
    tg = prop.time_grid
    attr, decay, dt = prop.attr, prop.decay, tg.dt.tolist()
    boundaries = [0, *tg.candidate_indices, len(tg.times) - 1]
    segments = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        off, slp = 0.0, 1.0
        i_off, i_slp = 0.0, 0.0
        for n in range(a, b):
            off_next = attr[n] * (1.0 - decay[n]) + decay[n] * off
            slp_next = decay[n] * slp
            i_off += dt[n] * (off + off_next) / 2.0
            i_slp += dt[n] * (slp + slp_next) / 2.0
            off, slp = off_next, slp_next
        segments.append((off, slp, i_off, i_slp))
    return segments


def _evaluate_vertex(theta0, segments, v, costs, sigma_star, control_cost, final_cost):
    """Exact cost of one strategy through the affine segment maps."""
    x = theta0
    running = 0.0
    pulse = 0.0
    m = len(v)
    for k in range(m):
        off, slp, i_off, i_slp = segments[k]
        running += i_off + i_slp * x
        x = off + slp * x  # pre-jump value at candidate k
        if x >= sigma_star:
            pulse += costs.pulse_unit[k] * (1.0 - v[k]) * x
            x = v[k] * x
    off, slp, i_off, i_slp = segments[m]
    running += i_off + i_slp * x
    x = off + slp * x
    return running + control_cost + pulse + final_cost * x


def brute_force_pulse(
    problem: AveragedProblem,
    u: ContinuousControl | None,
    costs: CostSpec,
    max_pulses: int = BRUTE_FORCE_CAP,
    interior_samples: int = 0,
    seed: int = 0,
) -> StrategyResult:
    """Exact minimizer over all vertex strategies {0,1}^m of the averaged model.

    Optionally samples random interior strategies in [0,1]^m to confirm that
    no interior point beats the best vertex.  Ties between vertices are
    broken by lexicographic strategy order, so results are reproducible.
    """
    if not isinstance(problem, AveragedProblem):
        raise ProblemError("brute_force_pulse enumerates the averaged model only")
    m = problem.time_grid.n_candidates
    if max_pulses > BRUTE_FORCE_CAP:
        raise ProblemError(f"max_pulses capped at {BRUTE_FORCE_CAP} (2^m enumeration)")
    if m > max_pulses:
        raise ProblemError(f"{m} candidate pulses exceed max_pulses={max_pulses}")
    prop = AveragedPropagator(problem, u)
    segments = _segment_aggregates(prop)
    tg = problem.time_grid
    control_cost = 0.0
    if u is not None:
        control_cost = float(np.sum(costs.continuous_unit * u.samples * tg.dt))
    final_cost = float(costs.final)

    def evaluate(v):
        return _evaluate_vertex(problem.theta0, segments, v, costs, problem.chem.sigma_star,
                                control_cost, final_cost)

    best_v: tuple[float, ...] | None = None
    best_cost = np.inf
    for bits in itertools.product((0.0, 1.0), repeat=m):
        c = evaluate(bits)
        if c < best_cost:
            best_cost, best_v = c, bits

    interior_best = None
    if interior_samples > 0:
        rng = np.random.default_rng(seed)
        interior_best = min(evaluate(rng.random(m)) for _ in range(interior_samples))

    return _result(
        prop, PulseStrategy(np.array(best_v)), u, costs,
        iterations=2**m,
        diagnostics={"interior_best": interior_best, "enumeration_best": best_cost},
    )


# ---------------------------------------------------------------------------
# threshold fixed point


def fixed_point_pulse(
    problem: AveragedProblem | PdeProblem,
    u: ContinuousControl | None,
    costs: CostSpec,
    max_iterations: int = 50,
) -> StrategyResult:
    """Alternate forward realization / backward sweep until the pulse set is stable.

    With sigma_star = 0 this is exactly optimal_pulse.  Cycles between
    realized pulse sets raise PulseCycleError with both sets; hitting the
    iteration cap returns the last iterate flagged as unconverged.
    """
    if problem.chem.sigma_star == 0:
        return optimal_pulse(problem, u, costs)
    prop = _propagator(problem, u)
    seen: set = set()
    strategy = PulseStrategy(np.ones((problem.time_grid.n_candidates, *prop.shape)))
    forward = prop.forward(strategy)
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        realized = frozenset(j.candidate_index for j in forward.jumps)
        new_v, _ = _sweep(prop, costs, realized_candidates=realized)
        new_strategy = PulseStrategy(new_v)
        new_forward = prop.forward(new_strategy)
        new_realized = frozenset(j.candidate_index for j in new_forward.jumps)
        state = (new_realized, new_v.tobytes())
        if new_realized == realized and np.array_equal(new_v, strategy.values):
            strategy, forward = new_strategy, new_forward
            converged = True
            break
        if state in seen:
            raise PulseCycleError(new_realized, realized)
        seen.add(state)
        strategy, forward = new_strategy, new_forward
    # the costate is recomputed on the final realized set
    return _result(prop, strategy, u, costs, forward=forward,
                   iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# mixed strategy by projected gradient


def _control_norm(prop, du: np.ndarray) -> float:
    return float(np.sqrt(np.sum(_space_integral(du**2, prop.space_weight) * prop.time_grid.dt)))


def _continuous_certificate(prop, forward, adjoint, u, costs) -> ContinuousCertificate:
    """Per-step comparison of C against sigma*alpha*p*theta/(1-sigma)."""
    p_mid = _midpoint(adjoint.plus_values(), adjoint.values)
    switch = prop.chemical_rate(forward, p_mid) / (1.0 - prop.sigma)
    cu = np.broadcast_to(_per_point(costs.continuous_unit, switch.ndim), switch.shape)
    u_s = np.broadcast_to(_per_point(u.samples, switch.ndim), switch.shape)
    margin = np.abs(cu - switch)
    consistent = np.where(cu > switch, u_s <= 1e-12, u_s >= 1.0 - 1e-12)
    return ContinuousCertificate(prop.time_grid.mid_times.copy(), cu, switch, u_s, margin, consistent)


def projected_gradient_mixed(
    problem: AveragedProblem | PdeProblem,
    costs: CostSpec,
    u0: ContinuousControl | None = None,
    gamma0: float = 1.0,
    shrink: float = 0.5,
    max_halvings: int = 40,
    max_iterations: int = 200,
    tol_control: float = 1e-6,
    tol_cost: float = 1e-10,
) -> StrategyResult:
    """Mixed chemical/pulse optimization: projected gradient on u, sweep on v.

    Each iteration takes u <- clip(u - gamma*ubar, 0, 1) with gamma halved
    (from gamma0, reset every iteration) until the total cost decreases, the
    pulse strategy being recomputed by the backward sweep after every control
    update.  Stops when the control update norm <= tol_control or the cost
    decrease <= tol_cost.  The certificate records, per time sample, whether
    the final iterate matches the chemical bang-bang switching condition.
    """
    if not problem.chem.sigma > 0:
        raise ProblemError("projected_gradient_mixed needs sigma > 0 (u has no effect otherwise)")
    tg = problem.time_grid
    u = u0 if u0 is not None else ContinuousControl.constant(tg, 0.0)
    prop = _propagator(problem, u)  # only its u-independent parts are used below
    full_shape = (tg.n_steps, *prop.shape)
    if u.samples.shape != full_shape:
        u = ContinuousControl(np.broadcast_to(_per_point(u.samples, len(full_shape)), full_shape))
    current = optimal_pulse(problem, u, costs)
    j_history = [current.cost.total]
    iterations = 0
    converged = False
    failure = None
    while iterations < max_iterations:
        iterations += 1
        report = gradient_continuous(problem, current.forward, current.adjoint, u, costs)
        gamma = gamma0
        accepted = None
        stationary = False
        for _ in range(max_halvings + 1):
            u_new = ContinuousControl(np.clip(u.samples - gamma * report.continuous_gradient, 0.0, 1.0))
            if np.array_equal(u_new.samples, u.samples):
                stationary = True  # projection fixed point: no admissible descent
                break
            trial = optimal_pulse(problem, u_new, costs)
            if trial.cost.total < j_history[-1]:
                accepted = (u_new, trial)
                break
            gamma *= shrink
        if accepted is None:
            converged = stationary
            if not stationary:
                failure = "line search found no decrease"
            break
        u_new, trial = accepted
        du = _control_norm(prop, u_new.samples - u.samples)
        decrease = j_history[-1] - trial.cost.total
        u, current = u_new, trial
        j_history.append(current.cost.total)
        if du <= tol_control or decrease <= tol_cost:
            converged = True
            break

    cont_cert = _continuous_certificate(prop, current.forward, current.adjoint, u, costs)
    diag = {"cost_history": j_history}
    if failure:
        diag["failure"] = failure
    return StrategyResult(
        current.strategy,
        u,
        current.cost,
        current.certificate,
        current.forward,
        current.adjoint,
        iterations=iterations,
        converged=converged,
        continuous_certificate=cont_cert,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# optimality-condition verification


def certificate_check(
    result: StrategyResult,
    problem: AveragedProblem | PdeProblem,
    costs: CostSpec,
    tol: float = 1e-8,
) -> list[str]:
    """First-order conditions at the box boundary; returns violations.

    For every realized pulse with coefficient g_i = (p(tau_i^+) - c_i) *
    theta(tau_i): v_i = 0 requires g_i >= -tol (raising v would not help),
    v_i = 1 requires g_i <= tol, interior v_i requires |g_i| <= tol.  When the
    chemical control was optimized (``continuous_certificate`` is set), its
    boundary samples are checked against the sign of the steepest-ascent
    density; a control that was only given is not judged.
    """
    violations: list[str] = []
    theta_pre = {j.candidate_index: j.pre for j in result.forward.jumps}
    for cert in result.certificate:
        g = np.asarray((cert.p_plus - cert.unit_cost) * theta_pre[cert.candidate_index])
        v = np.asarray(cert.applied)
        bad_low = (v <= 1e-12) & (g < -tol)
        bad_high = (v >= 1.0 - 1e-12) & (g > tol)
        bad_mid = (v > 1e-12) & (v < 1.0 - 1e-12) & (np.abs(g) > tol)
        n_bad = int(np.count_nonzero(bad_low | bad_high | bad_mid))
        if n_bad:
            violations.append(
                f"pulse at t={cert.time:.6f}: {n_bad} point(s) violate the sign condition"
            )
    if result.continuous_certificate is not None:
        report = gradient_continuous(
            problem, result.forward, result.adjoint, result.control, costs
        )
        ubar = report.continuous_gradient
        u_s = _per_point(result.control.samples, ubar.ndim)
        bad = np.count_nonzero(((u_s <= 1e-12) & (ubar < -tol)) | ((u_s >= 1 - 1e-12) & (ubar > tol)))
        if bad:
            violations.append(f"chemical control: {bad} boundary sample(s) with ascent direction")
    return violations
