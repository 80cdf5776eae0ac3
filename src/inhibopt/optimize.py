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

from dataclasses import dataclass, field

import numpy as np

from .adjoint import _propagator, gradient_continuous
from .averaged import AveragedPropagator
from .core import Trajectory, _per_point, _rows, _space_integral, _span_midpoints
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
VERTEX_CHUNK = 2**13  # strategies costed per array pass of brute_force_pulse
CERT_BLOCK_VALUES = 2**16  # values per array pass of certificate_check (a block of pulses)


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
    adjoint: Trajectory | None
    iterations: int = 1
    converged: bool = True
    continuous_certificate: ContinuousCertificate | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# backward bang-bang sweep


def _sweep(prop, costs, realized_candidates=None, store_every=1):
    """Backward costate sweep deciding v at each (realized) candidate.

    v_i = 0 where p(tau_i^+) > c_i + TIE_TOL, else 1: the adjoint sweep with
    the bang-bang rule as its decision.  Returns (strategy values,
    costate Trajectory storing the nodes of ``store_every``).
    ``realized_candidates`` restricts the jump set (used by the threshold
    fixed point); None means every candidate pulses, which is the
    sigma_star = 0 situation.
    """
    c = _rows(costs.pulse_unit)
    v = np.ones((prop.time_grid.n_candidates, *prop.shape))  # 1 where unrealized

    def decide(k, p_plus):
        v[k] = d = 1.0 - (p_plus > c[k] + TIE_TOL)
        return v[k] if prop.shape else d  # a field record views its row

    return v, prop.backward(costs, realized_candidates, decide, store_every)


def _certificate(forward, adjoint, costs) -> list[PulseCertificate]:
    realized = {j.node_index for j in forward.jumps}
    c = costs.pulse_unit
    return [PulseCertificate(aj.time, aj.candidate_index, aj.p_plus, c[aj.candidate_index],
                             aj.applied, aj.p_plus - c[aj.candidate_index])
            for aj in adjoint.jumps if aj.node_index in realized]


def _result(prop, strategy, u, costs, forward=None, adjoint=None, store_every=1,
            **extra) -> StrategyResult:
    """Forward run, cost, costate and certificate of a decided strategy, with the
    propagator's counters (``diagnostics["cg"]`` for fields) over the whole optimization.
    Runs made here store the nodes of ``store_every``."""
    if forward is None:
        forward = prop.forward(strategy, store_every)
    if adjoint is None:
        adjoint = prop.adjoint(strategy, costs, forward, store_every)
    cost = prop.cost(forward, strategy, u, costs)
    certificate = _certificate(forward, adjoint, costs)
    result = StrategyResult(strategy, u, cost, certificate, forward, adjoint, **extra)
    result.diagnostics.update(prop.diagnostics())
    return result


def optimal_pulse(
    problem: AveragedProblem | PdeProblem,
    u: ContinuousControl | None,
    costs: CostSpec,
    store_every: int = 1,
) -> StrategyResult:
    """Constructive bang-bang pulse strategy via a single backward sweep.

    Only valid with sigma_star = 0 (every candidate time pulses); otherwise
    use fixed_point_pulse.  The forward run and the costate keep every
    ``store_every``-th node plus every candidate node and the final node, so
    memory follows the spacing; the strategy, the cost and the certificate
    are the same for every spacing.  The chemical gradient needs complete
    records (the default).
    """
    if problem.chem.sigma_star > 0:
        raise ProblemError("optimal_pulse requires sigma_star = 0; use fixed_point_pulse")
    prop = _propagator(problem, u)
    v_values, adjoint = _sweep(prop, costs, store_every=store_every)
    return _result(prop, PulseStrategy(v_values), u, costs, adjoint=adjoint,
                   store_every=store_every)


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


def _strategy_costs(theta0, segments, columns, n, costs, sigma_star, control_cost, final_cost):
    """Exact costs of n strategies at once through the affine segment maps.

    ``columns`` yields, candidate by candidate, the n strategies' values of v.
    Each strategy's cost takes the operations of the one-strategy recursion
    in the same order, so it is that recursion's value bit for bit.
    """
    x = np.full(n, float(theta0))
    running = np.zeros(n)
    pulse = np.zeros(n)
    for k, v in enumerate(columns):
        off, slp, i_off, i_slp = segments[k]
        running += i_off + i_slp * x
        x = off + slp * x  # pre-jump value at candidate k
        realized = x >= sigma_star
        # an unrealized pulse adds +0.0, which leaves the sum as it is (never -0.0)
        pulse += np.where(realized, costs.pulse_unit[k] * (1.0 - v) * x, 0.0)
        x = np.where(realized, v * x, x)
    off, slp, i_off, i_slp = segments[-1]
    running += i_off + i_slp * x
    x = off + slp * x
    return running + control_cost + pulse + final_cost * x


def _first_minimum(c: np.ndarray) -> int:
    """Index of the first smallest cost, as a strict-improvement loop finds it: NaN never wins."""
    return int(np.argmin(np.where(np.isnan(c), np.inf, c)))


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
    broken by lexicographic strategy order, so results are reproducible, and
    a NaN cost never wins.  Vertices are costed ``VERTEX_CHUNK`` at a time as
    arrays, their bits taken from their index in that order.
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

    def evaluate(columns, n):
        return _strategy_costs(problem.theta0, segments, columns, n, costs,
                               problem.chem.sigma_star, control_cost, final_cost)

    shifts = range(m - 1, -1, -1)  # v_0 is the leading bit of a vertex's index
    best = None
    best_cost = np.inf
    for start in range(0, 2**m, VERTEX_CHUNK):
        index = np.arange(start, min(start + VERTEX_CHUNK, 2**m))
        c = evaluate((((index >> s) & 1).astype(float) for s in shifts), index.size)
        i = _first_minimum(c)
        if c[i] < best_cost:
            best_cost, best = c[i], start + i
    best_v = None if best is None else [float((best >> s) & 1) for s in shifts]

    interior_best = None
    if interior_samples > 0:
        # one (n, m) draw is the stream of n draws of m; like min(), keep the
        # first sample's cost if it is NaN, else the first smallest cost
        rng = np.random.default_rng(seed)
        for start in range(0, interior_samples, VERTEX_CHUNK):
            samples = rng.random((min(VERTEX_CHUNK, interior_samples - start), m))
            c = evaluate(samples.T, len(samples))
            if interior_best is None:
                interior_best = c[0]
            i = _first_minimum(c)
            if c[i] < interior_best:
                interior_best = c[i]

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
    store_every: int = 1,
) -> StrategyResult:
    """Alternate forward realization / backward sweep until the pulse set is stable.

    With sigma_star = 0 this is exactly optimal_pulse.  Cycles between
    realized pulse sets raise PulseCycleError with both sets; hitting the
    iteration cap returns the last iterate flagged as unconverged.  Every
    forward run and sweep, the intermediate ones included, keeps only the
    nodes of ``store_every`` (see optimal_pulse); the result is the same for
    every spacing.
    """
    if problem.chem.sigma_star == 0:
        return optimal_pulse(problem, u, costs, store_every)
    prop = _propagator(problem, u)
    seen: set = set()
    strategy = PulseStrategy(np.ones((problem.time_grid.n_candidates, *prop.shape)))
    forward = prop.forward(strategy, store_every)
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        realized = frozenset(j.candidate_index for j in forward.jumps)
        new_v = _sweep(prop, costs, realized, store_every)[0]  # its costate is not needed
        new_strategy = PulseStrategy(new_v)
        new_forward = prop.forward(new_strategy, store_every)
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
    return _result(prop, strategy, u, costs, forward=forward, store_every=store_every,
                   iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# mixed strategy by projected gradient


def _control_norm(prop, du: np.ndarray) -> float:
    return float(np.sqrt(np.sum(_space_integral(du**2, prop.space_weight) * prop.time_grid.dt)))


def _continuous_certificate(prop, forward, adjoint, u, costs) -> ContinuousCertificate:
    """Per-step comparison of C against sigma*alpha*p*theta/(1-sigma)."""
    switch = prop.chemical_rate(forward, _span_midpoints(adjoint)) / (1.0 - prop.sigma)
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
    decrease <= tol_cost.  ``diagnostics["stop_reason"]`` names the stop:
    stationary, step tolerance, cost tolerance, line search failed or
    iteration cap; ``diagnostics["line_search_halvings"]`` counts the step
    halvings over all iterations.  The certificate records, per time sample,
    whether the final iterate matches the chemical bang-bang switching
    condition.
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
    halvings = 0
    converged = False
    stop_reason = "iteration cap"
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
            halvings += 1
        if accepted is None:
            converged = stationary
            stop_reason = "stationary" if stationary else "line search failed"
            break
        u_new, trial = accepted
        du = _control_norm(prop, u_new.samples - u.samples)
        decrease = j_history[-1] - trial.cost.total
        u, current = u_new, trial
        j_history.append(current.cost.total)
        if du <= tol_control or decrease <= tol_cost:
            converged = True
            stop_reason = "step tolerance" if du <= tol_control else "cost tolerance"
            break

    cont_cert = _continuous_certificate(prop, current.forward, current.adjoint, u, costs)
    diag = {"cost_history": j_history, "stop_reason": stop_reason, "line_search_halvings": halvings}
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


def _sign_violations(certs, theta_pre: list, tol: float) -> list[int]:
    """Points violating the sign condition, per pulse, judged in one array pass."""
    g = np.array([c.p_plus - c.unit_cost for c in certs])
    g *= np.array(theta_pre)
    low, high = g < -tol, g > tol  # and |g| > tol is low | high
    del g  # a field's stacked coefficients go before its decisions are stacked
    v = _per_point(np.array([c.applied for c in certs]), low.ndim)
    bad = (((v <= 1e-12) & low) | ((v >= 1.0 - 1e-12) & high)
           | ((v > 1e-12) & (v < 1.0 - 1e-12) & (low | high)))
    return np.count_nonzero(bad.reshape(len(certs), -1), axis=1).tolist()


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
    certs = result.certificate
    theta_pre = {j.candidate_index: j.pre for j in result.forward.jumps}
    block = max(1, CERT_BLOCK_VALUES // np.size(certs[0].p_plus)) if certs else 1
    for start in range(0, len(certs), block):
        rows = certs[start:start + block]
        n_bad = _sign_violations(rows, [theta_pre[c.candidate_index] for c in rows], tol)
        violations += [f"pulse at t={c.time:.6f}: {n} point(s) violate the sign condition"
                       for c, n in zip(rows, n_bad) if n]
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
