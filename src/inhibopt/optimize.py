"""Strategy computation.

The pulse problem has a bang-bang solution computable in one backward sweep
when the observability threshold is zero: integrating the costate p down from
p(T) = C_f, at each candidate time (descending) set v_i = 0 and p(tau_i) = c_i
if p(tau_i^+) > c_i, else v_i = 1 and p(tau_i) = p(tau_i^+).  This is
self-consistent because the costate between pulses does not depend on the
state or the strategy.  Ties p(tau_i^+) = c_i (within TIE_TOL) choose v_i = 1.

For sigma_star > 0 the realized pulse set depends on the state, so the sweep
is alternated with forward runs until a forward run realizes the set its
sweep used (fixed_point_pulse; optimal_pulse is that loop from every
candidate).  A forward run reads v only where it pulses, so a sweep whose v
equals what the run before applied there ends the loop on that run instead
of running it again.  brute_force_pulse enumerates all vertex strategies of
the averaged model as an exact oracle.  The mixed problem is handled by
projected gradient on u with the pulses recomputed by the fixed point after
each update; its line search starts no further than twice the step past
which the projection no longer moves, and runs no fixed point for a trial
control that an earlier trial had.

Every optimizer builds one propagator with
:func:`inhibopt.adjoint._propagator` and runs the shared loops of
:mod:`inhibopt.core` on it: the sweep is the costate sweep with the
bang-bang rule as its decision.  The mixed optimizer runs the one fixed-point
loop, :func:`_pulse_loop`, on that propagator re-aimed in place at each control
it tries (``Propagator.aim``), so its counters count every solve of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import _chemical_gradient, _propagator, _ubar
from .averaged import AveragedPropagator
from .core import Trajectory, _control_inner, _per_point, _realized, _row_blocks, _rows
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
GAMMA_MIN, GAMMA_MAX = 1e-10, 1e10  # bounds of the spectral step of projected_gradient_mixed


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

    @property
    def margin(self) -> float | np.ndarray:
        return self.p_plus - self.unit_cost


@dataclass
class ContinuousCertificate:
    """Per-step chemical bang-bang record: C against S/(1-sigma), S the switching function."""

    mid_times: np.ndarray
    unit_cost: np.ndarray
    switching: np.ndarray
    sigma: float
    control: np.ndarray

    @property
    def switch_level(self) -> np.ndarray:
        return self.switching / (1.0 - self.sigma)

    @property
    def margin(self) -> np.ndarray:
        return np.abs(self.unit_cost - self.switch_level)

    @property
    def consistent(self) -> np.ndarray:
        return np.where(self.unit_cost > self.switch_level,
                        self.control <= 1e-12, self.control >= 1.0 - 1e-12)

    def blocks(self):
        """The certificate of each block of :func:`inhibopt.core._row_blocks`: no S-sized temporary."""
        for rows in _row_blocks(len(self.switching), self.switching.size // len(self.switching)):
            yield replace(self, mid_times=self.mid_times[rows], unit_cost=self.unit_cost[rows],
                          switching=self.switching[rows], control=self.control[rows])

    def agreement_fraction(self, margin_floor: float = 1e-6) -> float:
        agree = decisive = 0
        for part in self.blocks():
            d = part.margin > margin_floor
            decisive += np.count_nonzero(d)
            agree += np.count_nonzero(part.consistent & d)
        return float(agree / decisive) if decisive else 1.0


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


def _sweep(prop, costs, realized_candidates, store_every=1):
    """Backward costate sweep deciding v at each realized candidate.

    v_i = 0 where p(tau_i^+) > c_i + TIE_TOL, else 1: the adjoint sweep with
    the bang-bang rule as its decision.  Returns (strategy values,
    costate Trajectory storing the nodes of ``store_every``).
    ``realized_candidates`` is the jump set.  v depends on the realized set
    alone, never on the state, so two sweeps on one set decide the same v
    bit for bit.
    """
    c = _rows(costs.pulse_unit)
    v = np.ones((prop.time_grid.n_candidates, *prop.shape))  # 1 where unrealized

    def decide(k, p_plus):
        v[k] = d = 1.0 - (p_plus > c[k] + TIE_TOL)
        return v[k] if prop.shape else d  # a field record views its row

    return v, prop.backward(costs, realized_candidates, decide, store_every)


def _certificate(adjoint, costs) -> list[PulseCertificate]:
    """One entry per costate jump: a result's costate jumps where its forward run pulses."""
    c = costs.pulse_unit
    return [PulseCertificate(aj.time, aj.candidate_index, aj.p_plus, c[aj.candidate_index], aj.applied)
            for aj in adjoint.jumps]


def _result(prop, strategy, costs, forward=None, adjoint=None, store_every=1,
            **extra) -> StrategyResult:
    """Forward run, cost, costate and certificate of a decided strategy under the
    propagator's control, with its counters (``diagnostics["cg"]`` for fields) over the
    whole optimization.  Runs made here store the nodes of ``store_every``."""
    if forward is None:
        forward = prop.forward(strategy, store_every)
    if adjoint is None:
        adjoint = prop.adjoint(strategy, costs, forward, store_every)
    cost = prop.cost(forward, strategy, costs)
    certificate = _certificate(adjoint, costs)
    result = StrategyResult(strategy, prop.control, cost, certificate, forward, adjoint, **extra)
    result.diagnostics.update(prop.diagnostics())
    return result


def _repeats(v: np.ndarray, forward) -> bool:
    """Whether a forward run of ``v`` would repeat ``forward`` bit for bit: a run reads v
    only at the pulses it realizes, so it does when v equals what ``forward`` applied there."""
    applied = _per_point(np.array([j.applied for j in forward.jumps]), v.ndim)
    return bool((v[[j.candidate_index for j in forward.jumps]] == applied).all())


def _pulse_loop(prop, costs, max_iterations: int = 50, store_every: int = 1):
    """The loop of fixed_point_pulse (see there) on ``prop``, under its control: from the
    set the run without intervention realizes under a threshold, else from every candidate."""
    if max_iterations < 1:
        raise ProblemError("max_iterations must be >= 1")
    forward = prop.forward(None, store_every) if prop.threshold > 0 else None
    realized = frozenset(range(prop.time_grid.n_candidates)) if forward is None else _realized(forward)
    swept: list[frozenset] = []
    for _ in range(max_iterations):
        swept.append(realized)
        adjoint = None  # only the new costate and the last forward run are alive
        v, adjoint = _sweep(prop, costs, realized, store_every)
        strategy, v = PulseStrategy(v), None  # records view the strategy's rows, so v goes
        rows = _rows(strategy.values)
        if prop.shape:  # a field costate record views its row of v (a scalar one holds a float)
            adjoint = replace(adjoint, jumps=[aj._replace(applied=rows[aj.candidate_index])
                                              for aj in adjoint.jumps])
        if forward is not None and _repeats(strategy.values, forward):
            # the strategy's run is ``forward``, with a fresh run's decisions
            forward = replace(forward, jumps=[j._replace(applied=rows[j.candidate_index])
                                              for j in forward.jumps])
        else:
            forward = None  # the run before goes before the new one is built
            forward = prop.forward(strategy, store_every)
        realized = _realized(forward)
        if realized == swept[-1]:
            break
        if realized in swept:
            raise PulseCycleError(realized, swept[-1])
    else:
        adjoint = None  # it swept on the set before the last one
    return _result(prop, strategy, costs, forward, adjoint, store_every,
                   iterations=len(swept), converged=realized == swept[-1])


def optimal_pulse(
    problem: AveragedProblem | PdeProblem,
    u: ContinuousControl | None,
    costs: CostSpec,
    store_every: int = 1,
) -> StrategyResult:
    """Constructive bang-bang pulse strategy via a single backward sweep.

    Only valid with sigma_star = 0 (every candidate time pulses); otherwise
    use fixed_point_pulse, whose loop this is, entered with every candidate
    realized and capped at one sweep, which converges as no pulse is gated
    off.  The forward run and the costate keep every ``store_every``-th node
    plus every candidate node and the final node; the strategy, the cost and
    the certificate are the same for every spacing.  The chemical gradient
    needs complete records (the default).
    """
    if problem.chem.sigma_star > 0:
        raise ProblemError("optimal_pulse requires sigma_star = 0; use fixed_point_pulse")
    return _pulse_loop(_propagator(problem, u), costs, 1, store_every)


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
    a NaN cost never wins.  Vertices are costed as arrays in the blocks of
    :func:`inhibopt.core._row_blocks` with a budget of ``VERTEX_CHUNK`` (one
    value a vertex), their bits taken from their index in that order.
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
    # a control that is zero throughout costs nothing, even at an infinite unit cost
    control_cost = float(np.sum(costs.continuous_unit * prop.u_samples * problem.time_grid.dt)
                         if prop.u_samples.any() else 0.0)
    final_cost = float(costs.final)

    def evaluate(columns, n):
        return _strategy_costs(problem.theta0, segments, columns, n, costs,
                               problem.chem.sigma_star, control_cost, final_cost)

    shifts = range(m - 1, -1, -1)  # v_0 is the leading bit of a vertex's index
    best = None
    best_cost = np.inf
    for block in _row_blocks(2**m, 1, VERTEX_CHUNK):
        index = np.arange(block.start, block.stop)
        c = evaluate((((index >> s) & 1).astype(float) for s in shifts), index.size)
        i = _first_minimum(c)
        if c[i] < best_cost:
            best_cost, best = c[i], block.start + i
    best_v = None if best is None else [float((best >> s) & 1) for s in shifts]

    interior_best = None
    if interior_samples > 0:
        # one (n, m) draw is the stream of n draws of m; like min(), keep the
        # first sample's cost if it is NaN, else the first smallest cost
        rng = np.random.default_rng(seed)
        for block in _row_blocks(interior_samples, 1, VERTEX_CHUNK):
            samples = rng.random((block.stop - block.start, m))
            c = evaluate(samples.T, len(samples))
            if interior_best is None:
                interior_best = c[0]
            i = _first_minimum(c)
            if c[i] < interior_best:
                interior_best = c[i]

    return _result(
        prop, PulseStrategy(np.array(best_v)), costs,
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
    """Alternate backward sweep and forward run until the realized pulse set repeats.

    With sigma_star = 0 this is exactly optimal_pulse: R is every candidate,
    and no pulse is gated off, so the first sweep converges.  Otherwise R
    starts as the set the run without intervention realizes; each iteration
    sweeps on R and runs the decided v forward, which realizes R'.  The costate
    between pulses does not depend on the state, so v is a function of R alone:
    R' = R converges, and that sweep's costate is the result's.  A run reads v
    only at the pulses it realizes, so when v equals, bit for bit on R, what
    the run that realized R applied there, that run is the run of v: R' = R
    without another forward run, and the result keeps that run with v's rows
    as its decisions.  An R' swept on before raises PulseCycleError(R', R); at
    the cap the last iterate is returned unconverged, its costate computed on
    the final set.  ``iterations`` counts the sweeps; every run keeps the nodes
    of ``store_every`` (see optimal_pulse), and the result is the same for any.
    """
    return _pulse_loop(_propagator(problem, u), costs, max_iterations, store_every)


# ---------------------------------------------------------------------------
# mixed strategy by projected gradient


def _spectral_step(ss: float, sy: float) -> float:
    """Barzilai-Borwein step ss / sy = <s, s> / <s, y> clipped to [GAMMA_MIN, GAMMA_MAX];
    GAMMA_MAX when <s, y> <= 0, where the gradient gives no curvature to scale by."""
    if not sy > 0:
        return GAMMA_MAX
    return min(max(ss / sy, GAMMA_MIN), GAMMA_MAX)


def _saturating_step(u: np.ndarray, ubar: np.ndarray) -> float:
    """The last breakpoint of the projected path clip(u - gamma*ubar, 0, 1), past which no
    sample moves: the largest u/ubar where ubar > 0 and (u - 1)/ubar where ubar < 0, or 0
    when no sample can move.  Taken in the blocks of :func:`inhibopt.core._row_blocks`, so
    no temporary is the size of u."""
    sat = 0.0
    for rows in _row_blocks(len(u), u.size // len(u)):
        a, b = u[rows], ubar[rows]
        for side, bound in ((b > 0, 0.0), (b < 0, 1.0)):
            if side.any():
                sat = max(sat, float(np.max((a[side] - bound) / b[side])))
    return sat


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
    """Mixed chemical/pulse optimization: spectral projected gradient on u, fixed point on v.

    Each iteration takes u <- clip(u - gamma*ubar, 0, 1) with gamma halved
    until the total cost strictly decreases, the pulse strategy being
    recomputed by the loop of fixed_point_pulse after every control update, on
    the run's one propagator re-aimed at the control; a trial whose
    fixed point cycles or stops at its cap is rejected like one that does not
    lower J.  Each line search starts at min(gamma, 2*gamma_sat), gamma_sat
    being the last breakpoint of the projected path (the largest u/ubar where
    ubar > 0 and (u - 1)/ubar where ubar < 0): every larger step gives the
    same clipped control as 2*gamma_sat, whose samples with ubar != 0 all
    land on their bound.  A trial whose clipped control an earlier trial
    had (a SHA-256 digest of each is kept) is halved without a fixed point:
    a fixed point depends on its control alone and J only decreases, so that
    control, rejected or since left behind, would be rejected now.
    ubar = C - S/(1-sigma*u)^2, formed with S = sigma*alpha*p*theta once for u0 and
    each accepted control by the helper of gradient_continuous and read by every step,
    is the exact gradient only while the realized pulse set stays fixed: J(u) is
    piecewise smooth under a threshold.  The first trial step is gamma0;
    accepting u_k sets the next to the spectral (Barzilai-Borwein) step, with
    s = u_k - u_{k-1} and y = ubar_k - ubar_{k-1} in the inner product of the
    control norm, gamma = <s, s> / <s, y> clipped to [GAMMA_MIN, GAMMA_MAX],
    or GAMMA_MAX when <s, y> <= 0; a GAMMA_MAX step projects onto the
    bang-bang control that the sign of ubar selects.  Only a strict decrease
    is accepted, so the cost history strictly decreases.  Stops when the
    control update norm <= tol_control or the cost decrease <= tol_cost.
    ``diagnostics["stop_reason"]`` names the stop, and ``converged`` is true iff it is
    stationary, step tolerance or cost tolerance, not line search failed or iteration cap;
    ``diagnostics["line_search_halvings"]`` counts the step halvings over all
    iterations, ``"fixed_points"`` the fixed points run (the one at u0 and one per
    trial digest, rejected ones included), ``"fixed_point_rejections"`` those
    that cycled or stopped at their cap and ``"realized_set_changes"`` the
    accepted iterations whose fixed point realized another pulse set than the
    iterate before.  For fields ``diagnostics["cg"]`` counts the CG solves of
    every fixed point, rejected ones included.  The certificate keeps the
    final S and records, per time sample, whether u meets the bang-bang
    condition.  Needs 0 < sigma < 1.
    """
    import hashlib  # here, not at module level: it adds ~5 ms to every CLI start-up

    if not problem.chem.sigma > 0:
        raise ProblemError("projected_gradient_mixed needs sigma > 0 (u has no effect otherwise)")
    if not problem.chem.sigma < 1:
        raise ProblemError("projected_gradient_mixed needs sigma < 1: its box lets u reach 1, "
                           "where 1 - sigma*u must stay > 0")
    tg = problem.time_grid
    u = u0 if u0 is not None else ContinuousControl.constant(tg, 0.0)
    prop = _propagator(problem, None)  # every fixed point re-aims it at its control
    full_shape = (tg.n_steps, *prop.shape)
    if u.samples.shape != full_shape:
        u = ContinuousControl(np.broadcast_to(_per_point(u.samples, len(full_shape)), full_shape))
    current = _pulse_loop(prop.aim(u), costs)
    switching, ubar = _chemical_gradient(prop, current.forward, current.adjoint, u, costs)
    j_history = [current.cost.total]
    iterations = halvings = rejections = set_changes = 0
    tried: set[bytes] = set()  # SHA-256 digests of the bytes of every trial control so far
    stop_reason = None
    gamma = gamma0
    while iterations < max_iterations:
        iterations += 1
        gamma = min(gamma, 2.0 * _saturating_step(u.samples, ubar))
        for _ in range(max_halvings + 1):
            u_new = ContinuousControl(np.clip(u.samples - gamma * ubar, 0.0, 1.0))
            if np.array_equal(u_new.samples, u.samples):
                stop_reason = "stationary"  # projection fixed point: no admissible descent
                break
            digest = hashlib.sha256(u_new.samples).digest()
            if digest not in tried:  # a control tried before would be rejected now
                tried.add(digest)
                trial = None  # a rejected trial's records go before the next trial runs
                try:
                    trial = _pulse_loop(prop.aim(u_new), costs)
                except PulseCycleError:
                    pass
                if trial is None or not trial.converged:
                    rejections += 1
                elif trial.cost.total < j_history[-1]:
                    break
            gamma *= shrink
            halvings += 1
        else:
            stop_reason = "line search failed"
        if stop_reason:  # stationary, or the line search failed
            break
        if _realized(trial.forward) != _realized(current.forward):
            set_changes += 1
        current, trial, switching = trial, None, None  # of the iterate before, only u and ubar live on
        s, u, ubar_before = u_new.samples - u.samples, u_new, ubar
        switching, ubar = _chemical_gradient(prop, current.forward, current.adjoint, u, costs)
        ss = _control_inner(s, s, prop.space_weight, tg.dt)  # for the step norm and the next step
        du = float(np.sqrt(ss))
        gamma = _spectral_step(ss, _control_inner(s, ubar - ubar_before, prop.space_weight, tg.dt))
        del s, ubar_before
        decrease = j_history[-1] - current.cost.total
        j_history.append(current.cost.total)
        if du <= tol_control or decrease <= tol_cost:
            stop_reason = "step tolerance" if du <= tol_control else "cost tolerance"
            break
    else:
        stop_reason = "iteration cap"

    cu = np.broadcast_to(_per_point(costs.continuous_unit, switching.ndim), switching.shape)
    cont_cert = ContinuousCertificate(tg.mid_times.copy(), cu, switching, prop.sigma, u.samples)
    diag = {"cost_history": j_history, "stop_reason": stop_reason, "line_search_halvings": halvings,
            "fixed_points": 1 + len(tried), "fixed_point_rejections": rejections,
            "realized_set_changes": set_changes, **prop.diagnostics()}
    converged = stop_reason not in ("line search failed", "iteration cap")
    return replace(current, iterations=iterations, converged=converged,
                   continuous_certificate=cont_cert, diagnostics=diag)


# ---------------------------------------------------------------------------
# optimality-condition verification


def _sign_violations(certs, theta_pre: list, tol: float) -> list[int]:
    """Points violating the sign condition, per pulse, judged in one array pass."""
    g = np.array([c.margin for c in certs])
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
    density, formed from the certificate's S at ``result.control`` in the blocks
    of :func:`inhibopt.core._row_blocks`; a control that was only given is not judged.
    """
    violations: list[str] = []
    certs = result.certificate
    theta_pre = {j.candidate_index: j.pre for j in result.forward.jumps}
    for block in _row_blocks(len(certs), np.size(certs[0].p_plus) if certs else 1):
        rows = certs[block]
        n_bad = _sign_violations(rows, [theta_pre[c.candidate_index] for c in rows], tol)
        violations += [f"pulse at t={c.time:.6f}: {n} point(s) violate the sign condition"
                       for c, n in zip(rows, n_bad) if n]
    if (cert := result.continuous_certificate) is not None:
        s, u, bad = cert.switching, result.control.samples, 0
        for rows in _row_blocks(len(s), s.size // len(s)):
            ubar = _ubar(s[rows], cert.sigma, u[rows], costs.continuous_unit[rows])
            u_s = _per_point(u[rows], ubar.ndim)
            bad += np.count_nonzero(((u_s <= 1e-12) & (ubar < -tol)) | ((u_s >= 1 - 1e-12) & (ubar > tol)))
        if bad:
            violations.append(f"chemical control: {bad} boundary sample(s) with ascent direction")
    return violations
