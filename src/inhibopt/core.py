"""One propagator core for both models.

Both models are one impulsive system: a linear-affine semiflow between
candidate pulse times and a jump by v_i at each realized pulse.  A model's
propagator supplies ``step(x, n, source)`` (node n to n+1 with an additive
source), ``advance(x, n)`` (the state step, whose source is alpha at the step
midpoint), the threshold ``gate(x)``, ``alpha_mid()`` for every step and a
``space_weight`` for the per-row space integral (1, or ds^3 for fields).

:class:`Propagator` writes each algorithm once over that interface: the gated
forward run, the backward costate sweep with a per-candidate decision rule,
the linear tangent run of the sensitivity oracles, the cost trapezoid and the
midpoint algebra sigma*alpha*(.)*theta.  Averaged states are Python floats
and field states arrays; :func:`_rows` splits per-candidate and per-step data
so the scalar loops never index numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ContinuousControl, CostBreakdown, CostSpec, ProblemError, PulseStrategy


@dataclass(frozen=True)
class Jump:
    """One realized pulse: state pre/post values and the applied v."""

    time: float
    node_index: int
    candidate_index: int
    pre: float | np.ndarray
    post: float | np.ndarray
    applied: float | np.ndarray


@dataclass(frozen=True)
class AdjointJump:
    """Costate jump record: p(tau^+) (incoming backward) and p(tau) (outgoing)."""

    time: float
    node_index: int
    candidate_index: int
    p_plus: float | np.ndarray
    p_minus: float | np.ndarray
    applied: float | np.ndarray


@dataclass
class AdjointTrajectory:
    """Costate per node; stored values are left limits p(t), jumps carry p(t^+)."""

    times: np.ndarray
    values: np.ndarray
    jumps: list[AdjointJump]

    def plus_values(self) -> np.ndarray:
        """Node values with p(tau^+) substituted at pulse nodes (right limits)."""
        out = self.values.copy()
        for j in self.jumps:
            out[j.node_index] = j.p_plus
        return out


def _rows(a: np.ndarray) -> list:
    """Per-candidate or per-step entries: Python floats for 1-D data, arrays otherwise."""
    return a.tolist() if a.ndim == 1 else list(a)


def _per_point(a: np.ndarray, ndim: int) -> np.ndarray:
    """View a per-step array with trailing unit axes so it broadcasts to ``ndim`` axes."""
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def _space_integral(rows: np.ndarray, space_weight: float) -> np.ndarray:
    """Grid quadrature of each row: the value itself for 1-D rows, sum * ds^3 for fields."""
    return np.sum(rows, axis=tuple(range(1, rows.ndim))) * space_weight


def _midpoint(values_plus: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-step midpoint of a left-continuous node array (post value starts the span)."""
    return (values_plus[:-1] + values[1:]) / 2.0


def _as_direction_array(direction) -> np.ndarray:
    if isinstance(direction, PulseStrategy):
        return direction.values
    if isinstance(direction, ContinuousControl):
        return direction.samples
    return np.asarray(direction, dtype=float)


def _cost(traj, v: PulseStrategy, u: ContinuousControl | None, costs: CostSpec,
          space_weight: float, dt: np.ndarray) -> CostBreakdown:
    """Cost functional on a stored trajectory (state or tangent), as documented in
    :func:`inhibopt.averaged.cost_averaged`; space integrals use ``space_weight``."""
    if costs.pulse_unit.shape[0] != len(v):
        raise ProblemError(
            f"{costs.pulse_unit.shape[0]} pulse unit costs for a strategy of length {len(v)}"
        )
    if traj.jumps and max(j.candidate_index for j in traj.jumps) >= len(v):
        raise ProblemError("trajectory jumps refer to candidates beyond the strategy length")
    left = _space_integral(traj.post_values(), space_weight)
    right = _space_integral(traj.values, space_weight)
    running_state = float(np.sum(np.diff(traj.times) * (left[:-1] + right[1:]) / 2.0))

    running_control = 0.0
    if u is not None and u.samples.size:
        cu = _per_point(costs.continuous_unit, u.samples.ndim) * u.samples
        if cu.ndim == 1:  # uniform in space
            running_control = float(np.sum(cu * dt) * np.size(traj.values[0]) * space_weight)
        else:
            running_control = float(np.sum(_space_integral(cu, space_weight) * dt))

    pulse = 0.0
    for j in traj.jumps:
        term = costs.pulse_unit[j.candidate_index] * (1.0 - j.applied) * j.pre
        if isinstance(term, np.ndarray):  # a field: integrate over space
            term = np.sum(term)
        pulse += float(term * space_weight)
    final = float(np.sum(costs.final * traj.values[-1]) * space_weight)
    return CostBreakdown.assemble(running_state, running_control, pulse, final)


class Propagator:
    """Model-independent algorithms over a model's step, gate and pressure.

    Subclasses set ``time_grid``, ``sigma``, ``shape``, ``space_weight``,
    ``u_samples``, ``initial`` and ``zero`` and implement ``state``, ``step``,
    ``advance``, ``gate``, ``alpha_mid`` and ``trajectory``.
    """

    def forward(self, v: PulseStrategy | None = None, store_every: int = 1):
        """State run with threshold-gated pulses; stores every ``store_every``-th node.

        Pulse nodes and the final node are always stored.  Stored values are
        left limits; post-jump values live in the jump records.
        """
        tg = self.time_grid
        if v is None:
            v = PulseStrategy.no_intervention(tg)
        if len(v) != tg.n_candidates:
            raise ProblemError(
                f"strategy has {len(v)} values for {tg.n_candidates} candidate pulse times"
            )
        if store_every < 1:
            raise ProblemError("store_every must be >= 1")
        values = _rows(v.values)

        def jump(k, x):
            return (values[k] * x, values[k]) if self.gate(x) else None

        pulse_at = {node: k for k, node in enumerate(tg.candidate_indices)}
        return self._run(self.initial, self.advance, pulse_at, jump, store_every)

    def linear(self, forward, rule, sources: np.ndarray | None = None):
        """Tangent run z(0) = 0: z <- step(z, n, sources[n]) (zero if None) between
        the realized pulses of ``forward``, z(tau^+) = rule(forward_jump, z(tau)) at them."""
        if not forward.complete:
            raise ProblemError("sensitivity needs a fully stored trajectory")
        src = [0.0] * self.time_grid.n_steps if sources is None else _rows(sources)
        by_k = {j.candidate_index: j for j in forward.jumps}
        pulse_at = {j.node_index: j.candidate_index for j in forward.jumps}
        return self._run(self.zero, lambda z, n: self.step(z, n, src[n]), pulse_at,
                         lambda k, z: (rule(by_k[k], z), by_k[k].applied))

    def _run(self, x, advance, pulse_at: dict, jump, store_every: int = 1):
        tg = self.time_grid
        last = tg.n_steps
        rows = [n for n in range(last + 1) if n % store_every == 0 or n == last or n in pulse_at]
        states = np.empty((len(rows), *self.shape))
        jumps: list[Jump] = []
        r = 0
        for n in range(last + 1):
            if rows[r] == n:
                states[r] = x
                r += 1
            k = pulse_at.get(n)
            if k is not None:
                realized = jump(k, x)
                if realized is not None:
                    post, applied = realized
                    jumps.append(Jump(tg.times[n], n, k, x, post, applied))
                    x = post
            if n < last:
                x = advance(x, n)
        return self.trajectory(np.array(rows), states, jumps, store_every)

    def backward(self, costs: CostSpec, realized, decide):
        """Costate sweep from p(T) = C_f with source +1 under the forward step operator.

        At each realized candidate k (all if ``realized`` is None) v_k =
        ``decide(k, p_plus)`` and p(tau_k) = v_k*p(tau_k^+) + c_k*(1-v_k).
        Returns (per-candidate v, 1 where unrealized; AdjointTrajectory).
        """
        tg = self.time_grid
        last = tg.n_steps
        if realized is None:
            realized = range(tg.n_candidates)
        pulse_at = {tg.candidate_indices[k]: k for k in realized}
        c = _rows(costs.pulse_unit)
        values = np.empty((last + 1, *self.shape))
        v_out = np.ones((tg.n_candidates, *self.shape))
        jumps: list[AdjointJump] = []
        p = self.state(costs.final)
        for n in range(last, -1, -1):
            if n < last:
                p = self.step(p, n, 1.0)
            k = pulse_at.get(n)
            if k is not None:
                # pulse exactly at T: the final cost uses the left limit, so
                # the post-pulse state never enters J and p(tau^+) = 0
                p_plus = self.zero if n == last else p
                v = decide(k, p_plus)
                p = (p if n == last else v * p_plus) + c[k] * (1.0 - v)
                v_out[k] = v
                jumps.append(AdjointJump(tg.times[n], n, k, p_plus, p, v))
            values[n] = p
        jumps.reverse()
        return v_out, AdjointTrajectory(tg.times.copy(), values, jumps)

    def adjoint(self, strategy: PulseStrategy, costs: CostSpec, forward) -> AdjointTrajectory:
        """Costate sweep with the decisions fixed to ``strategy`` on forward's realized pulses."""
        v = _rows(strategy.values)
        realized = [j.candidate_index for j in forward.jumps]
        return self.backward(costs, realized, lambda k, p_plus: v[k])[1]

    def cost(self, traj, v: PulseStrategy, u: ContinuousControl | None, costs: CostSpec):
        return _cost(traj, v, u, costs, self.space_weight, self.time_grid.dt)

    def chemical_rate(self, forward, factor: np.ndarray) -> np.ndarray:
        """sigma * alpha * factor * theta at every step midpoint, shaped (n_steps, *shape)."""
        if not forward.complete:
            raise ProblemError("the midpoint algebra needs a fully stored forward trajectory")
        theta_mid = _midpoint(forward.post_values(), forward.values)
        return self.sigma * self.alpha_mid() * factor * theta_mid
