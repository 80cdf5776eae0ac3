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

    @property
    def post(self) -> float | np.ndarray:
        """The right limit p(tau^+), as ``Jump.post`` is the state's."""
        return self.p_plus


@dataclass
class Trajectory:
    """State, tangent or costate per stored node (left limits), with every jump recorded.

    One record for both models and every run.  ``node_indices`` maps stored
    rows to integration nodes: with ``store_every`` > 1, every m-th node plus
    every candidate node and the final node.  ``skipped_sums`` holds a state
    run's grid sum of each node not stored, in node order, so the cost is
    that of the whole run.  ``grid`` is the field's space grid (None for the
    averaged model).
    """

    times: np.ndarray
    values: np.ndarray
    jumps: list
    node_indices: np.ndarray | None = None
    store_every: int = 1
    grid: object = None
    skipped_sums: np.ndarray | tuple = ()

    def __post_init__(self):
        if self.node_indices is None:
            self.node_indices = np.arange(len(self.times))

    @property
    def complete(self) -> bool:
        return self.store_every == 1

    @property
    def fields(self) -> np.ndarray:
        return self.values


# the public names of the record for each model and for the costate
AveragedTrajectory = FieldTrajectory = AdjointTrajectory = Trajectory


def _rows(a: np.ndarray) -> list:
    """Per-candidate or per-step entries: Python floats for 1-D data, arrays otherwise."""
    return a.tolist() if a.ndim == 1 else list(a)


def _per_point(a: np.ndarray, ndim: int) -> np.ndarray:
    """View a per-step array with trailing unit axes so it broadcasts to ``ndim`` axes."""
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def _space_integral(rows: np.ndarray, space_weight: float) -> np.ndarray:
    """Grid quadrature of each row: the value itself for 1-D rows, sum * ds^3 for fields."""
    return np.sum(rows, axis=tuple(range(1, rows.ndim))) * space_weight


def _node_integrals(traj: Trajectory, space_weight: float) -> np.ndarray:
    """Space integral of the left limit at every integration node, stored or not."""
    stored = _space_integral(traj.values, space_weight)
    if traj.complete:
        return stored
    out = np.empty(traj.node_indices[-1] + 1)
    out[traj.node_indices] = stored
    out[np.delete(np.arange(out.size), traj.node_indices)] = (
        np.asarray(traj.skipped_sums) * space_weight)
    return out


def _span_midpoints(traj: Trajectory) -> np.ndarray:
    """Per-step midpoints of a complete record; a jump's right limit starts its span."""
    if not traj.complete:
        raise ProblemError("the midpoint algebra needs a fully stored trajectory")
    mid = (traj.values[:-1] + traj.values[1:]) / 2.0
    inner = [j for j in traj.jumps if j.node_index < len(mid)]  # a jump at T starts no span
    if inner:
        nodes = np.array([j.node_index for j in inner])
        mid[nodes] = (np.array([j.post for j in inner]) + traj.values[nodes + 1]) / 2.0
    return mid


def _stored_nodes(time_grid, store_every: int) -> tuple[np.ndarray, list | None]:
    """Stored node indices of a run and a per-node keep flag (None: every node is stored).

    Every ``store_every``-th node, every candidate node and the final node, so
    a forward run and a costate sweep at the same spacing store the same nodes.
    """
    if store_every < 1:
        raise ProblemError("store_every must be >= 1")
    last = time_grid.n_steps
    if store_every == 1:
        return np.arange(last + 1), None
    stored = np.arange(last + 1) % store_every == 0
    stored[list(time_grid.candidate_indices)] = True
    stored[last] = True
    return np.flatnonzero(stored), stored.tolist()


def _as_direction_array(direction) -> np.ndarray:
    if isinstance(direction, PulseStrategy):
        return direction.values
    if isinstance(direction, ContinuousControl):
        return direction.samples
    return np.asarray(direction, dtype=float)


def _cost(traj, v: PulseStrategy, u: ContinuousControl | None, costs: CostSpec,
          space_weight: float, dt: np.ndarray) -> CostBreakdown:
    """Cost functional of a run (state or tangent), as documented in
    :func:`inhibopt.averaged.cost_averaged`; space integrals use ``space_weight``
    and ``dt`` is the full step grid, so storage never changes the value."""
    if costs.pulse_unit.shape[0] != len(v):
        raise ProblemError(
            f"{costs.pulse_unit.shape[0]} pulse unit costs for a strategy of length {len(v)}"
        )
    if traj.jumps and max(j.candidate_index for j in traj.jumps) >= len(v):
        raise ProblemError("trajectory jumps refer to candidates beyond the strategy length")
    right = _node_integrals(traj, space_weight)
    left = right.copy()  # post-jump integrals start the spans
    if traj.jumps:
        posts = _space_integral(np.array([j.post for j in traj.jumps]), space_weight)
        left[[j.node_index for j in traj.jumps]] = posts
    running_state = float(np.sum(dt * (left[:-1] + right[1:]) / 2.0))

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
    ``advance``, ``gate`` and ``alpha_mid``; field propagators also set ``grid``
    and report their solver counters through ``diagnostics``.
    """

    grid = None

    def diagnostics(self) -> dict:
        """Deterministic counters of the work done so far (none for the averaged model)."""
        return {}

    def forward(self, v: PulseStrategy | None = None, store_every: int = 1):
        """State run with threshold-gated pulses; stores every ``store_every``-th node.

        Candidate nodes and the final node are always stored, and the grid sum of
        every other node is kept for the cost.  Stored values are left limits;
        post-jump values live in the jump records.
        """
        tg = self.time_grid
        if v is None:
            v = PulseStrategy.no_intervention(tg)
        if len(v) != tg.n_candidates:
            raise ProblemError(
                f"strategy has {len(v)} values for {tg.n_candidates} candidate pulse times"
            )
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
        rows, keep = _stored_nodes(tg, store_every)
        states = np.empty((len(rows), *self.shape))
        jumps: list[Jump] = []
        skipped = []  # stays empty when every node is stored
        r = 0
        for n in range(last + 1):
            if keep is None or keep[n]:
                states[r] = x
                r += 1
            else:
                skipped.append(np.sum(x))
            k = pulse_at.get(n)
            if k is not None:
                realized = jump(k, x)
                if realized is not None:
                    post, applied = realized
                    jumps.append(Jump(tg.times[n], n, k, x, post, applied))
                    x = post
            if n < last:
                x = advance(x, n)
        return Trajectory(tg.times[rows], states, jumps, rows, store_every, self.grid,
                          np.array(skipped))

    def backward(self, costs: CostSpec, realized, decide, store_every: int = 1):
        """Costate sweep from p(T) = C_f with source +1 under the forward step operator.

        At each realized candidate k (all if ``realized`` is None) v_k =
        ``decide(k, p_plus)`` and p(tau_k) = v_k*p(tau_k^+) + c_k*(1-v_k).
        Only the nodes a forward run at ``store_every`` stores are kept: every
        m-th node, every candidate node and the final node.  Returns the
        costate Trajectory; each jump record's ``applied`` is the ``decide``
        result itself, so a decision that views a live array is not copied.
        """
        tg = self.time_grid
        last = tg.n_steps
        rows, keep = _stored_nodes(tg, store_every)
        if realized is None:
            realized = range(tg.n_candidates)
        pulse_at = {tg.candidate_indices[k]: k for k in realized}
        c = _rows(costs.pulse_unit)
        values = np.empty((len(rows), *self.shape))
        r = len(rows)
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
                jumps.append(AdjointJump(tg.times[n], n, k, p_plus, p, v))
            if keep is None:  # every node is stored: the averaged hot loop
                values[n] = p
            elif keep[n]:
                r -= 1
                values[r] = p
        jumps.reverse()
        return Trajectory(tg.times[rows], values, jumps, rows, store_every, self.grid)

    def adjoint(self, strategy: PulseStrategy, costs: CostSpec, forward,
                store_every: int = 1) -> Trajectory:
        """Costate sweep with the decisions fixed to ``strategy`` on forward's realized pulses."""
        v = _rows(strategy.values)
        realized = [j.candidate_index for j in forward.jumps]
        return self.backward(costs, realized, lambda k, p_plus: v[k], store_every)

    def cost(self, traj, v: PulseStrategy, u: ContinuousControl | None, costs: CostSpec):
        return _cost(traj, v, u, costs, self.space_weight, self.time_grid.dt)

    def chemical_rate(self, forward, factor: np.ndarray) -> np.ndarray:
        """sigma * alpha * factor * theta at every step midpoint, shaped (n_steps, *shape)."""
        return self.sigma * self.alpha_mid() * factor * _span_midpoints(forward)
