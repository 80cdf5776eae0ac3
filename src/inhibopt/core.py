"""One propagator core for both models.

Both models are one impulsive system: a linear-affine semiflow between
candidate pulse times and a jump by v_i at each realized pulse.  The unit of
a model's propagator is the pulse-free :class:`Span` between two event nodes
(node 0, the candidate nodes and the final node): ``flow(x, span, source,
out, skipped)`` takes every step of the span (backwards in time for a
costate span), with the state's own pressure as source when ``source`` is
None and ``source[n]`` at step n otherwise.  It writes the span's stored
interior nodes into the record ``out``, appends the grid sum of each interior
node it does not store to ``skipped`` (unless that is None, as for the
costate) and returns the state at the span's end.  A propagator also
supplies the record itself (``record(n)``: a list of floats for the averaged
model, converted once when the run ends, or a preallocated array), the
threshold ``gate(x)`` and ``alpha_mid()`` for every step.  A propagator and
each record it writes carry their ``grid`` (None for the averaged model), and
their ``space_weight``, the weight of a point in the space quadrature, is
read from it by one rule: ds^3 on a grid, 1 where there is none.  So costs,
gradients and inner products take the weight of what they integrate.

:class:`Propagator` writes each algorithm once over that interface: the gated
forward run, the backward costate sweep with a per-candidate decision rule,
the linear tangent run of the sensitivity oracles, the cost trapezoid and the
midpoint algebra sigma*alpha*(.)*theta.  They visit only the event nodes, so
no per-step call, pulse lookup or storage test remains in these loops.  Jump
records keep the stored row of their node: a field's record views it.
Averaged states are Python floats and field states arrays; :func:`_rows`
splits per-candidate and per-step data so the scalar loops never index numpy
arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ContinuousControl, CostBreakdown, CostSpec, ProblemError, PulseStrategy


class Jump(NamedTuple):
    """One realized pulse: state pre/post values and the applied v."""

    time: float
    node_index: int
    candidate_index: int
    pre: float | np.ndarray
    post: float | np.ndarray
    applied: float | np.ndarray


class AdjointJump(NamedTuple):
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


class _OnGrid:
    """What carries a space ``grid`` (None for the averaged model) and integrates
    over it: ``space_weight`` is the weight of one point in the space quadrature."""

    grid = None

    @property
    def space_weight(self) -> float:
        """ds^3 on a grid, 1 without one: the one rule of the space quadrature."""
        return 1.0 if self.grid is None else self.grid.cell_volume


@dataclass
class Trajectory(_OnGrid):
    """State, tangent or costate per stored node (left limits), with every jump recorded.

    One record for both models and every run.  ``node_indices`` maps stored
    rows to integration nodes: with ``store_every`` > 1, every m-th node plus
    every candidate node and the final node.  ``skipped_sums`` holds a state
    run's grid sum of each node not stored, in node order, so the cost is
    that of the whole run.  ``grid`` is the field's space grid (None for the
    averaged model and for a spatial average), from which ``space_weight`` is read.
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


BLOCK_VALUES = 2**16  # values an array pass over a block of stacked rows may touch


def _row_blocks(n: int, row_values: int, budget: int | None = None) -> list[slice]:
    """Consecutive slices covering ``range(n)``, each of ``max(1, budget // row_values)``
    rows but the last: the blocks of every pass over stacked rows, so no temporary is
    the size of the stack.  ``budget`` defaults to ``BLOCK_VALUES``, read at call time."""
    rows = max(1, (BLOCK_VALUES if budget is None else budget) // row_values)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _row_means(a: np.ndarray) -> np.ndarray:
    """The grid mean of each row of ``a``; a 1-D row is its own mean."""
    return a if a.ndim == 1 else a.mean(axis=tuple(range(1, a.ndim)))


def _rows(a: np.ndarray) -> list:
    """Per-candidate or per-step entries: Python floats for 1-D data, arrays otherwise."""
    return a.tolist() if a.ndim == 1 else list(a)


def _per_point(a: np.ndarray, ndim: int) -> np.ndarray:
    """View a per-step array with trailing unit axes so it broadcasts to ``ndim`` axes."""
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def _space_integral(rows: np.ndarray, space_weight: float) -> np.ndarray:
    """Grid quadrature of each row: the value itself for 1-D rows, sum * ds^3 for fields."""
    return np.sum(rows, axis=tuple(range(1, rows.ndim))) * space_weight


def _control_inner(a: np.ndarray, b: np.ndarray, space_weight: float, dt: np.ndarray) -> float:
    """The dt- and ds^3-weighted inner product of two per-step arrays (either may broadcast over
    space), each row's product summed in the blocks of :func:`_row_blocks`, as one pass would."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    rows = np.empty(shape[0])
    for block in _row_blocks(shape[0], int(np.prod(shape[1:]))):
        rows[block] = _space_integral(a[block] * b[block], space_weight)
    return float(np.sum(rows * dt))


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


class Span(NamedTuple):
    """One pulse-free walk between two event nodes, everything in walk order.

    ``steps`` slices the per-step data (forwards step n leads to node n+1,
    backwards to node n), ``rows`` the record rows of the interior nodes that
    are stored, and ``kept`` flags each interior node (None: all are stored).
    """

    steps: slice
    rows: slice
    kept: list | None


class _Walk(NamedTuple):
    """The stored nodes of a run, its event nodes with their rows, and the spans
    between consecutive event nodes (``forward[i]`` from event i to event i+1,
    ``backward[i]`` from event i+1 down to event i)."""

    rows: np.ndarray
    events: list
    at: list
    forward: list
    backward: list


@functools.lru_cache(maxsize=32)
def _walk(time_grid, store_every: int) -> _Walk:
    """The walk of every run on ``time_grid`` at ``store_every``, built once per pair
    (building it costs about as much as walking it) and shared, read-only, by every run.

    Stored are every ``store_every``-th node, every candidate node and the
    final node, so a forward run and a costate sweep at the same spacing store
    the same nodes.  Event nodes are node 0, the candidate nodes and the final node.
    """
    if store_every < 1:
        raise ProblemError("store_every must be >= 1")
    last = time_grid.n_steps
    stored = np.arange(last + 1) % store_every == 0
    stored[list(time_grid.candidate_indices)] = True
    stored[last] = True
    rows = np.flatnonzero(stored)
    rows.flags.writeable = False
    keep = None if store_every == 1 else stored.tolist()
    events = sorted({0, *time_grid.candidate_indices, last})
    at = np.searchsorted(rows, events).tolist()
    forward, backward = [], []
    for a, b, ra, rb in zip(events, events[1:], at, at[1:]):
        forward.append(Span(slice(a, b), slice(ra + 1, rb), keep and keep[a + 1:b]))
        backward.append(Span(slice(b - 1, a - 1 if a else None, -1), slice(rb - 1, ra, -1),
                             keep and keep[b - 1:a:-1]))
    return _Walk(rows, events, at, forward, backward)


def _as_direction_array(direction) -> np.ndarray:
    if isinstance(direction, PulseStrategy):
        return direction.values
    if isinstance(direction, ContinuousControl):
        return direction.samples
    return np.asarray(direction, dtype=float)


def _cost(traj, v: PulseStrategy, u: ContinuousControl | None, costs: CostSpec,
          dt: np.ndarray) -> CostBreakdown:
    """Cost functional of a run (state or tangent), as documented in
    :func:`inhibopt.averaged.cost_averaged`; space integrals use the record's
    ``space_weight`` and ``dt`` is the full step grid, so storage never changes the value."""
    if costs.pulse_unit.shape[0] != len(v):
        raise ProblemError(
            f"{costs.pulse_unit.shape[0]} pulse unit costs for a strategy of length {len(v)}"
        )
    if traj.jumps and max(j.candidate_index for j in traj.jumps) >= len(v):
        raise ProblemError("trajectory jumps refer to candidates beyond the strategy length")
    w = traj.space_weight
    right = _node_integrals(traj, w)
    left = right.copy()  # post-jump integrals start the spans
    if traj.jumps:
        posts = _space_integral(np.array([j.post for j in traj.jumps]), w)
        left[[j.node_index for j in traj.jumps]] = posts
    running_state = float(np.sum(dt * (left[:-1] + right[1:]) / 2.0))

    running_control = 0.0
    if u is not None and u.samples.size:
        unit = _per_point(costs.continuous_unit, u.samples.ndim)
        if u.samples.ndim == 1:  # uniform in space
            running_control = float(np.sum(unit * u.samples * dt) * np.size(traj.values[0]) * w)
        else:
            running_control = _control_inner(unit, u.samples, w, dt)

    pulse = 0.0
    for j in traj.jumps:
        term = costs.pulse_unit[j.candidate_index] * (1.0 - j.applied) * j.pre
        if isinstance(term, np.ndarray):  # a field: integrate over space
            term = np.sum(term)
        pulse += float(term * w)
    final = float(np.sum(costs.final * traj.values[-1]) * w)
    return CostBreakdown.assemble(running_state, running_control, pulse, final)


class Propagator(_OnGrid):
    """Model-independent algorithms over a model's span flow, gate and pressure.

    Subclasses set ``time_grid``, ``sigma``, ``shape``, ``threshold``,
    ``initial`` and ``zero``, call ``aim(u)`` from their constructor and
    implement ``state``, ``flow``, ``gate``, ``alpha_mid`` and ``_aim(u)``,
    which sets all that the chemical control u changes, so ``aim(u)`` re-aims
    a propagator in place at the ``control`` that ``cost`` reads; field
    propagators also set ``grid``, from which ``space_weight`` is read, and
    report their solver counters through ``diagnostics``.
    """

    def aim(self, u: ContinuousControl | None) -> Propagator:
        """Aim this propagator, in place, at ``u``: its ``control`` from now on.  Returns it."""
        self.control = u
        self._aim(u)
        return self

    def record(self, n: int):
        """Storage for n rows, written by index and slice and read back by ``np.asarray``."""
        return np.empty((n, *self.shape))

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
        return self._run(self.initial, None, pulse_at, jump, store_every)

    def linear(self, forward, rule, sources: np.ndarray | None = None):
        """Tangent run z(0) = 0 with source ``sources[n]`` at step n (zero if None)
        between the realized pulses of ``forward``, z(tau^+) = rule(forward_jump, z(tau)) at them."""
        if not forward.complete:
            raise ProblemError("sensitivity needs a fully stored trajectory")
        src = [0.0] * self.time_grid.n_steps if sources is None else _rows(sources)
        by_k = {j.candidate_index: j for j in forward.jumps}
        pulse_at = {j.node_index: j.candidate_index for j in forward.jumps}
        return self._run(self.zero, src, pulse_at,
                         lambda k, z: (rule(by_k[k], z), by_k[k].applied))

    def _run(self, x, source, pulse_at: dict, jump, store_every: int = 1):
        tg = self.time_grid
        walk = _walk(tg, store_every)
        states = self.record(len(walk.rows))
        jumps: list[Jump] = []
        skipped = []  # stays empty when every node is stored
        for n, r, span in zip(walk.events, walk.at, [*walk.forward, None]):
            states[r] = x  # event nodes are always stored
            k = pulse_at.get(n)
            if k is not None:
                realized = jump(k, x)
                if realized is not None:
                    post, applied = realized
                    jumps.append(Jump(tg.times[n], n, k, states[r], post, applied))
                    x = post
            if span is not None:
                x = self.flow(x, span, source, states, skipped)
        rows = walk.rows.copy()
        return Trajectory(tg.times[rows], np.asarray(states), jumps, rows, store_every,
                          self.grid, np.array(skipped))

    def backward(self, costs: CostSpec, realized, decide, store_every: int = 1):
        """Costate sweep from p(T) = C_f with source +1 under the forward step operator.

        At each candidate k in ``realized`` v_k = ``decide(k, p_plus)`` and
        p(tau_k) = v_k*p(tau_k^+) + c_k*(1-v_k).
        Only the nodes a forward run at ``store_every`` stores are kept: every
        m-th node, every candidate node and the final node.  Returns the
        costate Trajectory; each jump record's ``applied`` is the ``decide``
        result itself, so a decision that views a live array is not copied,
        and a field record's ``p_minus`` views its stored row.
        """
        tg = self.time_grid
        last = tg.n_steps
        walk = _walk(tg, store_every)
        pulse_at = {tg.candidate_indices[k]: k for k in realized}
        c = _rows(costs.pulse_unit)
        unit = [1.0] * last
        values = self.record(len(walk.rows))
        jumps: list[AdjointJump] = []
        p = self.state(costs.final)
        for n, r, span in zip(walk.events[::-1], walk.at[::-1], [*walk.backward[::-1], None]):
            k = pulse_at.get(n)
            if k is None:
                values[r] = p
            else:
                # pulse exactly at T: the final cost uses the left limit, so
                # the post-pulse state never enters J and p(tau^+) = 0
                p_plus = self.zero if n == last else p
                v = decide(k, p_plus)
                values[r] = p = (p if n == last else v * p_plus) + c[k] * (1.0 - v)
                jumps.append(AdjointJump(tg.times[n], n, k, p_plus, values[r], v))
            if span is not None:
                p = self.flow(p, span, unit, values, None)
        jumps.reverse()
        rows = walk.rows.copy()
        return Trajectory(tg.times[rows], np.asarray(values), jumps, rows, store_every, self.grid)

    def adjoint(self, strategy: PulseStrategy, costs: CostSpec, forward,
                store_every: int = 1) -> Trajectory:
        """Costate sweep with the decisions fixed to ``strategy`` on forward's realized pulses."""
        v = _rows(strategy.values)
        realized = [j.candidate_index for j in forward.jumps]
        return self.backward(costs, realized, lambda k, p_plus: v[k], store_every)

    def cost(self, traj, v: PulseStrategy, costs: CostSpec):
        return _cost(traj, v, self.control, costs, self.time_grid.dt)

    def chemical_rate(self, forward, factor: np.ndarray) -> np.ndarray:
        """sigma * alpha * factor * theta at every step midpoint, shaped (n_steps, *shape)."""
        return self.sigma * self.alpha_mid() * factor * _span_midpoints(forward)
