"""Forward simulation of the spatially averaged impulsive model.

Between pulses the scalar inhibition rate obeys

    d/dt Theta = alpha(t) * (1 - Theta / (1 - sigma*u(t))),

i.e. exponential relaxation towards the attractor 1 - sigma*u at rate
alpha/(1 - sigma*u); at each realized pulse time Theta jumps to v_i * Theta.
Each integration step freezes alpha at the step midpoint and u at the step's
stored sample and applies the exact exponential update

    Theta <- attr + (Theta - attr) * exp(-rate * dt) = decay*Theta + w*alpha,

with w = (1 - e^{-rate*dt})/rate.  This evaluates the semiflow's two
integral terms in closed form for the frozen coefficients: it is exact for
(step-aligned) piecewise-constant alpha and u and second-order for smooth
alpha.  The exact update is a convex combination, so it maps [0,1] into
[0,1]; the maps below round otherwise, so that holds to rounding.

The state, the costate (source 1) and a tangent (source s) all take the
linear step ``x <- decay*x + w*source``, and affine maps of such a step
compose.  :class:`AveragedPropagator` therefore cuts each pulse-free span
(see :mod:`inhibopt.core`) into chunks of at most ``K_MAX`` steps, laid out
once per time grid by :func:`_chunks`, and, when it is aimed at a control,
takes the maps x -> S*x + O of every chunk after each of its steps in one
numpy lockstep, one step of every chunk at once: S <- S*decay and
O <- O*decay + w*source from (1, 0).  There is no division, so a decay that
underflows to 0 is safe.  One lockstep serves the state (source alpha,
forwards) and the costate (source 1, backwards); a tangent run with sources
builds its own.  A run's ``flow`` then takes a span one multiply-add a chunk
on a Python float, noting each chunk's start, and its ``finish`` fills every
node, in the order the chunks reach them, as x = S*x_start + O in one pass.
The brute-force oracle's segment maps, :meth:`AveragedPropagator.segments`,
are composed from the same chunk maps; no other module knows the chunks.

The functions here are thin wrappers over the shared loops of
:mod:`inhibopt.core`, except :func:`semiflow_step`: it takes the closed form
``attr + (Theta - attr)*decay`` one step at a time, which keeps the attractor
1 - sigma*u fixed to rounding.  Through the chunk maps it would not: a span
of 2,000 steps taken as one chunk reads 0.7599999999999821 at the
equilibrium 0.76.

Pulse thresholding: a candidate time t_k becomes a realized pulse time iff
Theta(t_k) >= sigma_star (pre-jump value, ties trigger).  Stored trajectory
values are left limits; post-jump values live in the jump records.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .core import AveragedTrajectory, Jump  # noqa: F401  (re-exported)
from .core import Propagator, Span, _as_direction_array, _cost, _rows, _unstored, _walk
from .model import (
    AveragedProblem,
    ContinuousControl,
    CostBreakdown,
    CostSpec,
    ProblemError,
    PulseStrategy,
    QuadratureError,
)


K_MAX = 32  # steps a chunk of :func:`_chunks` holds at most: the width of one lockstep


class _Side(NamedTuple):
    """One direction's chunks in :class:`_Chunks`: their columns there, the chunk numbers of
    each span (by its ``index``), numbered in the order a run visits them, the mask
    (chunks, width) of their real (unpadded) places, and the nodes those places reach, chunk
    by chunk in that order: 1..T forwards, T-1..0 backwards."""

    cols: slice
    spans: list
    real: np.ndarray
    nodes: slice


class _Chunks(NamedTuple):
    """Each span of a time grid's walk cut into chunks of at most ``K_MAX`` steps, forwards
    and backwards: ``steps`` (width, chunks) holds the step at each place of a chunk, column
    by column, ``n_steps`` where a shorter chunk is padded, and ``sourced`` where each place
    reads its weighted source in the rows of :func:`_step_table` (decay, w*alpha, w): the
    state's w*alpha forwards, the costate's w backwards."""

    steps: np.ndarray
    sourced: np.ndarray
    forward: _Side
    backward: _Side


@functools.lru_cache(maxsize=32)
def _chunks(time_grid) -> _Chunks:
    """The chunks of every run on ``time_grid``, built once per grid as :func:`_walk` is.

    A span of L steps is cut into ceil(L / K_MAX) chunks of near-equal length, so the
    chunks of a weekly grid are its spans.  Forward chunks are numbered in time order and
    backward ones in the order the costate sweep visits them, so a run's chunk starts,
    noted in visiting order, line up with the chunk numbers, and the chunks' steps reach
    every node but the first of their direction once, in order.
    """
    walk = _walk(time_grid, 1)
    last = time_grid.n_steps
    chunks, sides = [], []
    # forward step n reaches node n + 1 (1..T in order), backward step n node n (T-1..0)
    for spans, nodes in ((walk.forward, np.s_[1:]), (walk.backward[::-1], np.s_[-2::-1])):
        first, numbers = len(chunks), [None] * len(spans)
        for span in spans:
            walked = range(last)[span.steps]
            pieces = -(-len(walked) // K_MAX)
            numbers[span.index] = range(len(chunks) - first, len(chunks) - first + pieces)
            chunks += [walked[len(walked) * i // pieces:len(walked) * (i + 1) // pieces]
                       for i in range(pieces)]
        sides.append((slice(first, len(chunks)), numbers, nodes))
    steps = np.full((max(map(len, chunks)), len(chunks)), last)
    for c, chunk in enumerate(chunks):
        steps[:len(chunk), c] = chunk
    forward, backward = (_Side(cols, numbers, steps[:, cols].T < last, nodes)
                         for cols, numbers, nodes in sides)
    sourced = steps + (last + 1) * np.repeat([1, 2], [len(s.real) for s in (forward, backward)])
    for a in (steps, sourced, forward.real, backward.real):
        a.flags.writeable = False  # shared by every run on the grid
    return _Chunks(steps, sourced, forward, backward)


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


def _step_table(decay: np.ndarray, *weighted: np.ndarray) -> np.ndarray:
    """Rows of per-step data to gather into the chunk layout: the decay, then each weighted
    source w*s, each ending in the pad at index n_steps (decay 1, source 0), which leaves a
    map exactly as it is."""
    table = np.zeros((1 + len(weighted), len(decay) + 1))
    table[0, -1] = 1.0
    for row, values in zip(table, (decay, *weighted)):
        row[:-1] = values
    return table


def _lockstep(decay: np.ndarray, weighted: np.ndarray):
    """The maps x -> S*x + O of every chunk after each of its steps, one step of every chunk
    at once: S <- S*d and O <- O*d + w*s from (1, 0).  ``decay`` and ``weighted`` (w*s) are
    laid out as :func:`_chunks`' ``steps``; row j + 1 of S and O is taken after
    step j, and row 0 is the identity.  A padded step (d = 1, w*s = 0) leaves both exactly."""
    scale, offset = np.empty((2, len(decay) + 1, decay.shape[1]))
    scale[0], offset[0] = 1.0, 0.0
    np.multiply.accumulate(decay, axis=0, out=scale[1:])
    rows = list(offset)
    for before, after, d, ws in zip(rows, rows[1:], decay, weighted):
        np.multiply(before, d, out=after)
        np.add(after, ws, out=after)
    return scale, offset


class _Maps(NamedTuple):
    """The chunk maps of one direction and source: S and O after each step of each chunk
    (see :func:`_lockstep`), each chunk's end map as Python floats, and the direction."""

    scale: np.ndarray
    offset: np.ndarray
    ends: tuple
    side: _Side


def _maps(scale: np.ndarray, offset: np.ndarray, side: _Side) -> _Maps:
    """The maps of ``side``'s columns of a lockstep."""
    scale, offset = np.ascontiguousarray(scale[:, side.cols]), np.ascontiguousarray(offset[:, side.cols])
    return _Maps(scale, offset, (scale[-1].tolist(), offset[-1].tolist()), side)


class AveragedPropagator(Propagator):
    """Exact exponential steps of the scalar model for one chemical control, taken as chunk
    maps (``aim(u)`` keeps the alpha samples and recomputes each step's attractor, decay and
    weight, and the maps of the state and the costate in one lockstep)."""

    shape = ()
    zero = 0.0

    def __init__(self, problem: AveragedProblem, u: ContinuousControl | None = None):
        tg = problem.time_grid
        self._alpha_mid = _alpha_samples(problem.alpha, tg.mid_times)
        self.time_grid, self.sigma = tg, problem.chem.sigma
        self.initial = float(problem.theta0)
        self.threshold = problem.chem.sigma_star
        self.chunks = _chunks(tg)
        self.aim(u)

    def _aim(self) -> None:
        dt = self.time_grid.dt
        _, rate, decay = _exponential_coefficients(self._alpha_mid, self.u_samples, self.sigma, dt)
        self.decay, self.w = decay, _source_weights(rate, dt)
        table = _step_table(decay, self.w * self._alpha_mid, self.w)  # sources alpha and 1
        scale, offset = _lockstep(table[0].take(self.chunks.steps), table.take(self.chunks.sourced))
        self.state_maps = _maps(scale, offset, self.chunks.forward)
        self.unit_maps = _maps(scale, offset, self.chunks.backward)

    def state(self, a) -> float:
        return float(a)

    def record(self, n: int) -> list:
        """The n stored rows, of which the run writes the event rows; each span's flow
        appends its chunk starts after them."""
        return [0.0] * n

    def source(self, rows: np.ndarray | None) -> _Maps:
        """The forward maps of a tangent run with source ``rows`` (zero where None)."""
        side = self.chunks.forward
        steps = self.chunks.steps[:, side.cols]
        decay, weighted = _step_table(self.decay, self.w * (0.0 if rows is None else rows))
        # the forward columns come first, so side.cols takes all of these
        return _maps(*_lockstep(decay.take(steps), weighted.take(steps)), side)

    def unit_source(self) -> _Maps:
        return self.unit_maps

    def flow(self, x: float, span: Span, source: _Maps | None, out: list,
             skipped: list | None) -> float:
        """Take one span through its chunk maps (the state's when ``source`` is None), noting
        each chunk's start in ``out``; :meth:`finish` fills the nodes between."""
        maps = self.state_maps if source is None else source
        scale, offset = maps.ends
        for c in maps.side.spans[span.index]:
            out.append(x)
            x = scale[c] * x + offset[c]
        return x

    def finish(self, record: list, walk, source: _Maps | None, skipped: list | None):
        """Every node x = S*x_start + O from its chunk's start in one pass, in the order the chunks
        reach them; then the event rows as the run stored them (pre-jump, the costate decided)."""
        maps = self.state_maps if source is None else source
        n = len(walk.rows)
        nodes = np.empty(self.time_grid.n_steps + 1)
        starts = np.array(record[n:])
        nodes[maps.side.nodes] = (maps.scale * starts + maps.offset)[1:].T[maps.side.real]
        nodes[walk.events] = [record[r] for r in walk.at]
        if n == nodes.size:
            return nodes, None if skipped is None else np.empty(0)
        return nodes[walk.rows], None if skipped is None else nodes[_unstored(walk.rows)]

    def segments(self) -> list:
        """Affine maps of the state over each segment between consecutive candidate nodes
        (node 0 and the final node close the first and the last), the brute-force oracle's.

        Over a pulse-free segment the step recursion and its running trapezoid
        integral are affine in the segment's start value x:
            end value   = offset + slope * x
            integral    = int_offset + int_slope * x
        Each is composed, chunk by chunk, from the state's chunk maps x -> S*x + O:
        their end maps and the trapezoids of S and of O over each chunk, taken for
        every chunk at once.  Returns (offset, slope, int_offset, int_slope) a segment.
        """
        tg, maps = self.time_grid, self.state_maps
        dt = np.append(tg.dt, 0.0).take(self.chunks.steps[:, maps.side.cols])  # a pad adds nothing
        t_s, t_o = (np.sum(dt * (a[:-1] + a[1:]) / 2.0, axis=0).tolist()
                    for a in (maps.scale, maps.offset))
        s_end, o_end = maps.ends
        spans = iter(maps.side.spans)
        boundaries = [0, *tg.candidate_indices, len(tg.times) - 1]
        segments = []
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            off, slp, i_off, i_slp = 0.0, 1.0, 0.0, 0.0
            for c in next(spans) if b > a else ():  # chunk c starts at slp*x + off
                i_off += off * t_s[c] + t_o[c]
                i_slp += slp * t_s[c]
                off, slp = s_end[c] * off + o_end[c], s_end[c] * slp
            segments.append((off, slp, i_off, i_slp))
        return segments

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
