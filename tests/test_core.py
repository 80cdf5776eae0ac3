"""The span loops of inhibopt.core against a plain per-step reference loop.

The reference below is the forward run, tangent run and costate sweep
written one integration step at a time, with a pulse lookup and a storage
test at every node.  The propagators walk whole pulse-free spans instead, so
every record, jump, unstored grid sum and cost must agree with it bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import inhibopt as ib
from conftest import reference_alpha, reference_averaged, reference_pde
from inhibopt import core, optimize
from inhibopt.adjoint import _propagator
from inhibopt.core import (AdjointJump, Jump, Trajectory, _control_inner, _cost, _per_point, _row_blocks,
                          _row_means, _rows, _space_integral)


def _state_step(prop, x, n):
    if prop.shape:
        return prop._step(x, n, None, np.empty(prop.shape))
    return prop.attr[n] + (x - prop.attr[n]) * prop.decay[n]


def _linear_step(prop, x, n, source):
    if prop.shape:
        return prop._step(x, n, {n: source}, np.empty(prop.shape))
    return prop.decay[n] * x + prop.w[n] * source


def _stored(tg, store_every):
    last = tg.n_steps
    keep = [n % store_every == 0 or n in tg.candidate_indices or n == last
            for n in range(last + 1)]
    return np.flatnonzero(keep), keep


def _reference_run(prop, x, advance, pulse_at, jump, store_every=1):
    tg = prop.time_grid
    last = tg.n_steps
    rows, keep = _stored(tg, store_every)
    states = np.empty((len(rows), *prop.shape))
    jumps, skipped, r = [], [], 0
    for n in range(last + 1):
        if keep[n]:
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
    return Trajectory(tg.times[rows], states, jumps, rows, store_every, prop.grid,
                      np.array(skipped))


def reference_forward(prop, v, store_every=1):
    values = _rows(v.values)

    def jump(k, x):
        return (values[k] * x, values[k]) if prop.gate(x) else None

    pulse_at = {node: k for k, node in enumerate(prop.time_grid.candidate_indices)}
    return _reference_run(prop, prop.initial, lambda x, n: _state_step(prop, x, n), pulse_at,
                          jump, store_every)


def reference_linear(prop, forward, rule, sources=None):
    src = [0.0] * prop.time_grid.n_steps if sources is None else _rows(sources)
    by_k = {j.candidate_index: j for j in forward.jumps}
    pulse_at = {j.node_index: j.candidate_index for j in forward.jumps}
    return _reference_run(prop, prop.zero, lambda z, n: _linear_step(prop, z, n, src[n]),
                          pulse_at, lambda k, z: (rule(by_k[k], z), by_k[k].applied))


def reference_backward(prop, costs, realized, decide, store_every=1):
    tg = prop.time_grid
    last = tg.n_steps
    rows, keep = _stored(tg, store_every)
    pulse_at = {tg.candidate_indices[k]: k for k in realized}
    c = _rows(costs.pulse_unit)
    values = np.empty((len(rows), *prop.shape))
    r = len(rows)
    jumps = []
    p = prop.state(costs.final)
    for n in range(last, -1, -1):
        if n < last:
            p = _linear_step(prop, p, n, 1.0)
        k = pulse_at.get(n)
        if k is not None:
            p_plus = prop.zero if n == last else p
            v = decide(k, p_plus)
            p = (p if n == last else v * p_plus) + c[k] * (1.0 - v)
            jumps.append(AdjointJump(tg.times[n], n, k, p_plus, p, v))
        if keep[n]:
            r -= 1
            values[r] = p
    jumps.reverse()
    return Trajectory(tg.times[rows], values, jumps, rows, store_every, prop.grid)


def _bits(x):
    """Type and bytes of a record entry: Python floats must stay Python floats."""
    return type(x).__name__, np.asarray(x).shape, np.asarray(x).tobytes()


def assert_same_record(got, want, names):
    for name in ("times", "values", "node_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.store_every == want.store_every and got.grid is want.grid
    assert _bits(np.asarray(got.skipped_sums)) == _bits(np.asarray(want.skipped_sums))
    assert len(got.jumps) == len(want.jumps)
    for a, b in zip(got.jumps, want.jumps):
        assert (a.time, a.node_index, a.candidate_index) == (b.time, b.node_index, b.candidate_index)
        for name in names:
            assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


GRIDS = {
    "candidate at t=0": (0.0, 0.03, 0.06),
    "candidate at T": (0.03, 0.06, 0.1),
    "no candidates": (),
    "gated": (0.02, 0.04, 0.06, 0.08),
}


def _case(model, grid_name):
    tg = ib.TimeGrid(0.1, 2e-3 if model == "field" else 1e-3, GRIDS[grid_name])
    m = tg.n_candidates
    rng = np.random.default_rng(11)
    if model == "averaged":
        # theta rises from 0.5 through the threshold, so the first candidates
        # stay below it and later ones realize
        star = 0.505 if grid_name == "gated" else 0.0
        prob = ib.AveragedProblem(tg, reference_alpha(), ib.ChemicalParams(0.3, star), 0.5)
        v = ib.PulseStrategy(rng.uniform(0.0, 1.0, m))
        direction = rng.uniform(-1.0, 1.0, m)
    else:
        grid = ib.SpaceGrid.from_cells(3, 3, 2)
        initial = ib.ScalarField(grid, rng.uniform(0.3, 0.7, grid.dims))
        prob = reference_pde(cells=(3, 3, 2), initial=initial,
                             sigma_star=0.0715 if grid_name == "gated" else 0.0)
        prob = ib.PdeProblem(tg, prob.grid, prob.pressure, prob.diffusion, prob.chem, prob.initial)
        v = ib.PulseStrategy(rng.uniform(0.0, 1.0, (m, *grid.dims)))
        direction = rng.uniform(-1.0, 1.0, (m, *grid.dims))
    u = ib.ContinuousControl(np.linspace(0.0, 0.6, tg.n_steps))
    costs = ib.CostSpec.constant(tg, 0.3, final=0.2)
    return prob, u, v, direction, costs


@pytest.mark.parametrize("store_every", [1, 7])
@pytest.mark.parametrize("grid_name", list(GRIDS))
@pytest.mark.parametrize("model", ["averaged", "field"])
def test_span_loops_match_the_per_step_loop(model, grid_name, store_every):
    prob, u, v, direction, costs = _case(model, grid_name)
    prop = _propagator(prob, u)
    m = prob.time_grid.n_candidates

    forward = prop.forward(v, store_every)
    want = reference_forward(prop, v, store_every)
    assert_same_record(forward, want, ("pre", "post", "applied"))
    assert prop.cost(forward, v, costs) == prop.cost(want, v, costs)
    if grid_name == "gated":
        assert 0 < len(forward.jumps) < m
    elif m:
        assert len(forward.jumps) == m

    # costate with decisions fixed to v, and the bang-bang sweep
    realized = [j.candidate_index for j in forward.jumps]
    fixed = _rows(v.values)
    assert_same_record(prop.adjoint(v, costs, forward, store_every),
                       reference_backward(prop, costs, realized, lambda k, p: fixed[k], store_every),
                       ("p_plus", "p_minus", "applied"))
    v_sweep, sweep = optimize._sweep(prop, costs, realized, store_every)
    c, decided = _rows(costs.pulse_unit), {}

    def decide(k, p_plus):
        decided[k] = d = 1.0 - (p_plus > c[k] + optimize.TIE_TOL)
        return d

    ref = reference_backward(prop, costs, realized, decide, store_every)
    assert_same_record(sweep, ref, ("p_plus", "p_minus"))
    for k, d in decided.items():
        assert np.array_equal(v_sweep[k], d)

    if store_every == 1:  # tangent runs need complete records
        rule_v = lambda j, z: direction[j.candidate_index] * j.pre + j.applied * z  # noqa: E731
        tangent = prop.linear(forward, rule_v)
        want_tangent = reference_linear(prop, want, rule_v)
        assert_same_record(tangent, want_tangent, ("pre", "post", "applied"))
        assert (_cost(tangent, v, None, costs, np.diff(tangent.times))
                == _cost(want_tangent, v, None, costs, np.diff(want_tangent.times)))
        sources = np.random.default_rng(5).uniform(-1.0, 1.0, (prob.time_grid.n_steps, *prop.shape))
        rule_u = lambda j, z: j.applied * z  # noqa: E731
        assert_same_record(prop.linear(forward, rule_u, sources),
                           reference_linear(prop, want, rule_u, sources),
                           ("pre", "post", "applied"))


def test_records_the_loops_cannot_use_are_refused():
    prob = reference_averaged(t_end=0.25)
    tg = prob.time_grid
    m = tg.n_candidates
    prop = _propagator(prob, None)
    with pytest.raises(ib.ProblemError, match="store_every must be >= 1"):
        ib.optimal_pulse(prob, None, ib.CostSpec.constant(tg, 0.4), store_every=0)
    forward = prop.forward(ib.PulseStrategy(np.full(m, 0.5)))  # every candidate realized
    short = ib.CostSpec(np.full(m - 1, 0.4), np.zeros(tg.n_steps), np.asarray(0.0))
    with pytest.raises(ib.ProblemError, match="jumps refer to candidates beyond the strategy length"):
        _cost(forward, ib.PulseStrategy(np.full(m - 1, 0.5)), None, short, tg.dt)
    with pytest.raises(ib.ProblemError, match="sensitivity needs a fully stored trajectory"):
        prop.linear(prop.forward(None, 7), lambda j, z: j.applied * z)


@pytest.mark.parametrize("store_every", [1, 50])
def test_field_jump_records_view_their_stored_rows(store_every):
    # a candidate node is always stored, so its jump record keeps that row
    # rather than a second array of the field's size
    grid = ib.SpaceGrid.from_cells(3, 3, 2)
    prob = reference_pde(cells=(3, 3, 2), t_end=0.2,
                         initial=ib.ScalarField(grid, np.random.default_rng(4).uniform(0.3, 0.6, grid.dims)))
    costs = ib.CostSpec.constant(prob.time_grid, 0.3, final=0.2)
    res = ib.optimal_pulse(prob, None, costs, store_every=store_every)
    for traj, name in ((res.forward, "pre"), (res.adjoint, "p_minus")):
        assert traj.jumps and traj.store_every == store_every
        rows = {int(n): r for r, n in enumerate(traj.node_indices)}
        for j in traj.jumps:
            kept = getattr(j, name)
            assert np.shares_memory(kept, traj.values)
            assert np.array_equal(kept, traj.values[rows[j.node_index]])


@pytest.mark.parametrize("model", ["averaged", "field"])
def test_a_reaimed_propagator_runs_as_a_new_one(model):
    # u = 0, then u != 0 (spatially varying on the field), then u = 0 again, so
    # the field operator moves from the pressure to the rate buffer and back
    prob, _, v, _, costs = _case(model, "gated")
    tg = prob.time_grid
    shape = prob.grid.dims if model == "field" else ()
    varying = np.random.default_rng(3).uniform(0.0, 0.6, (tg.n_steps, *shape))
    controls = [None, ib.ContinuousControl(varying), ib.ContinuousControl.constant(tg, 0.0)]
    base = aimed = _propagator(prob, None)
    fresh_solves = 0
    for u in controls:
        aimed, fresh = aimed.aim(u), _propagator(prob, u)
        assert aimed is base and aimed.control is u and fresh.control is u
        forward, want = aimed.forward(v), fresh.forward(v)
        assert_same_record(forward, want, ("pre", "post", "applied"))
        assert aimed.cost(forward, v, costs) == fresh.cost(want, v, costs)
        realized = [j.candidate_index for j in forward.jumps]
        (v_got, got), (v_want, sweep) = (optimize._sweep(p, costs, realized) for p in (aimed, fresh))
        assert v_got.tobytes() == v_want.tobytes()
        assert_same_record(got, sweep, ("p_plus", "p_minus", "applied"))
        if model == "field":
            assert aimed.stencil is base.stencil and aimed.cg is base.cg
            assert (aimed.op.rate is aimed.alpha) == (u is not controls[1])
            fresh_solves += fresh.cg.solves
    if model == "field":
        assert base.cg.solves == fresh_solves > 0


# ---------------------------------------------------------------------------
# the block rule and the two grid reductions of every pass over stacked rows


@pytest.mark.parametrize("n, row_values, budget, rows", [
    (0, 10, 40, 4),  # nothing to cover
    (5, 100, 40, 1),  # a row above the budget: one row a block
    (12, 10, 40, 4),  # an exact multiple
    (13, 10, 40, 4),  # a remainder
    (13, 10, None, 3),  # the budget read from core.BLOCK_VALUES at call time
])
def test_row_blocks_cover_the_rows_once_in_order(monkeypatch, n, row_values, budget, rows):
    monkeypatch.setattr(core, "BLOCK_VALUES", 30)
    blocks = _row_blocks(n, row_values, budget)
    assert [i for block in blocks for i in range(block.start, block.stop)] == list(range(n))
    assert [block.stop - block.start for block in blocks] == (
        [rows] * (n // rows) + [n % rows] * (n % rows > 0))
    assert all(block.step is None for block in blocks)


@pytest.mark.parametrize("dims, spacing", [((3, 4, 2), 1.0), ((1, 5, 1), 0.3), ((1, 1, 1), 2.5),
                                           ((4, 1, 3), 0.7)])
def test_stacked_grid_reductions_equal_each_rows(rng, dims, spacing):
    grid = ib.SpaceGrid(dims, spacing)
    stack = rng.normal(size=(7, *dims))
    norms, means = grid.l2_norm(stack).tolist(), _row_means(stack).tolist()
    for row, norm, mean in zip(stack, norms, means):
        field = ib.ScalarField(grid, row)
        assert norm == grid.l2_norm(row) == field.l2_norm() == np.sqrt(np.sum(row**2) * spacing**3)
        assert mean == row.mean() == field.mean()
        assert type(field.l2_norm()) is float
    column = stack[:, 0, 0, 0].copy()
    assert _row_means(column) is column  # a 1-D row is its own mean


def _one_pass_inner(a, b, space_weight, dt):
    return float(np.sum(_space_integral(a * b, space_weight) * dt))


@pytest.mark.parametrize("block", [core.BLOCK_VALUES, 7])
@pytest.mark.parametrize("case", ["field by per-step factor", "two fields", "1-D rows"])
def test_control_inner_in_blocks_is_the_one_pass_product(monkeypatch, rng, block, case):
    monkeypatch.setattr(core, "BLOCK_VALUES", block)  # 7: one field row a block, 7 1-D rows
    n, dims = 61, (5, 4, 3)
    dt = rng.uniform(0.5e-3, 1.5e-3, n)
    a, b = {
        "field by per-step factor": (_per_point(rng.uniform(0.0, 0.01, n), 4),  # the cost's C * u
                                     rng.uniform(0.0, 1.0, (n, *dims))),
        "two fields": (rng.normal(size=(n, *dims)), rng.normal(size=(n, *dims))),
        "1-D rows": (rng.normal(size=n), rng.normal(size=n)),
    }[case]
    for x, y, w in ((a, b, 0.125), (b, a, 0.125), (a, a, 1.0)):
        assert _control_inner(x, y, w, dt) == _one_pass_inner(x, y, w, dt)


def test_control_inner_holds_no_temporary_of_the_stack_size(rng):
    a, b = rng.normal(size=(2, 200, 21, 21, 7))
    dt = np.full(200, 1e-3)
    tracemalloc.start()
    try:
        value = _control_inner(a, b, 0.25, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == _one_pass_inner(a, b, 0.25, dt)
    assert peak < a.nbytes / 4
