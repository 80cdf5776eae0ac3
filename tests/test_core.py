"""The span loops of inhibopt.core against a plain per-step reference loop.

The reference below is the forward run, tangent run and costate sweep
written one integration step at a time, with a pulse lookup and a storage
test at every node.  The propagators walk whole pulse-free spans instead, so
every record, jump, unstored grid sum and cost must agree with it bit for bit.
"""

import numpy as np
import pytest

import inhibopt as ib
from conftest import reference_alpha, reference_pde
from inhibopt import optimize
from inhibopt.adjoint import _propagator
from inhibopt.core import AdjointJump, Jump, Trajectory, _cost, _rows


def _state_step(prop, x, n):
    if prop.shape:
        return prop._step(x, n, None)
    return prop.attr[n] + (x - prop.attr[n]) * prop.decay[n]


def _linear_step(prop, x, n, source):
    if prop.shape:
        return prop._step(x, n, {n: source})
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
    if realized is None:
        realized = range(tg.n_candidates)
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
    assert prop.cost(forward, v, u, costs) == prop.cost(want, v, u, costs)
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
        assert (_cost(tangent, v, None, costs, prop.space_weight, np.diff(tangent.times))
                == _cost(want_tangent, v, None, costs, prop.space_weight,
                         np.diff(want_tangent.times)))
        sources = np.random.default_rng(5).uniform(-1.0, 1.0, (prob.time_grid.n_steps, *prop.shape))
        rule_u = lambda j, z: j.applied * z  # noqa: E731
        assert_same_record(prop.linear(forward, rule_u, sources),
                           reference_linear(prop, want, rule_u, sources),
                           ("pre", "post", "applied"))


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
