import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import inhibopt as ib
from conftest import reference_alpha, reference_averaged, reference_pde
from inhibopt import io as iomod
from inhibopt import optimize
from inhibopt.presets import PRESETS


def intervention_set(strategy):
    vals = strategy.values
    if vals.ndim == 1:
        return frozenset(int(i) for i in np.where(vals == 0.0)[0])
    return frozenset(int(i) for i in range(vals.shape[0]) if np.any(vals[i] == 0.0))


class TestOptimalPulse:
    def test_bang_bang_values(self):
        prob = reference_averaged()
        res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.5))
        assert set(np.unique(res.strategy.values)) <= {0.0, 1.0}

    def test_prohibitive_cost_never_intervenes(self):
        # p <= C_f + (T - t), so c_i above that bound forces v = 1
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 1.6, final=0.5)
        res = ib.optimal_pulse(prob, None, costs)
        assert np.all(res.strategy.values == 1.0)
        assert res.cost.pulse == 0.0

    def test_free_pulses_always_intervene(self):
        # c_i = 0, C_f = 0: p(tau^+) > 0 strictly before T
        prob = reference_averaged()
        res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.0))
        assert np.all(res.strategy.values == 0.0)

    def test_rejects_positive_threshold(self):
        prob = reference_averaged(sigma_star=0.1)
        with pytest.raises(ib.ProblemError):
            ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.5))

    def test_nested_intervention_sets_in_cost(self):
        sets = {}
        for c in (0.25, 0.4, 0.5):
            prob = reference_averaged()
            res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, c))
            sets[c] = intervention_set(res.strategy)
        assert len(sets[0.5]) < len(sets[0.4]) < len(sets[0.25])
        assert sets[0.5] <= sets[0.4] <= sets[0.25]

    def test_chemical_control_does_not_increase_interventions(self):
        for c in (0.25, 0.4, 0.5):
            prob = reference_averaged()
            costs = ib.CostSpec.constant(prob.time_grid, c)
            plain = ib.optimal_pulse(prob, None, costs)
            with_u = ib.optimal_pulse(
                prob, ib.ContinuousControl.constant(prob.time_grid, 1.0), costs)
            assert len(intervention_set(with_u.strategy)) <= len(intervention_set(plain.strategy))

    def test_final_cost_saturation(self):
        strategies = {}
        for cf in (0.0, 0.25, 0.5, 0.6, 10.0):
            prob = reference_averaged()
            res = ib.optimal_pulse(prob, None,
                                   ib.CostSpec.constant(prob.time_grid, 0.5, final=cf))
            strategies[cf] = intervention_set(res.strategy)
        assert strategies[0.6] == strategies[10.0]
        assert strategies[0.0] <= strategies[0.25] <= strategies[0.5]

    def test_pde_uniform_matches_averaged_and_ignores_diffusion(self):
        results = {}
        for diff in (1.0, 10.0):
            prob = reference_pde(cells=(4, 4, 2), t_end=0.5, diffusion=diff)
            res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.55))
            # uniform data: pointwise decisions are identical over the grid
            per_pulse = res.strategy.values.reshape(res.strategy.values.shape[0], -1)
            assert np.all(per_pulse.max(axis=1) == per_pulse.min(axis=1))
            results[diff] = per_pulse[:, 0]
        assert np.array_equal(results[1.0], results[10.0])
        prob_a = reference_pde(cells=(4, 4, 2), t_end=0.5).averaged()
        res_a = ib.optimal_pulse(prob_a, None, ib.CostSpec.constant(prob_a.time_grid, 0.55))
        assert np.array_equal(results[1.0], res_a.strategy.values)

    def test_certificate_margins_match_decisions(self):
        prob = reference_averaged()
        res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.4))
        for cert in res.certificate:
            if cert.margin > 1e-12:
                assert cert.applied == 0.0
            else:
                assert cert.applied == 1.0


def test_endpoint_candidates_handled_consistently():
    # candidates at t=0 (pre-evolution jump) and exactly at t_end (affects
    # the pulse cost only) still satisfy the sweep/enumeration identity
    tg = ib.TimeGrid(1.0, 1e-3, (0.0, 0.5, 1.0))
    alpha = lambda t: 0.8 * np.ones_like(np.asarray(t, float))  # noqa: E731
    prob = ib.AveragedProblem(tg, alpha, ib.ChemicalParams(0.0, 0.0), 0.4)
    costs = ib.CostSpec(np.array([0.3, 0.2, 0.15]), np.zeros(tg.n_steps), np.asarray(0.1))
    res = ib.optimal_pulse(prob, None, costs)
    assert res.strategy.values[-1] == 1.0  # a pulse at T can never pay off
    assert ib.certificate_check(res, prob, costs) == []
    bf = ib.brute_force_pulse(prob, None, costs, max_pulses=5)
    assert abs(res.cost.total - bf.cost.total) <= 1e-10


def _sweep_problem(model):
    if model == "averaged":
        prob = reference_averaged()
        return prob, ib.ContinuousControl.constant(prob.time_grid, 0.5), ib.solve_adjoint_averaged
    if model == "averaged-endpoints":
        # candidates at t = 0 and exactly at T exercise the sweep's end cases
        tg = ib.TimeGrid(1.0, 1e-3, (0.0, 0.25, 0.5, 0.75, 1.0))
        prob = ib.AveragedProblem(tg, reference_alpha(), ib.ChemicalParams(0.3, 0.0), 0.4)
        return prob, None, ib.solve_adjoint_averaged
    grid = ib.SpaceGrid.from_cells(10, 10, 3)
    prob = reference_pde(initial=ib.build_initial_condition(grid, 0.4, 0.2))
    return prob, None, ib.solve_adjoint_pde


@pytest.mark.parametrize("model", ["averaged", "averaged-endpoints", "pde"])
def test_sweep_is_the_adjoint_with_its_decisions_fixed(model):
    # the bang-bang sweep and the costate solver are one backward sweep with
    # different decision rules, so they agree bit for bit on the sweep's strategy
    prob, u, solve = _sweep_problem(model)
    costs = ib.CostSpec.constant(prob.time_grid, 0.55, final=0.2)
    res = ib.optimal_pulse(prob, u, costs)
    assert 0.0 in res.strategy.values and 1.0 in res.strategy.values
    adj = solve(prob, u, res.strategy, costs, res.forward)
    assert np.array_equal(res.adjoint.times, adj.times)
    assert np.array_equal(res.adjoint.values, adj.values)
    assert len(res.adjoint.jumps) == len(adj.jumps) == len(res.forward.jumps)
    for a, b in zip(res.adjoint.jumps, adj.jumps):
        assert (a.time, a.node_index, a.candidate_index) == (b.time, b.node_index, b.candidate_index)
        for name in ("p_plus", "p_minus", "applied"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestBruteForce:
    def test_single_candidate_two_case_comparison(self):
        tg = ib.TimeGrid(0.2, 1e-3, (0.1,))
        prob = ib.AveragedProblem(tg, reference_alpha(), ib.ChemicalParams(0.3, 0.0), 0.4)
        # prohibitive cost: keeping v=1 wins
        res = ib.brute_force_pulse(prob, None, ib.CostSpec.constant(tg, 5.0))
        assert np.array_equal(res.strategy.values, [1.0])
        # free pulse: intervening wins
        res = ib.brute_force_pulse(prob, None, ib.CostSpec.constant(tg, 0.0))
        assert np.array_equal(res.strategy.values, [0.0])

    def test_matches_backward_sweep_exactly(self):
        prob = reference_averaged(t_end=10 / 52)
        assert prob.time_grid.n_candidates == 9
        for c, cf in ((0.05, 0.3), (0.1, 0.0), (0.02, 0.1)):
            costs = ib.CostSpec.constant(prob.time_grid, c, final=cf)
            bf = ib.brute_force_pulse(prob, None, costs, max_pulses=10)
            sweep = ib.optimal_pulse(prob, None, costs)
            assert abs(bf.cost.total - sweep.cost.total) <= 1e-10
            assert np.array_equal(bf.strategy.values, sweep.strategy.values)

    def test_interior_strategies_never_beat_best_vertex(self):
        prob = reference_averaged(t_end=10 / 52)
        costs = ib.CostSpec.constant(prob.time_grid, 0.05, final=0.3)
        res = ib.brute_force_pulse(prob, None, costs, max_pulses=10,
                                   interior_samples=200, seed=3)
        assert res.diagnostics["interior_best"] >= res.diagnostics["enumeration_best"] - 1e-12

    def test_enumeration_matches_simulator_cost(self):
        prob = reference_averaged(t_end=8 / 52)
        costs = ib.CostSpec.constant(prob.time_grid, 0.07, final=0.2)
        res = ib.brute_force_pulse(prob, None, costs, max_pulses=10)
        assert abs(res.diagnostics["enumeration_best"] - res.cost.total) < 1e-12

    def test_refuses_oversized_instances(self):
        prob = reference_averaged()  # 51 candidates
        costs = ib.CostSpec.constant(prob.time_grid, 0.5)
        with pytest.raises(ib.ProblemError):
            ib.brute_force_pulse(prob, None, costs)
        small = reference_averaged(t_end=10 / 52)
        with pytest.raises(ib.ProblemError):
            ib.brute_force_pulse(small, None, ib.CostSpec.constant(small.time_grid, 0.5),
                                 max_pulses=25)

    def test_pde_problems_rejected(self):
        prob = reference_pde(cells=(1, 1, 1), t_end=0.1)
        with pytest.raises(ib.ProblemError):
            ib.brute_force_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.5))


def _oracle_vertex_cost(theta0, segments, v, costs, sigma_star, control_cost, final_cost):
    """One strategy's cost through the affine segment maps, one candidate at a time."""
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


def _oracle_brute_force(problem, u, costs, interior_samples=0, seed=0):
    """The vertex loop in lexicographic order, strict improvement only, and the interior samples."""
    m = problem.time_grid.n_candidates
    segments = optimize._segment_aggregates(optimize.AveragedPropagator(problem, u))
    control_cost = 0.0
    if u is not None:
        control_cost = float(np.sum(costs.continuous_unit * u.samples * problem.time_grid.dt))

    def evaluate(v):
        return _oracle_vertex_cost(problem.theta0, segments, v, costs, problem.chem.sigma_star,
                                   control_cost, float(costs.final))

    best_v, best_cost = None, np.inf
    for bits in itertools.product((0.0, 1.0), repeat=m):
        c = evaluate(bits)
        if c < best_cost:
            best_cost, best_v = c, bits
    interior_best = None
    if interior_samples > 0:
        rng = np.random.default_rng(seed)
        interior_best = min(evaluate(rng.random(m)) for _ in range(interior_samples))
    return np.array(best_v), best_cost, interior_best


def _vertex_case(case):
    tg = ib.TimeGrid.regular(1.0, 1e-3, 1.0 / 13)
    assert tg.n_candidates == 12
    if case == "ties":
        # no pressure: theta only moves at pulses.  A free pulse at candidate 1
        # clears it for good, after which every choice costs the same, and
        # candidate 0 is too dear to use: the tied set is every (1, 0, ...)
        # vertex and the loop keeps the first, (1, 0, 0, ..., 0)
        prob = ib.AveragedProblem(tg, lambda t: np.zeros_like(np.asarray(t, float)),
                                  ib.ChemicalParams(0.0, 0.0), 0.4)
        unit = np.full(12, 0.3)
        unit[:2] = (5.0, 0.0)
        return prob, None, ib.CostSpec(unit, np.zeros(tg.n_steps), np.asarray(0.0)), 0
    if case == "nan":
        # an infinite cost at candidate 6: once a pulse there is realized, v = 1
        # costs inf * 0 = NaN, and the NaN vertices must not hide the optimum
        prob = ib.AveragedProblem(tg, reference_alpha(), ib.ChemicalParams(0.3, 0.3), 0.45)
        unit = np.full(12, 0.5)
        unit[6] = np.inf
        return prob, None, ib.CostSpec(unit, np.zeros(tg.n_steps), np.asarray(0.3)), 0
    star = 0.45 if case == "gated" else 0.0
    prob = ib.AveragedProblem(tg, reference_alpha(), ib.ChemicalParams(0.3, star), 0.45)
    u = ib.ContinuousControl.constant(tg, 0.2)
    costs = ib.CostSpec.constant(tg, 0.5, continuous_unit=0.01, final=0.3)
    return prob, u, costs, 300


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("chunk", [optimize.VERTEX_CHUNK, 1000])
@pytest.mark.parametrize("case", ["mixed", "gated", "ties", "nan"])
def test_enumeration_matches_the_vertex_loop(case, chunk, monkeypatch):
    # chunks of 1,000 split the 4,096 vertices and the interior samples unevenly
    monkeypatch.setattr(optimize, "VERTEX_CHUNK", chunk)
    prob, u, costs, samples = _vertex_case(case)
    res = ib.brute_force_pulse(prob, u, costs, interior_samples=samples, seed=4)
    best_v, best_cost, interior_best = _oracle_brute_force(prob, u, costs, samples, seed=4)
    assert res.strategy.values.tobytes() == best_v.tobytes()
    assert np.float64(res.diagnostics["enumeration_best"]).tobytes() == np.float64(best_cost).tobytes()
    if samples:
        assert (np.float64(res.diagnostics["interior_best"]).tobytes()
                == np.float64(interior_best).tobytes())
    else:
        assert res.diagnostics["interior_best"] is None
    assert res.iterations == 2**12
    if case == "ties":
        assert best_v.tolist() == [1.0] + [0.0] * 11
    elif case == "nan":
        segments = optimize._segment_aggregates(optimize.AveragedPropagator(prob, u))
        costs_all = [_oracle_vertex_cost(prob.theta0, segments, bits, costs, 0.3, 0.0, 0.3)
                     for bits in itertools.product((0.0, 1.0), repeat=12)]
        assert np.isnan(costs_all).any() and np.isfinite(best_cost)
    else:
        assert 0.0 in best_v and 1.0 in best_v
    if case == "gated":
        assert 0 < len(res.forward.jumps) < 12


def test_one_interior_draw_is_the_stream_of_single_draws():
    block = np.random.default_rng(9).random((7, 12))
    rng = np.random.default_rng(9)
    assert block.tobytes() == np.array([rng.random(12) for _ in range(7)]).tobytes()
    rng = np.random.default_rng(9)
    assert block.tobytes() == np.concatenate([rng.random((3, 12)), rng.random((4, 12))]).tobytes()


class TestFixedPointPulse:
    def test_zero_threshold_passthrough(self):
        prob = reference_averaged(sigma_star=0.0)
        costs = ib.CostSpec.constant(prob.time_grid, 0.4)
        fp = ib.fixed_point_pulse(prob, None, costs)
        op = ib.optimal_pulse(prob, None, costs)
        assert np.array_equal(fp.strategy.values, op.strategy.values)
        assert fp.cost.total == op.cost.total

    def test_unreachable_threshold(self):
        prob = reference_averaged(sigma_star=2.0)
        fp = ib.fixed_point_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.4))
        assert fp.converged
        assert fp.certificate == []
        assert fp.forward.jumps == []
        assert np.all(fp.strategy.values == 1.0)

    def test_small_instance_matches_gated_enumeration(self):
        prob = reference_averaged(t_end=10 / 52, sigma_star=0.35)
        costs = ib.CostSpec.constant(prob.time_grid, 0.05, final=0.3)
        fp = ib.fixed_point_pulse(prob, None, costs)
        assert fp.converged
        bf = ib.brute_force_pulse(prob, None, costs, max_pulses=10)
        assert abs(fp.cost.total - bf.cost.total) <= 1e-10

    def test_realized_set_respects_threshold(self):
        prob = reference_averaged(t_end=0.5, sigma_star=0.42)
        costs = ib.CostSpec.constant(prob.time_grid, 0.1)
        fp = ib.fixed_point_pulse(prob, None, costs)
        for j in fp.forward.jumps:
            assert j.pre >= 0.42

    def test_space_dependent_threshold_problem(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.3, sigma_star=0.02)
        fp = ib.fixed_point_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.1))
        assert fp.converged
        thr = 0.02 * prob.grid.volume
        for j in fp.forward.jumps:
            assert float(np.sqrt(np.sum(j.pre**2) * prob.grid.cell_volume)) >= thr


def _spacing_case(case):
    if case == "averaged optimal_pulse":
        prob = reference_averaged(t_end=0.5)
        return ib.optimal_pulse, prob, ib.CostSpec.constant(prob.time_grid, 0.3, final=0.2)
    if case == "field optimal_pulse":
        grid = ib.SpaceGrid.from_cells(2, 2, 1)
        initial = ib.ScalarField(grid, np.random.default_rng(7).uniform(0.2, 0.6, grid.dims))
        prob = reference_pde(cells=(2, 2, 1), t_end=0.3, initial=initial)
        return ib.optimal_pulse, prob, ib.CostSpec.constant(prob.time_grid, 0.3, final=0.2)
    prob = reference_pde(cells=(2, 2, 1), t_end=0.3, sigma_star=0.02)
    return ib.fixed_point_pulse, prob, ib.CostSpec.constant(prob.time_grid, 0.1)


def _assert_same_jumps(got, want, names):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.time, a.node_index, a.candidate_index) == (b.time, b.node_index, b.candidate_index)
        for name in names:
            assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("m", [7, 50])
@pytest.mark.parametrize("case", ["averaged optimal_pulse", "field optimal_pulse",
                                  "field fixed_point_pulse"])
def test_stored_spacing_changes_only_the_stored_rows(case, m):
    solve, prob, costs = _spacing_case(case)
    full = solve(prob, None, costs)
    thin = solve(prob, None, costs, store_every=m)
    tg = prob.time_grid
    if case == "field fixed_point_pulse":
        assert full.iterations >= 2 and full.forward.jumps
    assert 0.0 in full.strategy.values and 1.0 in full.strategy.values
    assert thin.strategy.values.tobytes() == full.strategy.values.tobytes()
    assert thin.cost == full.cost
    assert (thin.iterations, thin.converged, thin.diagnostics) == (
        full.iterations, full.converged, full.diagnostics)
    assert len(thin.certificate) == len(full.certificate) > 0
    for a, b in zip(thin.certificate, full.certificate):
        for name in ("time", "candidate_index", "p_plus", "unit_cost", "applied", "margin"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    nodes = sorted({*range(0, tg.n_steps + 1, m), *tg.candidate_indices, tg.n_steps})
    for got, want in ((thin.forward, full.forward), (thin.adjoint, full.adjoint)):
        assert got.store_every == m and not got.complete
        assert got.node_indices.tolist() == nodes
        assert np.array_equal(got.times, want.times[nodes])
        assert np.array_equal(got.values, want.values[nodes])
    _assert_same_jumps(thin.forward.jumps, full.forward.jumps, ("pre", "post", "applied"))
    _assert_same_jumps(thin.adjoint.jumps, full.adjoint.jumps, ("p_plus", "p_minus", "applied"))
    if isinstance(prob, ib.PdeProblem):
        replay = ib.simulate_pde(prob, None, thin.strategy, store_every=m)
        assert np.array_equal(replay.node_indices, thin.adjoint.node_indices)


def test_thinned_field_optimization_holds_no_full_history():
    bundle = iomod.resolve_bundle(PRESETS["fig5"].runs[0].config)
    history_bytes = len(bundle.problem.time_grid.times) * bundle.problem.grid.npoints * 8
    tracemalloc.start()
    try:
        res = ib.fixed_point_pulse(bundle.problem, bundle.u, bundle.costs, store_every=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.forward.store_every == res.adjoint.store_every == 50
    assert peak < history_bytes


def test_fixed_point_holds_no_discarded_costate():
    # at full storage the fixed point needs two histories (the current forward
    # run beside the one or the costate being built); a costate that only
    # decided v must not stay alive beside them
    grid = ib.SpaceGrid.from_cells(10, 10, 3)
    initial = ib.ScalarField(grid, np.random.default_rng(2).uniform(0.3, 0.5, grid.dims))
    prob = reference_pde(t_end=0.3, sigma_star=0.015, initial=initial)
    history_bytes = len(prob.time_grid.times) * grid.npoints * 8
    tracemalloc.start()
    try:
        res = ib.fixed_point_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.55))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.forward.jumps and res.forward.complete
    assert peak < 3 * history_bytes


@pytest.mark.parametrize("case", ["field optimal_pulse", "field fixed_point_pulse"])
def test_field_costate_records_view_their_decisions(case):
    # a record's applied is the decision itself: a row of the deciding sweep's
    # v, or of the strategy when the costate is recomputed with it fixed; a
    # copy per candidate would be one more array of the strategy's size
    solve, prob, costs = _spacing_case(case)
    res = solve(prob, None, costs)
    jumps = res.adjoint.jumps
    assert jumps
    if case == "field fixed_point_pulse":
        assert all(np.shares_memory(j.applied, res.strategy.values) for j in jumps)
    else:
        owner = jumps[0].applied.base
        assert owner is not None and owner.shape == res.strategy.values.shape
        assert all(j.applied.base is owner for j in jumps)


class TestProjectedGradientMixed:
    def test_requires_chemical_efficacy(self):
        prob = reference_averaged(sigma=0.0)
        with pytest.raises(ib.ProblemError):
            ib.projected_gradient_mixed(prob, ib.CostSpec.constant(prob.time_grid, 0.5))

    def test_vanishing_efficacy_limit(self):
        # sigma -> 0: the gradient is ~C > 0 everywhere, so u stays at 0 and
        # the pulse strategy equals the pulse-only sweep
        prob = reference_averaged(sigma=1e-6)
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=0.2)
        res = ib.projected_gradient_mixed(prob, costs)
        assert np.all(res.control.samples == 0.0)
        ref = ib.optimal_pulse(prob, ib.ContinuousControl.constant(prob.time_grid, 0.0), costs)
        assert np.array_equal(res.strategy.values, ref.strategy.values)

    def test_expensive_control_stays_off(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=10.0)
        res = ib.projected_gradient_mixed(prob, costs)
        assert res.converged
        assert np.all(res.control.samples == 0.0)

    def test_monotone_descent_and_certificate(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        res = ib.projected_gradient_mixed(prob, costs)
        hist = res.diagnostics["cost_history"]
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert res.continuous_certificate.agreement_fraction() >= 0.99

    def test_reference_bundle_terminates(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.1)
        res = ib.projected_gradient_mixed(prob, costs)
        assert res.converged and res.iterations <= 200
        assert res.continuous_certificate.agreement_fraction() >= 0.99

    def test_mixed_preset_stops_stationary(self):
        bundle = iomod.resolve_bundle(PRESETS["mixed"].runs[0].config)
        res = ib.projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
        assert res.diagnostics["stop_reason"] == "stationary"

    def test_capped_run_names_the_cap(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        res = ib.projected_gradient_mixed(prob, costs, max_iterations=2)
        assert res.diagnostics["stop_reason"] == "iteration cap"
        assert res.iterations == 2 and not res.converged

    @pytest.mark.parametrize("rejected, max_halvings, stop", [
        (2, 40, "iteration cap"),  # the third trial step is accepted
        (None, 3, "line search failed"),  # every trial step is rejected
    ])
    def test_line_search_halvings_are_counted(self, monkeypatch, rejected, max_halvings, stop):
        # no halving happens on the reference problems, so trial steps are
        # made to look worse by reporting a raised cost for them
        prob = reference_averaged(t_end=0.25)
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=0.005)
        real = optimize.optimal_pulse
        trials = []

        def worse_trials(problem, u, costs):
            res = real(problem, u, costs)
            if u is not None and np.any(u.samples) and (rejected is None or len(trials) < rejected):
                trials.append(u)
                c = res.cost
                res.cost = ib.CostBreakdown.assemble(c.running_state, c.running_control, c.pulse, c.final + 1.0)
            return res

        monkeypatch.setattr(optimize, "optimal_pulse", worse_trials)
        res = ib.projected_gradient_mixed(prob, costs, max_halvings=max_halvings, max_iterations=1)
        assert res.diagnostics["stop_reason"] == stop
        assert res.diagnostics["line_search_halvings"] == len(trials) == (rejected or max_halvings + 1)

    def test_space_dependent_problem(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2)
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=0.05)
        res = ib.projected_gradient_mixed(prob, costs)
        assert res.converged
        assert res.control.samples.shape == (prob.time_grid.n_steps, *prob.grid.dims)
        assert res.continuous_certificate.agreement_fraction() >= 0.99


class TestCertificateCheck:
    def test_sweep_output_passes(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.4)
        res = ib.optimal_pulse(prob, None, costs)
        assert ib.certificate_check(res, prob, costs) == []

    def test_given_control_is_not_judged(self):
        # u = 0 is an input of optimal_pulse, not an optimized control, so only
        # the pulse conditions apply even though dJ/du < 0 at u = 0 when C = 0
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5)
        res = ib.optimal_pulse(prob, ib.ContinuousControl.constant(prob.time_grid, 0.0), costs)
        assert res.continuous_certificate is None
        assert ib.certificate_check(res, prob, costs) == []

    def test_optimized_control_is_judged(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=10.0)
        res = ib.projected_gradient_mixed(prob, costs)
        assert ib.certificate_check(res, prob, costs) == []
        # full dose at a prohibitive unit cost: every sample has an ascent direction
        wasteful = dataclasses.replace(res, control=ib.ContinuousControl.constant(prob.time_grid, 1.0))
        messages = ib.certificate_check(wasteful, prob, costs)
        assert any(m.startswith("chemical control") for m in messages)

    def test_flipped_decision_is_flagged(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.4)
        res = ib.optimal_pulse(prob, None, costs)
        flipped = res.strategy.values.copy()
        target = next(i for i, c in enumerate(res.certificate) if abs(c.margin) > 1e-6)
        k = res.certificate[target].candidate_index
        flipped[k] = 1.0 - flipped[k]
        v_bad = ib.PulseStrategy(flipped)
        forward = ib.simulate_averaged(prob, None, v_bad)
        adjoint = ib.solve_adjoint_averaged(prob, None, v_bad, costs, forward)
        bad = ib.StrategyResult(
            v_bad, None, ib.cost_averaged(forward, v_bad, None, costs),
            [ib.PulseCertificate(j.time, j.candidate_index, j.p_plus,
                                 costs.pulse_unit[j.candidate_index], j.applied,
                                 j.p_plus - costs.pulse_unit[j.candidate_index])
             for j in adjoint.jumps],
            forward, adjoint,
        )
        assert len(ib.certificate_check(bad, prob, costs)) >= 1

    @pytest.mark.parametrize("block", [optimize.CERT_BLOCK_VALUES, 40])
    @pytest.mark.parametrize("model", ["averaged", "field"])
    def test_violation_messages_are_pinned(self, model, block, monkeypatch):
        # a block of 40 values judges two field pulses (18 points each) per pass
        monkeypatch.setattr(optimize, "CERT_BLOCK_VALUES", block)
        if model == "averaged":
            prob = reference_averaged(t_end=10 / 52)
            costs = ib.CostSpec.constant(prob.time_grid, 0.2, final=0.1)

            def flip(k, applied):  # every other pulse, and one interior value
                return 0.5 if k == 3 else (1.0 - applied if k % 2 == 0 else applied)

            want = [(0.019231, 1), (0.057692, 1), (0.076923, 1), (0.096154, 1),
                    (0.134615, 1), (0.173077, 1)]
        else:
            grid = ib.SpaceGrid.from_cells(2, 2, 1)
            initial = ib.ScalarField(grid, np.random.default_rng(7).uniform(0.2, 0.6, grid.dims))
            prob = reference_pde(cells=(2, 2, 1), t_end=0.1, initial=initial,
                                 amplitude=ib.build_random_amplitude(grid, 1.2, seed=5))
            costs = ib.CostSpec.constant(prob.time_grid, 0.08, final=0.0)

            def flip(k, applied):  # the first 3k+1 points, and the last point interior
                out = applied.copy().reshape(-1)
                out[: 3 * k + 1] = 1.0 - out[: 3 * k + 1]
                out[-1] = 0.5
                return out.reshape(applied.shape)

            want = [(0.019231, 2), (0.038462, 5), (0.057692, 8), (0.076923, 11), (0.096154, 14)]
        res = ib.optimal_pulse(prob, None, costs)
        assert ib.certificate_check(res, prob, costs) == []
        bad = dataclasses.replace(res, certificate=[
            dataclasses.replace(c, applied=flip(k, c.applied)) for k, c in enumerate(res.certificate)])
        assert ib.certificate_check(bad, prob, costs) == [
            f"pulse at t={t:.6f}: {n} point(s) violate the sign condition" for t, n in want]

    def test_degenerate_ties_pass_with_any_value(self):
        # c_i = p(tau_i^+) exactly: zero coefficients, no violations
        tg = ib.TimeGrid(1.0, 1e-3, (0.5,))
        prob = ib.AveragedProblem(tg, lambda t: np.zeros_like(np.asarray(t, float)),
                                  ib.ChemicalParams(0.0, 0.0), 0.4)
        for vval in (0.0, 0.3, 1.0):
            v = ib.PulseStrategy(np.array([vval]))
            forward = ib.simulate_averaged(prob, None, v)
            costs = ib.CostSpec(np.array([0.5]), np.zeros(tg.n_steps), np.asarray(0.0))
            adjoint = ib.solve_adjoint_averaged(prob, None, v, costs, forward)
            res = ib.StrategyResult(
                v, None, ib.cost_averaged(forward, v, None, costs),
                [ib.PulseCertificate(j.time, j.candidate_index, j.p_plus, 0.5, j.applied,
                                     j.p_plus - 0.5) for j in adjoint.jumps],
                forward, adjoint,
            )
            assert ib.certificate_check(res, prob, costs) == []
