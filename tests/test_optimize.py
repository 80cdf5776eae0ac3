import dataclasses
import functools
import hashlib
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import inhibopt as ib
from conftest import reference_alpha, reference_averaged, reference_pde
from inhibopt import adjoint as adjoint_mod
from inhibopt import core
from inhibopt import io as iomod
from inhibopt import optimize
from inhibopt import pde as pde_mod
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

    def test_optimum_converges_at_second_order_as_the_step_halves(self):
        # the README quick-start problem: J at five halved steps has observed
        # orders log2((J_h - J_h/2) / (J_h/2 - J_h/4)) of about 2.00, 2.03 and
        # 1.91, and the sweep picks the same pulses at every step
        totals, pulse_sets = [], set()
        for h in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4):
            prob = reference_averaged(h=h)
            res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.5))
            totals.append(res.cost.total)
            pulse_sets.add(intervention_set(res.strategy))
        diffs = np.diff(totals)
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.all((orders >= 1.8) & (orders <= 2.2)), orders
        assert len(pulse_sets) == 1 and len(pulse_sets.pop()) == 25


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

    def test_no_control_costs_nothing_at_an_infinite_unit_cost(self):
        prob = reference_averaged(t_end=10 / 52)
        tg = prob.time_grid
        free = ib.brute_force_pulse(prob, None, ib.CostSpec.constant(tg, 0.05, final=0.3),
                                    max_pulses=10)
        dear = ib.brute_force_pulse(prob, None, ib.CostSpec.constant(
            tg, 0.05, continuous_unit=np.inf, final=0.3), max_pulses=10)
        assert dear.strategy.values.tobytes() == free.strategy.values.tobytes()
        assert dear.cost == free.cost

    def test_a_zero_control_costs_nothing_at_an_infinite_unit_cost(self):
        # a given control that is zero throughout is costed as no control, so no inf*0 arises
        prob = reference_averaged(t_end=10 / 52)
        tg = prob.time_grid
        costs = ib.CostSpec.constant(tg, 0.05, continuous_unit=np.inf, final=0.3)
        zero = ib.ContinuousControl.constant(tg, 0.0)
        v = ib.PulseStrategy(np.full(tg.n_candidates, 0.5))
        traj = ib.simulate_averaged(prob, zero, v)
        assert ib.cost_averaged(traj, v, zero, costs) == ib.cost_averaged(traj, v, None, costs)
        res = ib.brute_force_pulse(prob, zero, costs, max_pulses=10)
        assert np.isfinite(res.cost.total)
        assert res.cost.total == res.diagnostics["enumeration_best"]

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
    segments = optimize.AveragedPropagator(problem, u).segments()
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


def _oracle_bellman(problem, u, costs, points=2001):
    """Global optimum of the averaged pulse problem under the given u, by backward value
    iteration (Bellman 1957) on ``points`` uniform theta values in [0, 1] with linear
    interpolation: each step is the propagator's exact one, and at each candidate whose
    pre-jump state meets sigma*, v is the cheaper of 0 and 1.  The policy is rolled out on
    the same steps and costed by the library, so its J is that of a real strategy."""
    tg = problem.time_grid
    assert tg.candidate_indices[-1] < tg.n_steps  # a pulse at T would need its own final cost
    prop = optimize.AveragedPropagator(problem, u)
    grid = np.linspace(0.0, 1.0, points)
    star, c = problem.chem.sigma_star, costs.pulse_unit.tolist()
    attrs = 1.0 - prop.sigma * prop.u_samples  # the attractor 1 - sigma*u of each step
    candidate_at = dict(zip(tg.candidate_indices, range(tg.n_candidates)))
    after = {}  # the value just after each candidate's jump, as a function of the post-jump state
    value = float(costs.final) * grid
    for n in range(tg.n_steps, -1, -1):
        k = candidate_at.get(n)
        if k is not None:
            after[k] = value
            value = np.where(grid >= star, np.minimum(value, c[k] * grid + value[0]), value)
        if n:
            attr, decay = attrs[n - 1], prop.decay[n - 1]
            y = attr + (grid - attr) * decay
            value = tg.dt[n - 1] * (grid + y) / 2.0 + np.interp(y, grid, value)
    v, x = np.ones(tg.n_candidates), float(problem.theta0)
    for n in range(tg.n_steps):
        k = candidate_at.get(n)
        if k is not None and x >= star and c[k] * x + after[k][0] < np.interp(x, grid, after[k]):
            v[k], x = 0.0, 0.0
        x = attrs[n] + (x - attrs[n]) * prop.decay[n]
    strategy = ib.PulseStrategy(v)
    return strategy, prop.cost(prop.forward(strategy), strategy, costs).total


@functools.cache
def _bellman_set():
    """64 seeded averaged threshold problems (sigma* in [0.05, 0.6], 4 to 16 candidates, every
    other one under a constant u) with the oracle's J of each."""
    rng = np.random.default_rng(18)
    cases = []
    for i in range(64):
        m = int(rng.integers(4, 17))
        tg = ib.TimeGrid.regular((m + 0.5) / 52, 1e-3, 1.0 / 52)
        alpha = ib.seasonal_profile(0.5 * np.log(10.0) * rng.uniform(0.5, 2.0), 0.75, 0.2)
        prob = ib.AveragedProblem(tg, alpha, ib.ChemicalParams(0.3, rng.uniform(0.05, 0.6)),
                                  rng.uniform(0.1, 0.8))
        u = ib.ContinuousControl.constant(tg, rng.uniform(0.0, 1.0)) if i % 2 else None
        costs = ib.CostSpec.constant(tg, rng.uniform(0.05, 0.6), rng.uniform(0.0, 0.05),
                                     rng.uniform(0.0, 0.5))
        cases.append((prob, u, costs, _oracle_bellman(prob, u, costs)[1]))
    return cases


def test_bellman_oracle_is_the_enumerated_optimum():
    for prob, u, costs, oracle in _bellman_set():
        assert prob.time_grid.n_candidates <= 16 and 0.05 <= prob.chem.sigma_star <= 0.6
        best = ib.brute_force_pulse(prob, u, costs).cost.total
        assert abs(oracle - best) <= 1e-12 * abs(best)


def test_fixed_points_above_the_bellman_optimum_are_pinned():
    # the fixed point is a self-consistent realized set, not a minimum: an early pulse
    # can gate off later candidates that the optimum uses
    gaps = np.array([ib.fixed_point_pulse(prob, u, costs).cost.total / oracle - 1.0
                     for prob, u, costs, oracle in _bellman_set()])
    assert gaps.min() >= -1e-12
    assert np.count_nonzero(gaps > 1e-12) == 4
    assert gaps.max() == pytest.approx(0.198724, abs=1e-6)


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
        segments = optimize.AveragedPropagator(prob, u).segments()
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
        # at sigma* = 0 the loop starts from every candidate and its first sweep
        # converges, so the fixed point is optimal_pulse bit for bit, on both models
        # and at every spacing
        averaged, field = reference_averaged(sigma_star=0.0), reference_pde(cells=(2, 2, 1), t_end=0.3)
        for prob, store_every in itertools.product((averaged, field), (1, 7)):
            costs = ib.CostSpec.constant(prob.time_grid, 0.4)
            fp = ib.fixed_point_pulse(prob, None, costs, store_every=store_every)
            op = ib.optimal_pulse(prob, None, costs, store_every=store_every)
            assert fp.strategy.values.tobytes() == op.strategy.values.tobytes()
            assert fp.cost == op.cost and fp.diagnostics == op.diagnostics
            assert (fp.iterations, fp.converged) == (op.iterations, op.converged) == (1, True)
            for got, want, names in ((fp.forward, op.forward, ("pre", "post", "applied")),
                                     (fp.adjoint, op.adjoint, ("p_plus", "p_minus", "applied"))):
                assert got.jumps and got.store_every == want.store_every == store_every
                for name in ("times", "values", "node_indices", "skipped_sums"):
                    assert (np.asarray(getattr(got, name)).tobytes()
                            == np.asarray(getattr(want, name)).tobytes()), name
                assert len(got.jumps) == len(want.jumps)
                for a, b in zip(got.jumps, want.jumps):
                    assert (a.time, a.node_index, a.candidate_index) == (b.time, b.node_index,
                                                                          b.candidate_index)
                    for name in names:
                        assert (np.asarray(getattr(a, name)).tobytes()
                                == np.asarray(getattr(b, name)).tobytes()), name

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
    # a record's applied is a row of the result's strategy; a copy per
    # candidate, or the deciding sweep's v kept beside the strategy, would be
    # one more array of the strategy's size
    solve, prob, costs = _spacing_case(case)
    res = solve(prob, None, costs)
    jumps = res.adjoint.jumps
    assert jumps
    owner = res.strategy.values
    assert all(j.applied.base is owner for j in jumps)


def _oracle_fixed_point(problem, u, costs, max_iterations=50, store_every=1):
    """The earlier loop: it stopped once a pass repeated both the realized set and v."""
    prop = optimize._propagator(problem, u)
    seen: set = set()
    strategy = ib.PulseStrategy(np.ones((problem.time_grid.n_candidates, *prop.shape)))
    forward = prop.forward(strategy, store_every)
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        realized = frozenset(j.candidate_index for j in forward.jumps)
        new_v = optimize._sweep(prop, costs, realized, store_every)[0]
        new_strategy = ib.PulseStrategy(new_v)
        new_forward = prop.forward(new_strategy, store_every)
        new_realized = frozenset(j.candidate_index for j in new_forward.jumps)
        state = (new_realized, new_v.tobytes())
        if new_realized == realized and np.array_equal(new_v, strategy.values):
            strategy, forward = new_strategy, new_forward
            converged = True
            break
        if state in seen:
            raise ib.PulseCycleError(new_realized, realized)
        seen.add(state)
        strategy, forward = new_strategy, new_forward
    return optimize._result(prop, strategy, costs, forward=forward, store_every=store_every,
                            iterations=iterations, converged=converged)


def _threshold_cases():
    """Seeded averaged fixed points (sigma* in [0.2, 0.6], a third with u = None) and one field one."""
    rng = np.random.default_rng(31)
    tg = ib.TimeGrid.regular(1.0, 1e-3, 1.0 / 52)
    for i in range(30):
        alpha = ib.seasonal_profile(0.5 * np.log(10.0) * rng.uniform(0.8, 1.2), 0.75, 0.2)
        prob = ib.AveragedProblem(tg, alpha, ib.ChemicalParams(0.3, rng.uniform(0.2, 0.6)),
                                  rng.uniform(0.2, 0.6))
        u = ib.ContinuousControl.constant(tg, rng.uniform(0.0, 1.0)) if i % 3 else None
        yield f"averaged {i}", prob, u, ib.CostSpec.constant(tg, rng.uniform(0.25, 0.6), 0.0,
                                                              rng.uniform(0.0, 0.5)), 1
    _, prob, costs = _spacing_case("field fixed_point_pulse")
    for m in (1, 7):
        yield f"field m={m}", prob, None, costs, m
    # no pulse is worth its cost: the first sweep keeps the unforced run
    yield "field, dear pulses", prob, None, ib.CostSpec.constant(prob.time_grid, 10.0), 1


def test_fixed_point_matches_the_loop_with_a_confirming_pass():
    moves = set()
    for name, prob, u, costs, m in _threshold_cases():
        got = ib.fixed_point_pulse(prob, u, costs, store_every=m)
        want = _oracle_fixed_point(prob, u, costs, store_every=m)
        assert got.converged and want.converged, name
        assert got.strategy.values.tobytes() == want.strategy.values.tobytes(), name
        assert got.cost == want.cost, name
        for a, b in ((got.forward, want.forward), (got.adjoint, want.adjoint)):
            assert a.values.tobytes() == b.values.tobytes(), name
            assert np.array_equal(a.node_indices, b.node_indices), name
        _assert_same_jumps(got.forward.jumps, want.forward.jumps, ("pre", "post", "applied"))
        _assert_same_jumps(got.adjoint.jumps, want.adjoint.jumps, ("p_plus", "p_minus", "applied"))
        assert len(got.certificate) == len(want.certificate), name
        for a, b in zip(got.certificate, want.certificate):
            for field in ("time", "candidate_index", "p_plus", "unit_cost", "applied", "margin"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), name
        assert ib.certificate_check(got, prob, costs) == ib.certificate_check(want, prob, costs)
        assert want.iterations - got.iterations in (0, 1), name
        moves.add((want.iterations, got.iterations))
    # both ways out occur: a first sweep that keeps the unforced set (1 -> 1)
    # and one that changes it, where only the confirming pass goes (3 -> 2)
    assert moves == {(1, 1), (3, 2)}


def test_no_sweep_repeats_the_set_of_the_sweep_before_it(monkeypatch):
    swept = []
    sweep = optimize._sweep

    def recording(prop, costs, realized_candidates=None, store_every=1):
        swept.append(realized_candidates)
        return sweep(prop, costs, realized_candidates, store_every)

    monkeypatch.setattr(optimize, "_sweep", recording)
    for name, prob, u, costs, m in _threshold_cases():
        swept.clear()
        res = ib.fixed_point_pulse(prob, u, costs, store_every=m)
        assert res.converged and len(swept) == res.iterations, name
        assert all(a != b for a, b in zip(swept, swept[1:])), name


def test_alternating_realized_sets_raise_a_cycle(monkeypatch):
    # the forward runs after the unforced one realize the odd, then the even,
    # then the odd candidates again: the third sweep's set was swept before.
    # Each run applies its strategy at the pulses it realizes.  Odd pulses cost
    # more than even ones, so each sweep's v differs on its set from what the
    # run before applied there, and every sweep is followed by a forward run
    make = optimize._propagator
    runs = []

    def alternating(problem, u):
        prop = make(problem, u)
        forward = prop.forward

        def fake(strategy, store_every=1):
            traj = forward(strategy, store_every)
            if runs:
                v = strategy.values.tolist()
                traj.jumps = [j._replace(post=v[j.candidate_index] * j.pre, applied=v[j.candidate_index])
                              for j in runs[0].jumps if j.candidate_index % 2 == len(runs) % 2]
            runs.append(traj)
            return traj

        prop.forward = fake
        return prop

    monkeypatch.setattr(optimize, "_propagator", alternating)
    prob = reference_averaged(sigma_star=0.2)
    tg = prob.time_grid
    costs = ib.CostSpec(np.where(np.arange(tg.n_candidates) % 2, 0.5, 0.4), np.zeros(tg.n_steps), 0.0)
    with pytest.raises(ib.PulseCycleError) as info:
        ib.fixed_point_pulse(prob, None, costs)
    odd = {k for k in range(tg.n_candidates) if k % 2}
    assert info.value.set_a and info.value.set_b
    assert info.value.set_a <= odd and not info.value.set_b & odd
    assert len(runs) == 4  # the unforced run and one per sweep


def test_field_fixed_point_computes_no_costate_again():
    # the unforced run, then a sweep and a forward run per iteration, one CG
    # solve per step each: the converged sweep's costate is the result's, and
    # its v repeats the run before, which ends the loop without a forward run
    _, prob, costs = _spacing_case("field fixed_point_pulse")
    res = ib.fixed_point_pulse(prob, None, costs)
    assert res.converged and res.iterations >= 2
    assert res.diagnostics["cg"]["solves"] == 2 * res.iterations * prob.time_grid.n_steps


def test_field_first_sweep_that_keeps_the_unforced_run_ends_the_loop():
    # the sweep decides v = 1 wherever the unforced run pulsed, so that run is
    # the result's (the "dear pulses" case of the oracle comparison), its
    # scalar decisions replaced by views of v's rows, as a fresh run of v has them
    _, prob, _ = _spacing_case("field fixed_point_pulse")
    res = ib.fixed_point_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 10.0))
    assert res.converged and res.iterations == 1 and res.forward.jumps
    assert res.diagnostics["cg"]["solves"] == 2 * prob.time_grid.n_steps
    for j in res.forward.jumps:
        assert j.applied.shape == prob.grid.dims and j.applied.base is res.strategy.values


@pytest.mark.parametrize("sigma_star", [0.0, 0.42])
def test_fixed_point_refuses_a_cap_below_one(sigma_star):
    # at sigma* = 0 too, where the loop is that of optimal_pulse, capped at one sweep;
    # the loop itself refuses, before it runs
    prob = reference_averaged(t_end=0.5, sigma_star=sigma_star)
    costs = ib.CostSpec.constant(prob.time_grid, 0.1)
    with pytest.raises(ib.ProblemError, match="max_iterations must be >= 1"):
        ib.fixed_point_pulse(prob, None, costs, max_iterations=0)
    with pytest.raises(ib.ProblemError, match="max_iterations must be >= 1"):
        optimize._pulse_loop(optimize._propagator(prob, None), costs, 0)


@pytest.mark.parametrize("sigma_star", [0.0, 0.42])
def test_the_loop_runs_under_the_control_its_propagator_holds(sigma_star):
    # one propagator re-aimed in place gives each control's fixed point, and the
    # result holds the very control the propagator was aimed at, None included
    prob = reference_averaged(t_end=0.5, sigma_star=sigma_star)
    costs = ib.CostSpec.constant(prob.time_grid, 0.1, continuous_unit=0.05)
    prop = optimize._propagator(prob, None)
    for u in (None, ib.ContinuousControl.constant(prob.time_grid, 0.3), None):
        res = optimize._pulse_loop(prop.aim(u), costs)
        fresh = ib.fixed_point_pulse(prob, u, costs)
        assert prop.control is u and res.control is u and fresh.control is u
        assert res.strategy.values.tobytes() == fresh.strategy.values.tobytes()
        assert res.cost == fresh.cost and res.iterations == fresh.iterations


def test_iteration_cap_returns_a_consistent_unconverged_iterate():
    prob = reference_averaged(t_end=0.5, sigma_star=0.42)
    costs = ib.CostSpec.constant(prob.time_grid, 0.1)
    assert ib.fixed_point_pulse(prob, None, costs).iterations == 2
    res = ib.fixed_point_pulse(prob, None, costs, max_iterations=1)
    assert res.iterations == 1 and not res.converged
    assert ({j.node_index for j in res.forward.jumps}
            == {j.node_index for j in res.adjoint.jumps})
    assert res.cost == ib.cost_averaged(res.forward, res.strategy, None, costs)


@pytest.mark.parametrize("model, optimizer", [
    *itertools.product(("averaged", "field"), ("optimal_pulse", "fixed_point_pulse",
                                               "capped fixed_point_pulse", "projected_gradient_mixed")),
    ("averaged", "brute_force_pulse"),
])
def test_a_result_sweeps_on_the_set_its_run_realizes(model, optimizer):
    # every result's costate jumps where its forward run pulses, converged or not, so the
    # pulse certificate has one entry per realized pulse with no set to filter it by
    capped = optimizer.startswith("capped")  # stopped at one sweep, unconverged
    star = 0.0 if optimizer == "optimal_pulse" else 0.42 if model == "averaged" else 0.02
    if model == "averaged":
        prob = reference_averaged(t_end=10 / 52 if optimizer == "brute_force_pulse" else 0.5,
                                  sigma_star=star)
    else:
        prob = reference_pde(cells=(2, 2, 1), t_end=0.3, sigma_star=star)
    costs = ib.CostSpec.constant(prob.time_grid, 0.1, continuous_unit=0.005)
    if optimizer == "optimal_pulse":
        res = ib.optimal_pulse(prob, ib.ContinuousControl.constant(prob.time_grid, 0.3), costs)
    elif optimizer == "projected_gradient_mixed":
        res = ib.projected_gradient_mixed(prob, costs)
    elif optimizer == "brute_force_pulse":
        res = ib.brute_force_pulse(prob, None, costs, max_pulses=10)
    else:
        res = ib.fixed_point_pulse(prob, None, costs, max_iterations=1 if capped else 50)
    assert res.forward.jumps and res.converged is not capped
    assert core._realized(res.adjoint) == core._realized(res.forward)
    assert ([c.candidate_index for c in res.certificate]
            == [j.candidate_index for j in res.forward.jumps])


class TestProjectedGradientMixed:
    def test_requires_chemical_efficacy(self):
        prob = reference_averaged(sigma=0.0)
        with pytest.raises(ib.ProblemError):
            ib.projected_gradient_mixed(prob, ib.CostSpec.constant(prob.time_grid, 0.5))

    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_refuses_sigma_of_one_or_more(self, sigma):
        # the projection box lets u reach 1, where 1 - sigma*u <= 0
        prob = reference_averaged(sigma=sigma)
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        with pytest.raises(ib.ProblemError, match="sigma < 1"):
            ib.projected_gradient_mixed(prob, costs)

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
        # and a run that one of the tolerances stops names that tolerance
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        for options, stop, iterations, converged in [
            ({"max_iterations": 2}, "iteration cap", 2, False),
            ({"tol_control": 1e10}, "step tolerance", 1, True),
            ({"tol_cost": 1e10}, "cost tolerance", 1, True),
        ]:
            res = ib.projected_gradient_mixed(prob, costs, **options)
            assert res.diagnostics["stop_reason"] == stop
            assert res.iterations == iterations and res.converged == converged

    @pytest.mark.parametrize("rejected, max_halvings, stop", [
        (2, 40, "iteration cap"),  # the third trial step is accepted
        (None, 3, "line search failed"),  # every trial step is rejected
    ])
    def test_line_search_halvings_are_counted(self, monkeypatch, rejected, max_halvings, stop):
        # no halving happens on the reference problems, so trial steps are
        # made to look worse by reporting a raised cost for them
        prob = reference_averaged(t_end=0.25)
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=0.005)
        real = optimize._pulse_loop
        trials = []

        def worse_trials(prop, costs):
            res = real(prop, costs)
            u = prop.control
            if u is not None and np.any(u.samples) and (rejected is None or len(trials) < rejected):
                trials.append(u)
                c = res.cost
                res.cost = ib.CostBreakdown.assemble(c.running_state, c.running_control, c.pulse, c.final + 1.0)
            return res

        monkeypatch.setattr(optimize, "_pulse_loop", worse_trials)
        res = ib.projected_gradient_mixed(prob, costs, max_halvings=max_halvings, max_iterations=1)
        assert res.diagnostics["stop_reason"] == stop
        assert res.diagnostics["line_search_halvings"] == len(trials) == (rejected or max_halvings + 1)

    @pytest.mark.parametrize("failure", ["cycle", "unconverged"])
    def test_failed_fixed_points_are_rejected_trials(self, monkeypatch, failure):
        prob = reference_averaged(t_end=0.25)
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=0.005)
        real = optimize._pulse_loop
        failed = []

        def failing_trials(prop, costs):
            res = real(prop, costs)
            if np.any(prop.control.samples) and len(failed) < 2:
                failed.append(prop.control)
                if failure == "cycle":
                    raise ib.PulseCycleError({0}, {1})
                res.converged = False
            return res

        monkeypatch.setattr(optimize, "_pulse_loop", failing_trials)
        res = ib.projected_gradient_mixed(prob, costs, max_iterations=1)
        diag = res.diagnostics
        assert diag["line_search_halvings"] == diag["fixed_point_rejections"] == len(failed) == 2
        # the third trial, a quarter of the first step, is accepted
        assert diag["stop_reason"] == "iteration cap"
        u0 = ib.ContinuousControl.constant(prob.time_grid, 0.0)
        start = real(optimize._propagator(prob, u0), costs)
        ubar0 = ib.gradient_continuous(prob, start.forward, start.adjoint, u0, costs).continuous_gradient
        assert np.array_equal(res.control.samples, np.clip(-0.25 * ubar0, 0.0, 1.0))

    def test_thresholded_run_ends_on_the_fixed_point_of_its_control(self):
        # 10 candidates, all but one gated off by sigma* at the final u.  The
        # fixed point is not guaranteed optimal: at the same u the vertex
        # enumeration finds a lower cost, and the gap is pinned, not assumed 0
        prob = reference_averaged(t_end=10.5 / 52, sigma_star=0.4)
        costs = ib.CostSpec.constant(prob.time_grid, 0.2, continuous_unit=0.005, final=1.0)
        res = ib.projected_gradient_mixed(prob, costs)
        hist = res.diagnostics["cost_history"]
        assert res.diagnostics["stop_reason"] == "stationary"
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert 0 < len(res.forward.jumps) < prob.time_grid.n_candidates == 10
        assert res.control.samples.max() > 0.0 and 0.0 in res.strategy.values
        fp = ib.fixed_point_pulse(prob, res.control, costs)
        assert res.strategy.values.tobytes() == fp.strategy.values.tobytes()
        assert res.cost == fp.cost
        gap = res.cost.total - ib.brute_force_pulse(prob, res.control, costs).cost.total
        assert gap == pytest.approx(0.029878168522692622, rel=1e-9)

    def test_first_step_is_gamma0(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        res = ib.projected_gradient_mixed(prob, costs, gamma0=0.75, max_iterations=1)
        u0 = ib.ContinuousControl.constant(prob.time_grid, 0.0)
        start = ib.optimal_pulse(prob, u0, costs)
        ubar0 = ib.gradient_continuous(prob, start.forward, start.adjoint, u0, costs).continuous_gradient
        assert res.diagnostics["line_search_halvings"] == 0
        assert np.array_equal(res.control.samples, np.clip(u0.samples - 0.75 * ubar0, 0.0, 1.0))

    def test_second_step_is_the_spectral_step_of_the_first_two_iterates(self):
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        res = ib.projected_gradient_mixed(prob, costs, max_iterations=2)
        assert res.diagnostics["line_search_halvings"] == 0
        u, ubar = [ib.ContinuousControl.constant(prob.time_grid, 0.0)], []
        for k in range(2):
            it = ib.fixed_point_pulse(prob, u[k], costs)
            ubar.append(ib.gradient_continuous(prob, it.forward, it.adjoint, u[k], costs)
                        .continuous_gradient)
            gamma = 1.0
            if k:  # the quotient of the dt-weighted inner products of the control norm
                s, y = u[1].samples - u[0].samples, ubar[1] - ubar[0]
                dt = prob.time_grid.dt
                gamma = optimize._spectral_step(core._control_inner(s, s, 1.0, dt),
                                                core._control_inner(s, y, 1.0, dt))
            u.append(ib.ContinuousControl(np.clip(u[k].samples - gamma * ubar[k], 0.0, 1.0)))
        assert res.control.samples.tobytes() == u[2].samples.tobytes()

    @pytest.mark.parametrize("model", ["averaged", "field"])
    def test_switching_function_is_computed_once_per_accepted_control(self, monkeypatch, model):
        if model == "averaged":
            prob = reference_averaged()
        else:
            prob = reference_pde(cells=(2, 2, 1), t_end=0.25)
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        real, real_ubar = core.Propagator.chemical_rate, adjoint_mod._ubar
        calls, ubars = [], []

        def counted(self, forward, factor):
            calls.append(factor.shape)
            return real(self, forward, factor)

        def counted_ubar(*args):
            ubars.append(args[0].shape)
            return real_ubar(*args)

        monkeypatch.setattr(core.Propagator, "chemical_rate", counted)
        for module in (adjoint_mod, optimize):  # the helper's name and the check's
            monkeypatch.setattr(module, "_ubar", counted_ubar)
        res = ib.projected_gradient_mixed(prob, costs)
        accepted = len(res.diagnostics["cost_history"]) - 1
        assert accepted >= 2 and res.diagnostics["stop_reason"] == "stationary"
        # S and ubar once each for the start control and every accepted trial: the
        # saturating step, every trial and the spectral step read the stored ubar
        assert len(calls) == len(ubars) == accepted + 1
        del calls[:], ubars[:]
        assert ib.certificate_check(res, prob, costs) == []
        assert calls == []  # the check reads the certificate's switching function
        assert len(ubars) == 1  # and forms its ubar once

    def test_a_field_run_builds_one_stencil(self, monkeypatch):
        built = []

        class Counted(pde_mod._Stencil):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(pde_mod, "_Stencil", Counted)
        prob = reference_pde(cells=(2, 2, 1), t_end=0.25)
        res = ib.projected_gradient_mixed(prob, ib.CostSpec.constant(prob.time_grid, 0.5,
                                                                     continuous_unit=0.005))
        assert res.diagnostics["fixed_points"] >= 3 and len(built) == 1

    def test_an_averaged_run_samples_alpha_once(self):
        bundle = iomod.resolve_bundle({"cost": {"continuous_unit": 0.005}})
        calls = []

        def alpha(t):
            calls.append(t)
            return bundle.problem.alpha(t)

        prob = dataclasses.replace(bundle.problem, alpha=alpha)
        res = ib.projected_gradient_mixed(prob, bundle.costs)
        assert res.diagnostics["fixed_points"] >= 3 and len(calls) == 1

    def test_field_run_holds_a_bounded_number_of_histories(self):
        prob = reference_pde(cells=(6, 6, 2), t_end=1.0)
        costs = ib.CostSpec.constant(prob.time_grid, 0.55, continuous_unit=0.005)
        history_bytes = len(prob.time_grid.times) * prob.grid.npoints * 8
        tracemalloc.start()
        try:
            res = ib.projected_gradient_mixed(prob, costs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations == 3 and res.diagnostics["stop_reason"] == "stationary"
        assert peak <= 10.5 * history_bytes
        assert held <= 5.0 * history_bytes

    def test_division_guard_runs_on_the_last_accepted_control(self):
        # a step to u = 1 at sigma = 1 - 1e-10 is accepted and stops the run at
        # once; its ubar divides by (1 - sigma*u)^2 < 1e-18
        prob = reference_averaged(sigma=1.0 - 1e-10)
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        with pytest.raises(ib.ProblemError, match="division guard"):
            ib.projected_gradient_mixed(prob, costs, gamma0=1e10, tol_cost=1e10)

    @staticmethod
    def _uneven_step_case():
        # candidates at 0.013 and 0.05 split [0, 0.1] into steps of 0.0065, 0.00925 and 0.01;
        # returns the grid, s and y, and the inner product of the mixed optimizer's control norm
        tg = ib.TimeGrid(0.1, 0.01, (0.013, 0.05))
        problem = ib.AveragedProblem(tg, reference_alpha(), ib.ChemicalParams(0.3), 0.4)
        prop = optimize._propagator(problem, None)
        s = np.linspace(-1.0, 1.0, tg.n_steps) ** 3
        y = np.arange(tg.n_steps, dtype=float) * s
        return tg, s, y, lambda a, b: core._control_inner(a, b, prop.space_weight, tg.dt)

    @pytest.mark.parametrize("sign", [-1.0, 0.0])
    def test_spectral_step_without_curvature_is_gamma_max(self, sign):
        _, s, y, inner = self._uneven_step_case()
        assert optimize._spectral_step(inner(s, s), inner(s, sign * y)) == optimize.GAMMA_MAX

    def test_spectral_step_is_the_dt_weighted_quotient(self):
        tg, s, y, inner = self._uneven_step_case()
        assert tg.dt.min() < 0.007 and tg.dt.max() > 0.0099
        weighted = np.sum(s * s * tg.dt) / np.sum(s * y * tg.dt)
        assert abs(weighted / (np.sum(s * s) / np.sum(s * y)) - 1.0) > 1e-3  # the weights matter
        ss = inner(s, s)
        assert optimize._spectral_step(ss, inner(s, y)) == pytest.approx(weighted, rel=1e-12)
        assert optimize._spectral_step(ss, inner(s, 1e12 * y)) == optimize.GAMMA_MIN
        assert optimize._spectral_step(ss, inner(s, 1e-12 * y)) == optimize.GAMMA_MAX

    @pytest.mark.parametrize("block", [core.BLOCK_VALUES, 7])
    def test_saturating_step_is_the_last_breakpoint(self, monkeypatch, block):
        # past 2*gamma_sat every sample with ubar != 0 sits on its bound, so the
        # clipped control is the one GAMMA_MAX gives; just below gamma_sat one
        # sample has not reached its bound yet.  Blocks of rows give the same value
        monkeypatch.setattr(core, "BLOCK_VALUES", block)
        rng = np.random.default_rng(5)
        u = rng.uniform(0.0, 1.0, (40, 3, 2))
        ubar = rng.normal(size=u.shape)
        u[:5], ubar[:5] = 0.0, np.abs(ubar[:5])  # pushed against their bounds
        u[5:10], ubar[5:10] = 1.0, -np.abs(ubar[5:10])
        ubar[::7] = 0.0
        sat = optimize._saturating_step(u, ubar)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.max(np.where(ubar > 0, u / ubar, np.where(ubar < 0, (u - 1.0) / ubar, 0.0)))
        assert sat == want > 0.0
        far = np.clip(u - optimize.GAMMA_MAX * ubar, 0.0, 1.0)
        assert np.array_equal(np.clip(u - 2.0 * sat * ubar, 0.0, 1.0), far)
        assert not np.array_equal(np.clip(u - 0.99 * sat * ubar, 0.0, 1.0), far)
        assert optimize._saturating_step(u[:10], ubar[:10]) == 0.0  # no sample can move

    @pytest.mark.parametrize("sigma_star, cost_before, max_fixed_points, max_runs", [
        (0.4166, 0.08484024929258857, 147, 588),
        (0.41, 0.0843075941714144, 186, 744),
    ])
    def test_no_line_search_evaluates_one_control_twice(self, monkeypatch, sigma_star, cost_before,
                                                        max_fixed_points, max_runs):
        # a search that started at GAMMA_MAX tried one saturated control about
        # 20 times running, each a fixed point: 253 and 324 of them, 1265 and
        # 1620 runs, and a stop at "line search failed" with the J given here;
        # skipping only a repeat of the trial before left 153 and 197
        cfg = {"model": {"t_end": 0.25, "sigma_star": sigma_star, "theta0": 0.3769},
               "cost": {"pulse_unit": 0.0613, "continuous_unit": 0.002, "final": 0.3118}}
        bundle = iomod.resolve_bundle(cfg)
        with monkeypatch.context() as m:  # no digest matches: every trial runs its fixed point
            m.setattr(hashlib, "sha256", lambda a: SimpleNamespace(digest=object))
            unrecorded = ib.projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
        real_fixed_point, real_saturating = optimize._pulse_loop, optimize._saturating_step
        real_forward, real_backward = core.Propagator.forward, core.Propagator.backward
        searches, runs = [], []

        def recording(prop, costs):
            if searches:  # not the fixed point at u0
                searches[-1].append(prop.control.samples.tobytes())
            return real_fixed_point(prop, costs)

        def search_starts(u, ubar):
            searches.append([])
            return real_saturating(u, ubar)

        def counted(real):
            def run(*args, **kwargs):
                runs.append(real)
                return real(*args, **kwargs)
            return run

        monkeypatch.setattr(optimize, "_pulse_loop", recording)
        monkeypatch.setattr(optimize, "_saturating_step", search_starts)
        monkeypatch.setattr(core.Propagator, "forward", counted(real_forward))
        monkeypatch.setattr(core.Propagator, "backward", counted(real_backward))
        res = ib.projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
        diag = res.diagnostics
        trials = [trial for search in searches for trial in search]
        assert len(searches) == res.iterations
        assert len(set(trials)) == len(trials)  # no control twice, within a search or across
        assert diag["fixed_points"] == 1 + len(trials) <= max_fixed_points
        assert len(runs) <= max_runs
        assert diag["stop_reason"] == "step tolerance"
        assert (res.cost.total - cost_before) / cost_before <= 1e-6
        # the skipped trials are exactly those a fixed point would reject
        assert unrecorded.diagnostics["fixed_points"] > diag["fixed_points"]
        for key in ("cost_history", "line_search_halvings", "stop_reason"):
            assert unrecorded.diagnostics[key] == diag[key]
        assert unrecorded.control.samples.tobytes() == res.control.samples.tobytes()
        assert unrecorded.strategy.values.tobytes() == res.strategy.values.tobytes()

    def test_cheap_control_converges(self):
        # the capped reset-every-iteration step ended at J = 0.28877322 with max u = 0.384
        prob = reference_averaged()
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        res = ib.projected_gradient_mixed(prob, costs)
        assert res.converged and res.iterations <= 20
        assert res.control.samples.max() > 0.0
        assert res.cost.total < 0.28877322
        assert ib.certificate_check(res, prob, costs) == []

    def test_cheap_control_converges_on_a_field(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.5)
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        res = ib.projected_gradient_mixed(prob, costs, max_iterations=60)
        hist = res.diagnostics["cost_history"]
        assert res.converged
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert res.control.samples.max() > 0.0

    def test_space_dependent_problem(self):
        prob = reference_pde(cells=(2, 2, 1), t_end=0.2)
        costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=0.05)
        res = ib.projected_gradient_mixed(prob, costs)
        assert res.converged
        assert res.control.samples.shape == (prob.time_grid.n_steps, *prob.grid.dims)
        assert res.continuous_certificate.agreement_fraction() >= 0.99

    @staticmethod
    def _recording(monkeypatch, cycle_first_trial=False):
        """Wrap the fixed-point loop; record each call's (J, realized set, CG counters).
        With ``cycle_first_trial`` the first trial raises PulseCycleError after its work."""
        real = optimize._pulse_loop
        calls = []

        def recorded(prop, costs):
            res = real(prop, costs)
            calls.append((res.cost.total, [j.candidate_index for j in res.forward.jumps],
                          res.diagnostics.get("cg")))
            if cycle_first_trial and len(calls) == 2:
                raise ib.PulseCycleError({0}, {1})
            return res

        monkeypatch.setattr(optimize, "_pulse_loop", recorded)
        return calls

    @staticmethod
    def _set_changes(calls, history):
        """Accepted iterates are the calls whose J is the next entry of the cost history."""
        accepted, rest = [calls[0][1]], iter(calls[1:])
        for j in history[1:]:
            accepted.append(next(c[1] for c in rest if c[0] == j))
        return sum(a != b for a, b in zip(accepted, accepted[1:]))

    @pytest.mark.parametrize("case, changes", [
        ("threshold-config", 0),  # sigma* = 0.3, C = 0.005: one pulse throughout
        ("short-horizon", 1),  # a seeded 7-candidate horizon that loses a pulse
    ])
    def test_realized_set_changes_are_counted(self, monkeypatch, case, changes):
        if case == "threshold-config":
            bundle = iomod.resolve_bundle({"model": {"sigma_star": 0.3},
                                           "cost": {"continuous_unit": 0.005}})
            prob, costs = bundle.problem, bundle.costs
        else:
            prob = reference_averaged(t_end=7.5 / 52, sigma_star=0.4225, theta0=0.3961)
            costs = ib.CostSpec.constant(prob.time_grid, 0.3836, continuous_unit=0.005,
                                         final=0.6744)
        calls = self._recording(monkeypatch)
        res = ib.projected_gradient_mixed(prob, costs)
        diag = res.diagnostics
        assert diag["stop_reason"] == "stationary" and res.iterations > 2
        assert diag["realized_set_changes"] == changes
        assert self._set_changes(calls, diag["cost_history"]) == changes
        assert "cg" not in diag

    @pytest.mark.parametrize("cycle", [False, True])
    def test_field_run_sums_the_cg_counters_of_every_fixed_point(self, monkeypatch, cycle):
        prob = reference_pde(cells=(3, 3, 2), t_end=0.25)
        costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
        calls = self._recording(monkeypatch, cycle_first_trial=cycle)
        res = ib.projected_gradient_mixed(prob, costs)
        cg = res.diagnostics["cg"]
        counts = [c[2] for c in calls]
        assert len(counts) >= 3 and res.diagnostics["fixed_point_rejections"] == int(cycle)
        # every fixed point runs on the one propagator, so its counters run on
        # through all of them, the cycle's too: the last call's are the run's
        assert cg == counts[-1]
        # sigma* = 0: each fixed point is one sweep and one forward run
        n = 2 * prob.time_grid.n_steps
        assert [c["solves"] for c in counts] == [n * (k + 1) for k in range(len(counts))]
        assert cg["solves"] == n * len(counts)


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
                                 costs.pulse_unit[j.candidate_index], j.applied)
             for j in adjoint.jumps],
            forward, adjoint,
        )
        assert len(ib.certificate_check(bad, prob, costs)) >= 1

    @pytest.mark.parametrize("block", [core.BLOCK_VALUES, 40])
    @pytest.mark.parametrize("model", ["averaged", "field"])
    def test_violation_messages_are_pinned(self, model, block, monkeypatch):
        # a block of 40 values judges two field pulses (18 points each) per pass
        monkeypatch.setattr(core, "BLOCK_VALUES", block)
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

    def test_the_chemical_check_forms_no_history_sized_ubar(self, rng):
        # the field-large certificate at 20 x 20 x 6 cells: 1,040 steps of 21 x 21 x 7 points
        tg = ib.TimeGrid.regular(1.0, 1e-3, 1.0 / 52)
        shape = (tg.n_steps, 21, 21, 7)
        assert shape[0] == 1040
        costs = ib.CostSpec.constant(tg, 0.4, continuous_unit=0.005)
        switching = rng.uniform(0.0, 0.01, shape)
        u = ib.ContinuousControl(np.clip(rng.uniform(-1.0, 2.0, shape), 0.0, 1.0))
        cert = ib.ContinuousCertificate(tg.mid_times, np.broadcast_to(0.005, shape), switching, 0.3,
                                        u.samples)
        res = ib.StrategyResult(ib.PulseStrategy(np.ones(tg.n_candidates)), u,
                                ib.CostBreakdown.assemble(0.0, 0.0, 0.0, 0.0), [],
                                SimpleNamespace(jumps=[]), None, continuous_certificate=cert)
        ubar = 0.005 - switching / (1.0 - 0.3 * u.samples) ** 2  # the whole-history formula
        bad = np.count_nonzero(((u.samples <= 1e-12) & (ubar < -1e-8))
                               | ((u.samples >= 1 - 1e-12) & (ubar > 1e-8)))
        del ubar
        assert bad > 0
        tracemalloc.start()
        try:
            messages = ib.certificate_check(res, None, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert messages == [f"chemical control: {bad} boundary sample(s) with ascent direction"]
        assert peak < switching.nbytes / 2

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
                [ib.PulseCertificate(j.time, j.candidate_index, j.p_plus, 0.5, j.applied)
                 for j in adjoint.jumps],
                forward, adjoint,
            )
            assert ib.certificate_check(res, prob, costs) == []
