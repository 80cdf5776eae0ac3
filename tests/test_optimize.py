import dataclasses

import numpy as np
import pytest

import inhibopt as ib
from conftest import reference_alpha, reference_averaged, reference_pde


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
