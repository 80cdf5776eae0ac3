"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Time budgets are asserted with wall-clock measurements.
"""

import filecmp
import time

import numpy as np
import pytest

import inhibopt as ib
from inhibopt.cli import run_cli
from conftest import WEEK, rel_err, reference_averaged, reference_pde
from test_pde import random_diffusion


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


def test_criterion_01_invariance_suite():
    """100 random validated bundles keep all states in [-1e-6, 1+1e-6]."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = (0.0, 1.0)
    for trial in range(100):
        t_end = float(rng.uniform(0.25, 0.45))
        tg = ib.TimeGrid.regular(t_end, 1e-3, WEEK)
        sigma = float(rng.uniform(0.0, 0.9))
        sigma_star = float(rng.choice([0.0, rng.uniform(0.0, 0.6)]))
        u = ib.ContinuousControl.constant(tg, float(rng.uniform(0.0, 0.9)))

        # averaged bundle
        alpha = ib.seasonal_profile(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, 1)),
                                    float(rng.uniform(0.05, 1.0)))
        prob_a = ib.AveragedProblem(tg, alpha, ib.ChemicalParams(sigma, sigma_star),
                                    float(rng.uniform(0, 1)))
        v_a = ib.PulseStrategy(rng.random(tg.n_candidates))
        assert ib.validate(prob_a, u, v_a).ok
        traj_a = ib.simulate_averaged(prob_a, u, v_a)
        worst = (min(worst[0], traj_a.values.min()), max(worst[1], traj_a.values.max()))

        # pde bundle, grid up to 10 x 10 x 3 cells
        cells = (int(rng.integers(1, 11)), int(rng.integers(1, 11)), int(rng.integers(1, 4)))
        grid = ib.SpaceGrid.from_cells(*cells, spacing=float(rng.uniform(0.5, 2.0)))
        prob_p = ib.PdeProblem(
            tg, grid,
            ib.InhibitionPressure(
                ib.build_random_amplitude(grid, float(rng.uniform(0.2, 2.0)),
                                          seed=int(rng.integers(1 << 31))),
                float(rng.uniform(0, 1)), float(rng.uniform(0.05, 1.0))),
            ib.DiffusionField.isotropic(grid, float(rng.uniform(0.0, 10.0))),
            ib.ChemicalParams(sigma, sigma_star),
            ib.ScalarField(grid, rng.random(grid.dims)),
        )
        v_p = ib.PulseStrategy(rng.random((tg.n_candidates, *grid.dims)))
        assert ib.validate(prob_p, u, v_p).ok
        traj_p = ib.simulate_pde(prob_p, u, v_p, store_every=50)
        worst = (min(worst[0], traj_p.fields.min()), max(worst[1], traj_p.fields.max()))

    elapsed = time.monotonic() - t0
    assert worst[0] >= -1e-6, f"state fell to {worst[0]}"
    assert worst[1] <= 1 + 1e-6, f"state rose to {worst[1]}"
    assert elapsed < 120.0, f"invariance suite took {elapsed:.1f}s"
    _report(1, f"states within [{worst[0]:.2e}, 1+{worst[1] - 1:.2e}] over 200 runs "
               f"({elapsed:.1f}s < 120s)")


def test_criterion_02_closed_form_oracle():
    """Constant-coefficient runs match the analytic solution; order-2 PDE convergence."""
    # averaged solver vs closed form at every node, 1e-8 relative
    tg = ib.TimeGrid(1.0, 1e-3, ())
    sigma, uval, a = 0.5, 0.4, 1.3
    prob = ib.AveragedProblem(tg, lambda t: np.full_like(np.asarray(t, float), a),
                              ib.ChemicalParams(sigma, 0.0), 0.45)
    u = ib.ContinuousControl.constant(tg, uval)
    traj = ib.simulate_averaged(prob, u)
    attr = 1.0 - sigma * uval
    exact = attr + (0.45 - attr) * np.exp(-(a / attr) * tg.times)
    err_avg = float(np.max(np.abs(traj.values - exact) / np.abs(exact)))
    assert err_avg < 1e-8, f"averaged closed-form error {err_avg:.2e}"

    # PDE on a 1x1x1-cell grid: same closed form, error ratio ~ 4 under halving
    grid = ib.SpaceGrid.from_cells(1, 1, 1)

    def terminal_error(h):
        prob_p = ib.PdeProblem(
            ib.TimeGrid(1.0, h, ()), grid, ib.ConstantPressure.uniform(grid, a),
            ib.DiffusionField.isotropic(grid, 0.0), ib.ChemicalParams(sigma, 0.0),
            ib.ScalarField.uniform(grid, 0.45),
        )
        u_p = ib.ContinuousControl.constant(prob_p.time_grid, uval)
        out = ib.simulate_pde(prob_p, u_p, store_every=10 ** 9)
        return abs(float(out.fields[-1][0, 0, 0]) - exact[-1])

    e1, e2 = terminal_error(1e-2), terminal_error(5e-3)
    ratio = e1 / e2
    assert 3.5 <= ratio <= 4.5, f"convergence ratio {ratio:.2f} outside [3.5, 4.5]"
    _report(2, f"averaged error {err_avg:.2e} <= 1e-8; PDE halving ratio {ratio:.2f}")


def test_criterion_03_conservation():
    """Discrete divergence sums to <= 1e-12 relative on 100 random fields."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        cells = tuple(int(n) for n in rng.integers(1, 8, size=3))
        grid = ib.SpaceGrid.from_cells(*cells, spacing=float(rng.uniform(0.25, 2.0)))
        A = random_diffusion(grid, rng, scale=float(rng.uniform(0.1, 10.0)))
        phi = ib.ScalarField(grid, rng.random(grid.dims))
        total = abs(ib.apply_divergence(A, phi).values.sum())
        scale = grid.npoints * max(A.max_abs(), 1e-300) * np.abs(phi.values).max()
        worst = max(worst, total / scale)
    assert worst <= 1e-12, f"relative conservation defect {worst:.2e}"

    grid = ib.SpaceGrid.from_cells(5, 4, 3)
    out = ib.apply_divergence(random_diffusion(grid, rng), ib.ScalarField.uniform(grid, 0.37))
    assert np.all(out.values == 0.0)
    _report(3, f"worst relative divergence sum {worst:.2e}; uniform stencil exactly 0")


def test_criterion_04_uniformity_reduction():
    """Uniform data: PDE tracks the averaged model; diffusion does not matter."""
    t0 = time.monotonic()
    prob_p = reference_pde(cells=(10, 10, 3), h=1e-3, diffusion=1.0)
    traj_p = ib.simulate_pde(prob_p)
    traj_a = ib.simulate_averaged(prob_p.averaged())
    dev = float(np.max(np.abs(traj_p.fields - traj_a.values[:, None, None, None])))
    assert dev < 1e-8, f"uniform-field deviation {dev:.2e}"

    pulse_sets = {}
    for diff in (1.0, 10.0):
        prob = reference_pde(cells=(10, 10, 3), h=1e-3, diffusion=diff)
        res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.55))
        pulse_sets[diff] = res.strategy.values.tobytes()
    assert pulse_sets[1.0] == pulse_sets[10.0]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"uniformity check took {elapsed:.1f}s"
    _report(4, f"field-vs-averaged deviation {dev:.2e} < 1e-8; "
               f"pulse sets identical for A=I and A=10I ({elapsed:.1f}s < 60s)")


def test_criterion_05_gradient_fidelity():
    """Adjoint gradients vs central differences (1e-4) and sensitivities (1e-6)."""
    rng = np.random.default_rng(505)
    eps = 1e-5
    prob = reference_averaged(h=5e-4)
    tg = prob.time_grid
    costs = ib.CostSpec(np.full(tg.n_candidates, 0.4), np.full(tg.n_steps, 0.3),
                        np.asarray(0.25))

    def j_of(u, v):
        traj = ib.simulate_averaged(prob, u, v)
        return ib.cost_averaged(traj, v, u, costs).total

    worst_fd, worst_dual = 0.0, 0.0
    for _ in range(20):
        v = ib.PulseStrategy(0.1 + 0.8 * rng.random(tg.n_candidates))
        u = ib.ContinuousControl(0.1 + 0.8 * rng.random(tg.n_steps))
        forward = ib.simulate_averaged(prob, u, v)
        adjoint = ib.solve_adjoint_averaged(prob, u, v, costs, forward)

        d_v = rng.random(tg.n_candidates) - 0.5
        g_v = ib.gradient_pulse(forward, adjoint, costs, direction=d_v).directional_value
        fd_v = (j_of(u, ib.PulseStrategy(v.values + eps * d_v))
                - j_of(u, ib.PulseStrategy(v.values - eps * d_v))) / (2 * eps)
        worst_fd = max(worst_fd, rel_err(g_v, fd_v))
        z_v = ib.sensitivity_pulse_averaged(prob, u, v, d_v, forward=forward)
        worst_dual = max(worst_dual,
                         rel_err(ib.variational_pulse_value(forward, z_v, v, d_v, costs), g_v))

        d_u = rng.random(tg.n_steps) - 0.5
        g_u = ib.gradient_continuous(prob, forward, adjoint, u, costs,
                                     direction=d_u).directional_value
        fd_u = (j_of(ib.ContinuousControl(np.clip(u.samples + eps * d_u, 0, 1)), v)
                - j_of(ib.ContinuousControl(np.clip(u.samples - eps * d_u, 0, 1)), v)) / (2 * eps)
        worst_fd = max(worst_fd, rel_err(g_u, fd_u))
        z_u = ib.sensitivity_continuous(prob, u, d_u, forward)
        worst_dual = max(
            worst_dual, rel_err(ib.variational_continuous_value(z_u, v, d_u, costs), g_u))

    assert worst_fd < 1e-4, f"adjoint vs finite differences {worst_fd:.2e}"
    assert worst_dual < 1e-6, f"adjoint vs forward sensitivity {worst_dual:.2e}"
    _report(5, f"20 controls: max FD error {worst_fd:.2e} < 1e-4, "
               f"max duality defect {worst_dual:.2e} < 1e-6")


def test_criterion_06_optimality_oracle():
    """Backward sweep attains the exact vertex minimum and beats interior samples."""
    t0 = time.monotonic()
    gaps = []
    for c, cf, t_end in ((0.05, 0.3, 10 / 52), (0.1, 0.0, 10 / 52), (0.03, 0.2, 8 / 52)):
        prob = reference_averaged(t_end=t_end)
        assert prob.time_grid.n_candidates <= 10
        costs = ib.CostSpec.constant(prob.time_grid, c, final=cf)
        sweep = ib.optimal_pulse(prob, None, costs)
        oracle = ib.brute_force_pulse(prob, None, costs, max_pulses=10,
                                      interior_samples=200, seed=66)
        gap = abs(sweep.cost.total - oracle.cost.total)
        assert gap <= 1e-10, f"sweep-vs-enumeration gap {gap:.2e}"
        assert set(np.unique(sweep.strategy.values)) <= {0.0, 1.0}
        assert oracle.diagnostics["interior_best"] >= oracle.diagnostics["enumeration_best"] - 1e-12
        gaps.append(gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, f"3 instances: max gap {max(gaps):.1e} <= 1e-10, interior samples never win "
               f"({elapsed:.1f}s)")


def test_criterion_07_pulse_cost_sweeps():
    """Intervention sets strictly decrease and nest in c; chemical control never adds pulses."""
    pulse_only = {}
    for c in (0.25, 0.4, 0.5):
        prob = reference_averaged()
        res = ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, c))
        pulse_only[c] = frozenset(int(i) for i in np.where(res.strategy.values == 0.0)[0])
    counts = [len(pulse_only[c]) for c in (0.25, 0.4, 0.5)]
    assert counts[0] > counts[1] > counts[2], f"counts not strictly decreasing: {counts}"
    assert pulse_only[0.5] <= pulse_only[0.4] <= pulse_only[0.25], "sets not nested"

    mixed_counts = []
    for c in (0.25, 0.4, 0.5):
        prob = reference_averaged()
        u1 = ib.ContinuousControl.constant(prob.time_grid, 1.0)
        res = ib.optimal_pulse(prob, u1, ib.CostSpec.constant(prob.time_grid, c))
        n = int(np.sum(res.strategy.values == 0.0))
        assert n <= len(pulse_only[c])
        mixed_counts.append(n)
    _report(7, f"pulse-only counts {counts} strictly decreasing and nested; "
               f"u=1 counts {mixed_counts} pointwise <=")


def test_criterion_08_final_cost_saturation():
    """C_f beyond c has no further influence; C_f sweep gives nested sets."""
    strategies = {}
    for cf in (0.0, 0.25, 0.5, 0.6, 10.0):
        prob = reference_averaged()
        res = ib.optimal_pulse(prob, None,
                               ib.CostSpec.constant(prob.time_grid, 0.5, final=cf))
        strategies[cf] = frozenset(int(i) for i in np.where(res.strategy.values == 0.0)[0])
    assert strategies[0.6] == strategies[10.0], "strategies differ for C_f in {0.6, 10}"
    assert strategies[0.0] <= strategies[0.25] <= strategies[0.5], "C_f sets not nested"
    _report(8, f"C_f=0.6 and C_f=10 identical ({len(strategies[0.6])} interventions); "
               f"C_f sweep nested {[len(strategies[c]) for c in (0.0, 0.25, 0.5)]}")


def test_criterion_09_mixed_descent():
    """Projected gradient: monotone J, terminates within 200 iterations, certificate >= 99%."""
    prob = reference_averaged()
    costs = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.1)
    res = ib.projected_gradient_mixed(prob, costs)
    hist = res.diagnostics["cost_history"]
    assert all(b < a for a, b in zip(hist, hist[1:])), "cost sequence not strictly decreasing"
    assert res.converged and res.iterations <= 200
    agreement = res.continuous_certificate.agreement_fraction(margin_floor=1e-6)
    assert agreement >= 0.99, f"certificate agreement {agreement:.4f}"

    # a cheaper chemical control must keep the descent monotone as well
    costs_low = ib.CostSpec.constant(prob.time_grid, 0.5, continuous_unit=0.005)
    res_low = ib.projected_gradient_mixed(prob, costs_low)
    hist_low = res_low.diagnostics["cost_history"]
    assert all(b < a for a, b in zip(hist_low, hist_low[1:]))
    assert res_low.converged and res_low.iterations <= 200
    agreement_low = res_low.continuous_certificate.agreement_fraction(margin_floor=1e-6)
    assert agreement_low >= 0.99, f"certificate agreement {agreement_low:.4f}"
    _report(9, f"monotone descent, {res.iterations} and {res_low.iterations} iterations, "
               f"certificate agreement {agreement:.3f} / {agreement_low:.3f} >= 0.99")


def test_criterion_10_reproducibility(tmp_path):
    """Identical preset runs with fixed seeds are byte-identical."""
    differences = []
    for preset in ("fig2", "fig7"):
        a, b = tmp_path / f"{preset}-a", tmp_path / f"{preset}-b"
        assert run_cli(["preset", preset, "--out", str(a)]) == 0
        assert run_cli(["preset", preset, "--out", str(b)]) == 0
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files, "preset produced no files"
        for rel in files:
            if not filecmp.cmp(a / rel, b / rel, shallow=False):
                differences.append(f"{preset}/{rel}")
    assert not differences, f"outputs differ: {differences}"
    _report(10, "fig2 and fig7 reruns byte-identical across all output files")
