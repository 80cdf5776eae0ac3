"""Per-point CSV writers against plain reference loops.

Each reference below is the straightforward ``np.ndenumerate`` + ``repr``
loop the writers must reproduce byte for byte; the writers themselves format
a block of rows per call and must never hold a history-sized copy.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import inhibopt as ib
from conftest import reference_averaged, reference_pde
from inhibopt import core
from inhibopt import io as iomod
from inhibopt.averaged import AveragedPropagator
from inhibopt.core import Trajectory

# signed zero, exponent switch points of repr, and the smallest subnormal
SPECIAL = [-0.0, 1e-05, 1e16, 9999999999999998.0, 5e-324]
# what a scalar-row writer may meet besides (a field file rejects these)
NONFINITE = [math.nan, math.inf, -math.inf]
# values a formatter keyed by float value would merge or miss: signed zeros,
# NaNs with other payloads and signs, and repr's switch points
TRAP = [0.0, -0.0, *np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                              -0x0008000000000000], dtype=np.int64).view(float).tolist(),
        math.inf, -math.inf, 5e-324, -5e-324, 1e-05, 0.0001, 9999999999999998.0, 1e16]


def _fmt(x) -> str:
    return repr(float(x))


def _ref_rows(fh, prefix, values):
    if np.ndim(values) == 0:
        fh.write(f"{prefix},{_fmt(values)}\n")
        return
    for (i, j, k), val in np.ndenumerate(values):
        fh.write(f"{prefix},{i},{j},{k},{_fmt(val)}\n")


def ref_field_snapshots(path, traj):
    with open(path, "w", newline="") as fh:
        fh.write("t,i,j,k,theta\n")
        for t, field in zip(traj.times, traj.fields):
            _ref_rows(fh, _fmt(t), field)


def ref_adjoint(path, adj):
    with open(path, "w", newline="") as fh:
        fh.write("t,p\n" if adj.values.ndim == 1 else "t,i,j,k,p\n")
        for t, p in zip(adj.times, adj.values):
            _ref_rows(fh, _fmt(t), p)


def ref_strategy(path, time_grid, strategy):
    with open(path, "w", newline="") as fh:
        fh.write("tau_i,v_i\n" if strategy.values.ndim == 1 else "tau_i,i,j,k,v\n")
        for tau, v in zip(time_grid.candidate_pulse_times, strategy.values):
            _ref_rows(fh, _fmt(tau), v)


def ref_certificate(path, strategy, certificate):
    shape = strategy.values.shape[1:]
    with open(path, "w", newline="") as fh:
        fh.write("tau_i,p_plus,c_i,v_i,margin\n" if shape == () else "tau_i,i,j,k,p_plus,c_i,v_i,margin\n")
        for c in certificate:
            cols = [np.broadcast_to(a, shape) for a in (c.p_plus, c.unit_cost, c.applied, c.margin)]
            if shape == ():
                fh.write(f"{_fmt(c.time)}," + ",".join(_fmt(a) for a in cols) + "\n")
                continue
            for (i, j, k), p in np.ndenumerate(cols[0]):
                values = [p] + [a[i, j, k] for a in cols[1:]]
                fh.write(f"{_fmt(c.time)},{i},{j},{k}," + ",".join(_fmt(a) for a in values) + "\n")


def ref_pde_summary(path, traj):
    jumps = {j.node_index for j in traj.jumps}
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_theta,l2_norm,is_pulse\n")
        for t, node, f in zip(traj.times, traj.node_indices, traj.fields):
            fh.write(f"{_fmt(t)},{_fmt(f.mean())},{_fmt(traj.grid.l2_norm(f))},{int(node in jumps)}\n")


def ref_field_csv(path, field):
    with open(path, "w", newline="") as fh:
        fh.write("i,j,k,value\n")
        for (i, j, k), val in np.ndenumerate(field.values):
            fh.write(f"{i},{j},{k},{_fmt(val)}\n")


def ref_control_certificate(path, cert):
    with open(path, "w", newline="") as fh:
        fh.write("t,unit_cost,switch_level,u,margin,consistent\n")
        flat = lambda a: a if a.ndim == 1 else a.mean(axis=tuple(range(1, a.ndim)))  # noqa: E731
        for row in zip(flat(cert.mid_times), flat(cert.unit_cost), flat(cert.switch_level),
                       flat(cert.control), flat(cert.margin), flat(cert.consistent.astype(float))):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def ref_gradient_check(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write("quantity,adjoint,finite_difference,relative_error\n")
        for name, values in rows.items():
            fh.write(name + "".join(f",{float(x)!r}" for x in values) + "\n")


def ref_cost(path, cost):
    with open(path, "w", newline="") as fh:
        fh.write("component,value\n")
        for name in ("running_state", "running_control", "pulse", "final", "total"):
            fh.write(f"{name},{_fmt(getattr(cost, name))}\n")


def ref_alpha_profile(path, times, values):
    with open(path, "w", newline="") as fh:
        fh.write("t,alpha\n")
        for t, a in zip(times, values):
            fh.write(f"{_fmt(t)},{_fmt(a)}\n")


def ref_control(path, time_grid, u):
    with open(path, "w", newline="") as fh:
        fh.write("t,u\n")
        samples = u.samples if u.samples.ndim == 1 else u.samples.mean(axis=(1, 2, 3))
        for t, val in zip(time_grid.mid_times, samples):
            fh.write(f"{_fmt(t)},{_fmt(val)}\n")


def assert_same_bytes(tmp_path, writer, reference, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    writer(got, *args)
    reference(want, *args)
    assert got.read_bytes() == want.read_bytes()


def with_specials(values: np.ndarray, specials=SPECIAL) -> np.ndarray:
    out = np.array(values, dtype=float)
    flat = out.reshape(-1)
    flat[: len(specials)] = specials
    flat[-len(specials):] = [-x for x in specials]
    return out


@pytest.fixture(scope="module")
def averaged_run():
    prob = reference_averaged(t_end=0.25)
    return prob, ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.4))


@pytest.fixture(scope="module")
def field_run():
    prob = reference_pde(cells=(2, 2, 1), t_end=0.1, diffusion=0.5)
    return prob, ib.optimal_pulse(prob, None, ib.CostSpec.constant(prob.time_grid, 0.4))


@pytest.mark.parametrize("run", ["averaged_run", "field_run"])
def test_result_writers_match_the_reference_loops(tmp_path, request, run):
    prob, res = request.getfixturevalue(run)
    assert res.certificate  # the certificate carries one row per realized pulse
    assert_same_bytes(tmp_path, iomod.write_adjoint, ref_adjoint, res.adjoint)
    assert_same_bytes(tmp_path, iomod.write_strategy, ref_strategy, prob.time_grid, res.strategy)
    assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate, res.strategy,
                      res.certificate)
    if run == "field_run":
        assert_same_bytes(tmp_path, iomod.write_field_snapshots, ref_field_snapshots, res.forward)


def test_decimated_field_snapshots(tmp_path):
    prob = reference_pde(cells=(2, 2, 1), t_end=0.1)
    tg = prob.time_grid
    v = ib.PulseStrategy(np.full((tg.n_candidates, *prob.grid.dims), 0.5))
    traj = ib.simulate_pde(prob, None, v, store_every=7)
    assert traj.store_every == 7 and len(traj.times) < len(tg.times)
    assert_same_bytes(tmp_path, iomod.write_field_snapshots, ref_field_snapshots, traj)


def _thinned_scalar_run(kind, store_every):
    if kind == "averaged":
        prob = iomod.resolve_bundle(iomod.normalize_config(None)).problem
        return AveragedPropagator(prob).forward(None, store_every=store_every)
    prob = reference_pde(cells=(2, 2, 1), t_end=0.25)
    v = ib.PulseStrategy(np.full((prob.time_grid.n_candidates, *prob.grid.dims), 0.5))
    return ib.spatial_average(ib.simulate_pde(prob, None, v, store_every=store_every))


@pytest.mark.parametrize("kind", ["averaged", "spatial average"])
def test_averaged_trajectory_flags_the_jump_nodes_of_a_thinned_record(tmp_path, kind):
    full, thin = _thinned_scalar_run(kind, 1), _thinned_scalar_run(kind, 7)
    iomod.write_averaged_trajectory(tmp_path / "full.csv", full)
    iomod.write_averaged_trajectory(tmp_path / "thin.csv", thin)
    full_lines = (tmp_path / "full.csv").read_text().splitlines()
    thin_lines = (tmp_path / "thin.csv").read_text().splitlines()
    assert len(thin_lines) < len(full_lines)
    assert set(thin_lines) <= set(full_lines)  # each stored node is written as in the full record
    flagged = [float(line.split(",")[0]) for line in thin_lines[1:] if line.split(",")[2] == "1"]
    assert len(thin.jumps) > 1 and flagged == [float(j.time) for j in thin.jumps]


def test_special_values_and_per_point_strategy(tmp_path, rng):
    prob = reference_pde(cells=(2, 2, 1), t_end=0.1)
    tg, dims = prob.time_grid, prob.grid.dims
    field_hist = with_specials(rng.standard_normal((7, *dims)) * 10.0 ** rng.integers(-9, 9, (7, *dims)))
    traj = Trajectory(np.linspace(0.0, 0.1, 7), field_hist, [])
    assert_same_bytes(tmp_path, iomod.write_adjoint, ref_adjoint, traj)
    assert_same_bytes(tmp_path, iomod.write_field_snapshots, ref_field_snapshots, traj)
    # more scalar rows than one write takes, ending in a partial block
    scalar = Trajectory(np.linspace(0.0, 1.0, 1041), with_specials(rng.random(1041)), [])
    assert_same_bytes(tmp_path, iomod.write_adjoint, ref_adjoint, scalar)

    per_point = ib.PulseStrategy(with_specials(rng.random((tg.n_candidates, *dims))))
    assert_same_bytes(tmp_path, iomod.write_strategy, ref_strategy, tg, per_point)
    assert_same_bytes(tmp_path, iomod.write_strategy, ref_strategy, tg,
                      ib.PulseStrategy(with_specials(rng.random(tg.n_candidates))))

    field = ib.ScalarField(prob.grid, with_specials(rng.random(dims)))
    assert_same_bytes(tmp_path, iomod.write_field_csv, ref_field_csv, field)
    assert iomod.read_field_csv(tmp_path / "got.csv", prob.grid).values.tobytes() == field.values.tobytes()

    certificate = [
        ib.PulseCertificate(0.25, 0, with_specials(rng.random(dims)), 0.4, with_specials(rng.random(dims))),
        ib.PulseCertificate(0.5, 1, rng.random(dims), np.full(dims, 1e16), np.ones(dims)),
        # a zero unit cost: the margin column is p_plus, specials included
        ib.PulseCertificate(0.75, 2, with_specials(rng.standard_normal(dims)), 0.0, rng.random(dims)),
    ]
    assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate, per_point, certificate)
    scalar_cert = [ib.PulseCertificate(t, i, x, 0.4, 1.0) for i, (t, x) in enumerate(zip(
        [0.1, 0.2, 0.3, 0.4, 0.5], SPECIAL))]
    assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate,
                      ib.PulseStrategy(np.ones(len(scalar_cert))), scalar_cert)


def test_empty_certificate_is_the_header(tmp_path):
    scalar, field = ib.PulseStrategy(np.ones(3)), ib.PulseStrategy(np.ones((3, 2, 2, 1)))
    assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate, scalar, [])
    assert (tmp_path / "got.csv").read_text() == "tau_i,p_plus,c_i,v_i,margin\n"
    assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate, field, [])
    assert (tmp_path / "got.csv").read_text() == "tau_i,i,j,k,p_plus,c_i,v_i,margin\n"


def test_scalar_row_writers_match_the_reference_loops(tmp_path, rng):
    specials = SPECIAL + NONFINITE
    for values in (specials[:5], specials[3:]):
        assert_same_bytes(tmp_path, iomod.write_cost, ref_cost, ib.CostBreakdown(*values))
    rows = {"pulse": (math.nan, math.inf, -0.0), "chemical": (-math.inf, 1e16, 5e-324),
            "numpy": tuple(np.float64(x) for x in rng.standard_normal(3))}
    assert_same_bytes(tmp_path, iomod.write_gradient_check, ref_gradient_check, rows)
    # more rows than one write takes, ending in a partial block
    times = np.linspace(0.0, 1.0, 1041)
    assert_same_bytes(tmp_path, iomod.write_alpha_profile, ref_alpha_profile, times,
                      with_specials(rng.random(1041), specials))

    prob = reference_pde(cells=(2, 2, 1), t_end=0.1)
    tg = prob.time_grid
    scalar_u = ib.ContinuousControl(with_specials(rng.random(tg.n_steps), specials))
    assert_same_bytes(tmp_path, iomod.write_control, ref_control, tg, scalar_u)
    field_u = rng.random((tg.n_steps, *prob.grid.dims))
    field_u[: len(specials)] = np.reshape(specials, (-1, 1, 1, 1))  # one value per row: its mean
    assert_same_bytes(tmp_path, iomod.write_control, ref_control, tg, ib.ContinuousControl(field_u))


@pytest.mark.parametrize("kind", ["averaged", "pde"])
def test_control_certificate_matches_the_reference_loop(tmp_path, monkeypatch, kind):
    prob = reference_averaged(t_end=0.25) if kind == "averaged" else reference_pde(cells=(2, 2, 1), t_end=0.1)
    costs = ib.CostSpec.constant(prob.time_grid, 0.4, continuous_unit=0.05)
    res = ib.projected_gradient_mixed(prob, costs, max_iterations=3)
    for values_per_pass in (core.BLOCK_VALUES, 100):  # 5 field or 100 scalar rows a pass at 100
        monkeypatch.setattr(core, "BLOCK_VALUES", values_per_pass)
        assert_same_bytes(tmp_path, iomod.write_control_certificate, ref_control_certificate,
                          res.continuous_certificate)


def test_control_certificate_passes_hold_no_copy_of_its_switching_function(tmp_path, rng):
    # the field-large certificate at 20 x 20 x 6 cells: 1,040 steps of 21 x 21 x 7 points
    shape = (1040, 21, 21, 7)
    switching = rng.uniform(0.0, 0.01, shape)
    control = np.clip(rng.uniform(-1.0, 2.0, shape), 0.0, 1.0)
    cert = ib.ContinuousCertificate(np.linspace(0.0, 1.0, shape[0]), np.broadcast_to(0.005, shape),
                                    switching, 0.3, control)
    decisive = cert.margin > 1e-6
    want = np.count_nonzero(cert.consistent & decisive) / np.count_nonzero(decisive)
    for name, call in (("writer", lambda: iomod.write_control_certificate(tmp_path / "cert.csv", cert)),
                       ("agreement", cert.agreement_fraction)):
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < switching.nbytes / 2, name
    assert type(got) is float and got == want


def test_certificate_writer_holds_no_copy_of_its_table(tmp_path, rng):
    # 51 weekly pulses of the field-large problem at 20 x 20 x 6 cells: 21 x 21 x 7 points
    dims = (21, 21, 7)
    strategy = ib.PulseStrategy(rng.random((51, *dims)))
    certificate = [ib.PulseCertificate(k / 52, k, rng.random(dims), 0.55, strategy.values[k])
                   for k in range(51)]
    table_bytes = 51 * math.prod(dims) * 4 * 8
    tracemalloc.start()
    try:
        iomod.write_certificate(tmp_path / "certificate.csv", strategy, certificate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 2
    assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate, strategy, certificate)
    # scalar certificates, more than one write takes, ending in a partial block
    scalar = [ib.PulseCertificate(k / 1100, k, x, 0.4, float(x > 0.5))
              for k, x in enumerate(rng.random(1100).tolist())]
    assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate,
                      ib.PulseStrategy(np.ones(len(scalar))), scalar)


def _trap_rows(n_rows, shape):
    """Rows that each repeat TRAP's values in their own order, so a block holds each many times."""
    size = math.prod(shape)
    return np.array([np.roll(np.resize(TRAP, size), r) for r in range(n_rows)]).reshape(n_rows, *shape)


def test_one_format_per_bit_pattern_keeps_every_trap_apart(tmp_path):
    bits = np.array(TRAP).view(np.int64)
    assert len(set(bits.tolist())) == len(TRAP)  # every trap value its own bit pattern
    dims = (3, 3, 2)  # 18 points: the 4 rows below are one block
    rows = _trap_rows(4, dims)
    rows[3] = (np.resize(bits, 18)[::-1] ^ np.int64(-2**63)).view(float).reshape(dims)  # signs flipped
    assert_same_bytes(tmp_path, iomod.write_adjoint, ref_adjoint,
                      Trajectory(np.linspace(0.0, 0.1, 4), rows, []))

    tg = reference_pde(cells=(2, 2, 1), t_end=0.1).time_grid
    strategy = ib.PulseStrategy(np.ones((tg.n_candidates, *dims)))
    trap = _trap_rows(3, dims)
    certificate = [
        ib.PulseCertificate(0.25, 0, trap[0], -0.0, trap[1]),
        ib.PulseCertificate(0.5, 1, trap[2], 0.0, np.full(dims, -0.0)),
        ib.PulseCertificate(0.75, 2, np.full(dims, math.nan), math.inf, trap[0]),
    ]
    with np.errstate(invalid="ignore"):  # margins of NaNs and infinities
        assert_same_bytes(tmp_path, iomod.write_certificate, ref_certificate, strategy, certificate)

    # more rows than one write takes, each value repeated in every block
    times = np.linspace(0.0, 1.0, 1041)
    assert_same_bytes(tmp_path, iomod.write_alpha_profile, ref_alpha_profile, times,
                      np.resize(TRAP, 1041))


@pytest.mark.parametrize("values_per_pass", [core.BLOCK_VALUES, 100])
@pytest.mark.parametrize("store_every", [1, 50])
def test_pde_summary_matches_the_reference_loop(tmp_path, monkeypatch, rng, values_per_pass,
                                                store_every):
    prob = reference_pde(cells=(2, 2, 1), t_end=0.25, spacing=0.5)
    grid = prob.grid
    prob = replace(prob, initial=ib.ScalarField(grid, rng.uniform(0.3, 0.5, grid.dims)))
    v = ib.PulseStrategy(rng.uniform(0.0, 1.0, (prob.time_grid.n_candidates, *grid.dims)))
    traj = ib.simulate_pde(prob, None, v, store_every=store_every)
    assert traj.jumps and len(traj.times) % (values_per_pass // grid.npoints) != 0
    monkeypatch.setattr(core, "BLOCK_VALUES", values_per_pass)  # 5 rows a pass at 100
    assert_same_bytes(tmp_path, iomod.write_pde_summary, ref_pde_summary, traj)
    assert ",1\n" in (tmp_path / "got.csv").read_text()  # a pulse row


def test_adjoint_writer_holds_no_history_copy(tmp_path, rng):
    # a fig5-size costate: 1,041 nodes on the 11 x 11 x 4-point grid, its
    # values all distinct, or every row one value as a scalar amplitude and
    # scalar costs give
    shape = (1041, 11, 11, 4)
    for rows in (rng.random(shape), np.broadcast_to(rng.random((1041, 1, 1, 1)), shape).copy()):
        adj = Trajectory(np.linspace(0.0, 1.0, 1041), rows, [])
        tracemalloc.start()
        try:
            iomod.write_adjoint(tmp_path / "adjoint.csv", adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < adj.values.nbytes / 10
