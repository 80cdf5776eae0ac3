"""Command-line front end.

Subcommands: simulate-averaged, simulate-pde, optimize-pulse, optimize-mixed,
brute-force, gradient-check, preset.  Every run reads one YAML config (all
keys optional; defaults reproduce the bundled reference scenario), writes CSV
outputs plus a ``manifest`` of key=value lines into --out, and exits 0 on
success, 1 on validation failure, 2 on solver failure, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as iomod
from .adjoint import _propagator, gradient_continuous, gradient_pulse
from .averaged import cost_averaged, simulate_averaged
from .model import ContinuousControl, ProblemError, PulseStrategy, SolverError, validate
from .optimize import brute_force_pulse, fixed_point_pulse, projected_gradient_mixed
from .pde import cost_pde, simulate_pde
from .presets import PRESETS

USAGE_EXIT = 64
GRADIENT_CHECK_TOL = 1e-4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="inhibopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="YAML config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override for random fields")
        p.add_argument("--store-every", type=int, default=1, dest="store_every",
                       help="keep every m-th field snapshot")
        return p

    add("simulate-averaged", "forward run of the spatially averaged model")
    add("simulate-pde", "forward run of the space-dependent model")
    add("optimize-pulse", "bang-bang pulse strategy (backward sweep / threshold fixed point)")
    add("optimize-mixed", "projected-gradient mixed chemical+pulse strategy")
    bf = add("brute-force", "exhaustive vertex enumeration oracle (averaged model)")
    bf.add_argument("--max-pulses", type=int, default=20, dest="max_pulses")
    bf.add_argument("--interior-samples", type=int, default=200, dest="interior_samples")
    add("gradient-check", "adjoint gradients vs central finite differences")
    pre = sub.add_parser("preset", help="run a bundled experiment preset")
    pre.add_argument("name", choices=sorted(PRESETS), help="preset name")
    pre.add_argument("--out", type=Path, default=Path("."), help="output directory")
    pre.add_argument("--seed", type=int, default=None)
    return parser


def _load(args) -> iomod.Bundle:
    if args.config is not None:
        cfg = iomod.load_config(args.config)
        base = Path(args.config).parent
    else:
        cfg = iomod.normalize_config(None)
        base = Path(".")
    return iomod.resolve_bundle(cfg, base_dir=base, seed_override=args.seed)


def _check_valid(bundle: iomod.Bundle) -> list[str]:
    report = validate(bundle.problem, bundle.u, bundle.strategy, bundle.costs)
    return list(report)


def _write_common(out: Path, bundle: iomod.Bundle, task: str, extra: dict | None = None) -> None:
    iomod.write_manifest(out / "manifest", bundle.config, {"task": task, **(extra or {})})


def _task_simulate(bundle: iomod.Bundle, out: Path, store_every: int) -> None:
    if bundle.kind == "averaged":
        traj = simulate_averaged(bundle.problem, bundle.u, bundle.strategy)
        cost = cost_averaged(traj, bundle.strategy, bundle.u, bundle.costs)
        iomod.write_averaged_trajectory(out / "trajectory.csv", traj)
    else:
        traj = simulate_pde(bundle.problem, bundle.u, bundle.strategy, store_every=store_every)
        cost = cost_pde(traj, bundle.strategy, bundle.u, bundle.costs, bundle.problem)
        iomod.write_pde_summary(out / "summary.csv", traj)
        iomod.write_field_snapshots(out / "fields.csv", traj)
    iomod.write_cost(out / "cost.csv", cost)
    _write_common(out, bundle, "simulate", {"store_every": store_every})


def _export_result(bundle: iomod.Bundle, out: Path, result) -> None:
    tg = bundle.problem.time_grid
    iomod.write_strategy(out / "strategy.csv", tg, result.strategy)
    iomod.write_certificate(out / "certificate.csv", result.certificate)
    iomod.write_cost(out / "cost.csv", result.cost)
    if bundle.kind == "averaged":
        iomod.write_averaged_trajectory(out / "trajectory.csv", result.forward)
    else:
        iomod.write_pde_summary(out / "summary.csv", result.forward)
    if result.adjoint is not None:
        iomod.write_adjoint(out / "adjoint.csv", result.adjoint)


def _task_optimize_pulse(bundle: iomod.Bundle, out: Path) -> None:
    result = fixed_point_pulse(bundle.problem, bundle.u, bundle.costs)  # optimal_pulse at sigma_star = 0
    _export_result(bundle, out, result)
    _write_common(out, bundle, "optimize-pulse", {
        "iterations": result.iterations,
        "converged": result.converged,
        "total_cost": result.cost.total,
    })


def _task_optimize_mixed(bundle: iomod.Bundle, out: Path) -> None:
    result = projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
    _export_result(bundle, out, result)
    iomod.write_control(out / "control.csv", bundle.problem.time_grid, result.control)
    cert = result.continuous_certificate
    with open(out / "control_certificate.csv", "w") as fh:
        fh.write("t,unit_cost,switch_level,u,margin,consistent\n")
        flat = lambda a: a if a.ndim == 1 else a.mean(axis=tuple(range(1, a.ndim)))  # noqa: E731
        for row in zip(flat(cert.mid_times), flat(cert.unit_cost), flat(cert.switch_level),
                       flat(cert.control), flat(cert.margin), flat(cert.consistent.astype(float))):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    _write_common(out, bundle, "optimize-mixed", {
        "iterations": result.iterations,
        "converged": result.converged,
        "total_cost": result.cost.total,
        "certificate_agreement": cert.agreement_fraction(),
    })


def _task_brute_force(bundle: iomod.Bundle, out: Path, max_pulses: int, interior: int) -> None:
    result = brute_force_pulse(
        bundle.problem, bundle.u, bundle.costs,
        max_pulses=max_pulses, interior_samples=interior, seed=bundle.seed,
    )
    _export_result(bundle, out, result)
    _write_common(out, bundle, "brute-force", {
        "enumerated": result.iterations,
        "interior_best": result.diagnostics.get("interior_best"),
        "total_cost": result.cost.total,
    })


def emit_alpha_profile(bundle: iomod.Bundle, out: Path) -> Path:
    """Sample the pressure profile on the integration grid into alpha.csv."""
    cfg = bundle.config
    t_end = float(cfg["model"]["t_end"])
    step = float(cfg["model"]["step"])
    n = max(1, round(t_end / step))
    times = np.linspace(0.0, t_end, n + 1)
    if bundle.kind == "averaged":
        values = np.asarray(bundle.problem.alpha(times), dtype=float)
    else:
        values = bundle.problem.pressure.mean_profile()(times)
    path = out / "alpha.csv"
    iomod.write_alpha_profile(path, times, values)
    _write_common(out, bundle, "alpha-profile")
    return path


def _task_gradient_check(bundle: iomod.Bundle, out: Path | None) -> float:
    """Max relative adjoint-vs-finite-difference error over pulse and chemical gradients."""
    problem, costs = bundle.problem, bundle.costs
    tg = problem.time_grid
    rng = np.random.default_rng(bundle.seed)
    eps = 1e-5

    dims = _propagator(problem, None).shape
    v_base = PulseStrategy(0.2 + 0.6 * rng.random((tg.n_candidates, *dims)))
    u_base = ContinuousControl(np.full((tg.n_steps, *dims), 0.5))

    prop = _propagator(problem, u_base)
    forward = prop.forward(v_base)
    adj = prop.adjoint(v_base, costs, forward)

    def j_of(u, v):
        p = _propagator(problem, u)
        return p.cost(p.forward(v), v, u, costs).total

    d_v = rng.random(v_base.values.shape) - 0.5
    adjoint_v = gradient_pulse(forward, adj, costs, direction=d_v, space_weight=prop.space_weight).directional_value
    fd_v = (j_of(u_base, PulseStrategy(np.clip(v_base.values + eps * d_v, 0, 1)))
            - j_of(u_base, PulseStrategy(np.clip(v_base.values - eps * d_v, 0, 1)))) / (2 * eps)
    err_v = abs(adjoint_v - fd_v) / max(abs(fd_v), 1e-14)

    d_u = rng.random(u_base.samples.shape) - 0.5
    adjoint_u = gradient_continuous(problem, forward, adj, u_base, costs, direction=d_u).directional_value
    fd_u = (j_of(ContinuousControl(np.clip(u_base.samples + eps * d_u, 0, 1)), v_base)
            - j_of(ContinuousControl(np.clip(u_base.samples - eps * d_u, 0, 1)), v_base)) / (2 * eps)
    err_u = abs(adjoint_u - fd_u) / max(abs(fd_u), 1e-14)

    print(f"pulse gradient:     adjoint={adjoint_v:.10e} fd={fd_v:.10e} rel_err={err_v:.3e}")
    print(f"chemical gradient:  adjoint={adjoint_u:.10e} fd={fd_u:.10e} rel_err={err_u:.3e}")
    print(f"max relative adjoint-vs-fd error: {max(err_v, err_u):.3e} "
          f"(tolerance {GRADIENT_CHECK_TOL:.0e})")
    if out is not None:
        with open(out / "gradient_check.csv", "w") as fh:
            fh.write("quantity,adjoint,finite_difference,relative_error\n")
            fh.write(f"pulse,{float(adjoint_v)!r},{float(fd_v)!r},{float(err_v)!r}\n")
            fh.write(f"chemical,{float(adjoint_u)!r},{float(fd_u)!r},{float(err_u)!r}\n")
        _write_common(out, bundle, "gradient-check",
                      {"max_relative_error": max(err_v, err_u)})
    return max(err_v, err_u)


def _run_preset(name: str, out: Path, seed: int | None) -> int:
    preset = PRESETS[name]
    out.mkdir(parents=True, exist_ok=True)

    def run_member(run) -> int:
        member_out = out / run.label
        member_out.mkdir(parents=True, exist_ok=True)
        bundle = iomod.resolve_bundle(run.config, seed_override=seed)
        problems = _check_valid(bundle)
        if problems:
            for msg in problems:
                print(f"{name}/{run.label}: {msg}", file=sys.stderr)
            return 1
        store_every = 50 if bundle.kind == "pde" else 1
        if run.task == "alpha-profile":
            emit_alpha_profile(bundle, member_out)
        elif run.task == "simulate":
            _task_simulate(bundle, member_out, store_every)
        elif run.task == "optimize-pulse":
            _task_optimize_pulse(bundle, member_out)
        elif run.task == "optimize-mixed":
            _task_optimize_mixed(bundle, member_out)
        else:
            raise ProblemError(f"unknown preset task {run.task}")
        return 0

    return max([run_member(run) for run in preset.runs])


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return USAGE_EXIT
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT

    try:
        if args.command == "preset":
            return _run_preset(args.name, args.out, args.seed)

        bundle = _load(args)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        problems = _check_valid(bundle)
        if problems:
            for msg in problems:
                print(f"validation: {msg}", file=sys.stderr)
            return 1

        if args.command == "simulate-averaged":
            if bundle.kind != "averaged":
                print("config describes a pde model; use simulate-pde", file=sys.stderr)
                return 1
            _task_simulate(bundle, out, args.store_every)
        elif args.command == "simulate-pde":
            if bundle.kind != "pde":
                print("config describes an averaged model; use simulate-averaged", file=sys.stderr)
                return 1
            _task_simulate(bundle, out, args.store_every)
        elif args.command == "optimize-pulse":
            _task_optimize_pulse(bundle, out)
        elif args.command == "optimize-mixed":
            _task_optimize_mixed(bundle, out)
        elif args.command == "brute-force":
            _task_brute_force(bundle, out, args.max_pulses, args.interior_samples)
        elif args.command == "gradient-check":
            err = _task_gradient_check(bundle, out)
            return 0 if err <= GRADIENT_CHECK_TOL else 2
        else:  # pragma: no cover - argparse restricts choices
            parser.print_usage(sys.stderr)
            return USAGE_EXIT
        return 0
    except ProblemError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
