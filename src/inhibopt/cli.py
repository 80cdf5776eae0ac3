"""Command-line front end.

Subcommands: simulate-averaged, simulate-pde, optimize-pulse, optimize-mixed,
brute-force, gradient-check, preset.  Every run reads one YAML config (all
keys optional; defaults reproduce the bundled reference scenario), writes CSV
outputs plus a ``manifest`` of key=value lines into --out, and exits 0 on
success, 1 on validation failure or an --out that cannot be created or
written, 2 on solver failure, 64 on usage errors.  A run that exits 1 or 2
writes nothing, except that gradient-check writes its report before it exits
2 on a tolerance miss and a write that fails part-way leaves the files written
before it.  A preset member that fails in any way prints
``<preset>/<label>: msg``, and the other members still run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as iomod
from .adjoint import _propagator, gradient_continuous, gradient_pulse
from .averaged import cost_averaged, simulate_averaged
from .core import _walk
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

    def add(name, help_text, store_every=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="YAML config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override for random fields")
        if store_every:
            p.add_argument("--store-every", type=int, default=1, dest="store_every",
                           help="keep and write every m-th field node, every candidate node "
                                "and the final node; the cost is unchanged; optimize-mixed "
                                "writes these nodes but keeps every node while it runs, as its "
                                "chemical gradient needs")
        return p

    add("simulate-averaged", "forward run of the spatially averaged model")
    add("simulate-pde", "forward run of the space-dependent model")
    add("optimize-pulse", "bang-bang pulse strategy (backward sweep / threshold fixed point)")
    add("optimize-mixed", "projected-gradient mixed chemical+pulse strategy")
    bf = add("brute-force", "exhaustive vertex enumeration oracle (averaged model)",
             store_every=False)
    bf.add_argument("--max-pulses", type=int, default=20, dest="max_pulses")
    bf.add_argument("--interior-samples", type=int, default=200, dest="interior_samples")
    add("gradient-check", "adjoint gradients vs central finite differences", store_every=False)
    pre = sub.add_parser("preset", help="run a bundled experiment preset")
    pre.add_argument("name", choices=sorted(PRESETS), help="preset name")
    pre.add_argument("--out", type=Path, default=Path("."), help="output directory")
    pre.add_argument("--seed", type=int, default=None)
    return parser


def _trajectory_files(traj, fields: bool = False) -> list:
    """A forward record's files: trajectory.csv, or a field's summary.csv (and fields.csv)."""
    if traj.grid is None:
        return [(iomod.write_averaged_trajectory, "trajectory.csv", traj)]
    return [(iomod.write_pde_summary, "summary.csv", traj),
            *[(iomod.write_field_snapshots, "fields.csv", traj)] * fields]


def _task_simulate(bundle: iomod.Bundle, store_every: int) -> tuple[dict, list]:
    if bundle.kind == "averaged":
        traj = simulate_averaged(bundle.problem, bundle.u, bundle.strategy)
        cost = cost_averaged(traj, bundle.strategy, bundle.u, bundle.costs)
    else:
        traj = simulate_pde(bundle.problem, bundle.u, bundle.strategy, store_every=store_every)
        cost = cost_pde(traj, bundle.strategy, bundle.u, bundle.costs, bundle.problem)
    return {"store_every": traj.store_every}, [*_trajectory_files(traj, fields=True),
                                               (iomod.write_cost, "cost.csv", cost)]


def _export_result(bundle: iomod.Bundle, result) -> tuple[dict, list]:
    """A strategy result's files and the optimizers' common manifest entries."""
    files = [(iomod.write_strategy, "strategy.csv", bundle.problem.time_grid, result.strategy),
             (iomod.write_certificate, "certificate.csv", result.strategy, result.certificate),
             (iomod.write_cost, "cost.csv", result.cost), *_trajectory_files(result.forward)]
    if result.adjoint is not None:
        files.append((iomod.write_adjoint, "adjoint.csv", result.adjoint))
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "total_cost": result.cost.total,
        "realized_pulses": len(result.forward.jumps),
        **{f"cg_{k}": v for k, v in result.diagnostics.get("cg", {}).items()},
    }, files


def _task_optimize_pulse(bundle: iomod.Bundle, store_every: int) -> tuple[dict, list]:
    result = fixed_point_pulse(bundle.problem, bundle.u, bundle.costs, store_every=store_every)
    entries, files = _export_result(bundle, result)
    return {**entries, "store_every": result.forward.store_every}, files


def _stored(traj, rows: np.ndarray, store_every: int):
    """A complete record's ``rows``, the nodes a run at ``store_every`` stores, for writing."""
    return replace(traj, times=traj.times[rows], values=traj.values[rows], node_indices=rows,
                   store_every=store_every)


def _task_optimize_mixed(bundle: iomod.Bundle, store_every: int) -> tuple[dict, list]:
    rows = _walk(bundle.problem.time_grid, store_every).rows  # a bad spacing fails before the run
    result = projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
    stored = {}
    if store_every != 1:  # the optimizer keeps complete records; only the writes are thinned
        result = replace(result, forward=_stored(result.forward, rows, store_every),
                         adjoint=_stored(result.adjoint, rows, store_every))
        stored = {"store_every": store_every}
    entries, files = _export_result(bundle, result)
    files += [(iomod.write_control, "control.csv", bundle.problem.time_grid, result.control),
              (iomod.write_control_certificate, "control_certificate.csv",
               result.continuous_certificate)]
    return {
        **entries,
        "certificate_agreement": result.continuous_certificate.agreement_fraction(),
        "stop_reason": result.diagnostics["stop_reason"],
        "line_search_halvings": result.diagnostics["line_search_halvings"],
        "fixed_points": result.diagnostics["fixed_points"],
        **stored,
    }, files


def _task_brute_force(bundle: iomod.Bundle, max_pulses: int, interior_samples: int) -> tuple[dict, list]:
    result = brute_force_pulse(
        bundle.problem, bundle.u, bundle.costs,
        max_pulses=max_pulses, interior_samples=interior_samples, seed=bundle.seed,
    )
    files = _export_result(bundle, result)[1]  # the enumeration records entries of its own
    return {"enumerated": result.iterations, "interior_best": result.diagnostics.get("interior_best"),
            "total_cost": result.cost.total}, files


def emit_alpha_profile(bundle: iomod.Bundle) -> tuple[dict, list]:
    """The pressure profile at round(t_end/step) + 1 evenly spaced times, for alpha.csv."""
    tg = bundle.problem.time_grid
    times = np.linspace(0.0, tg.t_end, max(1, round(tg.t_end / tg.step)) + 1)
    if bundle.kind == "averaged":
        values = np.asarray(bundle.problem.alpha(times), dtype=float)
    else:
        values = bundle.problem.pressure.mean_profile()(times)
    return {}, [(iomod.write_alpha_profile, "alpha.csv", times, values)]


def _task_gradient_check(bundle: iomod.Bundle) -> tuple[dict, list]:
    """Max relative adjoint-vs-finite-difference error over pulse and chemical gradients."""
    problem, costs = bundle.problem, bundle.costs
    tg = problem.time_grid
    rng = np.random.default_rng(bundle.seed)
    eps = 1e-5

    prop = _propagator(problem, None)  # aimed at u_base once its point shape is read
    v_base = PulseStrategy(0.2 + 0.6 * rng.random((tg.n_candidates, *prop.shape)))
    u_base = ContinuousControl(np.broadcast_to(0.5, (tg.n_steps, *prop.shape)))

    forward = prop.aim(u_base).forward(v_base)
    adj = prop.adjoint(v_base, costs, forward)

    def j_of(u, v):
        prop.aim(u)
        return prop.cost(prop.forward(v), v, costs).total

    d_v = rng.random(v_base.values.shape) - 0.5
    adjoint_v = gradient_pulse(forward, adj, costs, direction=d_v).directional_value
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
    rows = {"pulse": (adjoint_v, fd_v, err_v), "chemical": (adjoint_u, fd_u, err_u)}
    return {"max_relative_error": max(err_v, err_u)}, [(iomod.write_gradient_check, "gradient_check.csv", rows)]


def _run(task: str, config, seed: int | None, out: Path, where: str | None = None,
         store_every: int = 1, **options) -> int:
    """Run one command or preset member from ``config``: a --config path, a member's
    partial config, or None for the defaults.

    Loading, validation, the simulate kind check and the task run before anything is
    written: a ProblemError exits 1 and a SolverError 2, printed as ``where: msg`` (a
    command's ``where`` is None: ``validation:`` or ``solver failure:``), and create no
    ``out``.  A task returns its manifest entries and ``(writer, file name, data...)``
    list.  An ``out`` that cannot be created or written exits 1 with
    ``where: cannot write <path>: reason``.  A field run keeps every
    ``store_every``-th node, an averaged run every node; below 1 either fails.
    """
    try:
        if isinstance(config, Path):
            bundle = iomod.resolve_bundle(iomod.load_config(config), config.parent, seed)
        else:
            bundle = iomod.resolve_bundle(config, seed_override=seed)
        report = validate(bundle.problem, bundle.u, bundle.strategy, bundle.costs)
        for msg in report:
            print(f"{where or 'validation'}: {msg}", file=sys.stderr)
        if not report.ok:
            return 1
        if task.startswith("simulate-") and task != f"simulate-{bundle.kind}":
            article = "an" if bundle.kind == "averaged" else "a"
            print(f"config describes {article} {bundle.kind} model; use simulate-{bundle.kind}",
                  file=sys.stderr)
            return 1
        if store_every < 1:  # checked before an averaged run, which stores every node, drops it
            raise ProblemError("store_every must be >= 1")
        store_every = 1 if bundle.kind == "averaged" else store_every
        name = "simulate" if task.startswith("simulate") else task
        entries, files = {
            "alpha-profile": lambda: emit_alpha_profile(bundle),
            "simulate": lambda: _task_simulate(bundle, store_every),
            "optimize-pulse": lambda: _task_optimize_pulse(bundle, store_every),
            "optimize-mixed": lambda: _task_optimize_mixed(bundle, store_every),
            "brute-force": lambda: _task_brute_force(bundle, **options),
            "gradient-check": lambda: _task_gradient_check(bundle),
        }[name]()
    except ProblemError as exc:
        print(f"{where or 'validation'}: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"{where or 'solver failure'}: {exc}", file=sys.stderr)
        return 2
    try:
        out.mkdir(parents=True, exist_ok=True)
        for write, file_name, *data in files:
            write(out / file_name, *data)
        iomod.write_manifest(out / "manifest", bundle.config, {"task": name, **entries})
    except OSError as exc:
        print(f"{where or 'validation'}: cannot write {exc.filename or out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    if name == "gradient-check" and not entries["max_relative_error"] <= GRADIENT_CHECK_TOL:
        return 2  # a NaN error fails too
    return 0


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
    if args.command == "preset":
        return max(_run(run.task, run.config, args.seed, args.out / run.label,
                        f"{args.name}/{run.label}", 50) for run in PRESETS[args.name].runs)
    options = {k: v for k, v in vars(args).items()
               if k in ("store_every", "max_pulses", "interior_samples")}
    return _run(args.command, args.config, args.seed, args.out, **options)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
