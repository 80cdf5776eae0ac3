"""The benchmark's three workloads: seeded inputs, one timed pass, output checks.

A workload is built once (its set-up) and then run pass after pass.  A pass
is a fixed list of operations; the seed draws only field values and costs,
never grid sizes, horizons or candidate counts, so every seed does the same
amount of work.  Each operation is timed on its own; the output checks run
between operations, outside the timed calls.  Solvers are looked up through
their modules at call time (``inhibopt.optimal_pulse``), so the tracer's
patches see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import inhibopt
import inhibopt.cli
from inhibopt import io as iomod
from inhibopt.model import (
    AveragedProblem,
    ChemicalParams,
    ContinuousControl,
    CostSpec,
    DiffusionField,
    InhibitionPressure,
    PdeProblem,
    SpaceGrid,
    TimeGrid,
)

WEEKLY = iomod.DEFAULT_PULSE_INTERVAL
PG_ITERATION_CAP = 200  # projected_gradient_mixed's default max_iterations
BRUTE_FORCE_REL_TOL = 1e-9
# defect indicators: recorded on every workload (0 where it cannot occur), never gated
INDICATORS = ("pde.store_every_cost_drift", "optimize.pg_capped", "optimize.cert_chem_flags")


class PassRecorder:
    """Times operations, collects check failures, hashes results, sums indicators."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.failures: list[str] = []
        self.indicators: dict[str, float] = dict.fromkeys(INDICATORS, 0.0)
        self._digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()

    def digest(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._digest.update(np.ascontiguousarray(item).tobytes())
            else:
                self._digest.update(repr(item).encode())

    def run(self, name: str, call, check) -> None:
        """Time ``call()``; a raise or a non-empty list from ``check(result)`` fails the op."""
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # any solver failure is a failed op, not a crash
            self.op_seconds.append(time.perf_counter() - start)
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(f"{name}: {type(exc).__name__}: {exc} "
                                 f"(at {Path(where.filename).name}:{where.lineno})")
            return
        self.op_seconds.append(time.perf_counter() - start)
        try:
            problems = check(out)
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")


def _cost_terms(cost) -> tuple[float, ...]:
    return (cost.running_state, cost.running_control, cost.pulse, cost.final, cost.total)


def _nonfinite_cost(cost) -> list[str]:
    return [] if all(math.isfinite(x) for x in _cost_terms(cost)) else [f"non-finite cost {cost}"]


def _split_certificate(messages: list[str]) -> tuple[list[str], int]:
    """(pulse sign-condition violations, number of chemical-control messages)."""
    chem = sum(1 for m in messages if m.startswith("chemical control"))
    return [m for m in messages if not m.startswith("chemical control")], chem


def _theta_out_of_range(traj) -> list[str]:
    arrays = [traj.fields] + [np.asarray(j.post) for j in traj.jumps]
    lo = min(float(a.min()) for a in arrays)
    hi = max(float(a.max()) for a in arrays)
    return [] if 0.0 <= lo and hi <= 1.0 else [f"theta leaves [0, 1]: min {lo!r}, max {hi!r}"]


# ---------------------------------------------------------------------------


class FieldLarge:
    """One 40x40x12-cell library run: optimal_pulse, then a store_every=50 replay and its cost."""

    name = "field-large"
    cells = (40, 40, 12)
    store_every = 50

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        grid = SpaceGrid.from_cells(*self.cells)
        tg = TimeGrid.regular(1.0, 1e-3, WEEKLY)
        amplitude = inhibopt.build_random_amplitude(
            grid, iomod.DEFAULT_AMPLITUDE, int(rng.integers(2**31)))
        pressure = InhibitionPressure(amplitude, iomod.DEFAULT_PEAK_TIME, iomod.DEFAULT_PERIOD)
        self.problem = PdeProblem(
            tg, grid, pressure, DiffusionField.isotropic(grid, 1.0), ChemicalParams(0.3, 0.0),
            inhibopt.build_initial_condition(grid, 0.4, 0.2),
        )
        self.costs = CostSpec.constant(tg, float(rng.uniform(0.5, 0.6)))
        problems = list(inhibopt.validate(self.problem, None, None, self.costs))
        if problems:
            raise ValueError(f"{self.name}: invalid generated problem: {problems}")

    def run_pass(self) -> PassRecorder:
        rec = PassRecorder()
        problem, costs = self.problem, self.costs
        found: dict = {}

        def solve():
            res = inhibopt.optimal_pulse(problem, None, costs)
            return res, inhibopt.certificate_check(res, problem, costs)

        def check_solve(out):
            res, messages = out
            violations, chem = _split_certificate(messages)
            rec.indicators["optimize.cert_chem_flags"] += chem
            found["strategy"], found["cost"] = res.strategy, res.cost
            rec.digest(res.strategy.values, _cost_terms(res.cost))
            return violations + _theta_out_of_range(res.forward) + _nonfinite_cost(res.cost)

        rec.run("optimal_pulse", solve, check_solve)
        if "strategy" not in found:
            rec.op_seconds += [0.0, 0.0]
            rec.failures.append("simulate_pde, cost_pde: skipped, optimal_pulse failed")
            return rec
        strategy = found["strategy"]

        def check_replay(traj):
            found["replay"] = traj
            return _theta_out_of_range(traj)

        rec.run("simulate_pde", lambda: inhibopt.simulate_pde(
            problem, None, strategy, store_every=self.store_every), check_replay)
        if "replay" not in found:
            rec.op_seconds.append(0.0)
            rec.failures.append("cost_pde: skipped, simulate_pde failed")
            return rec

        def check_cost(cost):
            base = found["cost"].total
            rec.indicators["pde.store_every_cost_drift"] = abs(cost.total - base) / abs(base)
            rec.digest(_cost_terms(cost))
            return _nonfinite_cost(cost)

        rec.run("cost_pde", lambda: inhibopt.cost_pde(
            found.pop("replay"), strategy, None, costs, problem), check_cost)
        return rec


# ---------------------------------------------------------------------------

OPTIMIZE_PDE = ("strategy.csv", "certificate.csv", "cost.csv", "summary.csv", "adjoint.csv")
OPTIMIZE_AVERAGED = ("strategy.csv", "certificate.csv", "cost.csv", "trajectory.csv", "adjoint.csv")
OPTIMIZE_MIXED = OPTIMIZE_AVERAGED + ("control.csv", "control_certificate.csv")
SIMULATE_PDE = ("summary.csv", "fields.csv", "cost.csv")


def _write_field_csv(path: Path, values: np.ndarray) -> None:
    """The CLI's ``i,j,k,value`` field format, written independently of inhibopt.io."""
    with open(path, "w") as fh:
        fh.write("i,j,k,value\n")
        for (i, j, k), val in np.ndenumerate(values):
            fh.write(f"{i},{j},{k},{float(val)!r}\n")


def _cost_csv_total(path: Path) -> float:
    for line in path.read_text().splitlines():
        if line.startswith("total,"):
            return float(line.partition(",")[2])
    raise ValueError(f"{path}: no total row")


def _manifest(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, raw = line.partition("=")
        out[key] = yaml.safe_load(raw)
    return out


class CliSmall:
    """In-process ``run_cli`` calls on the default 11x11x4-point grid, CSV output included."""

    name = "cli-small"
    cells = (10, 10, 3)  # the config default
    sigma_star = 0.015  # realizes part of the candidates, so the fixed point iterates

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        dims = tuple(n + 1 for n in self.cells)
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True)
        _write_field_csv(inputs / "initial.csv", rng.uniform(0.3, 0.5, dims))
        _write_field_csv(inputs / "pulse_unit.csv", rng.uniform(0.5, 0.6, dims))
        opt = {
            "model": {"kind": "pde", "sigma_star": self.sigma_star},
            "grid": {"cells": list(self.cells)},
            "initial": {"mode": "csv", "path": "initial.csv"},
            "cost": {"pulse_unit": "csv:pulse_unit.csv"},
        }
        sim = {
            "model": {"kind": "pde"},
            "grid": {"cells": list(self.cells)},
            "alpha": {"amplitude": "random"},
            "initial": {"mode": "sine", "mean": 0.4, "floor": 0.2},
            "cost": {"pulse_unit": float(rng.uniform(0.4, 0.6)),
                     "final": float(rng.uniform(0.0, 0.5))},
            "seed": int(rng.integers(2**31)),
        }
        (inputs / "optimize.yaml").write_text(yaml.safe_dump(opt))
        (inputs / "simulate.yaml").write_text(yaml.safe_dump(sim))
        self.out = workdir / "out"
        fig2 = {f"c-{c}": OPTIMIZE_AVERAGED for c in (0.25, 0.4, 0.5)}
        self.ops = [
            ("preset fig5", ["preset", "fig5"], {"A-1": OPTIMIZE_PDE}),
            ("preset fig7", ["preset", "fig7", "--seed", str(seed)], {"random-a": OPTIMIZE_PDE}),
            ("optimize-pulse", ["optimize-pulse", "--config", str(inputs / "optimize.yaml")],
             {".": OPTIMIZE_PDE}),
            ("simulate-pde", ["simulate-pde", "--config", str(inputs / "simulate.yaml"),
                              "--store-every", "50"], {".": SIMULATE_PDE}),
            ("preset fig2", ["preset", "fig2"], fig2),
            ("preset mixed", ["preset", "mixed"], {"mixed": OPTIMIZE_MIXED}),
        ]

    def _check_outputs(self, rec: PassRecorder, out: Path, code: int, members: dict) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        for member, files in members.items():
            d = out / member
            missing = [f for f in files + ("manifest",) if not (d / f).is_file()]
            if missing:
                problems.append(f"{member}: missing {missing}")
                continue
            total = _cost_csv_total(d / "cost.csv")
            manifest = _manifest(d / "manifest")
            if not math.isfinite(total):
                problems.append(f"{member}: non-finite total cost {total!r}")
            if "total_cost" in manifest and manifest["total_cost"] != total:
                problems.append(f"{member}: cost.csv total {total!r} != manifest "
                                f"total_cost {manifest['total_cost']!r}")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            rec.digest(str(path.relative_to(out)), hashlib.sha256(path.read_bytes()).hexdigest())
        return problems

    def run_pass(self) -> PassRecorder:
        rec = PassRecorder()
        shutil.rmtree(self.out, ignore_errors=True)
        for n, (name, argv, members) in enumerate(self.ops):
            out = self.out / str(n)
            rec.run(name, lambda: inhibopt.cli.run_cli([*argv, "--out", str(out)]),
                    lambda code: self._check_outputs(rec, out, code, members))
        return rec


# ---------------------------------------------------------------------------


class AveragedBatch:
    """Seeded scalar scenarios, a few capped projected-gradient runs and one m=16 enumeration."""

    name = "averaged-batch"
    n_scenarios = 600
    n_mixed = 3
    brute_force_candidates = 16

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        tg = TimeGrid.regular(1.0, 1e-3, WEEKLY)
        self.scenarios = []
        for i in range(self.n_scenarios):
            amplitude = iomod.DEFAULT_AMPLITUDE * rng.uniform(0.8, 1.2)
            theta0 = rng.uniform(0.2, 0.6)
            u = 0.0 if i % 3 == 0 else rng.uniform(0.0, 1.0)
            pulse_unit, final = rng.uniform(0.25, 0.6), rng.uniform(0.0, 0.5)
            # 40% threshold fixed points, 60% single sweeps: the op median then sits
            # inside the sweep path and the 90th percentile inside the fixed-point path
            sigma_star = rng.uniform(0.2, 0.6) if i % 5 in (1, 3) else 0.0
            self.scenarios.append(self._averaged(
                tg, amplitude, theta0, sigma_star, ContinuousControl.constant(tg, u),
                CostSpec.constant(tg, pulse_unit, 0.0, final)))
        # C = 0.005 with these pulse costs and initial states stops at the iteration cap
        self.mixed = [
            self._averaged(tg, iomod.DEFAULT_AMPLITUDE, rng.uniform(0.4, 0.5), 0.0, None,
                           CostSpec.constant(tg, rng.uniform(0.47, 0.58), 0.005, 0.0))
            for _ in range(self.n_mixed)
        ]
        tg16 = TimeGrid.regular(1.0, 1e-3, 1.0 / (self.brute_force_candidates + 1))
        self.brute = self._averaged(
            tg16, iomod.DEFAULT_AMPLITUDE, rng.uniform(0.3, 0.5), 0.0, None,
            CostSpec.constant(tg16, rng.uniform(0.4, 0.6), 0.0, rng.uniform(0.0, 0.3)))

    def _averaged(self, tg, amplitude, theta0, sigma_star, u, costs):
        alpha = inhibopt.seasonal_profile(amplitude, iomod.DEFAULT_PEAK_TIME, iomod.DEFAULT_PERIOD)
        problem = AveragedProblem(tg, alpha, ChemicalParams(0.3, sigma_star), float(theta0))
        problems = list(inhibopt.validate(problem, u, None, costs))
        if problems:
            raise ValueError(f"{self.name}: invalid generated scenario: {problems}")
        return problem, u, costs

    def run_pass(self) -> PassRecorder:
        rec = PassRecorder()

        def certified(solve, problem, costs):
            res = solve()
            return res, inhibopt.certificate_check(res, problem, costs)

        def check_scenario(out):
            res, messages = out
            violations, chem = _split_certificate(messages)
            rec.indicators["optimize.cert_chem_flags"] += chem
            rec.digest(res.strategy.values, _cost_terms(res.cost))
            return violations + _nonfinite_cost(res.cost)

        for problem, u, costs in self.scenarios:
            rec.run("fixed_point_pulse", lambda: certified(
                lambda: inhibopt.fixed_point_pulse(problem, u, costs), problem, costs),
                check_scenario)

        def check_mixed(out):
            res, messages = out
            history = res.diagnostics["cost_history"]
            if res.iterations == PG_ITERATION_CAP and not res.converged:
                rec.indicators["optimize.pg_capped"] += 1
            rec.digest(res.strategy.values, res.control.samples, history)
            problems = _split_certificate(messages)[0] + _nonfinite_cost(res.cost)
            if any(b >= a for a, b in zip(history, history[1:])):
                problems.append("cost history does not strictly decrease")
            return problems

        for problem, _, costs in self.mixed:
            rec.run("projected_gradient_mixed", lambda: certified(
                lambda: inhibopt.projected_gradient_mixed(problem, costs), problem, costs),
                check_mixed)

        problem, _, costs = self.brute

        def enumerate_and_sweep():
            return (inhibopt.brute_force_pulse(problem, None, costs,
                                               max_pulses=self.brute_force_candidates),
                    inhibopt.optimal_pulse(problem, None, costs))

        def check_brute(out):
            brute, sweep = out
            rec.digest(brute.strategy.values, _cost_terms(brute.cost))
            gap = abs(brute.cost.total - sweep.cost.total) / abs(sweep.cost.total)
            return [] if gap <= BRUTE_FORCE_REL_TOL else [
                f"vertex optimum {brute.cost.total!r} vs sweep {sweep.cost.total!r}"]

        rec.run("brute_force_pulse", enumerate_and_sweep, check_brute)
        return rec


WORKLOADS = {w.name: w for w in (FieldLarge, CliSmall, AveragedBatch)}
