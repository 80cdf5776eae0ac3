"""Configuration loading, CSV export and run manifests.

A run is described by a single YAML config file with a fixed key set (see
README for the schema).  Field-valued entries can alternatively point at CSV
files with one value per grid point and header ``i,j,k,value``.

All CSV output is written with shortest round-trip float formatting, so a
fixed config and seed produce byte-identical files.  The manifest (plain
``key=value`` lines) records every resolved parameter plus the seed and
package version; :func:`config_from_manifest` rebuilds a config from it, so a
manifest alone suffices to re-run an experiment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .adjoint import AdjointTrajectory
from .averaged import AveragedTrajectory
from .model import (
    AveragedProblem,
    ChemicalParams,
    ContinuousControl,
    CostBreakdown,
    CostSpec,
    DiffusionField,
    InhibitionPressure,
    PdeProblem,
    ProblemError,
    PulseStrategy,
    ScalarField,
    SpaceGrid,
    TimeGrid,
    build_initial_condition,
    build_random_amplitude,
    seasonal_profile,
)
from .pde import FieldTrajectory

DEFAULT_AMPLITUDE = 0.5 * float(np.log(10.0))
DEFAULT_PEAK_TIME = 0.75
DEFAULT_PERIOD = 0.2
DEFAULT_PULSE_INTERVAL = 1.0 / 52.0


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# CSV field files (one value per grid point)


def read_field_csv(path, grid: SpaceGrid) -> ScalarField:
    values = np.full(grid.dims, np.nan)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["i", "j", "k", "value"]:
            raise ProblemError(f"{path}: expected header i,j,k,value, got {reader.fieldnames}")
        for row in reader:
            values[int(row["i"]), int(row["j"]), int(row["k"])] = float(row["value"])
    if np.isnan(values).any():
        raise ProblemError(f"{path}: missing grid points (grid dims {grid.dims})")
    return ScalarField(grid, values)


def write_field_csv(path, field: ScalarField) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("i,j,k,value\n")
        for (i, j, k), val in np.ndenumerate(field.values):
            fh.write(f"{i},{j},{k},{_fmt(val)}\n")


# ---------------------------------------------------------------------------
# trajectory / result exports


def _write_rows(fh, prefix: str, values) -> None:
    """``prefix,value`` for a scalar; ``prefix,i,j,k,value`` per grid point for a field."""
    if np.ndim(values) == 0:
        fh.write(f"{prefix},{_fmt(values)}\n")
        return
    for (i, j, k), val in np.ndenumerate(values):
        fh.write(f"{prefix},{i},{j},{k},{_fmt(val)}\n")


def _jump_rows(traj) -> dict[int, object]:
    return {j.node_index: j for j in traj.jumps}


def write_averaged_trajectory(path, traj: AveragedTrajectory) -> None:
    jumps = _jump_rows(traj)
    with open(path, "w", newline="") as fh:
        fh.write("t,theta,is_pulse,v_applied\n")
        for node, (t, val) in enumerate(zip(traj.times, traj.values)):
            j = jumps.get(node)
            v_str = _fmt(np.mean(j.applied)) if j is not None else ""
            fh.write(f"{_fmt(t)},{_fmt(val)},{int(j is not None)},{v_str}\n")


def write_pde_summary(path, traj: FieldTrajectory) -> None:
    jumps = _jump_rows(traj)
    w = traj.grid.cell_volume
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_theta,l2_norm,is_pulse\n")
        for row, t in enumerate(traj.times):
            node = int(traj.node_indices[row])
            f = traj.fields[row]
            l2 = float(np.sqrt(np.sum(f**2) * w))
            fh.write(f"{_fmt(t)},{_fmt(f.mean())},{_fmt(l2)},{int(node in jumps)}\n")


def write_field_snapshots(path, traj: FieldTrajectory) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,i,j,k,theta\n")
        for t, field in zip(traj.times, traj.fields):
            _write_rows(fh, _fmt(t), field)


def write_adjoint(path, adj: AdjointTrajectory) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,p\n" if adj.values.ndim == 1 else "t,i,j,k,p\n")
        for t, p in zip(adj.times, adj.values):
            _write_rows(fh, _fmt(t), p)


def write_strategy(path, time_grid: TimeGrid, strategy: PulseStrategy) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("tau_i,v_i\n" if strategy.values.ndim == 1 else "tau_i,i,j,k,v\n")
        for tau, v in zip(time_grid.candidate_pulse_times, strategy.values):
            _write_rows(fh, _fmt(tau), v)


def write_certificate(path, certificate) -> None:
    shape = np.shape(certificate[0].p_plus) if certificate else ()
    points = ["".join(f",{i}" for i in idx) for idx in np.ndindex(shape)]  # [""] for scalars
    with open(path, "w", newline="") as fh:
        fh.write("tau_i,p_plus,c_i,v_i,margin\n" if shape == () else "tau_i,i,j,k,p_plus,c_i,v_i,margin\n")
        for c in certificate:
            ts = _fmt(c.time)
            columns = [np.broadcast_to(a, shape).ravel().tolist()
                       for a in (c.p_plus, c.unit_cost, c.applied, c.margin)]
            for point, *values in zip(points, *columns):
                fh.write(f"{ts}{point}," + ",".join(map(repr, values)) + "\n")


def write_cost(path, cost: CostBreakdown) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("component,value\n")
        for name in ("running_state", "running_control", "pulse", "final", "total"):
            fh.write(f"{name},{_fmt(getattr(cost, name))}\n")


def write_alpha_profile(path, times: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,alpha\n")
        for t, a in zip(times, values):
            fh.write(f"{_fmt(t)},{_fmt(a)}\n")


def write_control(path, time_grid: TimeGrid, u: ContinuousControl) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,u\n")
        samples = u.samples if u.samples.ndim == 1 else u.samples.mean(axis=(1, 2, 3))
        for t, val in zip(time_grid.mid_times, samples):
            fh.write(f"{_fmt(t)},{_fmt(val)}\n")


# ---------------------------------------------------------------------------
# configuration


DEFAULT_CONFIG = {
    "model": {
        "kind": "averaged",
        "t_end": 1.0,
        "step": 1e-3,
        "pulse_interval": DEFAULT_PULSE_INTERVAL,
        "pulse_times": None,
        "sigma": 0.3,
        "sigma_star": 0.0,
        "theta0": 0.4,
    },
    "alpha": {
        "amplitude": DEFAULT_AMPLITUDE,  # number or "random" (space-dependent model)
        "mean": DEFAULT_AMPLITUDE,  # target mean when amplitude == "random"
        "peak_time": DEFAULT_PEAK_TIME,
        "period": DEFAULT_PERIOD,
    },
    "grid": {"cells": [10, 10, 3], "spacing": 1.0},
    "initial": {"mode": "uniform", "value": 0.4, "mean": 0.4, "floor": 0.2, "path": None},
    "diffusion": 1.0,
    "cost": {"pulse_unit": 0.5, "continuous_unit": 0.0, "final": 0.0},
    "control": {"u": 0.0, "pulse_values": None},
    "seed": 0,
}


def _merge(defaults, override):
    out = {}
    for key, val in defaults.items():
        if isinstance(val, dict):
            out[key] = _merge(val, override.get(key, {}) if override else {})
        else:
            out[key] = override.get(key, val) if override else val
    if override:
        unknown = set(override) - set(defaults)
        if unknown:
            raise ProblemError(f"unknown config keys: {sorted(unknown)}")
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ProblemError(f"{path}: config must be a mapping")
    return _merge(DEFAULT_CONFIG, raw)


def normalize_config(cfg: dict | None) -> dict:
    return _merge(DEFAULT_CONFIG, cfg or {})


@dataclass
class Bundle:
    """A resolved problem: model objects plus the exact config that made them."""

    kind: str
    problem: AveragedProblem | PdeProblem
    u: ContinuousControl
    strategy: PulseStrategy  # pulse values for plain simulation runs
    costs: CostSpec
    config: dict
    seed: int


def resolve_bundle(cfg: dict, base_dir=".", seed_override: int | None = None) -> Bundle:
    """Build model objects from a (normalized) config mapping."""
    cfg = normalize_config(cfg)
    m = cfg["model"]
    seed = int(cfg["seed"] if seed_override is None else seed_override)
    cfg["seed"] = seed
    if m["pulse_times"] is not None:
        tg = TimeGrid(float(m["t_end"]), float(m["step"]), tuple(float(t) for t in m["pulse_times"]))
    else:
        tg = TimeGrid.regular(float(m["t_end"]), float(m["step"]), float(m["pulse_interval"]))
    chem = ChemicalParams(float(m["sigma"]), float(m["sigma_star"]))
    a_cfg = cfg["alpha"]

    if m["kind"] == "averaged":
        if isinstance(a_cfg["amplitude"], str):
            raise ProblemError("random amplitude requires the space-dependent model")
        alpha = seasonal_profile(
            float(a_cfg["amplitude"]), float(a_cfg["peak_time"]), float(a_cfg["period"])
        )
        problem: AveragedProblem | PdeProblem = AveragedProblem(tg, alpha, chem, float(m["theta0"]))
        grid = None
    elif m["kind"] == "pde":
        g = cfg["grid"]
        grid = SpaceGrid.from_cells(*(int(n) for n in g["cells"]), spacing=float(g["spacing"]))
        amp_cfg = a_cfg["amplitude"]
        if isinstance(amp_cfg, str):
            mode, _, s = amp_cfg.partition(":")
            if mode != "random":
                raise ProblemError(f"unknown amplitude mode {amp_cfg!r}")
            amp_seed = int(s) if s else seed
            amplitude = build_random_amplitude(grid, float(a_cfg["mean"]), amp_seed)
        else:
            amplitude = ScalarField.uniform(grid, float(amp_cfg))
        pressure = InhibitionPressure(amplitude, float(a_cfg["peak_time"]), float(a_cfg["period"]))
        diffusion = DiffusionField.isotropic(grid, float(cfg["diffusion"]))
        ic = cfg["initial"]
        if ic["mode"] == "uniform":
            rho = ScalarField.uniform(grid, float(ic["value"]))
        elif ic["mode"] == "sine":
            rho = build_initial_condition(grid, float(ic["mean"]), float(ic["floor"]))
        elif ic["mode"] == "csv":
            rho = read_field_csv(Path(base_dir) / ic["path"], grid)
        else:
            raise ProblemError(f"unknown initial mode {ic['mode']!r}")
        problem = PdeProblem(tg, grid, pressure, diffusion, chem, rho)
    else:
        raise ProblemError(f"unknown model kind {m['kind']!r}")

    u = ContinuousControl.constant(tg, float(cfg["control"]["u"]))
    pv = cfg["control"]["pulse_values"]
    if pv is None:
        strategy = PulseStrategy.no_intervention(tg)
    else:
        strategy = PulseStrategy(np.asarray(pv, dtype=float))

    c = cfg["cost"]
    pulse_unit = c["pulse_unit"]
    if isinstance(pulse_unit, str):
        field = _field_from_spec(pulse_unit, base_dir, grid)
        pulse = np.broadcast_to(field.values, (tg.n_candidates, *grid.dims)).copy()
    elif np.ndim(pulse_unit) == 0:
        pulse = np.full(tg.n_candidates, float(pulse_unit))
    else:
        pulse = np.asarray(pulse_unit, dtype=float)
    final = c["final"]
    if isinstance(final, str):
        final = _field_from_spec(final, base_dir, grid).values
    costs = CostSpec(pulse, np.full(tg.n_steps, float(c["continuous_unit"])), np.asarray(final, dtype=float))
    return Bundle(m["kind"], problem, u, strategy, costs, cfg, seed)


def _field_from_spec(spec: str, base_dir, grid: SpaceGrid | None) -> ScalarField:
    mode, _, path = spec.partition(":")
    if mode != "csv" or not path:
        raise ProblemError(f"field spec must be 'csv:<path>', got {spec!r}")
    if grid is None:
        raise ProblemError("csv fields require the space-dependent model")
    return read_field_csv(Path(base_dir) / path, grid)


# ---------------------------------------------------------------------------
# manifest


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    else:
        out[prefix] = obj


def _plain(val):
    """Native Python value for YAML rendering (numpy scalars/arrays included)."""
    if isinstance(val, np.generic):
        return val.item()
    if isinstance(val, np.ndarray):
        return [_plain(v) for v in val.tolist()]
    if isinstance(val, (list, tuple)):
        return [_plain(v) for v in val]
    return val


def write_manifest(path, config: dict, extra: dict | None = None) -> None:
    flat: dict = {}
    _flatten("config", config, flat)
    flat["version"] = __version__
    for key, val in (extra or {}).items():
        flat[key] = val
    with open(path, "w") as fh:
        for key in sorted(flat):
            rendered = yaml.safe_dump(_plain(flat[key]), default_flow_style=True).strip()
            if rendered.endswith("\n..."):
                rendered = rendered[: -len("\n...")]
            fh.write(f"{key}={rendered}\n")


def config_from_manifest(path) -> tuple[dict, dict]:
    """Rebuild (config, extras) from a manifest file."""
    cfg: dict = {}
    extras: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, raw = line.partition("=")
            val = yaml.safe_load(raw)
            if key.startswith("config."):
                parts = key.split(".")[1:]
                node = cfg
                for p in parts[:-1]:
                    node = node.setdefault(p, {})
                node[parts[-1]] = val
            else:
                extras[key] = val
    return cfg, extras
