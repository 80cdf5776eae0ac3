"""Configuration loading, CSV export and run manifests.

A run is described by a single YAML config file with a fixed key set (see
README for the schema).  Field-valued entries can alternatively point at CSV
files with one value per grid point and header ``i,j,k,value``.

All CSV output is written with shortest round-trip float formatting, so a
fixed config and seed produce byte-identical files.  A block of rows formats
each of its distinct values once, keyed by the value's bit pattern, not by the
float: ``-0.0`` equals ``0.0`` but has its own ``repr``, and a NaN equals no
float, itself included.  The manifest (plain ``key=value`` lines) records
every resolved parameter plus the seed and package version;
:func:`config_from_manifest` rebuilds a config from it, so a manifest alone
suffices to re-run an experiment.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core import Trajectory, _row_blocks, _row_means
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

DEFAULT_AMPLITUDE = 0.5 * float(np.log(10.0))
DEFAULT_PEAK_TIME = 0.75
DEFAULT_PERIOD = 0.2
DEFAULT_PULSE_INTERVAL = 1.0 / 52.0


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# CSV field files (one value per grid point)


def read_field_csv(path, grid: SpaceGrid) -> ScalarField:
    """A field file with header ``i,j,k,value`` and one row per grid point.

    A row whose indices are not integers in range, whose value is not a
    finite number or whose point came before, and a point without a row,
    are ProblemErrors that name the file and the line (or the point).
    """
    values = np.full(grid.dims, np.nan)  # nan until the point's row is read
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["i", "j", "k", "value"]:
            raise ProblemError(f"{path}: expected header i,j,k,value, got {header}")
        for row in reader:
            if not row:
                continue  # a blank line
            where = f"{path}: line {reader.line_num}"
            try:
                i, j, k, value = row
                point, value = (int(i), int(j), int(k)), float(value)
            except ValueError:
                raise ProblemError(f"{where}: expected integer i,j,k and a number, got {row}") from None
            if not all(0 <= n < d for n, d in zip(point, grid.dims)):
                raise ProblemError(f"{where}: point {point} outside the grid dims {grid.dims}")
            if not math.isfinite(value):
                raise ProblemError(f"{where}: value {value} at {point} is not finite")
            if not np.isnan(values[point]):
                raise ProblemError(f"{where}: point {point} given twice")
            values[point] = value
    missing = np.argwhere(np.isnan(values))
    if missing.size:
        raise ProblemError(f"{path}: {len(missing)} missing grid point(s), the first "
                           f"{tuple(missing[0].tolist())} (grid dims {grid.dims})")
    return ScalarField(grid, values)


def write_field_csv(path, field: ScalarField) -> None:
    _write_table(path, "i,j,k,value", [""], field.values[np.newaxis])


# ---------------------------------------------------------------------------
# trajectory / result exports


_LINES_PER_WRITE = 512


def _key(t) -> str:
    return _fmt(t) + ","


def _formatted(values: np.ndarray) -> list:
    """One item per float64 in ``values`` whose ``%s`` format is the value's ``repr``.

    Each distinct bit pattern is formatted once and its string gathered by
    index, since rows often repeat one value; when all differ, the items are
    the floats themselves (``str`` of a float is its ``repr``).  The key is
    the bit pattern, not the float: ``-0.0 == 0.0`` but their reprs differ,
    and NaN equals nothing.
    """
    bits = values.view(np.int64)
    distinct = np.sort(bits)
    distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
    if len(distinct) == len(bits):
        return values.tolist()
    strings = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return strings[np.searchsorted(distinct, bits)].tolist()


@functools.lru_cache(maxsize=8)
def _row_template(shape: tuple, columns: int) -> str:
    """The ``%``-template of one row's lines, built once per shape and column count."""
    values = ",".join(["%s"] * columns)
    return "".join("%s" + "".join(f"{i}," for i in idx) + values + "\n" for idx in np.ndindex(shape))


def _write_points(fh, keys: list[str], table: np.ndarray, columns: int = 1) -> None:
    """Write one line per grid point of each row of ``table``: key, ``i,j,k,``, values.

    ``table`` has shape ``(rows, *shape)``, or ``(rows, *shape, columns)``
    when ``columns > 1``.  ``keys`` holds one string per row that carries its
    own trailing comma (an empty key starts the line at the point index); a
    scalar row is the ``shape == ()`` case, with no index.  Each block of
    rows is formatted by one ``%``-template from :func:`_formatted`, which
    formats each distinct bit pattern of the block once in shortest
    round-trip format.  The blocks are :func:`inhibopt.core._row_blocks` with a
    budget of ``_LINES_PER_WRITE`` lines: one row, or as many rows of a scalar
    or small grid as fit, so the writer never holds a history-sized copy.
    """
    shape = table.shape[1:table.ndim - (columns > 1)]
    row_template = _row_template(shape, columns)
    points = math.prod(shape)
    step = columns + 1
    for rows in _row_blocks(len(table), points, _LINES_PER_WRITE):
        chunk = np.ascontiguousarray(table[rows], dtype=np.float64)
        flat = _formatted(chunk.reshape(-1))
        args = [None] * (len(flat) // columns * step)
        args[::step] = list(chain.from_iterable(repeat(k, points) for k in keys[rows]))
        for c in range(columns):
            args[c + 1::step] = flat[c::columns]
        fh.write(row_template * len(chunk) % tuple(args))


def _write_table(path, header: str, keys: list[str], table: np.ndarray, columns: int = 1) -> None:
    """The CSV file ``path``: the ``header`` line, then ``table`` by :func:`_write_points`."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        _write_points(fh, keys, table, columns)


def _jump_rows(traj) -> dict[int, object]:
    return {j.node_index: j for j in traj.jumps}


def write_averaged_trajectory(path, traj: Trajectory) -> None:
    jumps = _jump_rows(traj)
    with open(path, "w", newline="") as fh:
        fh.write("t,theta,is_pulse,v_applied\n")
        for node, t, val in zip(traj.node_indices.tolist(), traj.times, traj.values):
            j = jumps.get(node)
            v_str = _fmt(j.applied) if j is not None else ""
            fh.write(f"{_fmt(t)},{_fmt(val)},{int(j is not None)},{v_str}\n")


def write_pde_summary(path, traj: Trajectory) -> None:
    """One line per stored node: its time, the field's mean and L2 norm, and a pulse flag.

    The means and norms are ``_row_means`` and ``SpaceGrid.l2_norm`` of the
    blocks of :func:`inhibopt.core._row_blocks`, equal bit for bit to each
    row's, so no temporary is history-sized.
    """
    jumps = _jump_rows(traj)
    fields, grid = traj.fields, traj.grid
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_theta,l2_norm,is_pulse\n")
        for rows in _row_blocks(len(fields), grid.npoints):
            means = _row_means(fields[rows]).tolist()
            norms = grid.l2_norm(fields[rows]).tolist()
            for t, node, mean, l2 in zip(traj.times[rows], traj.node_indices[rows].tolist(),
                                         means, norms):
                fh.write(f"{_fmt(t)},{_fmt(mean)},{_fmt(l2)},{int(node in jumps)}\n")


def write_field_snapshots(path, traj: Trajectory) -> None:
    _write_table(path, "t,i,j,k,theta", [_key(t) for t in traj.times], traj.fields)


def write_adjoint(path, adj: Trajectory) -> None:
    _write_table(path, "t,p" if adj.values.ndim == 1 else "t,i,j,k,p",
                 [_key(t) for t in adj.times], adj.values)


def write_strategy(path, time_grid: TimeGrid, strategy: PulseStrategy) -> None:
    _write_table(path, "tau_i,v_i" if strategy.values.ndim == 1 else "tau_i,i,j,k,v",
                 [_key(t) for t in time_grid.candidate_pulse_times], strategy.values)


def write_certificate(path, strategy: PulseStrategy, certificate) -> None:
    """One row per realized candidate at each point of the strategy's shape, stacked one block
    at a time; a run with none writes the header alone, for a field with the point columns."""
    shape = strategy.values.shape[1:]
    with open(path, "w", newline="") as fh:
        fh.write("tau_i,i,j,k,p_plus,c_i,v_i,margin\n" if shape else "tau_i,p_plus,c_i,v_i,margin\n")
        for rows in _row_blocks(len(certificate), math.prod(shape), _LINES_PER_WRITE):
            part = certificate[rows]
            _write_points(fh, [_key(c.time) for c in part], np.stack([np.stack(np.broadcast_arrays(
                c.p_plus, c.unit_cost, c.applied, c.margin), axis=-1) for c in part]), columns=4)


def write_control_certificate(path, cert) -> None:
    """Per-step chemical certificate; field entries are written as their grid means, block by block."""
    table = np.concatenate([np.stack([_row_means(a) for a in (
        part.unit_cost, part.switch_level, part.control, part.margin, part.consistent.astype(float))],
        axis=-1) for part in cert.blocks()])
    _write_table(path, "t,unit_cost,switch_level,u,margin,consistent",
                 [_key(t) for t in cert.mid_times], table, columns=5)


def write_gradient_check(path, rows: dict) -> None:
    """``rows`` maps a quantity name to its (adjoint, finite difference, relative error)."""
    _write_table(path, "quantity,adjoint,finite_difference,relative_error",
                 [f"{name}," for name in rows], np.array(list(rows.values()), dtype=float), columns=3)


def write_cost(path, cost: CostBreakdown) -> None:
    names = ("running_state", "running_control", "pulse", "final", "total")
    _write_table(path, "component,value", [f"{name}," for name in names],
                 np.array([getattr(cost, name) for name in names], dtype=float))


def write_alpha_profile(path, times: np.ndarray, values: np.ndarray) -> None:
    _write_table(path, "t,alpha", [_key(t) for t in times], np.asarray(values, dtype=float))


def write_control(path, time_grid: TimeGrid, u: ContinuousControl) -> None:
    _write_table(path, "t,u", [_key(t) for t in time_grid.mid_times], _row_means(u.samples))


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


def _merge(defaults, override, prefix=""):
    """``defaults`` with ``override``'s values; a value is a mapping exactly where its default is one."""
    out = {}
    for key, val in defaults.items():
        given = override.get(key, val) if override else val
        if isinstance(given, dict) != isinstance(val, dict) and given is not None:
            kind = "a mapping" if isinstance(val, dict) else "a value, not a mapping"
            raise ProblemError(f"config key {prefix}{key}: expected {kind}, got {given!r}")
        out[key] = _merge(val, given, f"{prefix}{key}.") if isinstance(val, dict) else given
    if override:
        unknown = set(override) - set(defaults)
        if unknown:
            raise ProblemError(f"unknown config keys: {sorted(unknown)}")
    return out


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _number(value, key: str, kind=float, expected="a number"):
    """``kind(value)``, or a ProblemError naming the config key when ``kind`` rejects the value."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ProblemError(f"config key {key}: expected {expected}, got {value!r}") from None


def _cells(value) -> list[int]:
    cells = [int(n) for n in value]
    if len(cells) != 3:
        raise ValueError(value)
    return cells


def load_config(path) -> dict:
    """The partial config in YAML file ``path``; an unreadable or malformed file is a ProblemError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        mark = getattr(exc, "problem_mark", None)  # where a YAML parse stopped
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ProblemError(f"{path}: {f'line {mark.line + 1}: ' if mark else ''}{problem}") from None
    if not isinstance(raw, dict):
        raise ProblemError(f"{path}: config must be a mapping")
    return raw


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
    """Build model objects from a config mapping; a key it leaves out takes its default."""
    cfg = normalize_config(cfg)
    m = cfg["model"]
    seed = _number(cfg["seed"] if seed_override is None else seed_override, "seed", int)
    cfg["seed"] = seed

    def num(key: str, kind=float, expected="a number"):
        section, _, name = key.rpartition(".")
        return _number((cfg[section] if section else cfg)[name], key, kind, expected)

    def per_candidate(key: str) -> np.ndarray:
        """The values at ``key``, a number standing for one value per candidate pulse time."""
        values = num(key, _floats)
        return np.broadcast_to(values, (tg.n_candidates,)) if values.ndim == 0 else values

    if m["pulse_times"] is not None:
        tg = TimeGrid(num("model.t_end"), num("model.step"),
                      num("model.pulse_times", lambda ts: tuple(float(t) for t in ts)))
    else:
        tg = TimeGrid.regular(num("model.t_end"), num("model.step"), num("model.pulse_interval"))
    chem = ChemicalParams(num("model.sigma"), num("model.sigma_star"))
    a_cfg = cfg["alpha"]

    if m["kind"] == "averaged":
        if isinstance(a_cfg["amplitude"], str):
            raise ProblemError("random amplitude requires the space-dependent model")
        alpha = seasonal_profile(num("alpha.amplitude"), num("alpha.peak_time"), num("alpha.period"))
        problem: AveragedProblem | PdeProblem = AveragedProblem(tg, alpha, chem, num("model.theta0"))
        grid = None
    elif m["kind"] == "pde":
        grid = SpaceGrid.from_cells(*num("grid.cells", _cells, "three cell counts"),
                                    spacing=num("grid.spacing"))
        amp_cfg = a_cfg["amplitude"]
        if isinstance(amp_cfg, str):
            mode, _, s = amp_cfg.partition(":")
            if mode != "random":
                raise ProblemError(f"unknown amplitude mode {amp_cfg!r}")
            amp_seed = _number(s, "alpha.amplitude", int) if s else seed
            amplitude = build_random_amplitude(grid, num("alpha.mean"), amp_seed)
        else:
            amplitude = ScalarField.uniform(grid, num("alpha.amplitude"))
        pressure = InhibitionPressure(amplitude, num("alpha.peak_time"), num("alpha.period"))
        diffusion = DiffusionField.isotropic(grid, num("diffusion"))
        ic = cfg["initial"]
        if ic["mode"] == "uniform":
            rho = ScalarField.uniform(grid, num("initial.value"))
        elif ic["mode"] == "sine":
            rho = build_initial_condition(grid, num("initial.mean"), num("initial.floor"))
        elif ic["mode"] == "csv":
            rho = _field_csv("initial.path", ic["path"], base_dir, grid)
        else:
            raise ProblemError(f"unknown initial mode {ic['mode']!r}")
        problem = PdeProblem(tg, grid, pressure, diffusion, chem, rho)
    else:
        raise ProblemError(f"unknown model kind {m['kind']!r}")

    u = ContinuousControl.constant(tg, num("control.u"))
    if cfg["control"]["pulse_values"] is None:
        strategy = PulseStrategy.no_intervention(tg)
    else:
        strategy = PulseStrategy(per_candidate("control.pulse_values"))

    c = cfg["cost"]
    if isinstance(c["pulse_unit"], str):
        field = _field_from_spec("cost.pulse_unit", c["pulse_unit"], base_dir, grid)
        pulse = np.broadcast_to(field.values, (tg.n_candidates, *grid.dims))
    else:
        pulse = per_candidate("cost.pulse_unit")
    if isinstance(c["final"], str):
        final = _field_from_spec("cost.final", c["final"], base_dir, grid).values
    else:
        final = num("cost.final", _floats)
    costs = CostSpec(pulse, np.broadcast_to(num("cost.continuous_unit"), (tg.n_steps,)), final)
    return Bundle(m["kind"], problem, u, strategy, costs, cfg, seed)


def _field_from_spec(key: str, spec: str, base_dir, grid: SpaceGrid | None) -> ScalarField:
    mode, _, path = spec.partition(":")
    if mode != "csv" or not path:
        raise ProblemError(f"field spec must be 'csv:<path>', got {spec!r}")
    if grid is None:
        raise ProblemError("csv fields require the space-dependent model")
    return _field_csv(key, path, base_dir, grid)


def _field_csv(key: str, path, base_dir, grid: SpaceGrid) -> ScalarField:
    """The field file that config key ``key`` names; a missing, unreadable or bad one is a ProblemError."""
    if not isinstance(path, str):
        raise ProblemError(f"config key {key}: expected a file path, got {path!r}")
    try:
        return read_field_csv(Path(base_dir) / path, grid)
    except OSError as exc:
        raise ProblemError(f"config key {key}: cannot read {exc.filename}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ProblemError(f"config key {key}: {Path(base_dir) / path}: {exc}") from None
    except ProblemError as exc:
        raise ProblemError(f"config key {key}: {exc}") from None


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
