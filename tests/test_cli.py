import csv
import filecmp
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import inhibopt as ib
from inhibopt import cli
from inhibopt import io as iomod
from inhibopt.cli import run_cli
from inhibopt.presets import PRESETS, ExperimentPreset, PresetRun


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


AVERAGED_CFG = {
    "model": {"kind": "averaged", "t_end": 0.25, "step": 1e-3},
    "cost": {"pulse_unit": 0.4},
}

PDE_CFG = {
    "model": {"kind": "pde", "t_end": 0.1, "step": 1e-3},
    "grid": {"cells": [2, 2, 1]},
    "initial": {"mode": "uniform", "value": 0.4},
    "cost": {"pulse_unit": 0.4},
}


class TestSimulateCommands:
    def test_simulate_averaged(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", AVERAGED_CFG)
        out = tmp_path / "run"
        assert run_cli(["simulate-averaged", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "trajectory.csv")
        assert list(rows[0]) == ["t", "theta", "is_pulse", "v_applied"]
        assert float(rows[0]["theta"]) == 0.4
        n_pulses = sum(int(r["is_pulse"]) for r in rows)
        assert n_pulses == 12  # weekly candidates strictly inside (0, 0.25)
        assert (out / "manifest").exists() and (out / "cost.csv").exists()

    def test_simulate_pde_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", PDE_CFG)
        out = tmp_path / "run"
        assert run_cli(["simulate-pde", "--config", str(cfg), "--out", str(out),
                        "--store-every", "10"]) == 0
        rows = read_rows(out / "summary.csv")
        assert list(rows[0]) == ["t", "mean_theta", "l2_norm", "is_pulse"]
        frows = read_rows(out / "fields.csv")
        assert list(frows[0]) == ["t", "i", "j", "k", "theta"]
        assert len(frows) % 18 == 0  # 3*3*2 points per stored time

    def test_manifest_records_the_stored_spacing(self, tmp_path):
        # the averaged model stores every node, whatever --store-every asks
        cfg = write_config(tmp_path / "avg.yaml", AVERAGED_CFG)
        out = tmp_path / "avg"
        assert run_cli(["simulate-averaged", "--config", str(cfg), "--out", str(out),
                        "--store-every", "50"]) == 0
        n_nodes = len(iomod.resolve_bundle(AVERAGED_CFG).problem.time_grid.times)
        assert len(read_rows(out / "trajectory.csv")) == n_nodes
        assert iomod.config_from_manifest(out / "manifest")[1]["store_every"] == 1
        cfg = write_config(tmp_path / "pde.yaml", PDE_CFG)
        out = tmp_path / "pde"
        assert run_cli(["simulate-pde", "--config", str(cfg), "--out", str(out),
                        "--store-every", "10"]) == 0
        assert iomod.config_from_manifest(out / "manifest")[1]["store_every"] == 10
        # optimize-pulse stores what it is asked on fields, every node on the averaged model
        for name, want in (("pde", 10), ("avg", 1)):
            out = tmp_path / f"optimize-{name}"
            assert run_cli(["optimize-pulse", "--config", str(tmp_path / f"{name}.yaml"),
                            "--out", str(out), "--store-every", "10"]) == 0
            assert iomod.config_from_manifest(out / "manifest")[1]["store_every"] == want

    def test_kind_mismatch_is_validation_error(self, tmp_path, capsys):
        for command, cfg, message in (
            ("simulate-pde", AVERAGED_CFG, "an averaged model; use simulate-averaged"),
            ("simulate-averaged", PDE_CFG, "a pde model; use simulate-pde"),
        ):
            path = write_config(tmp_path / "cfg.yaml", cfg)
            assert run_cli([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 1
            assert capsys.readouterr().err == f"config describes {message}\n"


class TestOptimizeCommands:
    def test_optimize_pulse_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", AVERAGED_CFG)
        out = tmp_path / "run"
        assert run_cli(["optimize-pulse", "--config", str(cfg), "--out", str(out)]) == 0
        strat = read_rows(out / "strategy.csv")
        assert list(strat[0]) == ["tau_i", "v_i"]
        assert all(float(r["v_i"]) in (0.0, 1.0) for r in strat)
        cert = read_rows(out / "certificate.csv")
        assert list(cert[0]) == ["tau_i", "p_plus", "c_i", "v_i", "margin"]
        adj = read_rows(out / "adjoint.csv")
        assert list(adj[0]) == ["t", "p"]

    def test_field_run_without_pulses_writes_the_field_certificate_header(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", {"model": {"kind": "pde", "sigma_star": 0.99,
                                                             "t_end": 0.1}})
        out = tmp_path / "run"
        assert run_cli(["optimize-pulse", "--config", str(cfg), "--out", str(out)]) == 0
        assert iomod.config_from_manifest(out / "manifest")[1]["realized_pulses"] == 0
        assert (out / "strategy.csv").read_text().startswith("tau_i,i,j,k,v\n")
        assert (out / "certificate.csv").read_text() == "tau_i,i,j,k,p_plus,c_i,v_i,margin\n"

    def test_optimize_pulse_writes_the_stored_nodes(self, tmp_path):
        for name, cfg in (("pde", PDE_CFG), ("avg", AVERAGED_CFG)):
            path = write_config(tmp_path / f"{name}.yaml", cfg)
            for m in ("1", "10"):
                assert run_cli(["optimize-pulse", "--config", str(path),
                                "--out", str(tmp_path / f"{name}-{m}"), "--store-every", m]) == 0
        tg = iomod.resolve_bundle(iomod.normalize_config(PDE_CFG)).problem.time_grid
        nodes = sorted({*range(0, tg.n_steps + 1, 10), *tg.candidate_indices, tg.n_steps})
        full, thin = tmp_path / "pde-1", tmp_path / "pde-10"
        for name in ("adjoint.csv", "summary.csv"):
            lines = (thin / name).read_text().splitlines()
            assert set(lines) <= set((full / name).read_text().splitlines())
            assert sorted({float(line.split(",")[0]) for line in lines[1:]}) == tg.times[nodes].tolist()
        for name in ("cost.csv", "strategy.csv", "certificate.csv"):
            assert filecmp.cmp(full / name, thin / name, shallow=False)
        n_nodes = len(iomod.resolve_bundle(iomod.normalize_config(AVERAGED_CFG)).problem.time_grid.times)
        for name in ("trajectory.csv", "adjoint.csv"):
            assert len(read_rows(tmp_path / "avg-10" / name)) == n_nodes

    def test_optimize_pulse_manifest_records_cg_counters(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", PDE_CFG)
        out = tmp_path / "run"
        assert run_cli(["optimize-pulse", "--config", str(cfg), "--out", str(out)]) == 0
        _, extras = iomod.config_from_manifest(out / "manifest")
        n_steps = iomod.resolve_bundle(iomod.normalize_config(PDE_CFG)).problem.time_grid.n_steps
        assert extras["cg_solves"] == 2 * n_steps  # the sweep and the forward run
        assert extras["cg_iterations"] >= extras["cg_max_iterations"] >= 1
        assert 0.0 <= extras["cg_worst_residual"] <= 1e-10
        averaged = tmp_path / "averaged"
        cfg = write_config(tmp_path / "avg.yaml", AVERAGED_CFG)
        assert run_cli(["optimize-pulse", "--config", str(cfg), "--out", str(averaged)]) == 0
        _, extras = iomod.config_from_manifest(averaged / "manifest")
        assert not any(k.startswith("cg_") for k in extras)

    def test_optimize_mixed_outputs(self, tmp_path):
        cfg = dict(AVERAGED_CFG)
        cfg["cost"] = {"pulse_unit": 0.4, "continuous_unit": 0.1}
        cfgp = write_config(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "run"
        assert run_cli(["optimize-mixed", "--config", str(cfgp), "--out", str(out)]) == 0
        assert (out / "control.csv").exists()
        assert (out / "control_certificate.csv").exists()
        _, extras = iomod.config_from_manifest(out / "manifest")
        assert extras["stop_reason"] in ("stationary", "step tolerance", "cost tolerance",
                                         "line search failed", "iteration cap")

    def test_optimize_mixed_under_a_threshold(self, tmp_path):
        # every control is evaluated by the threshold fixed point
        cfg = {"model": {"sigma_star": 0.3}, "cost": {"continuous_unit": 0.005}}
        out = tmp_path / "run"
        assert run_cli(["optimize-mixed", "--config", str(write_config(tmp_path / "cfg.yaml", cfg)),
                        "--out", str(out)]) == 0
        _, extras = iomod.config_from_manifest(out / "manifest")
        assert extras["stop_reason"] == "stationary" and extras["converged"] is True
        assert extras["realized_pulses"] == 1
        bundle = iomod.resolve_bundle(cfg)
        res = ib.projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
        hist = res.diagnostics["cost_history"]
        assert len(hist) > 1 and all(b < a for a, b in zip(hist, hist[1:]))
        assert extras["total_cost"] == hist[-1]

    def test_field_optimize_mixed_records_its_cg_counters(self, tmp_path):
        cfg = {"model": {"kind": "pde", "t_end": 0.25}, "grid": {"cells": [3, 3, 2]},
               "cost": {"continuous_unit": 0.005}}
        out = tmp_path / "field"
        assert run_cli(["optimize-mixed", "--config", str(write_config(tmp_path / "f.yaml", cfg)),
                        "--out", str(out)]) == 0
        _, extras = iomod.config_from_manifest(out / "manifest")
        bundle = iomod.resolve_bundle(iomod.normalize_config(cfg))
        res = ib.projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
        assert {k: extras[f"cg_{k}"] for k in res.diagnostics["cg"]} == res.diagnostics["cg"]
        assert extras["cg_solves"] > 2 * bundle.problem.time_grid.n_steps  # more than one fixed point

        averaged = tmp_path / "averaged"
        assert run_cli(["optimize-mixed", "--config",
                        str(write_config(tmp_path / "a.yaml", {"cost": {"continuous_unit": 0.005}})),
                        "--out", str(averaged)]) == 0
        _, extras = iomod.config_from_manifest(averaged / "manifest")
        assert not any(k.startswith("cg_") for k in extras)

    def test_optimize_mixed_writes_the_stored_nodes(self, tmp_path):
        # the optimizer keeps complete records; --store-every thins only what it writes
        cfg = {"model": {"kind": "pde", "t_end": 0.25}, "grid": {"cells": [3, 3, 2]},
               "cost": {"continuous_unit": 0.005}}
        path = write_config(tmp_path / "f.yaml", cfg)
        for m in ("1", "7"):
            assert run_cli(["optimize-mixed", "--config", str(path), "--out", str(tmp_path / m),
                            "--store-every", m]) == 0
        bundle = iomod.resolve_bundle(iomod.normalize_config(cfg))
        tg, points = bundle.problem.time_grid, bundle.problem.grid.npoints
        nodes = sorted({*range(0, tg.n_steps + 1, 7), *tg.candidate_indices, tg.n_steps})
        full, thin = tmp_path / "1", tmp_path / "7"
        for name, per_node in (("adjoint.csv", points), ("summary.csv", 1)):
            header, *lines = (full / name).read_text().splitlines()
            assert len(lines) == (tg.n_steps + 1) * per_node
            want = [header, *(line for n in nodes for line in lines[n * per_node:(n + 1) * per_node])]
            assert (thin / name).read_text().splitlines() == want, name
        for name in ("cost.csv", "strategy.csv", "certificate.csv", "control.csv",
                     "control_certificate.csv"):
            assert filecmp.cmp(full / name, thin / name, shallow=False), name
        (_, complete), (_, thinned) = (iomod.config_from_manifest(d / "manifest") for d in (full, thin))
        assert "store_every" not in complete  # the manifests of m = 1 are as before
        assert thinned == {**complete, "store_every": 7}
        # the averaged model writes every node, and its manifest records no spacing
        averaged = tmp_path / "averaged"
        path = write_config(tmp_path / "a.yaml", AVERAGED_CFG)
        assert run_cli(["optimize-mixed", "--config", str(path), "--out", str(averaged),
                        "--store-every", "7"]) == 0
        n_nodes = len(iomod.resolve_bundle(AVERAGED_CFG).problem.time_grid.times)
        assert len(read_rows(averaged / "adjoint.csv")) == n_nodes
        assert "store_every" not in iomod.config_from_manifest(averaged / "manifest")[1]

    def test_manifests_record_realized_pulses_and_halvings(self, tmp_path):
        gated = {**AVERAGED_CFG, "model": {**AVERAGED_CFG["model"], "sigma_star": 0.45}}
        out = tmp_path / "pulse"
        assert run_cli(["optimize-pulse", "--config", str(write_config(tmp_path / "p.yaml", gated)),
                        "--out", str(out)]) == 0
        _, extras = iomod.config_from_manifest(out / "manifest")
        realized = sum(int(r["is_pulse"]) for r in read_rows(out / "trajectory.csv"))
        assert extras["realized_pulses"] == realized == 5  # of 12 candidates, the rest below sigma*
        assert "line_search_halvings" not in extras and "fixed_points" not in extras

        mixed = {**AVERAGED_CFG, "cost": {"pulse_unit": 0.4, "continuous_unit": 0.1}}
        out = tmp_path / "mixed"
        assert run_cli(["optimize-mixed", "--config", str(write_config(tmp_path / "m.yaml", mixed)),
                        "--out", str(out)]) == 0
        _, extras = iomod.config_from_manifest(out / "manifest")
        realized = sum(int(r["is_pulse"]) for r in read_rows(out / "trajectory.csv"))
        assert extras["realized_pulses"] == realized == 12
        bundle = iomod.resolve_bundle(mixed)
        res = ib.projected_gradient_mixed(bundle.problem, bundle.costs, u0=bundle.u)
        assert extras["line_search_halvings"] == res.diagnostics["line_search_halvings"]
        assert extras["fixed_points"] == res.diagnostics["fixed_points"] >= 1

    def test_brute_force_small_instance(self, tmp_path):
        cfg = dict(AVERAGED_CFG)
        cfg["model"] = {"kind": "averaged", "t_end": 8 / 52, "step": 1e-3}
        cfgp = write_config(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "run"
        assert run_cli(["brute-force", "--config", str(cfgp), "--out", str(out)]) == 0
        _, extras = iomod.config_from_manifest(out / "manifest")
        assert extras["enumerated"] == 2 ** 7


class TestGradientCheck:
    def test_default_bundle_passes(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert run_cli(["gradient-check", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rel_err" in printed
        rows = read_rows(out / "gradient_check.csv")
        assert all(float(r["relative_error"]) <= 1e-4 for r in rows)


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 64

    def test_no_subcommand(self):
        assert run_cli([]) == 64

    def test_unknown_flag(self, tmp_path):
        assert run_cli(["simulate-averaged", "--bogus"]) == 64

    def test_validation_failure(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", {"model": {"kind": "averaged", "sigma": 1.4}})
        assert run_cli(["simulate-averaged", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command, cfg", [  # cfg: the config, the start of the message, --out
        ("simulate-averaged", ({"model": {"sigma": 1.0}, "control": {"u": 1.0}},
                               "validation: sigma * u reaches 1.0")),
        ("simulate-averaged", (PDE_CFG, "config describes a pde model")),  # the simulate kind check
        ("brute-force", ({}, "validation: 51 candidate pulses exceed max_pulses=20")),
        ("brute-force", (PDE_CFG, "validation: brute_force_pulse enumerates the averaged model only")),
        ("optimize-mixed", ({"model": {"sigma": 0.0}}, "validation: projected_gradient_mixed needs sigma > 0")),
        # the config file itself: missing, a directory, not UTF-8, not YAML
        ("simulate-averaged", (None, "validation: cannot read <path>: No such file or directory")),
        ("simulate-averaged", ("directory", "validation: cannot read <path>: Is a directory")),
        ("simulate-averaged", (b"model: {t_end: \xff}\n", "validation: <path>: 'utf-8' codec can't decode")),
        ("simulate-averaged", (b"model: {t_end: 1\n", "validation: <path>: line 2: expected ',' or '}'")),
        ("simulate-averaged", ({"model": {"pulse_times": [0.5, 0.25]}},
                               "validation: candidate pulse times must be strictly increasing")),
        # an --out below a regular file
        ("simulate-averaged", (AVERAGED_CFG, "validation: cannot write <out>: Not a directory",
                               "afile/x")),
        # YAML that is not a mapping, and modes, kinds and field specs the config does not know
        ("simulate-averaged", (b"- 1\n- 2\n", "validation: <path>: config must be a mapping")),
        ("simulate-averaged", ({"alpha": {"amplitude": "random"}},
                               "validation: random amplitude requires the space-dependent model")),
        ("simulate-pde", ({**PDE_CFG, "alpha": {"amplitude": "gauss"}},
                          "validation: unknown amplitude mode 'gauss'")),
        ("simulate-pde", ({**PDE_CFG, "initial": {"mode": "ramp"}}, "validation: unknown initial mode 'ramp'")),
        ("simulate-averaged", ({"model": {"kind": "lattice"}}, "validation: unknown model kind 'lattice'")),
        ("simulate-pde", ({**PDE_CFG, "cost": {"final": "rho.csv"}},
                          "validation: field spec must be 'csv:<path>', got 'rho.csv'")),
        ("simulate-averaged", ({"cost": {"final": "csv:rho.csv"}},
                               "validation: csv fields require the space-dependent model")),
    ])
    def test_a_failed_run_makes_no_output_directory(self, tmp_path, capsys, command, cfg):
        (cfg, message, *out), path = cfg, tmp_path / "cfg.yaml"
        if isinstance(cfg, dict):
            write_config(path, cfg)
        elif isinstance(cfg, bytes):
            path.write_bytes(cfg)
        elif cfg == "directory":
            path.mkdir()
        (tmp_path / "afile").touch()
        out = tmp_path.joinpath(*out or ["run"])
        assert run_cli([command, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        message = message.replace("<path>:", f"{path}:").replace("<out>", str(out))
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("error, code", [(1e-4, 0), (math.nextafter(1e-4, 1.0), 2), (math.nan, 2)])
    def test_gradient_check_exits_0_iff_its_error_is_within_tolerance(self, tmp_path, monkeypatch,
                                                                      error, code):
        monkeypatch.setattr(cli, "_task_gradient_check", lambda bundle: ({"max_relative_error": error}, []))
        assert run_cli(["gradient-check", "--out", str(tmp_path)]) == code
        assert iomod.config_from_manifest(tmp_path / "manifest")[1]["task"] == "gradient-check"

    def test_unknown_config_key_rejected(self, tmp_path):
        # at any depth: preset configs are partial and rely on this check too
        for bad in ({"modle": {"kind": "averaged"}}, {"cost": {"pulse_unti": 0.5}},
                    {"initial": {"mod": "sine"}}):
            cfg = write_config(tmp_path / "cfg.yaml", bad)
            assert run_cli(["simulate-averaged", "--config", str(cfg),
                            "--out", str(tmp_path / "o")]) == 1
            with pytest.raises(ib.ProblemError, match="unknown config keys"):
                iomod.resolve_bundle(bad)

    def test_config_values_of_the_wrong_type_are_validation_failures(self, tmp_path, capsys):
        # a section that is not a mapping, a mapping where a value belongs and
        # values that are not numbers each name their key and exit 1
        cases = [({"model": 5}, "model"), ({"cost": [1, 2]}, "cost"),
                 ({"model": {"kind": "pde"}, "diffusion": {"x": 1}}, "diffusion"),
                 ({"model": {"t_end": "abc"}}, "model.t_end"),
                 ({"model": {"t_end": [1]}}, "model.t_end")]
        for bad, key in cases:
            cfg = write_config(tmp_path / "cfg.yaml", bad)
            capsys.readouterr()
            assert run_cli(["simulate-averaged", "--config", str(cfg),
                            "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err.startswith(f"validation: config key {key}:")

    @pytest.mark.parametrize("section, key", [
        ({"initial": {"mode": "csv"}}, "initial.path"),  # no path
        ({"grid": {"cells": [2, 2]}}, "grid.cells"),  # two counts for three axes
        ({"cost": {"pulse_unit": "csv:missing.csv"}}, "cost.pulse_unit"),  # no such file
    ])
    def test_field_config_mistakes_are_validation_failures(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path / "cfg.yaml", {**PDE_CFG, **section})
        assert run_cli(["simulate-pde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"validation: config key {key}:")

    @pytest.mark.parametrize("command", ["brute-force", "gradient-check"])
    def test_store_every_is_a_usage_error_where_nothing_is_stored(self, tmp_path, command):
        assert run_cli([command, "--out", str(tmp_path / "o"), "--store-every", "5"]) == 64
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, m", [("simulate-averaged", "0"), ("optimize-mixed", "-3")])
    def test_store_every_below_one_fails_for_an_averaged_config_too(self, tmp_path, capsys,
                                                                    command, m):
        # an averaged run stores every node, but a bad spacing still fails as a field's does
        assert run_cli([command, "--out", str(tmp_path / "o"), "--store-every", m]) == 1
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err == "validation: store_every must be >= 1\n"


class TestPresets:
    def test_fig1_alpha_profile(self, tmp_path):
        assert run_cli(["preset", "fig1", "--out", str(tmp_path / "fig1")]) == 0
        rows = read_rows(tmp_path / "fig1" / "alpha" / "alpha.csv")
        assert len(rows) == 1001  # t_end/step + 1
        by_t = {float(r["t"]): float(r["alpha"]) for r in rows}
        assert by_t[0.75] == 0.0
        # numeric scan of a*(t-b)^2*(1-cos(2 pi t/c)) puts the maximum in the
        # first seasonal oscillation near t ~ 0.094, value ~ 0.845*a
        t_max = max(by_t, key=by_t.get)
        assert 0.05 <= t_max <= 0.15
        assert by_t[t_max] == pytest.approx(0.845 * 0.5 * np.log(10.0), rel=1e-2)

    def test_fig2_member_runs(self, tmp_path):
        assert run_cli(["preset", "fig2", "--out", str(tmp_path / "fig2")]) == 0
        for label in ("c-0.25", "c-0.4", "c-0.5"):
            member = tmp_path / "fig2" / label
            assert (member / "strategy.csv").exists()
            assert (member / "trajectory.csv").exists()

    def test_mixed_preset_shows_a_mixed_strategy(self, tmp_path):
        assert run_cli(["preset", "mixed", "--out", str(tmp_path)]) == 0
        manifest = iomod.config_from_manifest(tmp_path / "C-0.005" / "manifest")[1]
        assert manifest["converged"] is True and manifest["stop_reason"] == "stationary"
        assert manifest["iterations"] <= 20 and manifest["realized_pulses"] > 0
        u = [float(r["u"]) for r in read_rows(tmp_path / "C-0.005" / "control.csv")]
        assert max(u) == 1.0
        v = [float(r["v_i"]) for r in read_rows(tmp_path / "C-0.005" / "strategy.csv")]
        assert 0.0 in v  # the chemical control and the pulses are both used

    def test_every_member_resolves_validates_and_dispatches(self, tmp_path, monkeypatch):
        # the task functions are replaced: members are resolved and dispatched, not run
        calls = []
        tasks = {"alpha-profile": "emit_alpha_profile", "simulate": "_task_simulate",
                 "optimize-pulse": "_task_optimize_pulse", "optimize-mixed": "_task_optimize_mixed"}
        for task, name in tasks.items():
            monkeypatch.setattr(cli, name, lambda bundle, *rest, _task=task:
                                calls.append((_task, bundle.kind, rest)) or ({}, []))
        for preset in PRESETS.values():
            for run in preset.runs:
                bundle = iomod.resolve_bundle(run.config)
                assert ib.validate(bundle.problem, bundle.u, bundle.strategy, bundle.costs).ok
                assert cli._run(run.task, run.config, None, tmp_path, f"{preset.name}/{run.label}", 50) == 0
                task, kind, rest = calls.pop()
                assert task == run.task
                if task in ("simulate", "optimize-pulse", "optimize-mixed"):  # one store-every rule
                    assert rest == ((50,) if kind == "pde" else (1,))
        assert not calls

    def test_invalid_member_fails_and_the_others_still_run(self, tmp_path, monkeypatch, capsys):
        # members that fail validation, resolution, their task's checks, their solver
        # and the making of their output directory (a regular file stands in its place)
        broken = ExperimentPreset("broken", "five failing members, one valid", (
            PresetRun("bad", "simulate", {"model": {"sigma": 2.0}}),
            PresetRun("t_end", "simulate", {"model": {"t_end": "abc"}}),
            PresetRun("sigma-0", "optimize-mixed", {"model": {"sigma": 0.0}}),
            PresetRun("solver", "optimize-pulse", {}),
            PresetRun("blocked", "simulate", {"model": {"t_end": 0.05}}),
            PresetRun("good", "simulate", {"model": {"t_end": 0.05}}),
        ))
        (tmp_path / "blocked").touch()
        monkeypatch.setitem(PRESETS, "broken", broken)

        def stalled(*args):
            raise ib.LinearSolverError(1.0, 5)

        monkeypatch.setattr(cli, "_task_optimize_pulse", stalled)
        assert run_cli(["preset", "broken", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "broken/bad: sigma out of [0,1]: 2.0\n"
            "broken/t_end: config key model.t_end: expected a number, got 'abc'\n"
            "broken/sigma-0: projected_gradient_mixed needs sigma > 0 (u has no effect otherwise)\n"
            "broken/solver: conjugate gradient stalled: relative residual 1.000e+00 after 5 iterations\n"
            f"broken/blocked: cannot write {tmp_path / 'blocked'}: File exists\n")
        assert {p.name for p in tmp_path.iterdir()} == {"blocked", "good"}
        assert (tmp_path / "blocked").is_file()
        assert {p.name for p in (tmp_path / "good").iterdir()} == {"trajectory.csv", "cost.csv",
                                                                   "manifest"}

    def test_manifest_round_trip(self, tmp_path):
        assert run_cli(["preset", "fig2", "--out", str(tmp_path / "a")]) == 0
        member = tmp_path / "a" / "c-0.4"
        cfg, extras = iomod.config_from_manifest(member / "manifest")
        assert extras["task"] == "optimize-pulse"
        cfg_path = write_config(tmp_path / "replay.yaml", cfg)
        out2 = tmp_path / "replay"
        assert run_cli(["optimize-pulse", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("strategy.csv", "trajectory.csv", "certificate.csv", "cost.csv"):
            assert filecmp.cmp(member / name, out2 / name, shallow=False), name


def test_field_csv_round_trip(tmp_path):
    grid = ib.SpaceGrid.from_cells(2, 3, 1)
    rng = np.random.default_rng(9)
    field = ib.ScalarField(grid, rng.random(grid.dims))
    path = tmp_path / "field.csv"
    iomod.write_field_csv(path, field)
    back = iomod.read_field_csv(path, grid)
    assert np.array_equal(back.values, field.values)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines[:3], "\n", *lines[3:], "\n"]))  # blank lines are skipped
    assert np.array_equal(iomod.read_field_csv(path, grid).values, field.values)


def test_csv_initial_condition_config(tmp_path):
    grid = ib.SpaceGrid.from_cells(2, 2, 1)
    rho = ib.ScalarField(grid, np.random.default_rng(2).random(grid.dims))
    iomod.write_field_csv(tmp_path / "rho.csv", rho)
    cfg = {
        "model": {"kind": "pde", "t_end": 0.05, "step": 1e-3},
        "grid": {"cells": [2, 2, 1]},
        "initial": {"mode": "csv", "path": "rho.csv"},
    }
    bundle = iomod.resolve_bundle(cfg, base_dir=tmp_path)
    assert np.array_equal(bundle.problem.initial.values, rho.values)


def test_csv_cost_fields_config(tmp_path):
    # the default grid, cells [10, 10, 3]: 11 x 11 x 4 points and 51 candidate pulse times
    grid = ib.SpaceGrid.from_cells(10, 10, 3)
    rng = np.random.default_rng(4)
    final, unit = (ib.ScalarField(grid, rng.random(grid.dims)) for _ in range(2))
    iomod.write_field_csv(tmp_path / "final.csv", final)
    iomod.write_field_csv(tmp_path / "unit.csv", unit)
    cfg = {"model": {"kind": "pde"}, "cost": {"final": "csv:final.csv", "pulse_unit": "csv:unit.csv"}}
    costs = iomod.resolve_bundle(cfg, base_dir=tmp_path).costs
    assert costs.final.shape == (11, 11, 4) and costs.pulse_unit.shape == (51, 11, 11, 4)
    assert np.array_equal(costs.final, final.values)
    assert all(np.array_equal(row, unit.values) for row in costs.pulse_unit)


def test_pulse_times_config_sets_the_candidates():
    # a decreasing list is a validation failure: see test_a_failed_run_makes_no_output_directory
    bundle = iomod.resolve_bundle({"model": {"pulse_times": [0.25, 0.5, 0.75]}})
    assert list(bundle.problem.time_grid.candidate_pulse_times) == [0.25, 0.5, 0.75]


def test_alpha_profile_of_a_field_model_is_the_averaged_one(tmp_path):
    # a uniform amplitude: the field's mean profile is the averaged model's
    for kind in ("averaged", "pde"):
        assert cli._run("alpha-profile", {"model": {"kind": kind}}, None, tmp_path / kind) == 0
    assert filecmp.cmp(tmp_path / "averaged" / "alpha.csv", tmp_path / "pde" / "alpha.csv",
                       shallow=False)
    assert len((tmp_path / "pde" / "alpha.csv").read_text().splitlines()) == 1002


@pytest.mark.parametrize("edit, message", [
    ({16: "3,0,0,0.4"}, "line 18: point (3, 0, 0) outside the grid dims (3, 3, 2)"),
    ({17: "-1,2,1,0.9"}, "line 19: point (-1, 2, 1) outside"),  # not a stand-in for (2,2,1)
    ({0: "0.5,0,0,0.4"}, "line 2: expected integer i,j,k and a number"),
    ({0: "0,0,0,abc"}, "line 2: expected integer i,j,k and a number"),
    ({3: "0,1,1,nan"}, "line 5: value nan at (0, 1, 1) is not finite"),
    ({5: "0,1,1,0.3"}, "line 7: point (0, 1, 1) given twice"),
    ({17: None}, "1 missing grid point(s), the first (2, 2, 1)"),
    ({3: "0,1,1,0.\udcff"}, "'utf-8' codec can't decode byte 0xff"),  # the byte 0xff: not UTF-8
    ({"header": "i,j,value"}, "expected header i,j,k,value, got ['i', 'j', 'value']"),
])
def test_field_csv_mistakes_are_validation_failures(tmp_path, capsys, edit, message):
    # one row per point of the 3x3x2 points of cells [2, 2, 1], then one row replaced or dropped
    rows = [f"{i},{j},{k},0.{i + j + k + 1}" for i in range(3) for j in range(3) for k in range(2)]
    rows = [edit.get(n, row) for n, row in enumerate(rows)]
    (tmp_path / "rho.csv").write_text("\n".join([edit.get("header", "i,j,k,value"), *filter(None, rows)]) + "\n",
                                      encoding="utf-8", errors="surrogateescape")
    cfg = write_config(tmp_path / "cfg.yaml", {**PDE_CFG, "initial": {"mode": "csv", "path": "rho.csv"}})
    assert run_cli(["simulate-pde", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation: config key initial.path:")
    assert f"rho.csv: {message}" in err


@pytest.mark.parametrize("cfg, command", [(AVERAGED_CFG, "simulate-averaged"), (PDE_CFG, "simulate-pde")])
def test_scalar_pulse_values_stand_for_one_value_per_candidate(tmp_path, cfg, command):
    m = iomod.resolve_bundle(cfg).problem.time_grid.n_candidates
    for name, values in (("scalar", 0.5), ("list", [0.5] * m)):
        path = write_config(tmp_path / f"{name}.yaml", {**cfg, "control": {"u": 0.2, "pulse_values": values}})
        assert run_cli([command, "--config", str(path), "--out", str(tmp_path / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "list").glob("*.csv"))
    assert names and names == sorted(p.name for p in (tmp_path / "scalar").glob("*.csv"))
    for name in names:
        assert filecmp.cmp(tmp_path / "scalar" / name, tmp_path / "list" / name, shallow=False), name


def test_random_amplitude_seed_override(tmp_path):
    cfg = {
        "model": {"kind": "pde", "t_end": 0.05, "step": 1e-3},
        "grid": {"cells": [2, 2, 1]},
        "alpha": {"amplitude": "random"},
        "seed": 5,
    }
    b5 = iomod.resolve_bundle(cfg)
    b5_again = iomod.resolve_bundle(cfg)
    b9 = iomod.resolve_bundle(cfg, seed_override=9)
    amp = lambda b: b.problem.pressure.amplitude_field.values  # noqa: E731
    assert np.array_equal(amp(b5), amp(b5_again))
    assert not np.array_equal(amp(b5), amp(b9))


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports inhibopt from this source tree, its output captured."""
    src = str(Path(ib.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_start_up_loads_no_hashlib():
    # only the mixed optimizer's line search digests controls, and it imports hashlib itself
    code = "import sys, inhibopt.cli; sys.exit('hashlib' in sys.modules)"
    assert _fresh_python("-c", code).returncode == 0


def test_the_entry_point_reports_an_unwritable_out_in_one_line(tmp_path):
    # the module run as a program: exit 1, one stderr line and no traceback, nothing written
    (tmp_path / "afile").touch()
    out = tmp_path / "afile" / "x"
    run = _fresh_python("-m", "inhibopt.cli", "simulate-averaged", "--out", str(out))
    assert run.returncode == 1
    assert run.stderr == f"validation: cannot write {out}: Not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").stat().st_size == 0
