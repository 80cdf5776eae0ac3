"""Output fingerprints: every file that the bundled presets and the eight rerun configs
of ``CONFIG_RUNS`` write, generated once in process and compared with
``fingerprints.json``.  ``CONFIG_RUNS`` is the one copy of those configs: the CI step that
reruns this file under two hash seeds and a relocating allocator, and then compares the
runs with ``diff -r``, writes them through it (see the README's "Tests").

On the numpy version and machine that made ``fingerprints.json`` each file's SHA-256
must match, so a change of any output byte fails.  Elsewhere numpy may round in
another order, so the files whose bytes differ are parsed and their values compared
instead, within ``RTOL`` of their scale (see ``_differences``), and a warning says so
and counts those files.

After a deliberate change of outputs, regenerate the file with

    PYTHONPATH=src python tests/test_fingerprints.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from inhibopt.cli import run_cli
from inhibopt.io import config_from_manifest
from inhibopt.presets import PRESETS

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
REGENERATE = "PYTHONPATH=src python tests/test_fingerprints.py"
RTOL = 1e-6  # on another numpy or machine: relative to the column's (or entry's) scale
ATOL = 1e-12

# the one copy of the rerun configs, which CI reruns through this file:
# run directory -> (command, config)
CONFIG_RUNS = {
    "fixed-point": (["optimize-pulse"],
                    "model: {kind: pde, sigma_star: 0.015}\ninitial: {mode: sine}\n"
                    "cost: {pulse_unit: 0.55}\n"),
    "mixed-threshold": (["optimize-mixed"],
                        "model: {sigma_star: 0.3}\ncost: {continuous_unit: 0.005}\n"),
    "mixed-field": (["optimize-mixed"],
                    "model: {kind: pde, t_end: 0.5}\ngrid: {cells: [4, 4, 2]}\n"
                    "alpha: {amplitude: random}\ninitial: {mode: uniform, value: 0.4}\n"
                    "cost: {continuous_unit: 0.005}\n"),
    "simulate-field": (["simulate-pde", "--store-every", "50"],
                       "model: {kind: pde}\nalpha: {amplitude: random}\ninitial: {mode: sine}\n"
                       "control: {u: 0.2}\n"),
    "scalar-pulses": (["simulate-pde", "--store-every", "50"],
                      "model: {kind: pde}\ncontrol: {u: 0.2, pulse_values: 0.5}\n"),
    "gradient-averaged": (["gradient-check"], None),
    "gradient-field": (["gradient-check"],
                       "model: {kind: pde, t_end: 0.2}\ngrid: {cells: [4, 4, 2], spacing: 0.5}\n"
                       "alpha: {amplitude: random}\ninitial: {mode: uniform, value: 0.4}\n"),
    "line-search": (["optimize-mixed"],
                    "model: {t_end: 0.25, sigma_star: 0.4166, theta0: 0.3769}\n"
                    "cost: {pulse_unit: 0.0613, continuous_unit: 0.002, final: 0.3118}\n"),
}


def machine() -> str:
    """The architecture and the SIMD targets numpy dispatches to, on which its
    reductions' rounding depends."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return " ".join([platform.machine(), *(f for f in getattr(umath, "__cpu_dispatch__", ())
                                           if features.get(f))])


def generate(work: Path) -> Path:
    """Run every preset and rerun config into ``work/out``, one directory a run."""
    out, configs = work / "out", work / "configs"
    configs.mkdir(parents=True)
    runs = [["preset", name, "--out", str(out / name)] for name in PRESETS]
    for name, (command, text) in CONFIG_RUNS.items():
        args = [*command, "--out", str(out / name)]
        if text is not None:
            (configs / f"{name}.yaml").write_text(text)
            args += ["--config", str(configs / f"{name}.yaml")]
        runs.append(args)
    with contextlib.redirect_stdout(io.StringIO()):  # gradient-check prints its report
        for args in runs:
            if run_cli(args) != 0:
                raise AssertionError(f"inhibopt {' '.join(args)} failed")
    return out


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _fingerprint(path: Path, parsed: bool) -> dict:
    """A file's SHA-256 and, if ``parsed``, its values: the numbers of a manifest by key,
    or a CSV's per-column [count, min, max, sum] of its numbers; ``layout`` digests the
    text with every number masked (header, labels, empty cells and the line count)."""
    data = path.read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if not parsed:
        return entry
    lines = [line.split("=", 1) if path.name == "manifest" else line.split(",")
             for line in data.decode().splitlines()]
    cells = [[_number(c) for c in line] for line in lines]
    layout = "\n".join(",".join("#" if x is not None else c for c, x in zip(line, xs))
                       for line, xs in zip(lines, cells))
    entry["layout"] = hashlib.sha256(layout.encode()).hexdigest()
    if path.name == "manifest":
        entry["values"] = {key: x for (key, _), (_, x) in zip(lines, cells) if x is not None}
    else:
        columns = zip(*cells[1:]) if len(cells) > 1 else [[]] * len(lines[0])
        entry["columns"] = {}
        for name, column in zip(lines[0], columns):
            xs = [x for x in column if x is not None]
            entry["columns"][name] = ([len(xs), min(xs), max(xs), math.fsum(xs)] if xs
                                      else [0, 0.0, 0.0, 0.0])
    return entry


def fingerprints(out: Path, parsed: bool = True) -> dict:
    """Each file under ``out`` by its path there: its SHA-256, and if ``parsed`` its values."""
    return {str(p.relative_to(out)): _fingerprint(p, parsed)
            for p in sorted(out.rglob("*")) if p.is_file()}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * scale + ATOL


def _differences(got: dict, want: dict) -> list[str]:
    """What differs beyond the tolerance: a layout, a count, a manifest number by RTOL of
    itself, a column's min and max by RTOL of its largest magnitude and its sum by RTOL of
    count times that.  A change below that in one value of a long column passes here;
    only the SHA-256 sees every byte."""
    problems = []
    for name, w in want.items():
        g = got[name]
        if g["layout"] != w["layout"]:
            problems.append(f"{name}: text or line count differs")
        elif "values" in w:
            problems += [f"{name}: {key}={g['values'][key]!r}, want {x!r}"
                         for key, x in w["values"].items()
                         if key not in g["values"] or not _close(g["values"][key], x, abs(x))]
        else:
            for column, (n, lo, hi, total) in w["columns"].items():
                scale = max(abs(lo), abs(hi))
                gn, glo, ghi, gtotal = g["columns"][column]
                if not (gn == n and _close(glo, lo, scale) and _close(ghi, hi, scale)
                        and _close(gtotal, total, scale * n)):
                    problems.append(f"{name}: column {column} has [count, min, max, sum] "
                                    f"{[gn, glo, ghi, gtotal]}, want {[n, lo, hi, total]}")
    return problems


def check(out: Path, here: dict) -> None:
    """Assert that the files under ``out`` match ``fingerprints.json``: by their bytes if
    ``here`` (a numpy version and a machine) made it, else by the parsed values of the
    files whose bytes differ, with a warning that says so."""
    ref = json.loads(FINGERPRINTS.read_text())
    got = fingerprints(out, parsed=False)
    assert sorted(got) == sorted(ref["files"]), "the runs wrote other files"
    changed = [name for name, entry in ref["files"].items() if got[name]["sha256"] != entry["sha256"]]
    if here == {"numpy": ref["numpy"], "machine": ref["machine"]}:
        assert not changed, (f"{len(changed)} of {len(got)} files differ from their fingerprints "
                             f"(the first: {changed[:5]}); after a deliberate change, "
                             f"regenerate with {REGENERATE}")
        return
    # equal bytes have equal layout and values: only the files whose bytes differ are parsed
    problems = _differences({name: _fingerprint(out / name, parsed=True) for name in changed},
                            {name: ref["files"][name] for name in changed})
    assert not problems, "\n".join(problems[:20])
    warnings.warn(f"fingerprints made with numpy {ref['numpy']} on {ref['machine']}, run with "
                  f"numpy {here['numpy']} on {here['machine']}: parsed values compared within "
                  f"rtol {RTOL}, and they agree; {len(changed)} of {len(got)} files differ in bytes")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    """Every preset and rerun config, run once for all the tests of this file."""
    return generate(tmp_path_factory.mktemp("outputs"))


def test_outputs_match_their_fingerprints(outputs):
    check(outputs, {"numpy": np.__version__, "machine": machine()})


def test_elsewhere_the_files_whose_bytes_differ_are_compared_by_value(outputs, tmp_path):
    ref = json.loads(FINGERPRINTS.read_text())
    made = {"numpy": ref["numpy"], "machine": ref["machine"]}  # where the fingerprints were made
    elsewhere = {**made, "machine": f"other than {made['machine']}"}
    with pytest.warns(UserWarning, match="and they agree"):
        check(outputs, elsewhere)
    # one number of one file off by 1e-5 of itself (a copy of links, and a new file in its place)
    copy = shutil.copytree(outputs, tmp_path / "out", copy_function=os.link)
    manifest = copy / "line-search" / "manifest"
    text, cost = manifest.read_text(), config_from_manifest(manifest)[1]["total_cost"]
    off = text.replace(f"total_cost={cost!r}\n", f"total_cost={cost * (1 + 1e-5)!r}\n")
    assert off != text
    manifest.unlink()
    manifest.write_text(off)
    with pytest.raises(AssertionError, match="files differ from their fingerprints"):
        check(copy, made)
    with pytest.raises(AssertionError, match="line-search/manifest: total_cost="):
        check(copy, elsewhere)


def test_the_rerun_manifests_keep_their_counters(outputs):
    # the field mixed run counts each CG solve once: 3 fixed points of 2 runs of 520 steps
    field = config_from_manifest(outputs / "mixed-field" / "manifest")[1]
    assert (field["cg_solves"], field["fixed_points"]) == (3120, 3)
    # a threshold line search that tries no control twice reaches its step tolerance
    search = config_from_manifest(outputs / "line-search" / "manifest")[1]
    assert search["stop_reason"] != "line search failed"
    assert search["fixed_points"] <= 147


def test_elsewhere_values_are_compared_within_the_tolerance(tmp_path):
    csv, manifest = "t,x,label\n0.0,{},u\n0.5,-2.25,v\n", "total_cost={}\ntask=simulate\n"

    def fingerprinted(x, cost, csv=csv):
        (tmp_path / "a.csv").write_text(csv.format(repr(float(x))))
        (tmp_path / "manifest").write_text(manifest.format(repr(float(cost))))
        return fingerprints(tmp_path)

    want = fingerprinted(1.5, 0.75)
    assert _differences(fingerprinted(np.nextafter(1.5, 2.0), np.nextafter(0.75, 0.0)), want) == []
    assert len(_differences(fingerprinted(1.5 + 1e-5, 0.75), want)) == 1  # min, max and sum
    assert len(_differences(fingerprinted(1.5, 0.75 * (1 + 1e-5)), want)) == 1
    assert len(_differences(fingerprinted(1.5, 0.75, csv.replace(",u", ",w")), want)) == 1
    assert len(_differences(fingerprinted(1.5, 0.75, csv + "1.0,0.0,w\n"), want)) == 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = fingerprints(generate(Path(tmp)))
    head = {"regenerate": REGENERATE, "numpy": np.__version__, "machine": machine()}
    FINGERPRINTS.write_text(  # one line a file, so a change of outputs diffs by file
        json.dumps(head, indent=1)[:-2] + ',\n "files": {\n'
        + ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
                     for name, entry in files.items()) + "\n }\n}\n")
    print(f"wrote {len(files)} fingerprints to {FINGERPRINTS}")
