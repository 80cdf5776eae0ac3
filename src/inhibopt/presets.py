"""Bundled experiment presets.

Each preset expands to one or more runs.  A run's config is a partial config
of the schema the CLI accepts, holding what differs from the defaults;
``io.resolve_bundle`` fills in the rest and rejects unknown keys, and the
manifest records the resolved config, so preset runs are reproducible from
their manifests alone.
fig1 samples the seasonal pressure profile; fig2-fig4 sweep the pulse-only
optimization over unit pulse costs, a constant chemical control and the
final-cost weight; fig5/fig6 run the space-dependent optimization for
diffusion 1*I and 10*I with the center-concentrated initial condition;
fig7 uses a seeded random pressure amplitude with a uniform initial state;
mixed runs the mixed optimizer at a chemical unit cost where u stays 0 and at
one where the chemical and pulse controls are both used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .io import DEFAULT_AMPLITUDE


@dataclass(frozen=True)
class PresetRun:
    label: str
    task: str  # alpha-profile | simulate | optimize-pulse | optimize-mixed
    config: dict


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    description: str
    runs: tuple[PresetRun, ...]


def _build_presets() -> dict[str, ExperimentPreset]:
    presets = {}

    presets["fig1"] = ExperimentPreset(
        "fig1",
        "seasonal inhibition-pressure profile sampled at t_end/step + 1 evenly spaced times",
        (PresetRun("alpha", "alpha-profile", {}),),
    )

    pulse_cost_sweep = (0.25, 0.4, 0.5)
    presets["fig2"] = ExperimentPreset(
        "fig2",
        "pulse-only optimization for unit pulse costs 0.25/0.4/0.5 (no chemical control)",
        tuple(
            PresetRun(f"c-{c}", "optimize-pulse", {"cost": {"pulse_unit": c}})
            for c in pulse_cost_sweep
        ),
    )

    presets["fig3"] = ExperimentPreset(
        "fig3",
        "same pulse-cost sweep with constant chemical control u=1, sigma=0.3",
        tuple(
            PresetRun(
                f"c-{c}",
                "optimize-pulse",
                {"cost": {"pulse_unit": c}, "control": {"u": 1.0}},
            )
            for c in pulse_cost_sweep
        ),
    )

    presets["fig4"] = ExperimentPreset(
        "fig4",
        "final-cost sweep C_f in {0, 0.25, 0.5} at unit pulse cost 0.5",
        tuple(
            PresetRun(
                f"Cf-{cf}",
                "optimize-pulse",
                {"cost": {"pulse_unit": 0.5, "final": cf}},
            )
            for cf in (0.0, 0.25, 0.5)
        ),
    )

    sine_initial = {"mode": "sine", "mean": 0.4, "floor": 0.2}
    presets["fig5"] = ExperimentPreset(
        "fig5",
        "space-dependent optimization, diffusion 1*I, center-concentrated initial state",
        (
            PresetRun(
                "A-1",
                "optimize-pulse",
                {"model": {"kind": "pde"}, "diffusion": 1.0, "initial": sine_initial,
                 "cost": {"pulse_unit": 0.55}},
            ),
        ),
    )
    presets["fig6"] = ExperimentPreset(
        "fig6",
        "as fig5 with diffusion 10*I (same optimal pulse set)",
        (
            PresetRun(
                "A-10",
                "optimize-pulse",
                {"model": {"kind": "pde"}, "diffusion": 10.0, "initial": sine_initial,
                 "cost": {"pulse_unit": 0.55}},
            ),
        ),
    )

    presets["fig7"] = ExperimentPreset(
        "fig7",
        "seeded random pressure amplitude, uniform initial state (space-dependent strategy)",
        (
            PresetRun(
                "random-a",
                "optimize-pulse",
                {
                    "model": {"kind": "pde"},
                    "alpha": {"amplitude": "random", "mean": DEFAULT_AMPLITUDE},
                    "initial": {"mode": "uniform", "value": 0.4},
                    "cost": {"pulse_unit": 0.55},
                    "seed": 7,
                },
            ),
        ),
    )

    presets["mixed"] = ExperimentPreset(
        "mixed",
        "mixed chemical/pulse optimization by projected gradient (c = 0.5; C = 0.1 keeps "
        "u = 0, C = 0.005 uses both controls)",
        (
            PresetRun(
                "mixed",
                "optimize-mixed",
                {"cost": {"pulse_unit": 0.5, "continuous_unit": 0.1}},
            ),
            PresetRun("C-0.005", "optimize-mixed", {"cost": {"continuous_unit": 0.005}}),
        ),
    )

    presets["uniform-check"] = ExperimentPreset(
        "uniform-check",
        "uniform-data run where the space-dependent model collapses to the averaged one",
        (
            PresetRun(
                "pde",
                "simulate",
                {"model": {"kind": "pde"}, "initial": {"mode": "uniform", "value": 0.4},
                 "cost": {"pulse_unit": 0.55}},
            ),
            PresetRun("averaged", "simulate", {"cost": {"pulse_unit": 0.55}}),
        ),
    )

    return presets


PRESETS = _build_presets()
