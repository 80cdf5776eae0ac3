import numpy as np
import pytest

import inhibopt as ib

REF_AMPLITUDE = 0.5 * np.log(10.0)
REF_PEAK_TIME = 0.75
REF_PERIOD = 0.2
REF_SIGMA = 0.3
WEEK = 1.0 / 52.0


def reference_alpha():
    return ib.seasonal_profile(REF_AMPLITUDE, REF_PEAK_TIME, REF_PERIOD)


def reference_averaged(h=1e-3, t_end=1.0, sigma=REF_SIGMA, sigma_star=0.0, theta0=0.4):
    tg = ib.TimeGrid.regular(t_end, h, WEEK)
    return ib.AveragedProblem(tg, reference_alpha(), ib.ChemicalParams(sigma, sigma_star), theta0)


def reference_pde(h=1e-3, t_end=1.0, cells=(10, 10, 3), diffusion=1.0, sigma=REF_SIGMA,
              sigma_star=0.0, initial=0.4, amplitude=None, spacing=1.0):
    tg = ib.TimeGrid.regular(t_end, h, WEEK)
    grid = ib.SpaceGrid.from_cells(*cells, spacing=spacing)
    amp = amplitude if amplitude is not None else ib.ScalarField.uniform(grid, REF_AMPLITUDE)
    return ib.PdeProblem(
        tg,
        grid,
        ib.InhibitionPressure(amp, REF_PEAK_TIME, REF_PERIOD),
        ib.DiffusionField.isotropic(grid, diffusion),
        ib.ChemicalParams(sigma, sigma_star),
        initial if isinstance(initial, ib.ScalarField) else ib.ScalarField.uniform(grid, float(initial)),
    )


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
