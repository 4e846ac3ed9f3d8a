"""Closed-form (Plancherel) oracles for the norm stack at p = 2.

For f = exp(-(x/w)^2) the Fourier transform is w sqrt(pi) exp(-w^2 xi^2 / 4),
so |f^(xi)|^2 = pi w^2 exp(-w^2 xi^2 / 2) and, by Plancherel,

    ||Delta_h^m f||_2^2 = (1/2pi) int |2 sin(h xi / 2)|^(2m) |f^(xi)|^2 dxi,
    ||f||_{H^s_2}^2     = (1/2pi) int (1 + xi^2)^s |f^(xi)|^2 dxi,
    |f|_{B^s_{2,2}}^2   = int_{|h| <= 1} |h|^(-2s-1) ||Delta_h^m f||_2^2 dh.

Each is a one-dimensional scipy quad, folded onto xi >= 0 (and h > 0 for
the seminorm, a quad over h of the difference quad). The
Littlewood-Paley path treats the window as one period L, so its exact value
is the Fourier series of the periodized Gaussian, whose coefficients are
f^(2 pi k / L) / L. (Against the integral over the whole line it differs by
up to 6e-5 relative at these widths: the quintic band masks are only C^2,
so each band has algebraic tails that wrap around the period.)

Every assertion is against these closed forms, never against another
besovlab routine. Each bound is the worst error measured at 2^13+1 samples
on [-16, 16], times the headroom stated beside it.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from besovlab.grid import Extension, SpaceParams, sample_fn
from besovlab.norms import (
    DEFAULT_HGRID,
    _difference_norm_table,
    besov_seminorm_diff,
    littlewood_paley_norm,
    sobolev_norm_fourier,
)

COUNT = 2**13 + 1
WINDOW = (-16.0, 16.0)
WIDTHS = (0.25, 1.0, 2.0)
# measured worst 3.9e-12, at m = 3 and the smallest shift, where the
# stencil cancels about 8 digits of f: 25x headroom
DIFF_REL = 1e-10
# measured worst 1.2e-15 (H^s) and 1.8e-16 (Littlewood-Paley): 8x and 55x
FOURIER_REL = 1e-14


def gaussian(w):
    return sample_fn(lambda x: np.exp(-((np.asarray(x) / w) ** 2)), WINDOW, COUNT, Extension.ZERO)


def spectral_integral(weight, w):
    """(1/2pi) int weight(xi) |f^(xi)|^2 dxi over the real line, for even
    weight; the Gaussian factor is below 1e-300 past xi = 40/w."""
    val, _ = quad(
        lambda xi: weight(xi) * w * w * math.exp(-w * w * xi * xi / 2.0),
        0.0, 40.0 / w, epsabs=0.0, epsrel=1e-13, limit=400,
    )
    return val


@pytest.mark.parametrize("w", WIDTHS)
def test_difference_table_matches_plancherel(w):
    f = gaussian(w)
    hs = DEFAULT_HGRID.materialize(f.spacing)[0]
    for m in (1, 2, 3):
        exact = np.array([
            math.sqrt(spectral_integral(lambda xi: (2.0 * math.sin(h * xi / 2.0)) ** (2 * m), w))
            for h in np.abs(hs)
        ])
        # row counts off the block size: a partial last block, and one
        # short of the whole table
        for rows in (1, 6, 13, hs.size - 1, hs.size):
            got = _difference_norm_table(f, m, hs[:rows], 2.0)
            rel = np.abs(got - exact[:rows]) / exact[:rows]
            assert rel.max() < DIFF_REL, (w, m, rows, rel.max())


@pytest.mark.parametrize("w", WIDTHS)
def test_sobolev_norm_fourier_matches_plancherel(w):
    f = gaussian(w)
    for s in (0.5, 1.25, 2.1, 2.6):
        exact = math.sqrt(spectral_integral(lambda xi: (1.0 + xi * xi) ** s, w))
        assert sobolev_norm_fourier(f, s, 2.0) == pytest.approx(exact, rel=FOURIER_REL, abs=0.0)


def _cutoff(xi):
    u = np.clip(np.abs(xi) - 1.0, 0.0, 1.0)
    return 1.0 - u**3 * (10.0 + u * (-15.0 + 6.0 * u))


def _littlewood_paley_series(w, s, dx):
    """(sum_j 2^(2js) ||band_j f||_2^2)^(1/2) on the torus of period L, by
    Parseval over the Fourier series of the periodized Gaussian."""
    period = WINDOW[1] - WINDOW[0]
    k = np.arange(int(40.0 / w * period / (2.0 * math.pi)) + 2)
    xi = 2.0 * math.pi * k / period
    # |coefficient|^2 * period, both signs of k but k = 0 once
    power = np.where(k == 0, 1.0, 2.0) * math.pi * w * w * np.exp(-w * w * xi * xi / 2.0) / period
    total = 0.0
    for j in range(math.ceil(math.log2(math.pi / dx)) + 2):
        mask = _cutoff(xi) if j == 0 else _cutoff(2.0**-j * xi) - _cutoff(2.0 ** (1 - j) * xi)
        total += 2.0 ** (2 * j * s) * float(np.sum(mask**2 * power))
    return math.sqrt(total)


@pytest.mark.parametrize("w", WIDTHS)
def test_littlewood_paley_norm_matches_the_fourier_series(w):
    f = gaussian(w)
    for s in (1.5, 2.1, 2.6):
        exact = _littlewood_paley_series(w, s, f.spacing)
        got = littlewood_paley_norm(f, SpaceParams(s, 2.0, 2.0, 3))
        assert got == pytest.approx(exact, rel=FOURIER_REL, abs=0.0)


# The whole besov_seminorm_diff at p = q = 2, m = 3, keyed by w, with w/dx
# cells per width. Each bound is the worst relative error over s measured
# before the test was written, and the headroom beside it. From 64 cells on
# the error is the h-quadrature's bias (log-midpoint nodes, 4 per level and
# sign): at w = 2 it stays at -3.3e-3 for s = 1.5 from 2^13+1 to 2^15+1
# samples. At 8 cells the sampling error dominates.
SEMINORM_REL = {
    1.0 / 32.0: 0.1,  # 8 cells: measured +7.4e-2 at s = 2.6, 1.35x
    0.25: 2e-3,  # 64 cells: -1.4e-3 at s = 2.1, 1.46x
    1.0: 6e-4,  # 256 cells: -3.9e-4 at s = 1.5, 1.54x
    2.0: 5e-3,  # 512 cells: -3.3e-3 at s = 1.5, 1.49x
}


def seminorm_exact(w, s, m=3):
    """(int_{|h| <= 1} |h|^(-2s-1) ||Delta_h^m f||_2^2 dh)^(1/2), both signs
    of h folded onto h > 0."""
    val, _ = quad(
        lambda h: h ** (-2.0 * s - 1.0) * spectral_integral(lambda xi: (2.0 * math.sin(h * xi / 2.0)) ** (2 * m), w),
        0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200,
    )
    return math.sqrt(2.0 * val)


@pytest.mark.parametrize("w", list(SEMINORM_REL))
def test_besov_seminorm_diff_matches_plancherel(w):
    f = gaussian(w)
    assert w / f.spacing >= 8.0
    for s in (1.5, 2.1, 2.6):
        exact = seminorm_exact(w, s)
        got = besov_seminorm_diff(f, SpaceParams(s, 2.0, 2.0, 3))
        assert got == pytest.approx(exact, rel=SEMINORM_REL[w], abs=0.0), (s, got / exact - 1.0)
