import math

import numpy as np
import pytest

from besovlab.gadgets import (
    eta_eps,
    linear_cutoff,
    plateau,
    unit_bump,
    zigzag_g,
    zigzag_value,
)
from besovlab.grid import SpaceParams, grid_derivative, lp_norm, smoothstep
from besovlab.norms import besov_norm_diff, besov_seminorm_diff

SP = SpaceParams(1.5, 2.0, 2.0, 2)


def test_unit_bump_values():
    b = unit_bump(0.0)
    assert b(0.5) == 1.0
    assert b(-1.0) == 0.0
    assert b(2.0) == 0.0
    assert np.all(b.samples >= 0.0)


def test_unit_bump_placement_error():
    with pytest.raises(ValueError):
        unit_bump(15.5)


def test_unit_bump_translation_invariance():
    n0 = besov_norm_diff(unit_bump(0.0), SP)
    n2 = besov_norm_diff(unit_bump(2.0), SP)
    assert abs(n0 - n2) <= 1e-10 * n0


def test_unit_bump_lp_mass():
    b = unit_bump(0.0)
    for p in (0.5, 1.0, 2.0, 4.0):
        assert 1.0 <= lp_norm(b, p) ** p <= 3.0


def test_eta_plateau_and_support():
    eta = eta_eps(0.25)
    assert eta(0.0) == 1.0 and eta(1.0) == 1.0
    assert eta(1.25) == 0.0 and eta(-1.25) == 0.0
    # each ramp carries unit rise
    assert eta(-1.0) - eta(-1.25) == 1.0


def test_eta_resolution_gates():
    with pytest.raises(ValueError):
        eta_eps(1.5)
    with pytest.raises(ValueError):
        eta_eps(0.001)  # below 2 * dx at the default grid


def test_eta_scaling_exponent():
    eps = [0.2, 0.1, 0.05]
    vals = [besov_seminorm_diff(eta_eps(e), SP) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    assert abs(slope - (1.0 / SP.p - SP.s)) < 0.1


def test_linear_cutoff_core():
    f = linear_cutoff(0.0, 2.0)
    assert f(1.5) == 1.5
    assert f(-1.5) == -1.5
    d = grid_derivative(f)
    mid = np.argmin(np.abs(f.x))
    assert d.samples[mid] == pytest.approx(1.0, abs=1e-12)
    support = f.x[np.abs(f.samples) > 0.0]
    assert support.max() - support.min() <= 2.0 * 2.0 + 2.0 + 2.0 * f.spacing


def test_linear_cutoff_placement():
    with pytest.raises(ValueError):
        linear_cutoff(14.0, 2.0)


def test_zigzag_derivative_plateaus():
    g = zigzag_g(1)
    dg = grid_derivative(g)
    # k = 0 plateau [-2, 2]; k = 1 plateau [6, 10]; k = -1 plateau [-10, -6]
    for x, slope in ((0.0, 1.0), (8.0, -1.0), (-8.0, -1.0)):
        i = int(round((x - g.origin) / g.spacing))
        assert abs(dg.samples[i] - slope) < 1e-9
    assert np.max(np.abs(g.samples)) <= 6.0


def _zigzag_prime_closed_form(m, x, window=(-16.0, 16.0)):
    """g' for g = zigzag_value(m) * taper, written out: slope (-1)^k with
    quintic transitions of width m/2, and the quintic window taper of width 2m."""
    w, period = 0.5 * m, 16.0 * m
    t = np.mod(x + 2.0 * m, period) - 2.0 * m
    down = 1.0 - 2.0 * smoothstep((t - (4.0 * m - 0.5 * w)) / w)
    up = -1.0 + 2.0 * smoothstep((t - (12.0 * m - 0.5 * w)) / w)
    slope = np.where(t < 4.0 * m + 0.5 * w, down, up)
    lo, hi = window
    u1 = np.clip((x - lo) / (2.0 * m), 0.0, 1.0)
    u2 = np.clip((hi - x) / (2.0 * m), 0.0, 1.0)
    taper = smoothstep(u1) * smoothstep(u2)
    dtaper = (
        30.0 * u1**2 * (u1 - 1.0) ** 2 * smoothstep(u2)
        - smoothstep(u1) * 30.0 * u2**2 * (u2 - 1.0) ** 2
    ) / (2.0 * m)
    return slope * taper + zigzag_value(m)(x) * dtaper


def test_zigzag_consistency_with_grid_derivative():
    g = zigzag_g(1)
    dg = grid_derivative(g)
    interior = slice(10, g.count - 10)
    d = _zigzag_prime_closed_form(1, g.x[interior])
    assert np.max(np.abs(dg.samples[interior] - d)) < 5e-4


def test_zigzag_window_gate():
    with pytest.raises(ValueError):
        zigzag_g(2)  # needs a window of length >= 64


def test_zigzag_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        zigzag_g(0)


def test_dilation_scaling_law():
    # |eta((./r))|_{B^s_{p,q}} = r^(1/p - s) |eta|_{B^s_{p,q}}
    eps = 0.1
    ref = besov_seminorm_diff(eta_eps(eps, count=2**14 + 1), SP)
    for r in (0.5, 2.0):
        f = plateau(0.5 - r, 0.5 + r, r * eps, (-16.0, 16.0), 2**14 + 1)
        lhs = besov_seminorm_diff(f, SP)
        assert lhs == pytest.approx(r ** (1.0 / SP.p - SP.s) * ref, rel=0.02)
