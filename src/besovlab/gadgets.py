"""Witness functions used by the boundedness checks.

All gadgets are piecewise-polynomial mollifications of the idealized bump
constructions: ramps and plateau transitions are quintic smoothsteps, which
keeps them C^2 (enough for every difference order used here) while their
defining plateau values, supports, and ramp masses stay exact.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import DEFAULT_COUNT, DEFAULT_WINDOW, Extension, GridFunction, _plateau, sample_fn, smoothstep


def plateau(
    lo: float, hi: float, ramp: float, window=DEFAULT_WINDOW, count: int = DEFAULT_COUNT
) -> GridFunction:
    """1 on [lo, hi], quintic smoothstep ramps of width ``ramp``, 0 outside."""
    return sample_fn(_plateau(lo, hi, ramp), window, count, Extension.ZERO)


def unit_bump(a: float, window=DEFAULT_WINDOW, count: int = DEFAULT_COUNT) -> GridFunction:
    """Smooth bump equal to 1 on [a, a+1] with support [a-1, a+2]."""
    lo, hi = window
    if not (lo <= a and a + 1.0 <= hi):
        raise ValueError(f"plateau [a, a+1] = [{a}, {a + 1}] leaves the window")
    return plateau(a, a + 1.0, 1.0, window, count)


def eta_eps(eps: float, window=DEFAULT_WINDOW, count: int = DEFAULT_COUNT) -> GridFunction:
    """Ramp bump: 1 on [-1, 1], smooth ramps of width eps, support
    [-1-eps, 1+eps]. Each ramp carries unit derivative mass exactly."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not eta_resolved(eps, window, count):
        spacing = (window[1] - window[0]) / (count - 1)
        raise ValueError(f"eps = {eps} is below grid resolution (2*dx = {2 * spacing})")
    return plateau(-1.0, 1.0, eps, window, count)


def eta_resolved(eps: float, window, count: int) -> bool:
    """eta_eps(eps) is resolved on ``count`` points over ``window``: its
    ramps are at least two cells wide."""
    return not eps < 2.0 * ((window[1] - window[0]) / (count - 1))


def linear_cutoff(
    a: float, R: float, window=DEFAULT_WINDOW, count: int = DEFAULT_COUNT
) -> GridFunction:
    """f(x) = x - a on the core [a-R, a+R], smoothly cut to 0 over width 1."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    lo, hi = window
    if not (lo <= a - R - 1.0 and a + R + 1.0 <= hi):
        raise ValueError("support [a-R-1, a+R+1] leaves the window")
    w = _plateau(a - R, a + R, 1.0)

    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        return (x - a) * w(x)

    return sample_fn(fn, window, count, Extension.ZERO)


# ---------------------------------------------------------------------------
# zigzag witness for the p = infinity case
# ---------------------------------------------------------------------------

def _smoothstep_antiderivative(u):
    u = np.clip(u, 0.0, 1.0)
    return u**4 * (2.5 + u * (-3.0 + u))


def zigzag_value(m: int) -> Callable:
    """The periodic zigzag, period 16m (one cell on t in [-2m, 14m)): slope
    exactly (-1)^k on [2(4k-1)m, 2(4k+1)m], quintic slope transitions of
    width m/2, shifted to be centered and bounded."""
    w = 0.5 * m
    c1, c2 = 4.0 * m, 12.0 * m
    period = 16.0 * m

    def fn(x):
        t = np.mod(np.asarray(x, dtype=np.float64) + 2.0 * m, period) - 2.0 * m
        # rising plateau (slope +1) from t = -2m, g(-2m) = 0
        x0 = c1 - 0.5 * w
        x1 = c2 - 0.5 * w
        g_rise = t + 2.0 * m
        g_down = (
            (6.0 * m - 0.5 * w)
            + (t - x0)
            - 2.0 * w * _smoothstep_antiderivative((t - x0) / w)
        )
        g_fall = (6.0 * m - 0.5 * w) - (t - (c1 + 0.5 * w))
        g_up = (
            (-2.0 * m + 0.5 * w)
            - (t - x1)
            + 2.0 * w * _smoothstep_antiderivative((t - x1) / w)
        )
        g_rise2 = (-2.0 * m + 0.5 * w) + (t - (c2 + 0.5 * w))
        g = np.select(
            [t < x0, t < c1 + 0.5 * w, t < x1, t < c2 + 0.5 * w],
            [g_rise, g_down, g_fall, g_up],
            default=g_rise2,
        )
        return g - 2.0 * m

    return fn


def zigzag_window_length(m: int) -> int:
    """The shortest window zigzag_g(m, ...) accepts: two 16m-periods."""
    return 32 * m


def zigzag_g(m: int, window=DEFAULT_WINDOW, count: int = DEFAULT_COUNT) -> GridFunction:
    """The bounded zigzag witness g with g' = (-1)^k on its 4m-plateaus
    (exact away from the taper): the periodic pattern times a taper with
    quintic ramps of width 2m to 0 at the window edges, without which the
    cut's slope kinks would dominate its norm."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    lo, hi = window
    if hi - lo < zigzag_window_length(m):
        raise ValueError(f"window must cover two 16m-periods (need length >= {zigzag_window_length(m)})")
    base = zigzag_value(m)
    w = 2.0 * m

    def g(x):
        x = np.asarray(x, dtype=np.float64)
        return base(x) * (smoothstep((x - lo) / w) * smoothstep((hi - x) / w))

    return sample_fn(g, window, count, Extension.ZERO)
