"""Piecewise-cubic maps of the line and their geometric functionals.

A LineMap is a C^0 piecewise cubic on a window with affine tails. All
preimage-type quantities (interval decompositions, the unit-interval
distortion U, the all-intervals distortion M, preimage counts) are computed
for the window-restricted map: the tails make the map proper and enter the
Lipschitz constant, but preimage mass outside the window is not counted.
Internally every map is decomposed once into strictly monotone (or flat)
segments; on a monotone segment p(x) = y has exactly one solution, found by
bisection to double precision, so decompositions and counts are exact for
the piecewise-cubic class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from . import _kernels
from .grid import DEFAULT_COUNT, DEFAULT_WINDOW, Extension, GridFunction, sample_fn

CONTINUITY_TOL = 1e-12


class UnboundedPreimageError(ValueError):
    """Target hits a flat tail value: the true preimage on R is unbounded."""


@dataclass(frozen=True)
class IntervalSet:
    """Finite ordered disjoint union of closed intervals [l_i, r_i]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = -math.inf
        for l, r in self.intervals:
            if r < l:
                raise ValueError("interval with r < l")
            if l <= prev:
                raise ValueError("intervals must be strictly increasing and disjoint")
            prev = r

    @staticmethod
    def from_pairs(pairs, merge_tol: float = 0.0) -> "IntervalSet":
        """Sort and merge closed intervals; touching intervals are merged."""
        pairs = sorted((float(l), float(r)) for l, r in pairs)
        merged: list[list[float]] = []
        for l, r in pairs:
            if merged and l <= merged[-1][1] + merge_tol:
                merged[-1][1] = max(merged[-1][1], r)
            else:
                merged.append([l, r])
        return IntervalSet(tuple((l, r) for l, r in merged))

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def total_length(self) -> float:
        return float(sum(r - l for l, r in self.intervals))

    def to_json(self) -> list:
        return [[l, r] for l, r in self.intervals]

    def __iter__(self):
        return iter(self.intervals)


@dataclass
class MEstimate:
    """Result of the M(phi) ladder search.

    ``value`` is the largest ratio seen on the ladder; ``infinite`` is set
    when the ladder keeps growing at the resolution floor (the documented
    divergence heuristic), in which case value is only a running lower bound.
    """

    value: float
    infinite: bool
    widths: list[float]
    sups: list[float]


@dataclass(frozen=True)
class LineMap:
    """Piecewise cubic with affine tails.

    ``coeffs[i]`` are local ascending coefficients: on piece i the value is
    c0 + c1*u + c2*u^2 + c3*u^3 with u = x - breakpoints[i]. The tails
    continue affinely from the window edge values with the given slopes.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    left_slope: float
    right_slope: float
    c1: bool = False
    name: str = "linemap"
    _segments: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        bp = np.ascontiguousarray(self.breakpoints, dtype=np.float64)
        cf = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        if cf.shape != (bp.size - 1, 4):
            raise ValueError("coeffs must have shape (n_pieces, 4)")
        scale = max(1.0, float(np.max(np.abs(cf[:, 0]))))
        for i in range(cf.shape[0] - 1):
            u = bp[i + 1] - bp[i]
            end_val = _poly_eval(cf[i], u)
            if abs(end_val - cf[i + 1, 0]) > CONTINUITY_TOL * scale * 8.0:
                raise ValueError(f"discontinuity at breakpoint {bp[i + 1]}")

    # -- evaluation ---------------------------------------------------------

    @property
    def window(self) -> tuple[float, float]:
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def __call__(self, xs):
        scalar = np.isscalar(xs)
        x = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        bp = self.breakpoints
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, bp.size - 2)
        u = x - bp[idx]
        c = self.coeffs[idx]
        out = c[:, 0] + u * (c[:, 1] + u * (c[:, 2] + u * c[:, 3]))
        lo, hi = self.window
        left_val = self.coeffs[0, 0]
        right_val = _poly_eval(self.coeffs[-1], bp[-1] - bp[-2])
        out = np.where(x < lo, left_val + self.left_slope * (x - lo), out)
        out = np.where(x > hi, right_val + self.right_slope * (x - hi), out)
        return float(out[0]) if scalar else out

    def derivative_values(self, xs):
        scalar = np.isscalar(xs)
        x = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        bp = self.breakpoints
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, bp.size - 2)
        u = x - bp[idx]
        c = self.coeffs[idx]
        out = c[:, 1] + u * (2.0 * c[:, 2] + 3.0 * u * c[:, 3])
        lo, hi = self.window
        out = np.where(x < lo, self.left_slope, out)
        out = np.where(x > hi, self.right_slope, out)
        return float(out[0]) if scalar else out

    # -- monotone segment table ---------------------------------------------

    def segments(self) -> np.ndarray:
        """(n_seg, 9) table [t0, c0..c3, xlo, xhi, ylo, yhi]; each row is
        monotone (or flat) on [xlo, xhi]. Cached after first build."""
        if self._segments is not None:
            return self._segments
        rows = []
        bp = self.breakpoints
        for i in range(bp.size - 1):
            t0 = bp[i]
            length = bp[i + 1] - bp[i]
            c0, c1, c2, c3 = self.coeffs[i]
            cuts = [0.0]
            if c1 == 0.0 and c2 == 0.0 and c3 == 0.0:
                pass  # flat piece, single segment with ylo == yhi
            else:
                for u in _quadratic_roots(3.0 * c3, 2.0 * c2, c1):
                    if 1e-14 * length < u < length * (1.0 - 1e-14):
                        cuts.append(u)
            cuts.append(length)
            cuts = sorted(set(cuts))
            for a, b in zip(cuts[:-1], cuts[1:]):
                ya = _poly_eval(self.coeffs[i], a)
                yb = _poly_eval(self.coeffs[i], b)
                rows.append([t0, c0, c1, c2, c3, t0 + a, t0 + b, ya, yb])
        table = np.asarray(rows, dtype=np.float64)
        object.__setattr__(self, "_segments", table)
        return table

    def value_range(self) -> tuple[float, float]:
        seg = self.segments()
        return float(min(seg[:, 7].min(), seg[:, 8].min())), float(
            max(seg[:, 7].max(), seg[:, 8].max())
        )

    def critical_values(self) -> np.ndarray:
        seg = self.segments()
        return np.unique(np.concatenate([seg[:, 7], seg[:, 8]]))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "pieces": [
                {
                    "interval": [float(self.breakpoints[i]), float(self.breakpoints[i + 1])],
                    "coeffs": [float(c) for c in self.coeffs[i]],
                }
                for i in range(self.coeffs.shape[0])
            ],
            "tails": {"left_slope": self.left_slope, "right_slope": self.right_slope},
            "c1": self.c1,
            "name": self.name,
        }

    @staticmethod
    def from_json(obj: dict) -> "LineMap":
        pieces = obj["pieces"]
        bp = [pieces[0]["interval"][0]] + [pc["interval"][1] for pc in pieces]
        cf = [pc["coeffs"] for pc in pieces]
        tails = obj.get("tails", {})
        return LineMap(
            np.asarray(bp),
            np.asarray(cf),
            float(tails.get("left_slope", 1.0)),
            float(tails.get("right_slope", 1.0)),
            bool(obj.get("c1", False)),
            str(obj.get("name", "linemap")),
        )


def _poly_eval(c, u):
    return c[0] + u * (c[1] + u * (c[2] + u * c[3]))


def _quadratic_roots(a, b, c):
    """Real roots of a*u^2 + b*u + c, handling degenerate leading terms."""
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def identity_map(window=DEFAULT_WINDOW) -> LineMap:
    return affine_map(1.0, 0.0, window, name="identity")


def affine_map(a: float, b: float, window=DEFAULT_WINDOW, name: Optional[str] = None) -> LineMap:
    lo, hi = window
    bp = np.array([lo, hi])
    cf = np.array([[a * lo + b, a, 0.0, 0.0]])
    return LineMap(bp, cf, a, a, c1=True, name=name or f"affine({a},{b})")


def polynomial_map(coeffs_global, window=DEFAULT_WINDOW, name: Optional[str] = None) -> LineMap:
    """Single global polynomial (degree <= 3), tails matching the edge slopes."""
    lo, hi = window
    cg = np.zeros(4)
    cg[: len(coeffs_global)] = coeffs_global
    # re-center at lo: p(lo + u)
    c0 = cg[0] + cg[1] * lo + cg[2] * lo**2 + cg[3] * lo**3
    c1 = cg[1] + 2 * cg[2] * lo + 3 * cg[3] * lo**2
    c2 = cg[2] + 3 * cg[3] * lo
    c3 = cg[3]
    local = np.array([[c0, c1, c2, c3]])
    dlo = c1
    u = hi - lo
    dhi = c1 + 2 * c2 * u + 3 * c3 * u**2
    return LineMap(
        np.array([lo, hi]), local, dlo, dhi, c1=True, name=name or "polynomial"
    )


def quadratic_map(window=DEFAULT_WINDOW) -> LineMap:
    return polynomial_map([0.0, 0.0, 1.0], window, name="quadratic")


def from_callable(
    fn: Callable,
    window=DEFAULT_WINDOW,
    pieces: int = 512,
    tails: Optional[tuple[float, float]] = None,
    name: str = "spline",
) -> LineMap:
    """Cubic-spline representation of a smooth map on ``pieces`` intervals.

    Tail slopes default to the spline derivative at the window edges.
    """
    lo, hi = window
    xs = np.linspace(lo, hi, pieces + 1)
    cs = CubicSpline(xs, fn(xs))
    local = cs.c[::-1].T.copy()  # scipy stores descending powers
    if tails is None:
        tails = (float(cs(lo, 1)), float(cs(hi, 1)))
    return LineMap(xs, local, tails[0], tails[1], c1=True, name=name)


def sin_drift_map(amp: float = 0.5, window=DEFAULT_WINDOW, pieces: int = 512) -> LineMap:
    return from_callable(
        lambda x: x + amp * np.sin(x), window, pieces, name=f"sin_drift({amp})"
    )


def sin_map(window=(-10.0, 10.0), pieces: int = 400) -> LineMap:
    return from_callable(np.sin, window, pieces, tails=(1.0, 1.0), name="sin")


def inverse_map(phi: LineMap, pieces: int = 512, samples: int = 2**15 + 1) -> LineMap:
    """Spline fit of phi^-1 on [phi(lo), phi(hi)] for strictly monotone phi."""
    lo, hi = phi.window
    xs = np.linspace(lo, hi, samples)
    ys = phi(xs)
    dy = np.diff(ys)
    if np.all(dy > 0):
        pass
    elif np.all(dy < 0):
        xs, ys = xs[::-1], ys[::-1]
    else:
        raise ValueError("inverse_map requires a strictly monotone map")
    y_nodes = np.linspace(ys[0], ys[-1], pieces + 1)
    x_nodes = np.interp(y_nodes, ys, xs)
    cs = CubicSpline(y_nodes, x_nodes)
    local = cs.c[::-1].T.copy()
    tails = (float(cs(ys[0], 1)), float(cs(ys[-1], 1)))
    return LineMap(y_nodes, local, tails[0], tails[1], c1=True, name=f"{phi.name}^-1")


_NAMED = {
    "identity": lambda p: identity_map(),
    "shift": lambda p: affine_map(1.0, float(p.get("c", 1.0)), name=f"shift({p.get('c', 1.0)})"),
    "scale": lambda p: affine_map(float(p.get("k", 2.0)), 0.0, name=f"scale({p.get('k', 2.0)})"),
    "affine": lambda p: affine_map(float(p.get("a", 1.0)), float(p.get("b", 0.0))),
    "quadratic": lambda p: quadratic_map(),
    "sin_drift": lambda p: sin_drift_map(float(p.get("amp", 0.5))),
    "sin": lambda p: sin_map(),
}


def named_map(spec: str) -> LineMap:
    """Build a map from a CLI spec string like ``scale:k=2`` or a JSON path."""
    if spec.endswith(".json"):
        with open(spec) as fh:
            return LineMap.from_json(json.load(fh))
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            params[k.strip()] = v.strip()
    if name not in _NAMED:
        raise ValueError(f"unknown map {name!r} (available: {sorted(_NAMED)})")
    return _NAMED[name](params)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def compose(f: GridFunction, phi: LineMap) -> GridFunction:
    """C_phi f on f's grid: f(phi(x_i)) with f linearly interpolated."""
    vals = f(phi(f.x))
    return GridFunction(vals, f.spacing, f.origin, f.extension)


def sample_composed(f: GridFunction, phi: LineMap) -> GridFunction:
    """Exact composed samples through f's descriptor (no interpolation).

    Falls back to ``compose`` when f carries no descriptor.
    """
    if f.descriptor is None:
        return compose(f, phi)
    vals = np.asarray(f.descriptor(phi(f.x)), dtype=np.float64)
    return GridFunction(vals, f.spacing, f.origin, f.extension)


@dataclass(frozen=True)
class LineMapDerivative:
    """Exact piecewise-quadratic derivative view of a LineMap."""

    parent: LineMap

    def __call__(self, xs):
        return self.parent.derivative_values(xs)

    def max_jump(self) -> float:
        bp = self.parent.breakpoints
        cf = self.parent.coeffs
        worst = 0.0
        for i in range(cf.shape[0] - 1):
            u = bp[i + 1] - bp[i]
            left = cf[i, 1] + u * (2.0 * cf[i, 2] + 3.0 * u * cf[i, 3])
            worst = max(worst, abs(left - cf[i + 1, 1]))
        return worst

    def sample(self, count: int = DEFAULT_COUNT) -> GridFunction:
        return sample_fn(self.__call__, self.parent.window, count, Extension.CONSTANT)


def derivative(phi: LineMap) -> LineMapDerivative:
    view = LineMapDerivative(phi)
    if phi.c1 and view.max_jump() > 1e-9:
        raise ValueError(
            f"map {phi.name} is flagged C1 but has derivative jump {view.max_jump():.3g}"
        )
    return view


def steepest_point(phi: LineMap, margin: float = 0.0) -> tuple[float, float]:
    """(|phi'|, x) at the point of largest |phi'| on the pieces, at distance
    >= margin from the window edges (so that witness bumps built there
    survive the window truncation); exact per-piece quadratic analysis."""
    bp = phi.breakpoints
    lo, hi = bp[0] + margin, bp[-1] - margin
    best_val, best_x = -1.0, 0.5 * (lo + hi)
    for i in range(phi.coeffs.shape[0]):
        c0, c1, c2, c3 = phi.coeffs[i]
        length = bp[i + 1] - bp[i]
        candidates = [0.0, length]
        if c3 != 0.0:
            vertex = -c2 / (3.0 * c3)  # where (p')' vanishes
            if 0.0 < vertex < length:
                candidates.append(vertex)
        for u in candidates:
            x = float(bp[i] + u)
            if not (lo <= x <= hi):
                x = min(max(x, lo), hi)
                if not (bp[i] <= x <= bp[i + 1]):
                    continue
                u = x - bp[i]
            d = abs(c1 + u * (2.0 * c2 + 3.0 * u * c3))
            if d > best_val:
                best_val, best_x = d, x
    return best_val, best_x


def lipschitz_constant(phi: LineMap) -> float:
    """sup |phi'|: the steepest point of the pieces, tail slopes included."""
    return max(abs(phi.left_slope), abs(phi.right_slope), steepest_point(phi)[0])


def _check_flat_tails(phi: LineMap, lo: float, hi: float):
    left_val = float(phi.coeffs[0, 0])
    right_val = float(_poly_eval(phi.coeffs[-1], phi.breakpoints[-1] - phi.breakpoints[-2]))
    if phi.left_slope == 0.0 and lo <= left_val <= hi:
        raise UnboundedPreimageError("target hits the flat left tail value")
    if phi.right_slope == 0.0 and lo <= right_val <= hi:
        raise UnboundedPreimageError("target hits the flat right tail value")


def preimage_intervals(phi: LineMap, target) -> IntervalSet:
    """phi^-1([lo, hi]) within the window as a disjoint union of closed
    intervals; intervals sharing an endpoint are merged."""
    lo, hi = float(target[0]), float(target[1])
    if hi < lo:
        raise ValueError("target must satisfy lo <= hi")
    _check_flat_tails(phi, lo, hi)
    seg = phi.segments()
    ymin = np.minimum(seg[:, 7], seg[:, 8])
    ymax = np.maximum(seg[:, 7], seg[:, 8])
    pairs = []
    for idx in np.nonzero((ymax >= lo) & (ymin <= hi))[0]:
        res = _kernels.segment_clip(seg[idx], lo, hi)
        if res is not None:
            pairs.append(res)
    if not pairs:
        return IntervalSet(())
    w_lo, w_hi = phi.window
    tol = 1e-9 * max(1.0, w_hi - w_lo)
    return IntervalSet.from_pairs(pairs, merge_tol=tol)


def _sweep_candidates(phi: LineMap, width: float, step_frac: float) -> np.ndarray:
    ymin, ymax = phi.value_range()
    span = max(ymax - ymin, 1.0)
    step = step_frac * span
    grid = np.arange(ymin - width - 2.0 * step, ymax + 2.0 * step, step)
    crit = phi.critical_values()
    cands = np.concatenate([grid, crit, crit - width])
    return np.unique(cands)


def U_functional(phi: LineMap, step_frac: float = 1e-3) -> float:
    """sup over unit intervals I of |phi^-1(I)| (window-restricted).

    The left endpoint sweeps a grid of step ``step_frac`` times the
    essential-range width, seeded with the images of critical points where
    the length function has its kinks. Maps with a flat tail report inf.
    """
    if phi.left_slope == 0.0 or phi.right_slope == 0.0:
        return math.inf
    cands = _sweep_candidates(phi, 1.0, step_frac)
    lengths = _kernels.preimage_lengths(phi.segments(), cands, cands + 1.0)
    return float(lengths.max())


def M_functional(phi: LineMap, k_max: int = 12, step_frac: float = 1e-3) -> MEstimate:
    """Ladder search for sup_I |I|^-1 |phi^-1(I)| over widths 2^0 .. 2^-k_max.

    The infinite flag fires when the ladder exceeds 10x its width-1 rung and
    is still increasing at the resolution floor.
    """
    if phi.left_slope == 0.0 or phi.right_slope == 0.0:
        return MEstimate(math.inf, True, [], [])
    seg = phi.segments()
    widths, sups = [], []
    for k in range(k_max + 1):
        w = 2.0**-k
        cands = _sweep_candidates(phi, w, step_frac)
        lengths = _kernels.preimage_lengths(seg, cands, cands + w)
        widths.append(w)
        sups.append(float(lengths.max()) / w)
    infinite = sups[-1] > 10.0 * sups[0] and sups[-1] > sups[-2]
    return MEstimate(math.inf if infinite else max(sups), infinite, widths, sups)


def max_preimage_count(phi: LineMap) -> int:
    """sup over regular values y of #{x in window : phi(x) = y}.

    Counts strictly monotone segments whose open value range contains y,
    evaluated at the midpoints of the bands between consecutive critical
    values; exact for the piecewise-cubic class.
    """
    seg = phi.segments()
    ylo = np.minimum(seg[:, 7], seg[:, 8])
    yhi = np.maximum(seg[:, 7], seg[:, 8])
    nondeg = yhi > ylo
    if not nondeg.any():
        raise ValueError("map is flat on the window; regular values do not exist")
    crit = np.unique(np.concatenate([ylo[nondeg], yhi[nondeg]]))
    mids = 0.5 * (crit[:-1] + crit[1:])
    counts = (
        (ylo[nondeg][None, :] < mids[:, None]) & (mids[:, None] < yhi[nondeg][None, :])
    ).sum(axis=1)
    return int(counts.max())
