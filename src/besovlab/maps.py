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

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .grid import (
    DEFAULT_COUNT, DEFAULT_WINDOW, Extension, GridFunction, call_declared, is_json_number, parse_spec, sample_fn
)

CONTINUITY_TOL = 1e-12
C1_TOL = 1e-9  # the largest jump of phi' that LineMap.c1 reads as rounding
SWEEP_STEP = 1e-3  # U and M sweep step, as a fraction of the range width
M_LEVELS = 12  # the M ladder's finest width is 2^-M_LEVELS


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
    name: str = "linemap"

    def __post_init__(self):
        bp = np.ascontiguousarray(self.breakpoints, dtype=np.float64)
        cf = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        for key, values in (("breakpoints", bp), ("coeffs", cf), ("left_slope", self.left_slope),
                            ("right_slope", self.right_slope)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"map {self.name}: {key!r} must be finite")
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        if cf.shape != (bp.size - 1, 4):
            raise ValueError("coeffs must have shape (n_pieces, 4)")
        scale = max(1.0, float(np.max(np.abs(cf[:, 0]))))
        gaps = np.abs(_cubic(cf[:-1], np.diff(bp)[:-1]) - cf[1:, 0])
        bad = np.nonzero(gaps > CONTINUITY_TOL * scale * 8.0)[0]
        if bad.size:
            raise ValueError(f"discontinuity at breakpoint {bp[bad[0] + 1]}")

    # -- evaluation ---------------------------------------------------------

    @property
    def window(self) -> tuple[float, float]:
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def edge_values(self) -> tuple[float, float]:
        """phi at the window edges, where the affine tails start."""
        bp = self.breakpoints
        return float(self.coeffs[0, 0]), float(_cubic(self.coeffs[-1], bp[-1] - bp[-2]))

    def _evaluate(self, xs, cubic, left_tail, right_tail):
        """cubic(c, u) on the piece holding each x; the tails take the
        offset past the window edge."""
        scalar = np.isscalar(xs)
        x = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        bp = self.breakpoints
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, bp.size - 2)
        out = cubic(self.coeffs[idx], x - bp[idx])
        lo, hi = self.window
        out = np.where(x < lo, left_tail(x - lo), out)
        out = np.where(x > hi, right_tail(x - hi), out)
        return float(out[0]) if scalar else out

    def __call__(self, xs):
        left, right = self.edge_values()
        return self._evaluate(
            xs, _cubic, lambda d: left + self.left_slope * d, lambda d: right + self.right_slope * d
        )

    def derivative_values(self, xs):
        return self._evaluate(xs, _cubic_slope, lambda d: self.left_slope, lambda d: self.right_slope)

    @property
    def c1(self) -> bool:
        """phi' jumps by at most C1_TOL at each breakpoint and tail junction."""
        return LineMapDerivative(self).max_jump() <= C1_TOL

    # -- monotone segment table ---------------------------------------------

    def segments(self) -> np.ndarray:
        """(n_seg, 9) table [t0, c0..c3, xlo, xhi, ylo, yhi]; each row is
        monotone (or flat) on [xlo, xhi]. Built once per map."""
        return self._segment_table

    @functools.cached_property
    def _segment_table(self) -> np.ndarray:
        pieces, starts, ends = [], [], []
        bp = self.breakpoints
        for i in range(bp.size - 1):
            length = bp[i + 1] - bp[i]
            c0, c1, c2, c3 = self.coeffs[i]
            cuts = [0.0]
            if c1 != 0.0 or c2 != 0.0 or c3 != 0.0:  # a flat piece is one segment
                for u in _quadratic_roots(3.0 * c3, 2.0 * c2, c1):
                    if 1e-14 * length < u < length * (1.0 - 1e-14):
                        cuts.append(u)
            cuts.append(length)
            cuts = sorted(set(cuts))
            pieces += [i] * (len(cuts) - 1)
            starts += cuts[:-1]
            ends += cuts[1:]
        c = self.coeffs[pieces]
        t0 = bp[pieces]
        a, b = np.array(starts, dtype=np.float64), np.array(ends, dtype=np.float64)
        return np.column_stack([t0, c, t0 + a, t0 + b, _cubic(c, a), _cubic(c, b)])

    @functools.cached_property
    def clip_table(self) -> tuple:
        """The segment table as the preimage solvers read it: the rows with
        _kernels.start_table's start columns; ymin and ymax of every row as
        arrays and as lists; the rows as lists of Python floats; the edge
        values; and the merge tolerance of preimage_intervals, 1e-9 window
        widths but at least 1e-9. Built once per map."""
        seg = self.segments()
        table = _kernels.start_table(seg)
        ymin, ymax = np.minimum(seg[:, 7], seg[:, 8]), np.maximum(seg[:, 7], seg[:, 8])
        tol = 1e-9 * max(1.0, self.window[1] - self.window[0])
        return (table, ymin, ymax, ymin.tolist(), ymax.tolist(), table.tolist(), self.edge_values(), tol)

    def value_range(self) -> tuple[float, float]:
        seg = self.segments()
        return float(min(seg[:, 7].min(), seg[:, 8].min())), float(
            max(seg[:, 7].max(), seg[:, 8].max())
        )

    def critical_values(self) -> np.ndarray:
        seg = self.segments()
        return np.unique(np.concatenate([seg[:, 7], seg[:, 8]]))

    @property
    def strictly_monotone(self) -> bool:
        """Every segment and both tails strictly monotone one way: phi is a homeomorphism of R."""
        seg = self.segments()
        slopes = np.concatenate([seg[:, 8] - seg[:, 7], [self.left_slope, self.right_slope]])
        return bool(np.all(slopes > 0) or np.all(slopes < 0))

    # -- serialization --------------------------------------------------------

    @staticmethod
    def from_json(obj) -> "LineMap":
        """The map of a map file's object (the schema is in the README); a
        missing, malformed or undeclared key raises ValueError naming it."""
        pieces = obj.get("pieces") if isinstance(obj, dict) else None
        if not isinstance(pieces, list) or not pieces:
            raise ValueError(f"map file: 'pieces' must be a nonempty list, got {pieces!r}")
        _refuse_undeclared("the file", obj, ("pieces", "tails", "name"))
        for i, pc in enumerate(pieces):
            for key, size in (("interval", 2), ("coeffs", 4)):
                value = pc.get(key) if isinstance(pc, dict) else None
                if not (isinstance(value, list) and len(value) == size and all(map(is_json_number, value))):
                    raise ValueError(f"map file: piece {i} needs {key!r}: {size} numbers, got {value!r}")
            _refuse_undeclared(f"piece {i}", pc, ("interval", "coeffs"))
            if i and pc["interval"][0] != pieces[i - 1]["interval"][1]:
                raise ValueError(f"map file: piece {i}'s 'interval' does not start where piece {i - 1} ends")
        tails = obj.get("tails", {})
        slopes = [tails.get(k, 1.0) for k in ("left_slope", "right_slope")] if isinstance(tails, dict) else [None]
        if not all(map(is_json_number, slopes)):
            raise ValueError(f"map file: 'tails' must give numbers left_slope and right_slope, got {tails!r}")
        _refuse_undeclared("'tails'", tails, ("left_slope", "right_slope"))
        bp = [pieces[0]["interval"][0]] + [pc["interval"][1] for pc in pieces]
        cf = [pc["coeffs"] for pc in pieces]
        name = str(obj.get("name", "linemap"))
        return LineMap(np.asarray(bp), np.asarray(cf), float(slopes[0]), float(slopes[1]), name)


def _refuse_undeclared(where: str, obj: dict, keys: tuple) -> None:
    """Raise ValueError naming a key of a map file's object that is not one of ``keys``."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"map file: {where} has undeclared key {key!r} (it takes: {', '.join(keys)})")


def _cubic(c, u):
    """c0 + c1*u + c2*u^2 + c3*u^3 for one coefficient row c or a stack of
    rows c[i]."""
    return _kernels._poly3(*c.T, u)


def _cubic_slope(c, u):
    """d/du of _cubic(c, u)."""
    _, c1, c2, c3 = c.T
    return _kernels._slope3(c1, c2, c3, u)


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

def identity_map() -> LineMap:
    return affine_map(1.0, 0.0, name="identity")


def affine_map(a: float, b: float, name: Optional[str] = None) -> LineMap:
    lo, hi = DEFAULT_WINDOW
    bp = np.array([lo, hi])
    cf = np.array([[a * lo + b, a, 0.0, 0.0]])
    return LineMap(bp, cf, a, a, name=name or f"affine({a},{b})")


def polynomial_map(coeffs_global, name: Optional[str] = None) -> LineMap:
    """Single global polynomial (degree <= 3), tails matching the edge slopes."""
    lo, hi = DEFAULT_WINDOW
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
    return LineMap(np.array([lo, hi]), local, dlo, dhi, name=name or "polynomial")


def quadratic_map() -> LineMap:
    return polynomial_map([0.0, 0.0, 1.0], name="quadratic")


def _spline_map(xs, ys, name: str) -> LineMap:
    """The not-a-knot cubic spline through (xs, ys) as a LineMap; the
    tail slopes are the spline derivative at the end nodes.

    This is ``CubicSpline(xs, ys)`` bit for bit, by doing its arithmetic in
    its order, on nodes whose slope system needs no row swap, as uniform
    nodes never do; other nodes raise ValueError. The node slopes s
    solve a tridiagonal system. Inside, row i reads dx[i] s[i-1] +
    2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = 3 (dx[i] m[i-1] + dx[i-1]
    m[i]), with m the chord slopes. The first row, dx[1] s[0] + (x[2] - x[0])
    s[1], equates the cubic terms of the first two pieces (not-a-knot), and
    the last row mirrors it. Its ``dx[0] ** 2`` is a numpy scalar power,
    which is libm's pow and not always dx[0] * dx[0]. ``_dgtsv`` solves the
    system as LAPACK does, and the pieces then take CubicHermiteSpline's
    coefficients. A tail slope is the derivative as CubicSpline's PPoly
    evaluates it at the end node. Fewer than 4 nodes (CubicSpline's two
    special cases), a non-finite node or value, or nodes that do not
    strictly increase raise ValueError too."""
    x, y = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or x.size < 4:
        raise ValueError(f"spline {name}: needs 4 or more nodes, one value each; got {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"spline {name}: nodes and values must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError(f"spline {name}: nodes must be strictly increasing")
    m = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    s = _dgtsv(
        [*dx[1:].tolist(), float(d1)],
        [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])],
        [float(d0), *dx[:-1].tolist()],
        [float(((dx[0] + 2 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0),
         *(3 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])).tolist(),
         float((dx[-1] ** 2 * m[-2] + (2 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1)],
    )
    t = (s[:-1] + s[1:] - 2 * m) / dx
    coeffs = np.column_stack([y[:-1], s[:-1], (m - s[:-1]) / dx - t, t / dx])
    return LineMap(x, coeffs, _end_slope(coeffs[0].tolist(), 0.0), _end_slope(coeffs[-1].tolist(), float(dx[-1])), name)


def _dgtsv(dl, d, du, b) -> np.ndarray:
    """LAPACK dgtsv for one right-hand side: the solution of the tridiagonal
    system with sub-, main and super-diagonals dl, d, du and right side b,
    in its operation order. A system whose elimination would swap rows i and
    i+1, where |d[i]| < |dl[i]|, raises ValueError. Back substitution keeps
    dgtsv's 0 * b[i+2], which can flip the sign of a zero. d, du and b are
    overwritten."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) < abs(dl[i]):
            raise ValueError(f"the spline slope system needs a row swap at row {i}: the nodes are too uneven")
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    return np.array(b)


def _end_slope(c, u: float) -> float:
    """d/du of the ascending cubic row c at u, summed as CubicSpline's PPoly
    evaluates a first derivative."""
    return 0.0 + c[1] + c[2] * u * 2.0 + c[3] * (u * u) * 3.0


def from_callable(
    fn: Callable,
    window=DEFAULT_WINDOW,
    pieces: int = 512,
    name: str = "spline",
) -> LineMap:
    """Not-a-knot cubic spline of fn on ``pieces`` equal intervals of the
    window, built by ``_spline_map``.

    On these uniform nodes the interior rows of its slope system read dx,
    4 dx, dx, the first reads dx, x[2] - x[0], and dgtsv's elimination
    swaps no row. Its coefficients and tail slopes are CubicSpline's bit
    for bit; tests/test_maps.py pins that for every program caller. The
    tail slopes are the spline derivative at the window edges.
    """
    xs = np.linspace(window[0], window[1], pieces + 1)
    return _spline_map(xs, fn(xs), name)


def sin_drift_map(amp: float = 0.5) -> LineMap:
    return from_callable(lambda x: x + amp * np.sin(x), name=f"sin_drift({amp})")


def sin_map() -> LineMap:
    return from_callable(np.sin, (-10.0, 10.0), 400, name="sin")


def inverse_map(phi: LineMap) -> LineMap:
    """Spline fit of phi^-1 on [phi(lo), phi(hi)] for strictly monotone phi,
    on 512 pieces from 2^15 + 1 samples of phi."""
    lo, hi = phi.window
    xs = np.linspace(lo, hi, 2**15 + 1)
    ys = phi(xs)
    dy = np.diff(ys)
    if np.all(dy > 0):
        pass
    elif np.all(dy < 0):
        xs, ys = xs[::-1], ys[::-1]
    else:
        raise ValueError("inverse_map requires a strictly monotone map")
    y_nodes = np.linspace(ys[0], ys[-1], 512 + 1)
    return _spline_map(y_nodes, np.interp(y_nodes, ys, xs), f"{phi.name}^-1")


# name -> constructor; its keywords are the spec's parameters and carry their
# defaults. Spec values arrive as text, which shift and scale keep in the name.
_NAMED = {
    "identity": identity_map,
    "shift": lambda c=1.0: affine_map(1.0, float(c), name=f"shift({c})"),
    "scale": lambda k=2.0: affine_map(float(k), 0.0, name=f"scale({k})"),
    "affine": lambda a=1.0, b=0.0: affine_map(float(a), float(b)),
    "quadratic": quadratic_map,
    "sin_drift": lambda amp=0.5: sin_drift_map(float(amp)),
    "sin": sin_map,
}


def named_map(spec: str) -> LineMap:
    """Build a map from a CLI spec string like ``scale:k=2`` or a JSON path."""
    if spec.endswith(".json"):
        with open(spec) as fh:
            return LineMap.from_json(json.load(fh))
    name, params = parse_spec(spec)
    if name not in _NAMED:
        raise ValueError(f"unknown map {name!r} (available: {sorted(_NAMED)})")
    return call_declared(f"map {name!r}", _NAMED[name], params)


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
        """Largest jump of phi' at a breakpoint, the two tail junctions included."""
        phi = self.parent
        arriving = np.concatenate(([phi.left_slope], _cubic_slope(phi.coeffs, np.diff(phi.breakpoints))))
        leaving = np.concatenate((phi.coeffs[:, 1], [phi.right_slope]))
        return float(np.max(np.abs(arriving - leaving)))

    def sample(self, count: int = DEFAULT_COUNT, window=None) -> GridFunction:
        """phi' at ``count`` points over ``window``, phi's own by default."""
        return sample_fn(self.__call__, window or self.parent.window, count, Extension.CONSTANT)


def derivative(phi: LineMap) -> LineMapDerivative:
    return LineMapDerivative(phi)


def steepest_point(phi: LineMap, lo: float, hi: float) -> tuple[float, float]:
    """(|phi'|, x) at the point of largest |phi'| in [lo, hi]: exact
    per-piece quadratic analysis, and an affine tail, whose slope is
    constant, at its first point in [lo, hi]. In x order, the first
    strictly larger value wins."""
    bp = phi.breakpoints
    best_val, best_x = -1.0, 0.5 * (lo + hi)
    if lo < bp[0] and lo <= hi:
        best_val, best_x = abs(phi.left_slope), lo
    for i, c in enumerate(phi.coeffs):
        length = bp[i + 1] - bp[i]
        candidates = [0.0, length]
        if c[3] != 0.0:
            vertex = -c[2] / (3.0 * c[3])  # where (p')' vanishes
            if 0.0 < vertex < length:
                candidates.append(vertex)
        for u in candidates:
            x = float(bp[i] + u)
            if not (lo <= x <= hi):
                x = min(max(x, lo), hi)
                if not (bp[i] <= x <= bp[i + 1]):
                    continue
                u = x - bp[i]
            d = abs(_cubic_slope(c, u))
            if d > best_val:
                best_val, best_x = d, x
    if hi > bp[-1] and abs(phi.right_slope) > best_val:
        best_val, best_x = abs(phi.right_slope), max(lo, float(bp[-1]))
    return best_val, best_x


def lipschitz_constant(phi: LineMap) -> float:
    """sup |phi'|: the steepest point of the pieces, tail slopes included."""
    return max(abs(phi.left_slope), abs(phi.right_slope), steepest_point(phi, *phi.window)[0])


def preimage_intervals(phi: LineMap, target) -> IntervalSet:
    """phi^-1([lo, hi]) within the window as a disjoint union of closed
    intervals; intervals at most 1e-9 window widths apart are merged."""
    lo, hi = float(target[0]), float(target[1])
    if not lo <= hi:  # NaN fails too
        raise ValueError(f"target must satisfy lo <= hi, got [{lo}, {hi}]")
    _, ymin, ymax, ymin_l, ymax_l, rows, (left_val, right_val), tol = phi.clip_table
    if phi.left_slope == 0.0 and lo <= left_val <= hi:
        raise UnboundedPreimageError("target hits the flat left tail value")
    if phi.right_slope == 0.0 and lo <= right_val <= hi:
        raise UnboundedPreimageError("target hits the flat right tail value")
    # segments are ordered in x and clips stay inside them, so a gap opens only
    # between neighbours; min/max absorb an ulp of overlap at piece ends
    merged, start, end, prev = [], None, None, None
    for k in np.flatnonzero((ymax >= lo) & (ymin <= hi)).tolist():
        row, y0, y1 = rows[k], ymin_l[k], ymax_l[k]
        # flat segments and segments inside [lo, hi] are kept whole; the rest need a root
        if y0 == y1 or (y0 >= lo and y1 <= hi):
            xa, xb = row[5], row[6]
        else:
            xa, xb = _kernels.segment_clip(row, lo, hi)
        if start is None or xa > prev + tol:
            if start is not None:
                merged.append((start, end))
            start, end = xa, xb
        else:
            if xa < start:
                start = xa
            if xb > end:
                end = xb
        prev = xb
    if start is not None:
        merged.append((start, end))
    return IntervalSet(tuple(merged))


def preimage_lengths(phi: LineMap, los, his) -> np.ndarray:
    """|phi^-1([lo, hi])| within the window for each lo, hi of ``los``, ``his``."""
    return _kernels.preimage_lengths(phi.clip_table[0], los, his)


def _sup_preimage_lengths(phi: LineMap, widths: list[float]) -> list[float]:
    """Largest |phi^-1([y, y + w])| for each width w over a sweep of left
    endpoints y: a grid of step SWEEP_STEP times the essential-range width,
    seeded with the critical values and the critical values minus w, where
    the length function has its kinks.

    Only the targets that can reach the max are solved. Every target gets
    an upper bound from the segments' certified slopes
    (_kernels.preimage_length_bounds). Each width's threshold is the exact
    length of its target with the largest bound; then preimage_lengths
    solves only the targets whose bound reaches their width's threshold. A
    skipped target's length is at most its bound, which is below the
    threshold, which is at most the max, so each max is the max over all
    targets, bit for bit: a target's length does not depend on the others
    in its call."""
    table = phi.clip_table[0]
    ymin, ymax = phi.value_range()
    step = SWEEP_STEP * max(ymax - ymin, 1.0)
    crit = phi.critical_values()
    grids = [np.arange(ymin - w - 2.0 * step, ymax + 2.0 * step, step) for w in widths]
    cands = [np.unique(np.concatenate([grid, crit, crit - w])) for grid, w in zip(grids, widths)]
    los = np.concatenate(cands)
    his = np.concatenate([c + w for c, w in zip(cands, widths)])
    rung = np.repeat(np.arange(len(widths)), [c.size for c in cands])
    bounds = _kernels.preimage_length_bounds(table, los, his)
    firsts = np.searchsorted(rung, np.arange(len(widths)))
    seeds = firsts + np.array([int(part.argmax()) for part in np.split(bounds, firsts[1:])])
    threshold = _kernels.preimage_lengths(table, los[seeds], his[seeds])
    solve = np.flatnonzero(bounds >= threshold[rung])
    sups = np.full(len(widths), -np.inf)
    np.maximum.at(sups, rung[solve], _kernels.preimage_lengths(table, los[solve], his[solve]))
    return sups.tolist()


def U_functional(phi: LineMap) -> float:
    """sup over unit intervals I of |phi^-1(I)| (window-restricted): the
    width-1 sweep. Maps with a flat tail report inf."""
    if phi.left_slope == 0.0 or phi.right_slope == 0.0:
        return math.inf
    return _sup_preimage_lengths(phi, [1.0])[0]


def M_functional(phi: LineMap, uval: float) -> MEstimate:
    """Ladder search for sup_I |I|^-1 |phi^-1(I)| over widths 2^0 .. 2^-M_LEVELS.

    The width-1 rung is ``uval``, which must be U_functional(phi). The
    infinite flag fires when the ladder exceeds 10x its width-1
    rung and is still increasing at the resolution floor.
    """
    if phi.left_slope == 0.0 or phi.right_slope == 0.0:
        return MEstimate(math.inf, True, [], [])
    widths = [2.0**-k for k in range(M_LEVELS + 1)]
    sups = [uval] + [sup / w for sup, w in zip(_sup_preimage_lengths(phi, widths[1:]), widths[1:])]
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
        return 0  # flat on the window: every other value is regular, with no preimage
    crit = np.unique(np.concatenate([ylo[nondeg], yhi[nondeg]]))
    mids = 0.5 * (crit[:-1] + crit[1:])
    counts = (
        (ylo[nondeg][None, :] < mids[:, None]) & (mids[:, None] < yhi[nondeg][None, :])
    ).sum(axis=1)
    return int(counts.max())
