"""Real-valued functions sampled on a uniform grid over a finite window.

The real line is truncated to a window (default [-16, 16]); everything in
the package lives on such windows. Outside the window a function is either
extended by zero or by its edge values, and every L^p integral is the plain
rectangle rule sum(|f_i|^p) * dx over the window samples.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import _kernels

DEFAULT_WINDOW = (-16.0, 16.0)
DEFAULT_COUNT = 2**13 + 1


class Extension(Enum):
    ZERO = "zero"
    CONSTANT = "constant"


class GridMismatchError(ValueError):
    """Pointwise combination of functions on different grids."""


class InfiniteMassError(ValueError):
    """L^p norm (p < infinity) of a function with nonzero constant extension."""


class CatalogError(ValueError):
    """Unknown descriptor name or invalid descriptor parameters."""


def smoothstep(u):
    """Quintic smoothstep: 0 for u <= 0, 1 for u >= 1, C^2 across the joins."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on origin + i*spacing, i = 0..count-1.

    ``descriptor``, when present, is the exact callable the samples came
    from; it is carried along so resampling and composed evaluation can be
    exact instead of interpolated. It never participates in equality.
    """

    samples: np.ndarray
    spacing: float
    origin: float
    extension: Extension = Extension.ZERO
    descriptor: Optional[Callable] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D array")
        if not (self.spacing > 0.0):
            raise ValueError("spacing must be positive")

    @property
    def count(self) -> int:
        return self.samples.size

    @property
    def end(self) -> float:
        return self.origin + self.spacing * (self.count - 1)

    @property
    def window(self) -> tuple[float, float]:
        return (self.origin, self.end)

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)

    def ext_values(self) -> tuple[float, float]:
        if self.extension is Extension.ZERO:
            return (0.0, 0.0)
        return (float(self.samples[0]), float(self.samples[-1]))

    def __call__(self, xs):
        scalar = np.isscalar(xs)
        arr = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        left, right = self.ext_values()
        out = _kernels.interp_eval(self.samples, self.origin, self.spacing, left, right, arr)
        return float(out[0]) if scalar else out

    def _require_same_grid(self, other: "GridFunction"):
        if (self.count, self.origin, self.spacing) != (other.count, other.origin, other.spacing):
            raise GridMismatchError(
                "grids differ (origin/spacing/count); resample explicitly first"
            )

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            ext = (
                Extension.ZERO
                if Extension.ZERO in (self.extension, other.extension)
                else Extension.CONSTANT
            )
            return GridFunction(self.samples * other.samples, self.spacing, self.origin, ext)
        return GridFunction(
            self.samples * float(other), self.spacing, self.origin, self.extension
        )

    __rmul__ = __mul__

    def resample(self, count: int) -> "GridFunction":
        """Same window on ``count`` points; exact when a descriptor is known."""
        if count < 2:
            raise ValueError("count must be >= 2")
        spacing = (self.end - self.origin) / (count - 1)
        xs = self.origin + spacing * np.arange(count)
        if self.descriptor is not None:
            vals = np.asarray(self.descriptor(xs), dtype=np.float64)
        else:
            vals = self(xs)
        return GridFunction(vals, spacing, self.origin, self.extension, self.descriptor)


@dataclass(frozen=True)
class SpaceParams:
    """(s, p, q, m): smoothness, integrability, summability, difference order."""

    s: float
    p: float
    q: float
    m: int

    def __post_init__(self):
        if not (self.p > 0.0):
            raise ValueError("p must lie in (0, inf]")
        if not (self.q > 0.0):
            raise ValueError("q must lie in (0, inf]")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        if not (self.m > self.s):
            raise ValueError(f"m > s required (got m={self.m}, s={self.s})")
        floor = max(0.0, 1.0 / self.p - 1.0)
        if not (self.s > floor):
            raise ValueError(f"s > max(0, 1/p - 1) = {floor} required")

    def as_dict(self) -> dict:
        return {"s": self.s, "p": self.p, "q": self.q, "m": self.m}

    def shifted_down(self) -> "SpaceParams":
        """Parameters for the derivative space, one order of smoothness lower."""
        return SpaceParams(self.s - 1.0, self.p, self.q, self.m - 1)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(f: GridFunction, p: float) -> float:
    """Rectangle-rule L^p norm over the window; max of samples for p = inf.

    Zero extension contributes nothing. A nonzero constant extension with
    p < inf would have infinite mass and is rejected.
    """
    if not (p > 0.0):
        raise ValueError("p must lie in (0, inf]")
    if math.isinf(p):
        return float(np.max(np.abs(f.samples)))
    if f.extension is Extension.CONSTANT:
        left, right = f.ext_values()
        if left != 0.0 or right != 0.0:
            raise InfiniteMassError(
                "L^p norm with p < inf of a nonzero constant extension is infinite"
            )
    # x^2 = |x|^2 bit for bit, and np.square is ** 2.0 at a third of its cost
    a = np.square(f.samples) if p == 2.0 else np.abs(f.samples) ** p
    return float(a.sum() * f.spacing) ** (1.0 / p)


def linf_on_interval(f: GridFunction, interval) -> float:
    """max |f| over the samples inside ``interval`` plus the interpolated
    endpoint values (extension values when the interval exits the window)."""
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        raise ValueError("interval must satisfy a <= b")
    i0 = int(np.ceil((a - f.origin) / f.spacing - 1e-12))
    i1 = int(np.floor((b - f.origin) / f.spacing + 1e-12))
    best = 0.0
    if i1 >= i0:
        lo = max(i0, 0)
        hi = min(i1, f.count - 1)
        if hi >= lo:
            best = float(np.max(np.abs(f.samples[lo : hi + 1])))
    ends = np.abs(f(np.array([a, b])))
    return max(best, float(ends[0]), float(ends[1]))


def grid_derivative(f: GridFunction) -> GridFunction:
    """Central-difference derivative (one-sided at the window edges)."""
    d = np.gradient(f.samples, f.spacing)
    return GridFunction(d, f.spacing, f.origin, Extension.ZERO)


# ---------------------------------------------------------------------------
# specs: name:key=value,key=value
# ---------------------------------------------------------------------------

def _split_items(text: str) -> list:
    """Split at the commas outside brackets, so a bracketed JSON list such
    as points=[[0,0],[1,1]] stays one item."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    items.append(text[start:])
    return items


def parse_items(text: str) -> dict:
    """``key=value,...`` -> {key: value}, both stripped; values stay text."""
    items = {}
    if not text.strip():
        return items
    for item in _split_items(text):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise CatalogError(f"expected key=value, got {item.strip()!r}")
        if key in items:
            raise CatalogError(f"key {key!r} given twice")
        items[key] = value.strip()
    return items


def parse_spec(text: str) -> tuple[str, dict]:
    """``name:key=value,...`` -> (name, {key: value})."""
    name, _, rest = text.partition(":")
    return name.strip(), parse_items(rest)


def is_json_number(value) -> bool:
    """A JSON number as ``json.load`` gives it: an int or a float, not a bool."""
    return type(value) in (int, float)


def call_declared(what: str, make: Callable, params: dict):
    """``make(**params)``, refusing a key that ``make`` does not declare and
    a required one that is missing; the error names the key."""
    sig = inspect.signature(make)
    try:
        sig.bind_partial(**params)  # an undeclared key is named before a missing one
        sig.bind(**params)
    except TypeError as exc:
        takes = ", ".join(str(v) for v in sig.parameters.values())
        raise CatalogError(f"{what}: {exc} (it takes: {takes or 'no parameters'})") from None
    return make(**params)


# ---------------------------------------------------------------------------
# descriptor catalog
# ---------------------------------------------------------------------------

def _mollifier(center: float, width: float):
    def fn(x):
        u = (np.asarray(x, dtype=np.float64) - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    return fn


def _plateau(lo: float, hi: float, ramp: float):
    """1 on [lo, hi], quintic smoothstep ramps of width ``ramp``, 0 outside."""

    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        up = smoothstep((x - (lo - ramp)) / ramp)
        down = smoothstep(((hi + ramp) - x) / ramp)
        return up * down

    return fn


def _table_interp(points):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise CatalogError("table descriptor needs an (n, 2) list of (x, value) points")
    order = np.argsort(pts[:, 0])
    xs, vs = pts[order, 0], pts[order, 1]

    def fn(x):
        return np.interp(np.asarray(x, dtype=np.float64), xs, vs, left=0.0, right=0.0)

    return fn


def _gaussian(center=0.0, width=1.0):
    c, w = float(center), float(width)
    return lambda x: np.exp(-(((np.asarray(x) - c) / w) ** 2))


def _indicator(a=0.0, b=1.0):
    a, b = float(a), float(b)
    return lambda x: np.where((np.asarray(x) >= a) & (np.asarray(x) <= b), 1.0, 0.0)


def _const(value=1.0):
    c = float(value)
    return lambda x: np.full_like(np.asarray(x, dtype=np.float64), c)


def _sine(freq=1.0, phase=0.0):
    freq, phase = float(freq), float(phase)
    return lambda x: np.sin(freq * np.asarray(x) + phase)


def _poly(coeffs):
    coeffs = [float(c) for c in coeffs]
    return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=np.float64), coeffs)


# name -> (constructor, extension); the constructor's keywords are the
# descriptor's parameters and carry their defaults
_CATALOG = {
    "zero": (lambda: lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)), Extension.ZERO),
    "const": (_const, Extension.CONSTANT),
    "linear": (lambda: lambda x: np.asarray(x, dtype=np.float64).copy(), Extension.CONSTANT),
    "indicator": (_indicator, Extension.ZERO),
    "gaussian": (_gaussian, Extension.ZERO),
    "bump": (lambda center=0.0, width=1.0: _mollifier(float(center), float(width)), Extension.ZERO),
    "sine": (_sine, Extension.CONSTANT),
    "poly": (_poly, Extension.CONSTANT),
    "table": (_table_interp, Extension.ZERO),
    # named members of the fixed test family
    "gaussian_wide": (lambda: lambda x: np.exp(-((np.asarray(x) / 2.0) ** 2)), Extension.ZERO),
    "gaussian_shift": (lambda: lambda x: np.exp(-4.0 * (np.asarray(x) - 1.0) ** 2), Extension.ZERO),
    "gauss_cos": (lambda: lambda x: np.exp(-(np.asarray(x) ** 2)) * np.cos(3.0 * np.asarray(x)), Extension.ZERO),
    "gauss_sin": (lambda: lambda x: np.exp(-(np.asarray(x) ** 2)) * np.sin(5.0 * np.asarray(x)), Extension.ZERO),
    "xgauss": (lambda: lambda x: np.asarray(x) * np.exp(-(np.asarray(x) ** 2)), Extension.ZERO),
    "two_bumps": (
        lambda: lambda x: np.exp(-((np.asarray(x) - 3.0) ** 2)) + np.exp(-((np.asarray(x) + 3.0) ** 2)),
        Extension.ZERO,
    ),
    "plateau": (lambda: _plateau(0.0, 1.0, 1.0), Extension.ZERO),
    "ramp_plateau": (lambda: _plateau(-1.0, 1.0, 0.5), Extension.ZERO),
}


FAMILY_NAMES = (
    "gaussian",
    "gaussian_wide",
    "gaussian_shift",
    "gauss_cos",
    "gauss_sin",
    "xgauss",
    "two_bumps",
    "bump",
    "plateau",
    "ramp_plateau",
)


def sample(
    name: str,
    window: tuple[float, float] = DEFAULT_WINDOW,
    count: int = DEFAULT_COUNT,
    **params,
) -> GridFunction:
    """Sample a catalog descriptor on ``count`` points over ``window``."""
    if count < 2:
        raise ValueError("count must be >= 2")
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"window [{a}, {b}] must have finite ends")
    if not (b > a):
        raise ValueError("window is degenerate")
    if name not in _CATALOG:
        raise CatalogError(f"unknown descriptor {name!r} (available: {sorted(_CATALOG)})")
    make, ext = _CATALOG[name]
    return sample_fn(call_declared(f"descriptor {name!r}", make, params), (a, b), count, ext)


def sample_fn(fn: Callable, window, count: int, extension: Extension) -> GridFunction:
    """Sample ``fn`` on ``count`` points over ``window``, keeping it as the
    descriptor."""
    lo, hi = window
    spacing = (hi - lo) / (count - 1)
    xs = lo + spacing * np.arange(count)
    return GridFunction(np.asarray(fn(xs), dtype=np.float64), spacing, lo, extension, fn)


def catalog_family(count: int = DEFAULT_COUNT) -> list[tuple[str, GridFunction]]:
    """The fixed 10-function family used by the equivalence-band tests, on
    the default window.

    All members are at least C^2, compactly supported or decaying below
    1e-12 at the window edge, and carry zero extension.
    """
    return [(name, sample(name, count=count)) for name in FAMILY_NAMES]
