"""Besov and Sobolev norms: difference characterizations and Fourier paths.

The h-integral over {|h| <= 1} with measure dh/|h| is discretized on a
signed dyadic grid: level k covers |h| in [2^-(k+1), 2^-k], each sign of
each level carries total log-measure ln 2 split evenly over its nodes.
Every node is snapped to the nearest nonzero multiple of the grid spacing,
so every difference inside a norm is an exact integer-shift stencil (this
is what makes polynomial annihilation exact). Only difference(), the
single-shift operator, interpolates sub-cell shifts linearly. Nodes below
one grid spacing are dropped and the remaining tail of the integral is
extrapolated from the power law of the last two computed levels.

Accuracy (Plancherel oracle, B^s_{2,2}, m = 3, f = exp(-(x/w)^2)): off by
about 1e-3 once w spans 64 cells, at most 3.3e-3 (s = 1.5, w = 2), a bias
of the h-quadrature that refining to 2^15+1 samples leaves; at 8 cells the
sampling error dominates (+7.4e-2 at s = 2.6).

A difference table (one stencil row per node) is never held whole: one row
buffer is filled and reduced per node, so a norm at 2^15+1 samples touches
a few rows instead of a 21 MB table. Each row evaluates its stencil, |.|
and ^p only on its live columns, the ones with a read where f differs from
its extension values (most witnesses are compactly supported); the other
columns take the constant's value, and the sum or max still runs over the
whole row, so every value is bit-identical to a whole-table pass. Within
that, no pass runs whose result is known: the stencil adds or subtracts
its +-1 end terms instead of multiplying them (see _kernels.Stencil), |.|
is skipped at p = 2, and a constant column is refilled only when the live
span moved over it since the previous row. The Sobolev square function
likewise weights only live columns; a column that is constant in every row
of a level takes the row-order sum of the constants.

The Fourier paths take the real half spectrum (rfft/irfft). Every band
mask and the Sobolev lift depend on |xi| only, so this is the same operator
on half the data. At p = 2 no band is inverted: by discrete Parseval a
band's L^2 norm is read from the half spectrum, each bin weighted by the
number of full-spectrum bins it stands for. The band masks are built once
per (cell count, spacing) and kept read-only on their support only. Against
the full complex fft/ifft, the values at p = 2 move by at most 1.8e-15
relative over the catalog family and the narrow gadgets at 2^13+1 and
2^15+1 (tests bound it at 1e-13), and by at most 4.1e-16 against inverting
each band. p != 2 inverts each band; there the plateau at 2^15+1, p = 3
differs from the full-spectrum reference by 3.3e-13.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import Extension, GridFunction, SpaceParams, lp_norm, smoothstep

LN2 = math.log(2.0)
# level sums must decay for the geometric tail estimate to make sense;
# above this ratio the function is unresolved at the floor and no tail is
# added (the extrapolation would otherwise manufacture most of the value)
TAIL_RATIO_CAP = 0.95


@dataclass(frozen=True)
class DyadicHGrid:
    """Signed log-uniform nodes for the singular measure dh/|h| on |h| <= 1.

    The resolution floor is one grid spacing: nodes below it are dropped
    and handed to the extrapolated tail, and every kept node is snapped to
    an exact grid shift.
    """

    levels: int = 10
    nodes_per_level: int = 8

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("need at least two levels")
        if self.nodes_per_level < 2 or self.nodes_per_level % 2:
            raise ValueError("nodes_per_level must be even and >= 2")

    @property
    def n_mag(self) -> int:
        return self.nodes_per_level // 2

    def magnitudes(self, level: int) -> np.ndarray:
        """|h| nodes of one level: log-midpoints of [2^-(level+1), 2^-level]."""
        j = np.arange(self.n_mag)
        return 2.0 ** (-(level + 1) + (j + 0.5) / self.n_mag)

    def level_edges(self, level: int) -> np.ndarray:
        j = np.arange(self.n_mag + 1)
        return 2.0 ** (-(level + 1) + j / self.n_mag)

    def materialize(self, spacing: float):
        """Node arrays (h, log-weight, linear width, level id) for a grid.

        Nodes >= spacing are snapped to grid multiples; nodes below one
        spacing are dropped (their mass goes to the extrapolated tail), so
        levels stop at the first one without a kept node. Both signs are
        emitted for every node. The arrays are built once per (h-grid,
        spacing) and are read-only.
        """
        return _materialize(self, float(spacing))


@functools.lru_cache(maxsize=32)
def _materialize(hg: DyadicHGrid, spacing: float):
    hs, wlog, wlin, lev = [], [], [], []
    for k in range(hg.levels):
        mags = hg.magnitudes(k)
        keep = mags >= spacing
        if not keep.any():
            break
        widths = np.diff(hg.level_edges(k))[keep]
        snapped = np.round(mags[keep] / spacing) * spacing
        for sign in (1.0, -1.0):
            hs.append(sign * snapped)
            wlog.append(np.full(snapped.size, LN2 / hg.n_mag))
            wlin.append(widths)
            lev.append(np.full(snapped.size, k, dtype=np.int64))
    if not hs:
        raise ValueError("grid spacing too coarse for any dyadic level")
    out = tuple(np.concatenate(parts) for parts in (hs, wlog, wlin, lev))
    for arr in out:
        arr.flags.writeable = False
    return out


DEFAULT_HGRID = DyadicHGrid()


# ---------------------------------------------------------------------------
# difference operator
# ---------------------------------------------------------------------------

def difference(f: GridFunction, m: int, h: float) -> GridFunction:
    """Delta^m_h f on f's grid, using f's extension beyond the window.

    m = 0 is the identity. |h| >= spacing is snapped to the nearest grid
    multiple; smaller |h| is evaluated by linear interpolation.
    """
    if m < 0:
        raise ValueError("difference order must be nonnegative")
    if m == 0:
        return f
    if abs(h) > 1.0:
        raise ValueError("|h| <= 1 required")
    left, right = f.ext_values()
    if abs(h) >= f.spacing:
        off = int(math.copysign(round(abs(h) / f.spacing), h))
        vals = _kernels.shift_difference_batch(
            f.samples, left, right, np.array([off]), m
        )[0]
    else:
        vals = _kernels.interp_difference(f.samples, f.origin, f.spacing, left, right, h, m)
    return GridFunction(vals, f.spacing, f.origin, Extension.ZERO if m >= 1 else f.extension)


def _difference_norm_table(f: GridFunction, m: int, hs: np.ndarray, p: float) -> np.ndarray:
    """||Delta^m_h f||_{L^p} for every h in ``hs``, each a nonzero grid
    multiple as DyadicHGrid.materialize snaps them.

    One row buffer serves every h: the stencil, |.| and ^p run on the row's
    live columns (see _kernels.Stencil), the constant columns take the
    constant's value through the same |.| and ^p, and the sum or max runs
    over the whole row, as a whole-table pass reduces it. At p = 2 the row is
    squared by np.square, where x^2 = |x|^2 bit for bit and ** 2.0 gives the
    same product at three times the cost. A constant column keeps its value
    from the previous row, so only the columns where the live span [a, b)
    moved since then are refilled.
    """
    left, right = f.ext_values()
    offs = np.round(hs / f.spacing).astype(np.int64)
    stencil = _kernels.Stencil(f.samples, left, right, m)
    sup = math.isinf(p)
    ends = np.abs(np.array([stencil.left_value, stencil.right_value]))
    if not sup:
        ends **= p
    fill_left, fill_right = ends.tolist()
    row = np.empty(f.count)
    acc = np.empty(offs.shape[0])
    pa, pb = 0, f.count  # previous live span; nothing is filled yet
    for k, off in enumerate(offs.tolist()):
        a, b = stencil.live_row(off, row)
        live = row[a:b]
        if p == 2.0:
            np.square(live, out=live)
        else:
            np.abs(live, out=live)
            if not sup:
                live **= p
        if a > pa:
            row[pa:a] = fill_left
        if b < pb:
            row[b:pb] = fill_right
        pa, pb = a, b
        acc[k] = row.max() if sup else row.sum()
    if sup:
        return acc
    return acc ** (1.0 / p) * f.spacing ** (1.0 / p)


def besov_seminorm_diff(
    f: GridFunction, sp: SpaceParams, hg: DyadicHGrid = DEFAULT_HGRID
) -> float:
    """|f|_{B^s_{p,q}} by the m-th difference characterization.

    For q < inf this is (sum_k T_k + tail)^(1/q) with T_k the level sums of
    w * |h|^(-sq) ||Delta^m_h f||_p^q; when the level sums decay, the tail
    below the resolution floor is extrapolated geometrically from the last
    two levels. For q = inf it is the sup over nodes of
    |h|^(-s) ||Delta^m_h f||_p.
    """
    hs, wlog, _, lev = hg.materialize(f.spacing)
    norms = _difference_norm_table(f, sp.m, hs, sp.p)
    if math.isinf(sp.q):
        return float(np.max(np.abs(hs) ** (-sp.s) * norms))
    vals = wlog * np.abs(hs) ** (-sp.s * sp.q) * norms**sp.q
    per_level = np.bincount(lev, weights=vals)
    total = float(per_level.sum())
    if per_level.size >= 2 and per_level[-2] > 0.0:
        ratio = per_level[-1] / per_level[-2]
        if 0.0 < ratio < TAIL_RATIO_CAP:
            total += per_level[-1] * ratio / (1.0 - ratio)
    return total ** (1.0 / sp.q)


def besov_norm_diff(f: GridFunction, sp: SpaceParams, hg: DyadicHGrid = DEFAULT_HGRID) -> float:
    """||f||_{B^s_{p,q}} = ||f||_{L^p} + |f|_{B^s_{p,q}}."""
    return lp_norm(f, sp.p) + besov_seminorm_diff(f, sp, hg)


# ---------------------------------------------------------------------------
# Littlewood-Paley / Fourier path
# ---------------------------------------------------------------------------

def _cutoff(xi):
    """Base low-pass: 1 on |xi| <= 1, 0 on |xi| >= 2, quintic in between."""
    return 1.0 - smoothstep(np.abs(xi) - 1.0)


def _half_spectrum(f: GridFunction):
    """Window treated as one period of 2^k cells; returns (f resampled to
    2^k + 1 points when needed, its real half spectrum). Invert with
    np.fft.irfft(..., n=f.count - 1)."""
    if f.extension is not Extension.ZERO:
        raise ValueError("Fourier path requires zero extension")
    m = f.count - 1
    if m & (m - 1):
        target = 2 ** int(math.ceil(math.log2(m))) + 1
        f = f.resample(target)
        m = f.count - 1
    return f, np.fft.rfft(f.samples[:m])


def _angular_freqs(m: int, spacing: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.rfftfreq(m, d=spacing)


def _weighted_power(spec, m: int) -> np.ndarray:
    """|spec|^2 times the number of full-spectrum bins each half-spectrum bin
    stands for: 1 at xi = 0 and at the Nyquist bin of an even m, 2 elsewhere.
    By discrete Parseval, (weighted power * mult^2).sum() / m is the sum of
    squares of irfft(spec * mult, n=m) for a real multiplier mult."""
    power = spec.real**2 + spec.imag**2
    power[1 : (m + 1) // 2] *= 2.0
    return power


def _l2_from_power(weighted: np.ndarray, m: int, spacing: float) -> float:
    """The rectangle-rule L^2 norm (lp_norm at p = 2) of the m samples whose
    weighted half-spectrum power is ``weighted``. .sum(), not np.dot, which
    may start BLAS threads."""
    return (float(weighted.sum()) * spacing / m) ** 0.5


@functools.lru_cache(maxsize=32)
def _band_masks(m: int, spacing: float):
    """(j, a, b, mask_j[a:b]) for every dyadic band with a nonzero mask on
    the half spectrum of m cells at ``spacing``; [a, b) spans the mask's
    nonzero bins. Built once per grid; the masks are read-only."""
    xi = _angular_freqs(m, spacing)
    n_bands = int(math.ceil(math.log2(math.pi / spacing))) + 1
    out = []
    lower = np.zeros_like(xi)
    for j in range(n_bands + 1):
        cut = _cutoff(2.0 ** (-j) * xi)
        mask, lower = cut - lower, cut
        support = np.flatnonzero(mask)
        if not support.size:
            continue
        a, b = int(support[0]), int(support[-1]) + 1
        band = mask[a:b].copy()
        band.flags.writeable = False
        out.append((j, a, b, band))
    return tuple(out)


def littlewood_paley_norm(f: GridFunction, sp: SpaceParams) -> float:
    """Fourier-side norm (sum_j 2^{jsq} ||band_j f||_p^q)^{1/q} over the
    dyadic bands band_j(xi) = cut(2^-j xi) - cut(2^-(j-1) xi), band_0 = cut,
    for j = 0 .. ceil(log2(pi / spacing)) + 1. At p = 2 each band's norm is
    read from the spectrum by Parseval; otherwise each band is inverted."""
    f, spec = _half_spectrum(f)
    m = f.count - 1
    parseval = sp.p == 2.0
    if parseval:
        power = _weighted_power(spec, m)
    terms = []
    for j, a, b, mask in _band_masks(m, float(f.spacing)):
        if parseval:
            energy = mask * power[a:b]
            energy *= mask
            v = _l2_from_power(energy, m, f.spacing)
        else:
            banded = np.zeros_like(spec)
            banded[a:b] = spec[a:b] * mask
            v = lp_norm(GridFunction(np.fft.irfft(banded, n=m), f.spacing, f.origin), sp.p)
        terms.append((j, v))
    if math.isinf(sp.q):
        return max(2.0 ** (j * sp.s) * v for j, v in terms)
    return float(sum(2.0 ** (j * sp.s * sp.q) * v**sp.q for j, v in terms)) ** (1.0 / sp.q)


def sobolev_norm_fourier(f: GridFunction, s: float, p: float) -> float:
    """||F^-1[(1+|xi|^2)^{s/2} F f]||_{L^p}, angular frequency convention;
    at p = 2 read from the spectrum by Parseval."""
    if not (1.0 < p < math.inf):
        raise ValueError("Sobolev space requires p in (1, inf)")
    f, spec = _half_spectrum(f)
    m = f.count - 1
    xi2 = _angular_freqs(m, f.spacing) ** 2
    if p == 2.0:
        power = _weighted_power(spec, m)
        power *= (1.0 + xi2) ** s
        return _l2_from_power(power, m, f.spacing)
    lifted = np.fft.irfft(spec * (1.0 + xi2) ** (s / 2.0), n=m)
    return lp_norm(GridFunction(lifted, f.spacing, f.origin), p)


def sobolev_seminorm_diff(
    f: GridFunction, s: float, p: float, m: int, hg: DyadicHGrid = DEFAULT_HGRID
) -> float:
    """Difference-side H^s seminorm: the L^p norm in x of the square
    function (int_0^1 t^{-2s} (t^-1 int_{|h|<=t} |Delta^m_h f| dh)^2 dt/t)^(1/2),
    with the t-integral on dyadic levels and the inner h-average by rectangle
    rule on the dyadic nodes.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("Sobolev space requires p in (1, inf)")
    if not (m > s):
        raise ValueError("m > s required")
    hs, _, wlin, lev = hg.materialize(f.spacing)
    left, right = f.ext_values()
    offs = np.round(hs / f.spacing).astype(np.int64)
    stencil = _kernels.Stencil(f.samples, left, right, m)
    n_levels = int(lev.max()) + 1
    absd_weighted = np.empty((n_levels, f.count))
    ends = (abs(stencil.left_value), abs(stencil.right_value))
    rows = np.empty((hg.nodes_per_level, f.count))
    # materialize keeps levels 0..n_levels-1 without gaps, all on the grid.
    # Each level's weighted |rows| are summed column by column in row order.
    # A column before every row's live span holds |left_value| * w in each
    # row, one after every span |right_value| * w, so their sums are scalars.
    for k_lev in range(n_levels):
        idx = np.flatnonzero(lev == k_lev)
        spans, fills = [], []
        for row, off, w in zip(rows, offs[idx].tolist(), wlin[idx].tolist()):
            a, b = stencil.live_row(off, row)
            live = row[a:b]
            np.abs(live, out=live)
            live *= w
            spans.append((a, b))
            fills.append((ends[0] * w, ends[1] * w))
        lo = min(a for a, _ in spans)
        hi = max(b for _, b in spans)
        level = rows[: idx.size]
        for row, (a, b), (fill_left, fill_right) in zip(level, spans, fills):
            row[lo:a] = fill_left
            row[b:hi] = fill_right
        out = absd_weighted[k_lev]
        out[lo:hi] = level[0, lo:hi]
        for row in level[1:]:
            out[lo:hi] += row[lo:hi]
        out[:lo] = functools.reduce(operator.add, [fill for fill, _ in fills])
        out[hi:] = functools.reduce(operator.add, [fill for _, fill in fills])
    # inner integral over |h| <= t_k accumulates all levels >= k
    square = np.zeros(f.count)
    inner = np.zeros(f.count)
    term = np.empty(f.count)
    for k_lev in range(n_levels - 1, -1, -1):
        inner += absd_weighted[k_lev]
        t_k = 2.0 ** (-(k_lev + 0.5))
        np.divide(inner, t_k, out=term)
        term **= 2
        term *= LN2 * t_k ** (-2.0 * s)
        square += term
    g = GridFunction(np.sqrt(square), f.spacing, f.origin, Extension.ZERO)
    return lp_norm(g, p)


def sobolev_norm_diff(
    f: GridFunction, s: float, p: float, m: int, hg: DyadicHGrid = DEFAULT_HGRID
) -> float:
    return lp_norm(f, p) + sobolev_seminorm_diff(f, s, p, m, hg)


def embedding_lhs(f: GridFunction, p: float) -> float:
    """(sum_j ||f||_{L^inf([j, j+1])}^p)^{1/p} over integer j covering the window.

    The per-cell sup is the essential one: samples strictly inside (j, j+1),
    so a shared endpoint (measure zero) is never double counted.
    """
    if math.isinf(p):
        raise ValueError("p < inf required")
    j0 = int(math.floor(f.origin))
    j1 = int(math.ceil(f.end))
    total = 0.0
    for j in range(j0, j1):
        i0 = int(math.floor((j - f.origin) / f.spacing)) + 1
        i1 = int(math.ceil((j + 1 - f.origin) / f.spacing)) - 1
        i0, i1 = max(i0, 0), min(i1, f.count - 1)
        if i1 >= i0:
            total += float(np.max(np.abs(f.samples[i0 : i1 + 1]))) ** p
    return total ** (1.0 / p)
