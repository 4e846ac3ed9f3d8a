"""Besov and Sobolev norms: difference characterizations and Fourier paths.

The h-integral over {|h| <= 1} with measure dh/|h| is discretized on a
signed dyadic grid: level k covers |h| in [2^-(k+1), 2^-k], each sign of
each level carries total log-measure ln 2 split evenly over its nodes.
Every node is snapped to the nearest nonzero multiple of the grid spacing,
so every difference inside a norm is an exact integer-shift stencil (this
is what makes polynomial annihilation exact). Nodes below one grid spacing
are dropped and the remaining tail of the integral is extrapolated from the
power law of the last two computed levels.

Accuracy (Plancherel oracle, B^s_{2,2}, m = 3, f = exp(-(x/w)^2)): off by
about 1e-3 once w spans 64 cells, at most 3.3e-3 (s = 1.5, w = 2), a bias
of the h-quadrature that refining to 2^15+1 samples leaves; at 8 cells the
sampling error dominates (+7.4e-2 at s = 2.6).

A difference table (one stencil row per node) is never held whole: one row
buffer is filled and reduced per distinct shift, and the nodes that snap to
one shift share its row, so a norm at 2^15+1 samples touches a few rows
instead of a 21 MB table. Each row evaluates its stencil, |.| and ^p only on
its live columns, the ones with a read where f differs from its extension
values (most witnesses are compactly supported); the other columns take the
constant's value and the whole row is reduced, its sum or at p = inf its
max, so every value is bit-identical to a whole-table pass. The stencil adds
or subtracts its +-1 end terms (see _kernels.Stencil), |.| is skipped at
p = 2, and a constant column is refilled only when the live span moved over
it. The Sobolev square function adds each node's weighted |live row| into
its level's columns and its weighted end constants into the others, those
only when nonzero; a node whose shift repeats recomputes the row.

At q = inf the sup over nodes runs the shifts from the largest |k| down and
skips each whose certified bound, |h|^-s |k|^m (||Delta^m_1 f||_p on Z plus
rounding; _sup_bounds), is below the running max; as m > s it grows with
|k|. A skipped shift reads 0 in the same full-length arrays, so the sup keeps
its bits. A nonzero extension value or p < 1 computes every shift, as does a
NaN or infinite sample, whose bound is NaN or inf.

The Fourier paths take the real half spectrum (rfft/irfft) of the grid's
own count - 1 cells, the window taken as one period. Every band
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

    @functools.lru_cache(maxsize=32)
    def materialize(self, spacing: float):
        """Node arrays (h, log-weight, linear width, level id) for a grid.

        Nodes >= spacing are snapped to grid multiples; nodes below one
        spacing are dropped (their mass goes to the extrapolated tail), so
        levels stop at the first one without a kept node. Both signs are
        emitted for every node. The arrays are built once per (h-grid,
        spacing) and are read-only.
        """
        n_mag = self.nodes_per_level // 2
        hs, wlog, wlin, lev = [], [], [], []
        for k in range(self.levels):
            # |h| nodes of level k: the log-midpoints of n_mag equal log-pieces
            # of [2^-(k+1), 2^-k], each weighted by its piece's width
            mags = 2.0 ** (-(k + 1) + (np.arange(n_mag) + 0.5) / n_mag)
            keep = mags >= spacing
            if not keep.any():
                break
            widths = np.diff(2.0 ** (-(k + 1) + np.arange(n_mag + 1) / n_mag))[keep]
            snapped = np.round(mags[keep] / spacing) * spacing
            for sign in (1.0, -1.0):
                hs.append(sign * snapped)
                wlog.append(np.full(snapped.size, LN2 / n_mag))
                wlin.append(widths)
                lev.append(np.full(snapped.size, k, dtype=np.int64))
        if not hs:
            raise ValueError("grid spacing too coarse for any dyadic level")
        out = tuple(np.concatenate(parts) for parts in (hs, wlog, wlin, lev))
        for arr in out:
            arr.flags.writeable = False
        return out


DEFAULT_HGRID = DyadicHGrid()


def _difference_norm_table(
    f: GridFunction, m: int, hs: np.ndarray, p: float, weights: np.ndarray | None = None
) -> np.ndarray:
    """||Delta^m_h f||_{L^p} for every h in ``hs``, each a nonzero grid
    multiple as DyadicHGrid.materialize snaps them; each distinct shift is
    computed once and its norm copied to every h that snaps to it.

    One row buffer serves every shift (see the module docstring). At p = 2
    the row is squared by np.square, where x^2 = |x|^2 bit for bit and
    ** 2.0 gives the same product at three times the cost. A constant column
    keeps its value from the previous row, so only the columns where the live
    span [a, b) moved are refilled. At p = inf the same row is reduced by
    its max, which keeps a NaN.

    With ``weights`` only max(weights * table) is wanted (the q = inf sup),
    and a shift whose weighted _sup_bounds is below the running max reads 0."""
    left, right = f.ext_values()
    stencil = _kernels.Stencil(f.samples, left, right, m, np.round(hs / f.spacing).astype(np.int64))
    n, sup = f.count, math.isinf(p)
    root = 1.0 if sup else f.spacing ** (1.0 / p)
    ends = np.abs(np.array([stencil.left_value, stencil.right_value]))
    if not sup:
        ends **= p
    fill_left, fill_right = ends.tolist()
    row = np.empty(n)
    acc = np.zeros(len(stencil.spans))
    order, bound, best = range(acc.size), None, -math.inf
    if weights is not None and p >= 1.0 and left == right == 0.0:
        wk = np.zeros(acc.size)
        np.maximum.at(wk, stencil.inverse, weights)
        bound, wk = (wk * _sup_bounds(f, m, p, stencil.shifts, root)).tolist(), wk.tolist()
        order = np.argsort(-np.abs(stencil.shifts), kind="stable").tolist()
    pa, pb = 0, n  # previous live span; nothing is filled yet
    for k in order:
        if bound and bound[k] < best:  # a NaN bound never is
            continue
        a, b = stencil.spans[k]
        live = stencil.live(k, row)
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
        acc[k] = v = row.max() if sup else row.sum()
        if bound:
            best = max(best, wk[k] * (v if sup else v ** (1.0 / p) * root))
    if not sup:
        acc = acc ** (1.0 / p) * root
    return acc[stencil.inverse]


def _sup_bounds(f: GridFunction, m: int, p: float, shifts: np.ndarray, root: float) -> np.ndarray:
    """Bounds on the computed _difference_norm_table values of f at integer
    shifts k, before weights, for p >= 1 and zero extension values.

    On Z, Delta^m_k is +- a translate of Delta^m_1 (1 + T + ... + T^(|k|-1))^m,
    a sum of |k|^m translates of Delta^m_1, so ||Delta^m_k f||_p <= |k|^m ||d||_p
    for d = Delta^m_1 f on Z (the window and the m columns before it). A column
    of a row or of d rounds by at most gamma sum_j |c_j| |f(x + jk)|, gamma =
    (m+1) 2^-52, and sum_j |c_j| = 2^m; by Minkowski a computed row's norm is at
    most |k|^m (||d|| + gamma ||2^(m+1) f||), d as computed. Each reduction
    after that (a term's pow, allowed 2^6 ulps where SVML's is within 4; n + m
    - 1 additions of nonnegative terms in any order; the root, p >= 1; the
    products by ``root``, a weight and here) is within eps = (n + m + 2^8)
    2^-53, for the table's values, its scalar running max and both norms
    here, so a skip stacks at most (1 + eps)^2 / (1 - eps)^3 < 1 + 8 eps, the
    factor applied. NaN or inf samples give NaN or inf bounds, and while 2^(m+1) f is
    finite no row overflows.
    """
    d = np.abs(np.diff(f.samples, n=m, prepend=np.zeros(m), append=np.zeros(m)))
    g = 2.0 ** (m + 1) * np.abs(f.samples)
    n1, ng = (x.max() if math.isinf(p) else float((x**p).sum()) ** (1.0 / p) * root for x in (d, g))
    eps = (f.count + m + 2**8) * 2.0**-53
    return np.abs(shifts).astype(np.float64) ** m * ((n1 + (m + 1) * 2.0**-52 * ng) * (1.0 + 8.0 * eps))


def besov_seminorm_diff(
    f: GridFunction, sp: SpaceParams, hg: DyadicHGrid = DEFAULT_HGRID
) -> float:
    """|f|_{B^s_{p,q}} by the m-th difference characterization.

    For q < inf this is (sum_k T_k + tail)^(1/q) with T_k the level sums of
    w * |h|^(-sq) ||Delta^m_h f||_p^q; when the level sums decay, the tail
    below the resolution floor is extrapolated geometrically from the last
    two levels. For q = inf it is the sup over nodes of
    |h|^(-s) ||Delta^m_h f||_p, which skips the shifts a bound rules out.
    """
    hs, wlog, _, lev = hg.materialize(f.spacing)
    if math.isinf(sp.q):
        w = np.abs(hs) ** (-sp.s)
        return float(np.max(w * _difference_norm_table(f, sp.m, hs, sp.p, w)))
    norms = _difference_norm_table(f, sp.m, hs, sp.p)
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
    """The real half spectrum of f's count - 1 cells, the window taken as
    one period. Invert with np.fft.irfft(..., n=f.count - 1)."""
    if f.extension is not Extension.ZERO:
        raise ValueError("Fourier path requires zero extension")
    return np.fft.rfft(f.samples[:-1])


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
    nonzero bins. Built once per grid; the masks are read-only. A grid too
    coarse for any band raises ValueError."""
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
    if not out:
        raise ValueError("grid spacing too coarse for any dyadic band")
    return tuple(out)


def littlewood_paley_norm(f: GridFunction, sp: SpaceParams) -> float:
    """Fourier-side norm (sum_j 2^{jsq} ||band_j f||_p^q)^{1/q} over the
    dyadic bands band_j(xi) = cut(2^-j xi) - cut(2^-(j-1) xi), band_0 = cut,
    for j = 0 .. ceil(log2(pi / spacing)) + 1. At p = 2 each band's norm is
    read from the spectrum by Parseval; otherwise each band is inverted."""
    spec = _half_spectrum(f)
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
    spec = _half_spectrum(f)
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
    stencil = _kernels.Stencil(f.samples, left, right, m, np.round(hs / f.spacing).astype(np.int64))
    ends = (abs(stencil.left_value), abs(stencil.right_value))
    row, level, term = np.empty(f.count), np.empty(f.count), np.empty(f.count)
    square, inner = np.zeros(f.count), np.zeros(f.count)
    # materialize keeps levels 0..lev.max() without gaps, all on the grid.
    # Each level's weighted |rows| are summed column by column in row order,
    # from +0.0. Every term is |.| * w, >= +0 or NaN, so +0.0 + term is the
    # term's bits, and an end constant that is 0 would add +0.0 and change
    # no bit: it is skipped. The inner integral over |h| <= t_k accumulates
    # all levels >= k.
    for k_lev in range(int(lev.max()), -1, -1):
        idx = np.flatnonzero(lev == k_lev)
        level.fill(0.0)
        for k, w in zip(stencil.inverse[idx].tolist(), wlin[idx].tolist()):
            a, b = stencil.spans[k]
            live = stencil.live(k, row)
            np.abs(live, out=live)
            live *= w
            level[a:b] += live
            if ends[0]:
                level[:a] += ends[0] * w
            if ends[1]:
                level[b:] += ends[1] * w
        inner += level
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


# name -> norm of (f, sp, hg): the CLI's --method choices, and the Besov and
# Sobolev norms of theorems.Resolution. Each entry looks its norm up when
# called, so a norm swapped in this module (a traced one) is the one run.
METHODS = {
    "diff": lambda f, sp, hg: besov_norm_diff(f, sp, hg),
    "lp": lambda f, sp, hg: littlewood_paley_norm(f, sp),
    "sobolev_fourier": lambda f, sp, hg: sobolev_norm_fourier(f, sp.s, sp.p),
    "sobolev_diff": lambda f, sp, hg: sobolev_norm_diff(f, sp.s, sp.p, sp.m, hg),
}


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
