"""Partition of unity on integer translates and multiplier-norm estimates.

The three estimators mirror the embedding chain between the multiplier
space, the coefficient-sup space, and the uniform localization space: all
are suprema over infinite families, so the artifact computes certified
lower bounds over documented candidate sets and never labels them as the
true norm. Coordinate sequences are always among the candidates, which
makes the coefficient-sup estimate dominate the uniform one exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import Extension, GridFunction, SpaceParams, _mollifier
from .norms import DEFAULT_HGRID, DyadicHGrid, besov_norm_diff


class PsiProfileError(ValueError):
    """Profile translates fail to cover the line (denominator vanishes)."""


@dataclass(frozen=True)
class PsiBump:
    """Nonnegative bump with support exactly [-1, 1] whose integer
    translates sum to one."""

    func: Callable
    residual: float

    def on_grid(self, like: GridFunction, shift: float = 0.0) -> GridFunction:
        vals = np.asarray(self.func(like.x - shift), dtype=np.float64)
        return GridFunction(vals, like.spacing, like.origin, Extension.ZERO, None)


def _triangle_profile(x):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=np.float64)))


_PROFILES = {"mollifier": _mollifier(0.0, 1.0), "triangle": _triangle_profile}


def make_psi(profile="mollifier") -> PsiBump:
    """Normalize a profile B supported in [-1, 1] into psi = B / sum_z B(.-z).

    Raises PsiProfileError when the translates of B leave gaps.
    """
    base = _PROFILES.get(profile) if isinstance(profile, str) else profile
    if base is None:
        raise PsiProfileError(f"unknown profile {profile!r}")

    def denom(x):
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros_like(x)
        base_z = np.floor(x)
        for off in (-1.0, 0.0, 1.0, 2.0):
            total += base(x - (base_z + off))
        return total

    probe = np.linspace(0.0, 1.0, 2049)
    dvals = denom(probe)
    if float(dvals.min()) < 1e-13:
        raise PsiProfileError("profile translates leave gaps; cannot normalize")

    def psi(x):
        x = np.asarray(x, dtype=np.float64)
        vals = base(x)
        out = np.zeros_like(vals)
        supp = vals != 0.0
        if np.any(supp):
            out[supp] = vals[supp] / denom(x[supp])
        return out

    # partition-of-unity residual over one period
    res = np.zeros_like(probe)
    for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
        res += psi(probe - z)
    residual = float(np.max(np.abs(res - 1.0)))
    return PsiBump(psi, residual)


def _normalized(entries, p: float) -> np.ndarray:
    """Nonzero ``entries`` scaled to unit l^p norm, p < inf."""
    arr = np.asarray(entries, dtype=np.float64)
    return arr / float((np.abs(arr) ** p).sum() ** (1.0 / p))


def translate_range(f: GridFunction, margin: int = 0) -> np.ndarray:
    """Integer z with [z-1-margin, z+1+margin] inside f's window.

    The margin keeps the m-widened support of Delta^m_h psi_z inside the
    window, which is what makes the localized norms translation-exact.
    """
    lo = int(math.ceil(f.origin)) + 1 + margin
    hi = int(math.floor(f.end)) - 1 - margin
    return np.arange(lo, hi + 1)


def _translate_matrix(f: GridFunction, psi: PsiBump, zs: np.ndarray) -> np.ndarray:
    rows = np.empty((zs.size, f.count))
    for i, z in enumerate(zs):
        rows[i] = psi.func(f.x - z)
    return rows


def unif_profile(
    f: GridFunction,
    sp: SpaceParams,
    psi: PsiBump,
    hg: DyadicHGrid = DEFAULT_HGRID,
    norm_fn: Callable = besov_norm_diff,
    with_rows: bool = False,
) -> tuple[np.ndarray, ...]:
    """Per-translate localized norms ||f psi(.-z)|| for every admissible z;
    their max is the uniform localization norm sup_z on the window. Returns
    (zs, vals), and with ``with_rows`` also the rows psi(x - z) it built."""
    zs = translate_range(f, margin=sp.m)
    rows = _translate_matrix(f, psi, zs)
    vals = np.empty(zs.size)
    for i in range(zs.size):
        g = GridFunction(f.samples * rows[i], f.spacing, f.origin, Extension.ZERO)
        vals[i] = norm_fn(g, sp, hg)
    return (zs, vals, rows) if with_rows else (zs, vals)


@dataclass
class LowerBoundResult:
    value: float
    argmax: str


def msq_norm_lower_detailed(
    f: GridFunction,
    sp: SpaceParams,
    psi: PsiBump,
    hg: DyadicHGrid = DEFAULT_HGRID,
    n_random: int = 64,
    seed: int = 1234,
    norm_fn: Callable = besov_norm_diff,
    profile: Optional[tuple[np.ndarray, ...]] = None,
) -> LowerBoundResult:
    """Certified lower bound for the coefficient-sup multiplier norm.

    Candidates: all coordinate sequences (so the result dominates the max
    of unif_profile exactly), Rademacher sign sequences drawn from
    ``seed``, and block-constant sequences, all normalized in l^p. ``profile``
    is the (zs, vals, rows) that unif_profile returned with its rows for the
    same arguments; it supplies the coordinate norms and the translate rows
    instead of recomputing them.
    """
    if math.isinf(sp.p):
        raise ValueError("coefficient-sup estimator is defined for p < inf")
    if profile is None:
        profile = unif_profile(f, sp, psi, hg, norm_fn, with_rows=True)
    zs, coord_vals, rows = profile
    n = zs.size
    best = float(coord_vals.max())
    arg = f"coordinate z={int(zs[int(np.argmax(coord_vals))])}"

    def try_candidate(entries, label: str):
        nonlocal best, arg
        g = GridFunction(
            f.samples * (_normalized(entries, sp.p) @ rows), f.spacing, f.origin, Extension.ZERO
        )
        v = norm_fn(g, sp, hg)
        if v > best:
            best = v
            arg = label

    rng = np.random.default_rng(seed)
    for i in range(n_random):
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        try_candidate(signs, f"rademacher#{i}")
    try_candidate(np.ones(n), "block all-ones")
    for width in (2, 4, 8):
        if width >= n:
            continue
        for start in (0, (n - width) // 2, n - width):
            c = np.zeros(n)
            c[start : start + width] = 1.0
            try_candidate(c, f"block w={width}@{start}")
    return LowerBoundResult(best, arg)


def multiplier_norm_lower_detailed(
    f: GridFunction,
    sp: SpaceParams,
    testers: Sequence[tuple[str, GridFunction]],
    hg: DyadicHGrid = DEFAULT_HGRID,
    norm_fn: Callable = besov_norm_diff,
) -> LowerBoundResult:
    """max over testers g of ||f g|| / ||g||, a lower bound for the
    operator multiplier norm of f."""
    best = -math.inf
    arg = ""
    for label, g in testers:
        gn = norm_fn(g, sp, hg)
        if gn == 0.0:
            warnings.warn(f"tester {label!r} has zero norm; skipped")
            continue
        v = norm_fn(f * g, sp, hg) / gn
        if v > best:
            best, arg = v, label
    if not math.isfinite(best):
        raise ValueError("no tester with nonzero norm")
    return LowerBoundResult(best, arg)
