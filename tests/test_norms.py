import math
import tracemalloc

import numpy as np
import pytest

from besovlab import _kernels
from besovlab.gadgets import eta_eps, linear_cutoff, unit_bump
from besovlab.grid import (
    Extension,
    GridFunction,
    SpaceParams,
    catalog_family,
    grid_derivative,
    lp_norm,
    sample,
    smoothstep,
)
from besovlab.norms import (
    DEFAULT_HGRID,
    DyadicHGrid,
    _difference_norm_table,
    _band_masks,
    _materialize,
    besov_norm_diff,
    besov_seminorm_diff,
    difference,
    embedding_lhs,
    littlewood_paley_norm,
    sobolev_norm_diff,
    sobolev_norm_fourier,
    sobolev_seminorm_diff,
)

SP = SpaceParams(1.5, 2.0, 2.0, 2)


# ---------------------------------------------------------------------------
# difference operator
# ---------------------------------------------------------------------------

def test_difference_constant_annihilated():
    f = sample("const")
    for m in (1, 2, 3):
        d = difference(f, m, 0.25)
        assert np.max(np.abs(d.samples)) == 0.0


def test_difference_linear_first_order():
    f = sample("linear")
    d = difference(f, 1, 0.25)
    interior = d.samples[: -(int(0.25 / f.spacing) + 1)]
    assert np.allclose(interior, 0.25, atol=1e-12)


def test_difference_quadratic_second_order():
    f = sample("poly", coeffs=[0.0, 0.0, 1.0])
    d = difference(f, 2, 0.25)
    k = int(round(0.5 / f.spacing)) + 1
    assert np.allclose(d.samples[:-k], 0.125, atol=1e-9)  # 2 h^2


def test_difference_identity_and_errors():
    f = sample("gaussian")
    assert difference(f, 0, 0.1) is f
    with pytest.raises(ValueError):
        difference(f, -1, 0.1)
    with pytest.raises(ValueError):
        difference(f, 1, 1.5)


def test_difference_subspacing_uses_interpolation():
    f = sample("gaussian")
    h = f.spacing / 3.0
    d = difference(f, 1, h)
    x = f.x[4096]
    assert d.samples[4096] == pytest.approx(f(x + h) - f(x), abs=1e-14)


def test_polynomial_annihilation():
    hg = DyadicHGrid()
    for m, coeffs in ((1, [1.0]), (2, [1.0, -0.3]), (3, [1.0, -0.3, 0.25])):
        f = sample("poly", coeffs=coeffs)
        hs, _, _, _ = hg.materialize(f.spacing)
        scale = np.max(np.abs(f.samples))
        guard = int((m + 1.0) / f.spacing) + 1
        for h in hs:
            d = difference(f, m, float(h))
            worst = np.max(np.abs(d.samples[guard:-guard]))
            assert worst <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Besov norms
# ---------------------------------------------------------------------------

def test_hgrid_nodes_are_built_once_per_grid_and_read_only():
    for hg, spacing in ((DyadicHGrid(), 32.0 / 8192), (DyadicHGrid(6, 4), 0.01), (DyadicHGrid(), 0.3)):
        first = hg.materialize(spacing)
        again = hg.materialize(np.float64(spacing))
        fresh = _materialize.__wrapped__(hg, spacing)
        assert all(a is b for a, b in zip(first, again))
        for cached, built in zip(first, fresh):
            assert not cached.flags.writeable
            assert cached.dtype == built.dtype and cached.tobytes() == built.tobytes()
        with pytest.raises(ValueError):
            first[0][0] = 1.0
    # an equal h-grid shares the entry; another node count does not
    assert DyadicHGrid(10, 8).materialize(0.3)[0] is DyadicHGrid().materialize(0.3)[0]
    assert DyadicHGrid(10, 16).materialize(0.3)[0].size != DyadicHGrid().materialize(0.3)[0].size


def test_band_masks_are_built_once_per_grid_and_read_only():
    for m, spacing in ((8192, 32.0 / 8192), (32768, 32.0 / 32768), (4096, 0.01)):
        first = _band_masks(m, spacing)
        again = _band_masks(m, float(np.float64(spacing)))
        fresh = _band_masks.__wrapped__(m, spacing)
        assert first is again
        xi = 2.0 * math.pi * np.fft.rfftfreq(m, d=spacing)
        lower = np.zeros_like(xi)
        for (j, a, b, mask), (j2, a2, b2, built) in zip(first, fresh, strict=True):
            assert (j, a, b) == (j2, a2, b2)
            assert not mask.flags.writeable and mask.tobytes() == built.tobytes()
            with pytest.raises(ValueError):
                mask[0] = 1.0
        # each stored band is the difference of cutoffs on its support [a, b)
        # and zero off it; bands with no support are left out
        kept = {j: (a, b, mask) for j, a, b, mask in first}
        for j in range(int(math.ceil(math.log2(math.pi / spacing))) + 2):
            cut = 1.0 - smoothstep(np.abs(2.0 ** (-j) * xi) - 1.0)
            full, lower = cut - lower, cut
            if j not in kept:
                assert not full.any()
                continue
            a, b, mask = kept[j]
            assert mask.tobytes() == full[a:b].tobytes()
            assert not full[:a].any() and not full[b:].any() and full[a] and full[b - 1]
    # another grid gets its own masks
    assert _band_masks(8192, 32.0 / 8192) is not _band_masks(8192, 16.0 / 8192)


def test_besov_zero():
    assert besov_norm_diff(sample("zero"), SP) == 0.0
    assert besov_seminorm_diff(sample("zero"), SP) == 0.0


def test_besov_scaling_by_two_exact():
    f = sample("gaussian")
    assert besov_norm_diff(2.0 * f, SP) == 2.0 * besov_norm_diff(f, SP)


def test_besov_self_convergence_oracle():
    # independent denser-quadrature oracle: ten times the h nodes
    f = sample("gaussian")
    coarse = besov_seminorm_diff(f, SP, DyadicHGrid(10, 8))
    dense = besov_seminorm_diff(f, SP, DyadicHGrid(10, 80))
    assert abs(coarse - dense) / dense < 0.02


def test_q_monotone_up_to_lattice():
    f = sample("gaussian")
    vals = [
        besov_seminorm_diff(f, SpaceParams(1.5, 2.0, q, 2)) for q in (1.0, 2.0, 4.0, math.inf)
    ]
    lattice = 1.25
    for a, b in zip(vals, vals[1:]):
        assert b <= a * lattice


def test_besov_q_inf_branch():
    f = sample("gaussian")
    v = besov_norm_diff(f, SpaceParams(1.5, 2.0, math.inf, 2))
    assert 0.0 < v < besov_norm_diff(f, SP)


def test_besov_p_inf_branch():
    f = sample("gaussian")
    v = besov_norm_diff(f, SpaceParams(1.5, math.inf, 2.0, 2))
    assert v > 1.0  # sup norm alone is 1


def _whole_table_norms(f, m, hs, p):
    """The one-shot reference: one stencil table for all of ``hs``, then
    abs, power and sum over each whole row."""
    left, right = f.ext_values()
    offs = np.round(hs / f.spacing).astype(np.int64)
    table = _kernels.shift_difference_batch(f.samples, left, right, offs, m)
    if math.isinf(p):
        return np.max(np.abs(table), axis=1)
    return (np.abs(table) ** p).sum(axis=1) ** (1.0 / p) * f.spacing ** (1.0 / p)


def test_difference_table_equals_the_whole_table_formula():
    count = 2**11 + 1
    funcs = (sample("gauss_cos", count=count), sample("sine", count=count, freq=0.7, phase=0.3))
    assert [f.extension for f in funcs] == [Extension.ZERO, Extension.CONSTANT]
    rng = np.random.default_rng(12)
    # shifts up to the whole window, so the clamped padding reads are covered
    offs = rng.integers(1, count, size=80) * rng.choice((-1, 1), size=80)
    for f in funcs:
        for n_off in (1, 5, 80):
            hs = offs[:n_off] * f.spacing
            for m in (1, 2, 3):
                for p in (1.5, 2.0, math.inf):
                    got = _difference_norm_table(f, m, hs, p)
                    assert np.array_equal(got, _whole_table_norms(f, m, hs, p)), (f.extension, n_off, m, p)


def test_besov_norm_diff_streams_its_difference_table():
    # B^2.1_2,2 at 2^15+1 has 80 stencil rows of 32769 samples. Streamed in
    # blocks, the traced peak measured 2.55 MiB; the whole-table code peaked
    # at 60.0 MiB (table, abs and power, 21 MB each). 4 MiB is the bound.
    f = sample("gaussian", count=2**15 + 1)
    sp = SpaceParams(2.1, 2.0, 2.0, 3)
    besov_norm_diff(f, sp)
    tracemalloc.start()
    try:
        besov_norm_diff(f, sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_a_default_table_evaluates_each_distinct_shift_once(monkeypatch):
    # the finest levels snap 1, 1, 2, 2 | 2, 3, 3, 4 cells per sign: 64 nodes
    # at 2^13+1, 54 distinct shifts
    f = sample("gaussian", count=2**13 + 1)
    rows = []
    live = _kernels.Stencil.live

    def counting(stencil, k, out):
        rows.append(int(stencil.shifts[k]))
        return live(stencil, k, out)

    monkeypatch.setattr(_kernels.Stencil, "live", counting)
    besov_seminorm_diff(f, SpaceParams(2.1, 2.0, 2.0, 3))
    assert DEFAULT_HGRID.materialize(f.spacing)[0].size == 64
    assert len(rows) == len(set(rows)) == 54


# ---------------------------------------------------------------------------
# Littlewood-Paley / Fourier side
# ---------------------------------------------------------------------------

def test_lp_norm_zero():
    assert littlewood_paley_norm(sample("zero"), SP) == 0.0


def test_lp_band_limited_exact():
    f0 = sample("zero", count=2**13 + 1)
    vals = np.cos(2.0 * math.pi * 3.0 * f0.x / 32.0)
    f = GridFunction(vals, f0.spacing, f0.origin, Extension.ZERO)
    # spectrum at |xi| = 2 pi 3/32 < 1: only the j = 0 band survives
    lp_periodic = float((np.abs(f.samples[:-1]) ** 2).sum() * f.spacing) ** 0.5
    assert littlewood_paley_norm(f, SP) == pytest.approx(lp_periodic, rel=1e-10)


def test_lp_rejects_constant_extension():
    with pytest.raises(ValueError):
        littlewood_paley_norm(sample("linear"), SP)


def test_lp_resamples_odd_counts():
    f = sample("gaussian", count=3000)
    v = littlewood_paley_norm(f, SP)
    ref = littlewood_paley_norm(sample("gaussian", count=2**12 + 1), SP)
    assert v == pytest.approx(ref, rel=1e-2)


def test_characterization_equivalence_band():
    for name, f in catalog_family(count=2**12 + 1)[:4]:
        ratio = besov_norm_diff(f, SP) / littlewood_paley_norm(f, SP)
        assert 0.1 < ratio < 10.0, name


def _full_spectrum(f):
    """Complex spectrum over the whole period of 2^k cells, with its angular
    frequencies: the reference the half-spectrum path must reproduce."""
    m = f.count - 1
    if m & (m - 1):
        f = f.resample(2 ** int(math.ceil(math.log2(m))) + 1)
        m = f.count - 1
    return f, np.fft.fft(f.samples[:m]), 2.0 * math.pi * np.fft.fftfreq(m, d=f.spacing)


def _full_fft_lp(f, sp):
    f, spec, xi = _full_spectrum(f)
    terms, lower = [], np.zeros_like(xi)
    for j in range(int(math.ceil(math.log2(math.pi / f.spacing))) + 2):
        cut = 1.0 - smoothstep(np.abs(2.0 ** (-j) * xi) - 1.0)
        band = np.fft.ifft(spec * (cut - lower)).real
        lower = cut
        terms.append((j, lp_norm(GridFunction(band, f.spacing, f.origin), sp.p)))
    if math.isinf(sp.q):
        return max(2.0 ** (j * sp.s) * v for j, v in terms)
    return sum(2.0 ** (j * sp.s * sp.q) * v**sp.q for j, v in terms) ** (1.0 / sp.q)


def _full_fft_sobolev(f, s, p):
    f, spec, xi = _full_spectrum(f)
    lifted = np.fft.ifft(spec * (1.0 + xi**2) ** (s / 2.0)).real
    return lp_norm(GridFunction(lifted, f.spacing, f.origin), p)


def test_fourier_paths_equal_the_full_spectrum_reference():
    # the half spectrum is the same operator on half the data, and at p = 2
    # Parseval reads each band's norm from it; at p = 2 the measured worst
    # relative change is 1.8e-15 over the catalog at 2^13+1 and 2^15+1
    funcs = [f for _, f in catalog_family(count=2**11 + 1)] + [sample("xgauss", count=3000)]
    count = 2**13 + 1
    funcs += [unit_bump(0.0, count=count), eta_eps(0.1, count=count), linear_cutoff(0.0, 2.0, count=count)]
    # white noise puts weight on every bin, the Nyquist bin included
    noise = np.random.default_rng(5).normal(size=2**11 + 1)
    funcs.append(GridFunction(noise, 32.0 / 2**11, -16.0, Extension.ZERO))
    for f in funcs:
        for sp in (SP, SpaceParams(2.1, 3.0, 1.5, 3), SpaceParams(1.5, 2.0, math.inf, 2)):
            assert littlewood_paley_norm(f, sp) == pytest.approx(_full_fft_lp(f, sp), rel=1e-13, abs=0.0)
        for s, p in ((1.25, 2.0), (0.7, 1.5)):
            assert sobolev_norm_fourier(f, s, p) == pytest.approx(_full_fft_sobolev(f, s, p), rel=1e-13, abs=0.0)
    # at p = 3 the band norms go through irfft and ^3; over the catalog at
    # 2^15+1 the measured worst relative change is 3.3e-13 (plateau), so
    # these get 1e-12, about three times that
    sp = SpaceParams(2.1, 3.0, 1.5, 3)
    for _, f in catalog_family(count=2**15 + 1):
        assert littlewood_paley_norm(f, sp) == pytest.approx(_full_fft_lp(f, sp), rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

def test_sobolev_fourier_zero_and_s0():
    assert sobolev_norm_fourier(sample("zero"), 1.0, 2.0) == 0.0
    f = sample("gaussian")
    assert sobolev_norm_fourier(f, 0.0, 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-10)


def test_sobolev_fourier_p_gate():
    f = sample("gaussian")
    for p in (1.0, math.inf, 0.5):
        with pytest.raises(ValueError):
            sobolev_norm_fourier(f, 1.0, p)


def test_sobolev_h1_derivative_oracle():
    f = sample("gaussian")
    v = sobolev_norm_fourier(f, 1.0, 2.0)
    oracle = math.sqrt(lp_norm(f, 2.0) ** 2 + lp_norm(grid_derivative(f), 2.0) ** 2)
    assert abs(v - oracle) / oracle < 0.01


def test_sobolev_seminorm_trivials():
    assert sobolev_seminorm_diff(sample("zero"), 1.25, 2.0, 2) == 0.0
    c = sample("const")
    assert sobolev_seminorm_diff(c, 1.25, 2.0, 2) == 0.0


def test_sobolev_seminorm_gates():
    f = sample("gaussian")
    with pytest.raises(ValueError):
        sobolev_seminorm_diff(f, 1.25, 1.0, 2)
    with pytest.raises(ValueError):
        sobolev_seminorm_diff(f, 2.25, 2.0, 2)


def test_sobolev_equivalence_band_gaussian():
    f = sample("gaussian")
    ratio = sobolev_norm_diff(f, 1.25, 2.0, 2) / sobolev_norm_fourier(f, 1.25, 2.0)
    assert 0.2 < ratio < 5.0


# ---------------------------------------------------------------------------
# embedding left-hand side
# ---------------------------------------------------------------------------

def test_embedding_lhs_zero_and_indicator():
    assert embedding_lhs(sample("zero"), 2.0) == 0.0
    f = sample("indicator")
    for p in (0.5, 1.0, 2.0, 4.0):
        assert embedding_lhs(f, p) == pytest.approx(1.0, abs=1e-12)


def test_embedding_lhs_loop_order_oracle():
    # independent re-evaluation: scan samples once, bucket by cell index
    f = sample("gaussian")
    p = 2.0
    sums = {}
    for x, v in zip(f.x, np.abs(f.samples)):
        j = math.floor(x)
        if x > j:  # strict interior of (j, j+1)
            sums[j] = max(sums.get(j, 0.0), v)
    oracle = sum(v**p for v in sums.values()) ** (1.0 / p)
    assert embedding_lhs(f, p) == pytest.approx(oracle, abs=1e-12)


def test_embedding_bound_over_family():
    sp = SP
    for name, f in catalog_family(count=2**12 + 1):
        n = besov_norm_diff(f, sp)
        assert embedding_lhs(f, 2.0) <= 1.0 * n, name
        assert np.max(np.abs(f.samples)) <= 1.0 * n, name


def test_algebra_property_band():
    fam = catalog_family(count=2**12 + 1)[:5]
    norms = {n: besov_norm_diff(g, SP) for n, g in fam}
    for n1, g1 in fam:
        for n2, g2 in fam:
            v = besov_norm_diff(g1 * g2, SP)
            assert v <= 1.0 * norms[n1] * norms[n2]
