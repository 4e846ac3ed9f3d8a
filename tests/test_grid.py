import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import grid
from besovlab.grid import (
    CatalogError,
    Extension,
    GridFunction,
    GridMismatchError,
    InfiniteMassError,
    SpaceParams,
    catalog_family,
    linf_on_interval,
    lp_norm,
    sample,
)


def test_sample_const():
    f = sample("const", window=(0.0, 1.0), count=3)
    assert np.array_equal(f.samples, [1.0, 1.0, 1.0])
    assert f.spacing == 0.5


def test_sample_linear():
    f = sample("linear", window=(0.0, 1.0), count=3)
    assert np.array_equal(f.samples, [0.0, 0.5, 1.0])
    assert f.extension is Extension.CONSTANT


def test_sample_gaussian_peak():
    f = sample("gaussian", window=(-8.0, 8.0), count=4097)
    assert f.samples[2048] == 1.0


def test_sample_errors():
    with pytest.raises(CatalogError):
        sample("no_such_fn")
    with pytest.raises(ValueError):
        sample("gaussian", window=(1.0, 1.0))
    with pytest.raises(ValueError):
        sample("gaussian", count=1)


def test_lp_norm_indicator():
    f = sample("indicator", count=2**13 + 1)
    v = lp_norm(f, 2.0)
    assert abs(v - 1.0) < 2.0 * f.spacing


def test_lp_norm_zero():
    f = sample("zero")
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_norm(f, p) == 0.0


def test_lp_norm_gaussian_closed_form():
    # int e^{-2x^2} dx = sqrt(pi/2), so ||e^{-x^2}||_2 = (pi/2)^(1/4)
    f = sample("gaussian", count=2**14 + 1)
    assert abs(lp_norm(f, 2.0) - (math.pi / 2.0) ** 0.25) < 1e-6


def test_lp_norm_infinite_mass():
    f = sample("const")
    with pytest.raises(InfiniteMassError):
        lp_norm(f, 2.0)
    assert lp_norm(f, math.inf) == 1.0


def test_lp_norm_bad_p():
    with pytest.raises(ValueError):
        lp_norm(sample("zero"), 0.0)


@given(st.floats(min_value=-1e6, max_value=1e6).filter(lambda c: abs(c) > 1e-12))
@settings(max_examples=30, deadline=None)
def test_lp_homogeneity(c):
    f = sample("gaussian", count=513)
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_norm(c * f, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)


def test_quasi_triangle():
    f = sample("gaussian", count=2049)
    g = sample("gauss_cos", count=2049)
    fg = GridFunction(f.samples + g.samples, f.spacing, f.origin)
    for p in (1.0, 2.0):
        assert lp_norm(fg, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12
    p = 0.5
    assert lp_norm(fg, p) ** p <= lp_norm(f, p) ** p + lp_norm(g, p) ** p + 1e-12


def test_monotone_refinement():
    n = 2**12 + 1
    a = lp_norm(sample("gaussian", count=n), 2.0)
    b = lp_norm(sample("gaussian", count=2 * n - 1), 2.0)
    assert abs(a - b) < 1.0 / n


def test_linf_on_interval():
    f = sample("linear", window=(0.0, 1.0), count=257)
    assert linf_on_interval(f, (0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)
    assert linf_on_interval(sample("zero"), (-3.0, 7.0)) == 0.0
    g = sample("gaussian", window=(-8.0, 8.0), count=4097)
    assert linf_on_interval(g, (1.0, 2.0)) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_linf_outside_window_uses_extension():
    f = sample("linear")  # constant extension, edge values +-16
    assert linf_on_interval(f, (20.0, 21.0)) == 16.0
    g = sample("gaussian")
    assert linf_on_interval(g, (20.0, 21.0)) == 0.0


def test_grid_mismatch():
    f = sample("gaussian", count=257)
    g = sample("gaussian", count=513)
    with pytest.raises(GridMismatchError):
        _ = f * g


def test_pointwise_ops():
    f = sample("gaussian", count=257)
    g = sample("indicator", count=257)
    assert np.array_equal((f * g).samples, f.samples * g.samples)


def test_space_params_validation():
    SpaceParams(1.5, 2.0, 2.0, 2)
    SpaceParams(1.5, math.inf, math.inf, 2)
    with pytest.raises(ValueError):
        SpaceParams(1.5, 2.0, 2.0, 1)  # m > s violated
    with pytest.raises(ValueError):
        SpaceParams(-0.5, 2.0, 2.0, 2)  # s > max(0, 1/p - 1) violated
    with pytest.raises(ValueError):
        SpaceParams(0.4, 0.5, 2.0, 2)  # 1/p - 1 = 1 > s
    with pytest.raises(ValueError):
        SpaceParams(1.5, 0.0, 2.0, 2)


def test_catalog_family_windows_decay():
    fam = catalog_family()
    assert len(fam) == 10
    for name, f in fam:
        assert f.extension is Extension.ZERO
        assert abs(f.samples[0]) < 1e-12 and abs(f.samples[-1]) < 1e-12, name


def test_parse_spec_keeps_bracketed_lists_whole():
    name, params = grid.parse_spec("table:points=[[0,0],[1,1],[2,0]], width = 2")
    assert (name, params) == ("table", {"points": "[[0,0],[1,1],[2,0]]", "width": "2"})


def test_parse_spec_refuses_a_repeated_key():
    with pytest.raises(CatalogError, match="'k' given twice"):
        grid.parse_spec("scale:k=2,k=3")


def test_sample_refuses_an_undeclared_key():
    with pytest.raises(CatalogError, match="'centre'"):
        sample("gaussian", count=17, centre=3.0)


def test_parse_items_blames_a_stray_bare_item():
    # the stray item is named, not the value it was glued onto ("1,zz")
    for text in ("c=1,zz", "s=1.5,p=2,zz", "points=[[0,0],[1,1]],zz", "c=1, zz ,k=3"):
        with pytest.raises(CatalogError, match="expected key=value, got 'zz'"):
            grid.parse_items(text)
