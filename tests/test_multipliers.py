import math

import numpy as np
import pytest

from besovlab.grid import Extension, GridFunction, SpaceParams, lp_norm, sample
from besovlab.multipliers import (
    PsiProfileError,
    make_psi,
    msq_norm_lower_detailed,
    multiplier_norm_lower_detailed,
    translate_range,
    unif_profile,
)
from besovlab.norms import besov_norm_diff

SP = SpaceParams(0.5, 2.0, 2.0, 1)


def psi_grid_function(psi):
    base = sample("zero")
    return GridFunction(psi(base.x), base.spacing, base.origin, Extension.ZERO, psi)


def test_make_psi_mollifier_residual():
    """The integer translates of psi sum to one over a period."""
    psi = make_psi("mollifier")
    probe = np.linspace(0.0, 1.0, 2049)
    total = sum(psi(probe - z) for z in (-2.0, -1.0, 0.0, 1.0, 2.0))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_make_psi_refuses_any_other_profile():
    with pytest.raises(PsiProfileError, match="'triangle'"):
        make_psi("triangle")


def test_psi_support():
    psi = make_psi("mollifier")
    xs = np.array([-1.0, 1.0, 1.5, -3.0])
    assert np.all(psi(xs) == 0.0)


def test_unif_zero():
    psi = make_psi("mollifier")
    assert unif_profile(sample("zero"), SP, psi)[1].max() == 0.0


def test_unif_constant_translation_invariant():
    psi = make_psi("mollifier")
    zs, vals = unif_profile(sample("const"), SP, psi)
    assert vals.max() - vals.min() <= 1e-10 * vals.max()


def test_unif_linear_grows_to_window_edge():
    psi = make_psi("mollifier")
    zs, vals = unif_profile(sample("linear"), SP, psi)
    assert abs(zs[np.argmax(vals)]) == zs.max()
    # exhaustive per-z sweep is the oracle for the sup
    assert unif_profile(sample("linear"), SP, psi)[1].max() == vals.max()


def test_translate_range_margin():
    f = sample("zero")
    assert translate_range(f, 0)[0] == -15 and translate_range(f, 0)[-1] == 15
    assert translate_range(f, 2)[0] == -13 and translate_range(f, 2)[-1] == 13


def test_msq_dominates_unif_exactly():
    psi = make_psi("mollifier")
    for f in (sample("const"), sample("sine"), psi_grid_function(psi)):
        assert msq_norm_lower_detailed(f, SP, psi).value >= unif_profile(f, SP, psi)[1].max()


def test_msq_zero_and_p_inf():
    psi = make_psi("mollifier")
    assert msq_norm_lower_detailed(sample("zero"), SP, psi).value == 0.0
    with pytest.raises(ValueError):
        msq_norm_lower_detailed(sample("const"), SpaceParams(0.5, math.inf, 2.0, 1), psi)


def test_msq_is_reproducible_from_its_seed():
    psi = make_psi("mollifier")
    r = msq_norm_lower_detailed(sample("const"), SP, psi, n_random=8, seed=99)
    assert r == msq_norm_lower_detailed(sample("const"), SP, psi, n_random=8, seed=99)
    assert r.argmax


def test_msq_reuses_a_given_profile():
    psi = make_psi("mollifier")
    f = sample("sine", count=2**11 + 1)
    calls = []

    def counting(g, sp, hg):
        calls.append(1)
        return besov_norm_diff(g, sp, hg)

    plain = msq_norm_lower_detailed(f, SP, psi, n_random=8, norm_fn=counting)
    n_plain = len(calls)
    profile = unif_profile(f, SP, psi, with_rows=True)
    calls.clear()
    reused = msq_norm_lower_detailed(f, SP, psi, n_random=8, norm_fn=counting, profile=profile)
    assert reused.value == plain.value
    assert reused.argmax == plain.argmax
    assert len(calls) == n_plain - profile[0].size


@pytest.mark.parametrize("window, n", [((-3.0, 3.0), 3), ((-6.0, 5.5), 8), ((-6.0, 6.0), 9)])
def test_msq_tries_only_the_block_widths_below_the_translate_count(window, n):
    psi = make_psi("mollifier")
    f = sample("sine", window, 2**9 + 1)
    profile = unif_profile(f, SP, psi, with_rows=True)
    assert profile[0].size == n
    calls = []

    def counting(g, sp, hg):
        calls.append(1)
        return besov_norm_diff(g, sp, hg)

    msq_norm_lower_detailed(f, SP, psi, n_random=2, norm_fn=counting, profile=profile)
    # two Rademacher draws, all-ones, and three placements of each width 2, 4, 8 below n
    assert len(calls) == 2 + 1 + 3 * sum(width < n for width in (2, 4, 8))


def test_msq_builds_the_translate_rows_once():
    psi = make_psi("mollifier")
    f = sample("sine", count=2**11 + 1)
    plain = msq_norm_lower_detailed(f, SP, psi, n_random=8)
    zs, vals = unif_profile(f, SP, psi)
    profile = unif_profile(f, SP, psi, with_rows=True)
    assert np.array_equal(profile[0], zs) and profile[1].tobytes() == vals.tobytes()
    rows = []

    def counting(x):
        rows.append(1)
        return psi(x)

    for given, n_rows in ((None, zs.size), (profile, 0)):
        rows.clear()
        got = msq_norm_lower_detailed(f, SP, counting, n_random=8, profile=given)
        assert (np.float64(got.value).tobytes(), got.argmax) == (np.float64(plain.value).tobytes(), plain.argmax)
        assert len(rows) == n_rows


def test_disjoint_translate_lp_identity():
    # translates with support gap >= 3m carry the l^p sum exactly
    psi = make_psi("mollifier")
    base = sample("zero")
    zs = [-10.0, -5.0, 0.0, 5.0, 10.0]
    c = np.array([0.3, -1.2, 0.77, 2.0, -0.41])
    total = np.zeros_like(base.x)
    for ci, zi in zip(c, zs):
        total += ci * psi(base.x - zi)
    g = GridFunction(total, base.spacing, base.origin, Extension.ZERO)
    p = 2.0
    lhs = lp_norm(g, p) ** p
    rhs = float(np.sum(np.abs(c) ** p)) * lp_norm(psi_grid_function(psi), p) ** p
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_multiplier_lower_unit_and_scalar():
    psi = make_psi("mollifier")
    testers = [("g", sample("gaussian")), ("psi", psi_grid_function(psi))]
    one = sample("const")
    assert multiplier_norm_lower_detailed(one, SP, testers).value == 1.0
    c = sample("const", value=-2.5)
    assert multiplier_norm_lower_detailed(c, SP, testers).value == pytest.approx(2.5, rel=1e-12)


def test_multiplier_lower_zero_tester_warns():
    testers = [("zero", sample("zero")), ("g", sample("gaussian"))]
    with pytest.warns(UserWarning):
        v = multiplier_norm_lower_detailed(sample("const"), SP, testers).value
    assert v == 1.0
    with pytest.warns(UserWarning), pytest.raises(ValueError):
        multiplier_norm_lower_detailed(sample("const"), SP, [("zero", sample("zero"))])


def test_multiplier_lower_detail():
    testers = [("g", sample("gaussian"))]
    r = multiplier_norm_lower_detailed(sample("sine"), SP, testers)
    assert r.argmax == "g" and r.value > 0.0


def test_window_growth_dichotomy():
    # p < inf: the norm of a widening plateau grows like width^(1/p) while
    # its multiplier lower bound stays near 1 (the p = inf contrast)
    from besovlab.gadgets import linear_cutoff, unit_bump
    from besovlab.norms import besov_norm_diff

    psi = make_psi("mollifier")
    testers = [("psi0", psi_grid_function(psi))]
    from besovlab.grid import smoothstep

    def plateau(width):
        def fn(x):
            x = np.asarray(x, dtype=np.float64)
            return smoothstep((x + width + 1.0)) * smoothstep((width + 1.0 - x))

        base = sample("zero")
        return GridFunction(fn(base.x), base.spacing, base.origin, Extension.ZERO, fn)

    norms = [besov_norm_diff(plateau(w), SP) for w in (2.0, 14.0)]
    mults = [multiplier_norm_lower_detailed(plateau(w), SP, testers).value for w in (2.0, 14.0)]
    assert norms[1] / norms[0] > 1.5
    assert abs(mults[1] - mults[0]) < 0.05 * mults[0]
