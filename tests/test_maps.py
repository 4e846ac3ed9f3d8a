import hashlib
import json
import math

import numpy as np
import pytest

from besovlab import _kernels as K
from besovlab import maps as maps_module
from besovlab.grid import GridFunction, catalog_family, sample
from besovlab.maps import (
    M_LEVELS,
    SWEEP_STEP,
    LineMap,
    LineMapDerivative,
    M_functional,
    U_functional,
    UnboundedPreimageError,
    _spline_map,
    _sup_preimage_lengths,
    affine_map,
    compose,
    derivative,
    from_callable,
    identity_map,
    inverse_map,
    lipschitz_constant,
    max_preimage_count,
    named_map,
    polynomial_map,
    preimage_intervals,
    quadratic_map,
    sample_composed,
    sin_drift_map,
    sin_map,
    steepest_point,
)


def piecewise_affine():
    # slopes 0.5, -3, 1 with continuity at the breakpoints
    bp = np.array([-16.0, -5.0, 5.0, 16.0])
    v0 = 0.0
    v1 = v0 + 0.5 * 11.0
    v2 = v1 - 3.0 * 10.0
    cf = np.array([[v0, 0.5, 0, 0], [v1, -3.0, 0, 0], [v2, 1.0, 0, 0]])
    return LineMap(bp, cf, 0.5, 1.0, name="pw_affine")


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def test_continuity_validation():
    bp = np.array([0.0, 1.0, 2.0])
    cf = np.array([[0.0, 1.0, 0, 0], [1.5, 1.0, 0, 0]])  # jump of 0.5 at x=1
    with pytest.raises(ValueError):
        LineMap(bp, cf, 1.0, 1.0)


# sha256 of each named map's segment table at its defaults, in this order,
# and of the catalog family's samples; both fixed when the constructors'
# window and pieces became constants, so that change kept every bit
NAMED_SPECS = ("identity", "shift", "scale", "affine", "quadratic", "sin_drift", "sin")
NAMED_SEGMENTS_SHA256 = "9309f36deaa5d07d5bb8da0e7f260e4b88d3f5fbdc90bae4f1bf7778dcfeed5a"
CATALOG_FAMILY_SHA256 = "2b113c1ac558951836ab33ef327bef15446d353bda9c1ab53b15e184c6836e7f"


def test_constructors_keep_their_bits():
    segments = hashlib.sha256()
    for spec in NAMED_SPECS:
        segments.update(named_map(spec).segments().tobytes())
    family = hashlib.sha256()
    for _, f in catalog_family():
        family.update(f.samples.tobytes())
    assert (segments.hexdigest(), family.hexdigest()) == (NAMED_SEGMENTS_SHA256, CATALOG_FAMILY_SHA256)


def test_eval_and_tails():
    phi = affine_map(2.0, 1.0)
    xs = np.array([-20.0, 0.0, 3.0, 20.0])
    assert np.allclose(phi(xs), 2.0 * xs + 1.0, atol=1e-12)
    assert phi(0.5) == 2.0


def test_json_roundtrip():
    phi = from_callable(lambda x: x + 0.5 * np.sin(x), pieces=32, name="sin_drift(0.5)")
    bp, cf = phi.breakpoints.tolist(), phi.coeffs.tolist()
    obj = {
        "pieces": [{"interval": bp[i : i + 2], "coeffs": cf[i]} for i in range(len(cf))],
        "tails": {"left_slope": phi.left_slope, "right_slope": phi.right_slope},
        "name": phi.name,
    }
    psi = LineMap.from_json(json.loads(json.dumps(obj)))
    xs = np.linspace(-16, 16, 101)
    assert np.allclose(phi(xs), psi(xs), atol=1e-12)
    assert psi.left_slope == phi.left_slope


def test_named_map_specs():
    assert named_map("identity").name == "identity"
    assert named_map("scale:k=2")(1.0) == 2.0
    with pytest.raises(ValueError):
        named_map("nope")


# every map spec of the default suite, the README and the benchmark
# workloads, with the exact name it reports (records.json keys on it)
PINNED_NAMES = {
    "identity": "identity",
    "shift:c=1": "shift(1)",
    "scale:k=2": "scale(2)",
    "scale:k=0.5": "scale(0.5)",
    "scale:k=3": "scale(3)",
    "affine:a=0.5,b=2": "affine(0.5,2.0)",
    "affine:a=.5,b=2": "affine(0.5,2.0)",
    "sin_drift:amp=0.5": "sin_drift(0.5)",
    "sin_drift:amp=0.25": "sin_drift(0.25)",
    "quadratic": "quadratic",
    "sin": "sin",
}


@pytest.mark.parametrize("spec", sorted(PINNED_NAMES))
def test_named_map_names_are_pinned(spec):
    assert named_map(spec).name == PINNED_NAMES[spec]


def test_pinned_names_cover_the_default_suite():
    from besovlab.cli import DEFAULT_SUITE

    assert set(DEFAULT_SUITE["maps"]) <= set(PINNED_NAMES)


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_identity_exact():
    f = sample("gaussian")
    g = compose(f, identity_map())
    assert np.array_equal(f.samples, g.samples)


def test_compose_translation_of_indicator():
    f = sample("indicator")  # chi_[0,1]
    g = compose(f, affine_map(1.0, 1.0))  # g(x) = chi(x+1) = chi_[-1,0](x)
    x = f.x
    expected = np.where((x + 1.0 >= 0.0) & (x + 1.0 <= 1.0), 1.0, 0.0)
    assert np.array_equal(g.samples, expected)


def test_compose_dilation_closed_form():
    f = sample("gaussian")
    g = compose(f, affine_map(2.0, 0.0))
    assert np.max(np.abs(g.samples - np.exp(-4.0 * f.x**2))) < 1e-6


def test_compose_contraction_in_sup_norm():
    # interpolation error bounded by Lip(f) * spacing
    f = sample("gaussian")
    phi = sin_drift_map(0.5)
    g = compose(f, phi)
    exact = np.exp(-(phi(f.x) ** 2))
    lip_f = math.sqrt(2.0 / math.e)
    assert np.max(np.abs(g.samples - exact)) <= lip_f * f.spacing


def test_sample_composed_interpolates_a_function_without_a_descriptor():
    f = sample("gaussian")
    bare = GridFunction(f.samples, f.spacing, f.origin)
    phi = sin_drift_map(0.5)
    assert np.array_equal(sample_composed(bare, phi).samples, compose(f, phi).samples)
    assert not np.array_equal(sample_composed(bare, phi).samples, sample_composed(f, phi).samples)


# ---------------------------------------------------------------------------
# derivative and Lipschitz constant
# ---------------------------------------------------------------------------

def test_derivative_affine():
    d = derivative(affine_map(2.0, 0.0))
    assert d(0.3) == 2.0
    assert d.sample(257).samples[0] == 2.0


def test_derivative_spline_analytic():
    phi = sin_drift_map(0.5)
    xs = np.linspace(-15.5, 15.5, 2001)
    assert np.max(np.abs(derivative(phi)(xs) - (1.0 + 0.5 * np.cos(xs)))) < 1e-4


def test_derivative_piecewise_affine_steps():
    phi = piecewise_affine()
    d = derivative(phi)
    assert d(-10.0) == 0.5 and d(0.0) == -3.0 and d(10.0) == 1.0
    assert d.max_jump() == 4.0  # -3 -> 1 at the second breakpoint


def test_c1_is_read_from_the_breakpoint_jumps():
    # phi' jumps by 3.5 and 4 at the breakpoints; derivative() is a plain view of it
    phi = piecewise_affine()
    assert not phi.c1
    assert derivative(phi)(0.0) == -3.0
    smooth = LineMap(phi.breakpoints, np.array([[0.0, 1.0, 0, 0], [11.0, 1.0, 0, 0], [21.0, 1.0, 0, 0]]), 1.0, 1.0)
    assert smooth.c1 and derivative(smooth).max_jump() == 0.0


@pytest.mark.parametrize("tails", [(1.0, 2.0), (2.0, 1.0)], ids=["right", "left"])
def test_c1_is_read_from_the_tail_junctions(tails):
    # slope 1 on the window; a tail of slope 2 is a jump of 1 at that edge
    phi = LineMap(np.array([-16.0, 16.0]), np.array([[-16.0, 1.0, 0, 0]]), *tails)
    assert LineMapDerivative(phi).max_jump() == 1.0
    assert not phi.c1
    assert LineMap(phi.breakpoints, phi.coeffs, 1.0, 1.0).c1
    # a jump just above the tolerance is one
    assert not LineMap(phi.breakpoints, phi.coeffs, 1.0, 1.0 + 4 * maps_module.C1_TOL).c1


# each named map at its defaults, one that reverses and one that folds,
# with whether it is a homeomorphism; every one is C^1 to the last few ulps
NAMED_MONOTONE = {
    "identity": True, "shift": True, "scale": True, "affine": True, "quadratic": False,
    "sin_drift": True, "sin": False, "affine:a=-0.5,b=0": True, "sin_drift:amp=1.5": False,
}


@pytest.mark.parametrize("spec", list(NAMED_MONOTONE))
def test_every_named_map_is_c1_and_reads_its_monotonicity(spec):
    phi = named_map(spec)
    assert derivative(phi).max_jump() <= 4.5e-16
    assert phi.c1
    assert phi.strictly_monotone is NAMED_MONOTONE[spec]


def test_sin_tails_take_the_spline_end_slopes():
    phi = sin_map()
    assert derivative(phi).max_jump() < 1e-9  # the tails included
    assert phi.left_slope == pytest.approx(math.cos(10.0), abs=1e-3)
    assert phi.right_slope == pytest.approx(math.cos(10.0), abs=1e-3)


def test_lipschitz_values():
    assert lipschitz_constant(affine_map(2.0, 0.0)) == 2.0
    assert lipschitz_constant(piecewise_affine()) == 3.0
    assert abs(lipschitz_constant(sin_drift_map(0.5)) - 1.5) < 1e-4


def test_steepest_point_and_lipschitz_pinned():
    assert lipschitz_constant(sin_map()) == 1.000000014096952
    assert lipschitz_constant(quadratic_map()) == 32.0
    slope, x = steepest_point(sin_drift_map(0.5), -14.0, 14.0)
    assert x == -6.283184679571341
    assert slope == pytest.approx(1.5, rel=1e-6)


# ---------------------------------------------------------------------------
# preimage decomposition
# ---------------------------------------------------------------------------

def test_preimage_identity():
    dec = preimage_intervals(identity_map(), (0.0, 1.0))
    assert dec.count == 1
    l, r = dec.intervals[0]
    assert abs(l) < 1e-9 and abs(r - 1.0) < 1e-9


def test_preimage_quadratic_single_interval():
    dec = preimage_intervals(quadratic_map(), (0.0, 1.0))
    assert dec.count == 1
    l, r = dec.intervals[0]
    assert abs(l + 1.0) < 1e-9 and abs(r - 1.0) < 1e-9


def test_preimage_sin_seven_intervals():
    dec = preimage_intervals(sin_map(), (-0.5, 0.5))
    assert dec.count == 7
    centers = sorted(0.5 * (l + r) for l, r in dec)
    assert np.allclose(centers, [k * math.pi for k in range(-3, 4)], atol=1e-6)


def test_preimage_empty_and_errors():
    assert preimage_intervals(identity_map(), (40.0, 41.0)).count == 0
    with pytest.raises(ValueError):
        preimage_intervals(identity_map(), (1.0, 0.0))
    flat_tail = LineMap(
        np.array([-16.0, 16.0]), np.array([[-16.0, 1.0, 0, 0]]), 1.0, 0.0, name="flat_right"
    )
    with pytest.raises(UnboundedPreimageError):
        preimage_intervals(flat_tail, (15.5, 16.5))


def _piecewise_linear(xs, ys):
    """The continuous piecewise-linear LineMap through (xs, ys), tails of slope 1."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    zeros = np.zeros(xs.size - 1)
    cf = np.column_stack([ys[:-1], np.diff(ys) / np.diff(xs), zeros, zeros])
    return LineMap(xs, cf, 1.0, 1.0, name="piecewise_linear")


def test_preimage_touching_segments_merge():
    # [1, 2] and [2, 3] lie inside the target band and share x = 2; the dip
    # below 0 on (3, 4) separates [4, 5]
    phi = _piecewise_linear([-16, 1, 2, 3, 3.5, 4, 5, 16], [18, 1, 0.5, 0, -1, 0, 1, 12])
    dec = preimage_intervals(phi, (0.0, 1.0))
    assert dec.count == 2
    assert dec.total_length == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(dec.to_json(), [[1.0, 3.0], [4.0, 5.0]], rtol=0.0, atol=1e-12)


def test_preimage_merge_moves_the_start_left_to_a_later_segment():
    # -16 + (-7.86 + 16) rounds to -7.859999999999999, so the first piece's
    # segment ends past the breakpoint where the second starts; the target
    # from that end value clips the first segment at its end alone, and the
    # second segment's start moves the interval's start left to -7.86
    bp = np.array([-16.0, -7.86, 16.0])
    phi = LineMap(bp, np.array([[0.1 * bp[0], 0.1, 0, 0], [0.1 * bp[1], 0.1, 0, 0]]), 0.1, 0.1)
    seg = phi.segments()
    assert seg[0, 6] > seg[1, 5] == -7.86
    (start, _), = preimage_intervals(phi, (seg[0, 8], seg[0, 8] + 0.5)).intervals
    assert start == -7.86


def test_preimage_merge_tolerance_is_inclusive():
    # the zero-width target {0} meets the flat pieces and the ends of a bump
    # on (1, x2); pieces up to 1e-9 * window width apart merge, farther apart
    # they do not
    tol = 1e-9 * 32.0
    for gap, count in ((tol, 1), (2.0 * tol, 2)):
        x2 = 1.0 + gap
        phi = _piecewise_linear([-16.0, 1.0, 1.0 + 0.5 * gap, x2, 16.0], [0.0, 0.0, 1.0, 0.0, 0.0])
        # the root on the bump's falling side lands exactly on x2
        assert K.segment_clip(phi.segments()[2].tolist(), 0.0, 0.0)[0] == x2
        dec = preimage_intervals(phi, (0.0, 0.0))
        assert dec.count == count
        assert dec.intervals[0][0] == -16.0 and dec.intervals[-1][1] == 16.0


def _preimage_per_segment(phi, target):
    """preimage_intervals as it ran before the one-mask screen: every
    segment that meets the target clipped on its numpy row with N_BISECT
    fixed bisection steps, then the pairs sorted and merged."""
    lo, hi = float(target[0]), float(target[1])
    seg = phi.segments()
    ymin, ymax = np.minimum(seg[:, 7], seg[:, 8]), np.maximum(seg[:, 7], seg[:, 8])

    def solve(row, y):
        t0, c0, c1, c2, c3, xlo, xhi, ylo, yhi = row
        a, b = xlo, xhi
        for _ in range(K.N_BISECT):
            mid = 0.5 * (a + b)
            u = mid - t0
            if (c0 + u * (c1 + u * (c2 + u * c3)) - y <= 0.0) == (yhi >= ylo):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    pairs = []
    for row in seg[(ymax >= lo) & (ymin <= hi)]:
        xlo, xhi, ylo, yhi = row[5:9]
        rmin, rmax = min(ylo, yhi), max(ylo, yhi)
        if rmin == rmax:
            pairs.append((xlo, xhi))
            continue
        inc = yhi >= ylo
        a, b = max(lo, rmin), min(hi, rmax)
        xa = (xlo if inc else xhi) if a <= rmin else solve(row, a)
        xb = (xhi if inc else xlo) if b >= rmax else solve(row, b)
        pairs.append((min(xa, xb), max(xa, xb)))
    tol = 1e-9 * max(1.0, phi.window[1] - phi.window[0])
    merged = []
    for l, r in sorted((float(l), float(r)) for l, r in pairs):
        if merged and l <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], r)
        else:
            merged.append([l, r])
    return tuple((l, r) for l, r in merged)


@pytest.mark.parametrize("spec", ["sin", "quadratic", "sin_drift:amp=0.5", "sin_drift:amp=1.5", "affine:a=-2,b=1"])
def test_preimage_intervals_match_the_per_segment_loop(spec):
    phi = named_map(spec)
    rng = np.random.default_rng(11)
    ymin, ymax = phi.value_range()
    crit = phi.critical_values()
    crit = crit[np.unique(np.linspace(0, crit.size - 1, 40).astype(int))]
    targets = [(c, c + 1.0) for c in crit] + [(c - 1.0, c) for c in crit] + [(c, c) for c in crit]
    targets += [(ymax + 0.5, ymax + 1.5), (ymin - 2.0, ymin - 1.0)]  # miss the range
    for a in rng.uniform(ymin - 1.0, ymax, size=40):
        targets.append((a, a + rng.choice([1e-3, 1.0, 2.5])))
    hits = 0
    for target in targets:
        dec = preimage_intervals(phi, target)
        assert dec.intervals == _preimage_per_segment(phi, target), target
        hits += dec.count > 0
    assert hits >= 3 * crit.size  # every target holding a critical value hits


def test_preimage_quadratic_closed_form():
    # phi(x) = x^2 on [-16, 16]: phi^-1([a, a + 1]) is [-sqrt(a+1), -sqrt(a)]
    # and [sqrt(a), sqrt(a+1)], one interval at a = 0. Measured worst relative
    # error over a = 0..200 is 6.2e-15; the bound leaves 3x headroom.
    phi = quadratic_map()
    for a in range(201):
        r0, r1 = math.sqrt(a), math.sqrt(a + 1)
        want = [(-r1, r1)] if a == 0 else [(-r1, -r0), (r0, r1)]
        np.testing.assert_allclose(preimage_intervals(phi, (a, a + 1.0)).to_json(), want, rtol=2e-14, atol=0.0)


@pytest.mark.parametrize("a", [-3.0, -0.5, 0.5, 3.0])
@pytest.mark.parametrize("b", [0.0, 1.5, -7.25])
def test_preimage_affine_closed_form(a, b):
    # phi(x) = a x + b: phi^-1([lo, hi]) is [(lo - b)/a, (hi - b)/a], ordered.
    # Measured worst absolute error over these maps and targets is 5.3e-15
    # (about one ulp at |x| < 16, so relative error is unbounded near 0); the
    # bound leaves 3x headroom.
    phi = affine_map(a, b)
    rng = np.random.default_rng(5)
    ylo, yhi = sorted((-16.0 * a + b, 16.0 * a + b))
    for lo in rng.uniform(ylo, yhi - 1.0, size=50):
        hi = lo + rng.uniform(0.0, 1.0)
        want = [sorted(((lo - b) / a, (hi - b) / a))]
        np.testing.assert_allclose(preimage_intervals(phi, (lo, hi)).to_json(), want, rtol=0.0, atol=1.6e-14)


# ---------------------------------------------------------------------------
# distortion functionals
# ---------------------------------------------------------------------------

def test_U_values():
    assert U_functional(identity_map()) == pytest.approx(1.0, abs=1e-9)
    assert U_functional(affine_map(2.0, 0.0)) == pytest.approx(0.5, abs=1e-9)
    assert U_functional(affine_map(0.5, 0.0)) == pytest.approx(2.0, abs=1e-9)
    # attained at the image of the critical point: 2(sqrt(a+1) - sqrt(a)) max at a=0
    assert U_functional(quadratic_map()) == pytest.approx(2.0, abs=1e-9)


def test_U_infinite_for_flat_tail():
    flat = LineMap(np.array([-16.0, 16.0]), np.array([[-16.0, 1.0, 0, 0]]), 0.0, 1.0)
    assert U_functional(flat) == math.inf


def test_M_values_and_ladder():
    for phi, want in ((identity_map(), 1.0), (affine_map(2.0, 0.0), 0.5)):
        assert M_functional(phi, U_functional(phi)).value == pytest.approx(want, abs=1e-9)
    quad = quadratic_map()
    m = M_functional(quad, U_functional(quad))
    assert m.infinite
    for w, s in zip(m.widths, m.sups):
        assert s == pytest.approx(2.0 / math.sqrt(w), rel=0.05)


def test_max_preimage_count():
    assert max_preimage_count(affine_map(3.0, 1.0)) == 1
    assert max_preimage_count(quadratic_map()) == 2
    assert max_preimage_count(sin_map()) == 7
    # flat on the window: no value other than the constant has a preimage
    flat = LineMap(np.array([-16.0, 0.0, 16.0]), np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0]]), 0.0, 2.0)
    assert max_preimage_count(flat) == 0


def test_U_le_M():
    for phi in (identity_map(), affine_map(0.5, 0.0), sin_drift_map(0.5)):
        m = M_functional(phi, U_functional(phi))
        assert not m.infinite
        assert U_functional(phi) <= m.value * (1.0 + 1e-9)


def test_affine_shift_equivariance():
    base = quadratic_map()
    shifted = polynomial_map([5.0, 0.0, 1.0], name="x^2+5")
    assert U_functional(base) == pytest.approx(U_functional(shifted), abs=1e-9)
    assert max_preimage_count(base) == max_preimage_count(shifted)
    mb, ms = (M_functional(phi, U_functional(phi)) for phi in (base, shifted))
    assert mb.infinite == ms.infinite


def test_lemma_preimage_bounds_random_targets():
    rng = np.random.default_rng(42)
    for phi in (identity_map(), affine_map(2.0, 0.0), quadratic_map(), sin_map()):
        uval = U_functional(phi)
        npre = max_preimage_count(phi)
        ymin, ymax = phi.value_range()
        for _ in range(20):
            a = rng.uniform(ymin - 1.0, ymax + 1.0)
            b = rng.uniform(0.05, 3.0)
            dec = preimage_intervals(phi, (a - b, a + b))
            assert dec.total_length <= 2.0 * math.ceil(b) * uval * (1.0 + 1e-6)
            assert dec.count <= npre


LADDER = [2.0**-k for k in range(M_LEVELS + 1)]


def _flat_piece_map():
    # slope 1, a flat piece on [-2, 3], then slope 1 again
    bp = np.array([-16.0, -2.0, 3.0, 16.0])
    cf = np.array([[-16.0, 1.0, 0, 0], [-2.0, 0.0, 0, 0], [-2.0, 1.0, 0, 0]])
    return LineMap(bp, cf, 1.0, 1.0, name="flat_piece")


def _near_flat_cubics():
    # slope 3e-3 x^2 + 1e-12 (monotone, all but flat at 0), and 3e-3 x^2 -
    # 1e-14, which turns twice within 2e-6 of 0
    return [polynomial_map([0.0, c1, 0.0, 1e-3], name=f"cubic({c1})") for c1 in (1e-12, -1e-14)]


SWEPT_MAPS = [named_map(spec) for spec in NAMED_SPECS] + [_flat_piece_map(), *_near_flat_cubics()]


def _candidates(phi, w):
    """The sweep's left endpoints for width w, as _sup_preimage_lengths lays
    them out."""
    ymin, ymax = phi.value_range()
    step = SWEEP_STEP * max(ymax - ymin, 1.0)
    crit = phi.critical_values()
    return np.unique(np.concatenate([np.arange(ymin - w - 2.0 * step, ymax + 2.0 * step, step), crit, crit - w]))


@pytest.mark.parametrize("phi", SWEPT_MAPS, ids=lambda phi: phi.name)
def test_pruned_sweeps_equal_the_max_over_every_candidate(phi):
    want = []
    for w in LADDER:
        los = _candidates(phi, w)
        want.append(float(K.preimage_lengths(phi.segments(), los, los + w).max()))
    got = _sup_preimage_lengths(phi, LADDER[:1]) + _sup_preimage_lengths(phi, LADDER[1:])
    assert np.array(got).tobytes() == np.array(want).tobytes()
    uval = U_functional(phi)
    assert np.float64(uval).tobytes() == np.float64(want[0]).tobytes()
    sups = [want[0]] + [sup / w for sup, w in zip(want[1:], LADDER[1:])]
    assert np.array(M_functional(phi, uval).sups).tobytes() == np.array(sups).tobytes()


@pytest.mark.parametrize("phi", SWEPT_MAPS, ids=lambda phi: phi.name)
def test_the_slope_bound_dominates_every_swept_length(phi):
    seg = phi.segments()
    for w in LADDER:
        los = _candidates(phi, w)
        lengths = K.preimage_lengths(seg, los, los + w)
        assert (K.preimage_length_bounds(seg, los, los + w) >= lengths).all(), w


def test_the_slope_bound_covers_a_root_one_ulp_out():
    # the target meets the first segment by 3.5e-15 in x: the computed
    # clip is one ulp at x = -16, above overlap / mu alone (3.46e-15), so
    # the bound holds only with its margin
    seg = sin_drift_map(0.5).segments()
    lo = np.array([-15.918548341667465])
    assert lo[0] in _candidates(sin_drift_map(0.5), 2.0**-4)
    length = K.preimage_lengths(seg, lo, lo + 2.0**-4)[0]
    overlap = min(lo[0] + 2.0**-4, seg[0, 8]) - max(lo[0], seg[0, 7])
    assert length == 2.0**-48 and overlap * K._slope_floor(seg)[0][0] < length
    assert K.preimage_length_bounds(seg, lo, lo + 2.0**-4)[0] >= length


def test_the_slope_bound_trusts_no_segment_whose_slope_may_change_sign():
    # p' = -1e-3 + u + 1e-10 u^2 vanishes at u = 1e-3, but the cut between
    # the two segments rounds to 1e-3 - 8e-7: the second segment dips for
    # its first 8e-7, and |p'| at its ends is 8e-7 and 1, not 0. Taking
    # 8e-7 as its slope floor undercounts the clip of a target that ends
    # just above the dip's end value by up to 1.6e-6.
    phi = LineMap(np.array([0.0, 1.0]), np.array([[0.0, -1e-3, 0.5, 1e-10 / 3.0]]), -1e-3, 1.0)
    seg = phi.segments()
    assert seg.shape[0] == 2 and abs(seg[0, 6] - 1e-3) > 5e-7
    ends = np.repeat(seg[:, 7:].ravel(), 30)
    gaps = np.tile(np.geomspace(1e-16, 1e-9, 30), 4)
    for los, his in ((ends - 1.0, ends + gaps), (ends - gaps, ends + 1.0)):
        assert (K.preimage_length_bounds(seg, los, his) >= K.preimage_lengths(seg, los, his)).all()


def test_the_sweeps_solve_few_of_sin_drift_s_targets(monkeypatch):
    phi = sin_drift_map(0.5)
    solved = []
    solve = K.preimage_lengths

    def counting(seg, los, his):
        solved.append(len(los))
        return solve(seg, los, his)

    monkeypatch.setattr(K, "preimage_lengths", counting)
    M_functional(phi, U_functional(phi))
    candidates = sum(_candidates(phi, w).size for w in LADDER)
    assert sum(solved) < 0.05 * candidates


def test_inverse_map_roundtrip():
    phi = sin_drift_map(0.5)
    inv = inverse_map(phi)
    xs = np.linspace(-14.0, 14.0, 501)
    assert np.max(np.abs(inv(phi(xs)) - xs)) < 1e-5


def test_from_callable_tails_match():
    phi = from_callable(lambda x: x + 0.25 * np.sin(x), pieces=128)
    assert phi.left_slope == pytest.approx(1.0 + 0.25 * math.cos(-16.0), abs=1e-3)


def _spline_fits(monkeypatch, build) -> list:
    """(xs, ys, map) for each spline that build() fits: the nodes of a
    program caller."""
    fits, fit = [], maps_module._spline_map

    def spy(xs, ys, name):
        fits.append((np.array(xs), np.array(ys), fit(xs, ys, name)))
        return fits[-1][2]

    monkeypatch.setattr(maps_module, "_spline_map", spy)
    build()
    return fits


def _scipy_mismatches(xs, ys, phi) -> list[str]:
    """The parts of phi that differ in any bit from scipy's CubicSpline
    through (xs, ys): its coefficients and its end derivatives."""
    cs = pytest.importorskip("scipy.interpolate").CubicSpline(xs, ys)
    want = {
        "coeffs": cs.c[::-1].T.tobytes(),  # scipy stores descending powers
        "left_slope": np.float64(cs(xs[0], 1)).tobytes(),
        "right_slope": np.float64(cs(xs[-1], 1)).tobytes(),
    }
    got = {
        "coeffs": phi.coeffs.tobytes(),
        "left_slope": np.float64(phi.left_slope).tobytes(),
        "right_slope": np.float64(phi.right_slope).tobytes(),
    }
    return [key for key in want if got[key] != want[key]]


@pytest.mark.parametrize(
    "spec, inverse",
    [
        *((f"sin_drift:amp={amp}", False) for amp in (0.25, 0.5, 1, 1.5)),
        ("sin", False),
        ("sin_drift:amp=0.5", True),
        ("affine:a=0.5,b=2", True),
        ("scale:k=3", True),
    ],
)
def test_program_splines_match_scipy_bit_for_bit(monkeypatch, spec, inverse):
    fits = _spline_fits(monkeypatch, lambda: inverse_map(named_map(spec)) if inverse else named_map(spec))
    assert fits
    assert [_scipy_mismatches(*fit) for fit in fits] == [[]] * len(fits)


def test_spline_refuses_nodes_that_need_a_row_swap():
    """Gaps 1, 1, 8 leave |d[1]| = 2 < |dl[1]| = 8 after the first
    elimination step, where dgtsv would swap rows 1 and 2."""
    xs = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
    with pytest.raises(ValueError, match="row swap at row 1"):
        _spline_map(xs, np.sin(xs), "uneven")


def test_spline_refuses_fewer_than_4_nodes():
    xs = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="4 or more nodes"):
        _spline_map(xs, xs**2, "three")


@pytest.mark.parametrize("where", ["node", "value"])
def test_spline_refuses_non_finite_input(where):
    xs, ys = np.linspace(0.0, 4.0, 5), np.zeros(5)
    (xs if where == "node" else ys)[2] = math.nan
    with pytest.raises(ValueError, match="must be finite"):
        _spline_map(xs, ys, "nan")


@pytest.mark.parametrize("xs", [[0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0, 4.0]], ids=["repeated", "descending"])
def test_spline_refuses_nodes_that_do_not_increase(xs):
    with pytest.raises(ValueError, match="strictly increasing"):
        _spline_map(np.array(xs), np.zeros(5), "unsorted")
