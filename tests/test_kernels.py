"""Kernels against scalar reference loops and closed-form oracles."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import _kernels as K
from besovlab.gadgets import eta_eps, linear_cutoff, unit_bump
from besovlab.grid import DEFAULT_WINDOW, Extension, GridFunction, lp_norm, sample
from besovlab.maps import (
    M_functional,
    U_functional,
    affine_map,
    max_preimage_count,
    named_map,
    preimage_intervals,
    quadratic_map,
    sin_drift_map,
    sin_map,
)
from besovlab.norms import DEFAULT_HGRID, LN2, _difference_norm_table, sobolev_seminorm_diff
from besovlab.splitting import IntervalFamily, intersection_degree


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# preimage lengths
# ---------------------------------------------------------------------------

def _segment_table(rng, n=60):
    """Increasing, decreasing and flat cubic rows laid end to end."""
    rows = []
    x = -10.0
    for i in range(n):
        width = rng.uniform(0.1, 1.0)
        c0 = rng.uniform(-5.0, 5.0)
        if i % 3 == 2:
            c = [c0, 0.0, 0.0, 0.0]
        else:
            # same-sign coefficients keep p monotone for u = x - t0 >= 0
            sign = 1.0 if i % 3 == 0 else -1.0
            ranges = ((0.2, 3.0), (0.0, 1.0), (0.0, 0.5))
            c = [c0] + [sign * rng.uniform(lo, hi) for lo, hi in ranges]
        ylo, yhi = K._poly3(x, *c, x), K._poly3(x, *c, x + width)
        rows.append([x, *c, x, x + width, ylo, yhi])
        x += width
    return np.array(rows)


def _reference_lengths(seg, los, his):
    """The per-pair scalar clip, summed in segment order from 0.0."""
    out = np.zeros(los.size)
    for t, (lo, hi) in enumerate(zip(los.tolist(), his.tolist())):
        total = 0.0
        for row in seg.tolist():
            res = K.segment_clip(row, lo, hi)
            if res is not None:
                total += res[1] - res[0]
        out[t] = total
    return out


def test_preimage_lengths_parity(rng, monkeypatch):
    seg = _segment_table(rng)
    ends = np.concatenate([seg[:, 7], seg[:, 8]])
    los = np.concatenate([
        rng.uniform(-8.0, 8.0, size=120),
        ends,  # targets starting exactly at a segment end value
        ends - 0.5,  # targets ending exactly at one
        ends,  # zero-width targets on the end values
    ])
    his = np.concatenate([los[:120] + rng.uniform(0.0, 3.0, size=120), ends + 0.5, ends, ends])
    want = _reference_lengths(seg, los, his)
    assert (want > 0).any()
    # one chunk, several targets per chunk, one target per chunk
    for chunk in (K._CHUNK_TARGETS, 200, 1):
        monkeypatch.setattr(K, "_CHUNK_TARGETS", chunk)
        assert np.array_equal(K.preimage_lengths(seg, los, his), want)


def test_preimage_lengths_mixed_widths(rng):
    # zero, tiny and wide targets side by side, far below and inside the
    # segment values
    seg = _segment_table(rng)
    widths = rng.choice([0.0, 1e-12, 0.3, 1.0, 4.0, 25.0], size=400)
    los = np.concatenate([rng.uniform(-40.0, 12.0, size=400), seg[:, 7] - 25.0])
    his = np.concatenate([los[:400] + widths, seg[:, 7]])
    want = _reference_lengths(seg, los, his)
    got = K.preimage_lengths(seg, los, his)
    assert np.array_equal(got, want)
    assert (got == 0).any() and (got > 0).any()
    # the same targets in another order give the same lengths
    perm = rng.permutation(los.size)
    assert np.array_equal(K.preimage_lengths(seg, los[perm], his[perm]), want[perm])
    # infinite ends
    los, his = np.array([-np.inf, 3.0, 0.0, 5.0]), np.array([np.inf, np.inf, 0.5, 5.0])
    assert np.array_equal(K.preimage_lengths(seg, los, his), _reference_lengths(seg, los, his))
    # a flat row at 1.0 meets the target [-2^-60, 1.0], whose width rounds
    # to 1.0, at its upper end
    seg = np.vstack([seg, [seg[-1, 6], 1.0, 0.0, 0.0, 0.0, seg[-1, 6], seg[-1, 6] + 0.5, 1.0, 1.0]])
    los, his = np.array([-(2.0**-60), 4.0]), np.array([1.0, 5.0])
    want = _reference_lengths(seg, los, his)
    assert np.array_equal(K.preimage_lengths(seg, los, his), want) and want[0] >= 0.5


# rows whose roots within 1e-300 of 0 reach the step cap before convergence
_STEP_CAP_ROWS = np.array([
    [0.0, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0, -1.0, 1.0],
    [0.0, 0.0, -2.0, 0.0, 0.0, -0.5, 0.75, 1.0, -1.5],
])


def test_preimage_lengths_roots_at_the_step_cap():
    # roots within 1e-300 of 0 and interior ones
    rows = _STEP_CAP_ROWS
    ys = np.array([0.0, 1e-300, -1e-300, 5e-324, 0.3, -0.7])
    for row in rows:
        seg = row[None, :]
        for los, his in ((ys, np.full(ys.size, 2.0)), (np.full(ys.size, -2.0), ys)):
            assert np.array_equal(K.preimage_lengths(seg, los, his), _reference_lengths(seg, los, his))
    roots = K._solve_mono_batch(np.repeat(rows, ys.size, axis=0), np.tile(ys, 2))
    want = [_solve_fixed_steps(row, y) for row in rows for y in ys]
    assert roots.tobytes() == np.array(want).tobytes()


def test_preimage_lengths_empty_inputs(rng):
    seg = _segment_table(rng, 6)
    assert K.preimage_lengths(seg, np.zeros(0), np.zeros(0)).shape == (0,)
    out = K.preimage_lengths(np.zeros((0, 9)), np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert np.array_equal(out, np.zeros(2))


def test_preimage_length_bounds_dominate_in_any_order(rng):
    # increasing, decreasing and flat rows and roots at the step cap;
    # two sorted runs of different widths, then shuffled targets and
    # infinite, zero-width and near-0 ones
    seg = np.vstack([_segment_table(rng), _STEP_CAP_ROWS])
    run = np.sort(rng.uniform(-12.0, 12.0, size=300))
    shuffled = rng.uniform(-12.0, 12.0, size=300)
    los = np.concatenate([run, run, shuffled, [-np.inf, 0.0, 1e-300, 5.0]])
    his = np.concatenate([
        run + 0.01, run + 2.0, shuffled + rng.choice([0.0, 1e-12, 0.3, 4.0], size=300), [np.inf, 0.0, 2.0, 5.0],
    ])
    bounds = K.preimage_length_bounds(seg, los, his)
    lengths = K.preimage_lengths(seg, los, his)
    assert (bounds >= lengths).all() and (lengths > 0.0).mean() > 0.5
    # a target's terms are summed in segment order whatever the others are
    perm = rng.permutation(los.size)
    assert K.preimage_length_bounds(seg, los[perm], his[perm]).tobytes() == bounds[perm].tobytes()
    assert K.preimage_length_bounds(seg, np.zeros(0), np.zeros(0)).shape == (0,)
    assert np.array_equal(K.preimage_length_bounds(np.zeros((0, 9)), los, his), np.zeros(los.size))


def test_preimage_lengths_over_several_chunks(rng):
    # more targets than one chunk, in a count that is not a multiple of it,
    # on increasing, decreasing and flat rows, with roots at 0 that run to
    # N_BISECT and targets that meet no segment
    seg = np.vstack([_segment_table(rng, 30), _STEP_CAP_ROWS])
    n = K._CHUNK_TARGETS + 197
    # sorted targets, as the sweeps pass them, then shuffled ones
    los = np.concatenate([np.sort(rng.uniform(-8.0, 8.0, size=n // 2)), rng.uniform(-8.0, 8.0, size=n - n // 2)])
    his = los + rng.choice([0.0, 0.05, 0.5, 2.0], size=n)
    near_0 = np.array([0.0, 1e-300, -1e-300, 5e-324])
    los[:4], his[:4] = near_0, 2.0
    los[4:8], his[4:8] = -2.0, near_0
    los[-70:] = rng.uniform(30.0, 40.0, size=70)
    his[-70:] = los[-70:] + 1.0
    want = _reference_lengths(seg, los, his)
    assert (want[-70:] == 0.0).all() and (want[:-70] > 0.0).any()
    assert K.preimage_lengths(seg, los, his).tobytes() == want.tobytes()


def test_preimage_lengths_bisects_one_chunk_at_a_time(monkeypatch):
    # a homeomorphism solves at most two roots per target, so no bisection
    # batch may hold more lanes than two per target of one chunk
    phi = sin_drift_map(0.5)
    assert max_preimage_count(phi) == 1
    lanes = []
    solve = K._solve_mono_batch

    def counting(rows, ys):
        lanes.append(ys.shape[0])
        return solve(rows, ys)

    monkeypatch.setattr(K, "_solve_mono_batch", counting)
    ymin, ymax = phi.value_range()
    los = np.linspace(ymin - 1.0, ymax, 50_000)
    assert (K.preimage_lengths(phi.segments(), los, los + 0.5) > 0.0).any()
    assert len(lanes) == math.ceil(los.size / K._CHUNK_TARGETS)
    assert max(lanes) <= 2 * K._CHUNK_TARGETS


def test_quadratic_unit_preimages_closed_form():
    a = np.arange(256.0)
    got = K.preimage_lengths(quadratic_map().segments(), a, a + 1.0)
    want = 2.0 * (np.sqrt(a + 1.0) - np.sqrt(a))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("a", [0.5, 2.0, 3.0, -2.0])
def test_affine_distortion_is_the_inverse_slope(a):
    phi = affine_map(a, 0.0)
    assert U_functional(phi) == pytest.approx(1.0 / abs(a), rel=1e-9)
    assert M_functional(phi, U_functional(phi)).value == pytest.approx(1.0 / abs(a), rel=1e-9)


def test_sin_preimage_count_and_band_length():
    # on [-10, 10], {|sin x| <= 1/2} is 7 intervals |x - k pi| <= pi/6
    phi = sin_map()
    assert max_preimage_count(phi) == 7
    got = K.preimage_lengths(phi.segments(), np.array([-0.5]), np.array([0.5]))[0]
    assert got == pytest.approx(7.0 * math.pi / 3.0, rel=1e-7)


def _fixed_bracket(row, y, steps):
    """The bracket of the bisection without the convergence exit after
    ``steps`` steps, on the row's scalars."""
    t0, c0, c1, c2, c3, xlo, xhi, ylo, yhi = row[:9]
    a, b = xlo, xhi
    inc = yhi >= ylo
    for _ in range(steps):
        mid = 0.5 * (a + b)
        u = mid - t0
        fm = c0 + u * (c1 + u * (c2 + u * c3)) - y
        if (fm <= 0.0) == inc:
            a = mid
        else:
            b = mid
    return a, b


def _solve_fixed_steps(row, y):
    """The bisection as it ran before the convergence exit: N_BISECT steps
    on the numpy row's scalars."""
    a, b = _fixed_bracket(row, y, K.N_BISECT)
    return 0.5 * (a + b)


def test_solve_mono_matches_the_fixed_step_loop(rng):
    seg = _segment_table(rng, 90)
    cases = []
    for row in seg[seg[:, 7] != seg[:, 8]]:
        ymin, ymax = sorted(row[7:9])
        # interior roots, and roots at both segment ends
        cases += [(row, y) for y in (*rng.uniform(ymin, ymax, size=4), row[7], row[8])]
    # roots within 1e-300 of 0, where the step cap binds before convergence
    for y in (0.0, 1e-300, -1e-300, 5e-324):
        cases.append((np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0, -1.0, 1.0]), y))
        cases.append((np.array([0.0, 0.0, -2.0, 0.0, 0.0, -0.5, 0.75, 1.0, -1.5]), y))
    steps = []

    class Counted(float):
        """The target level; each step subtracts it from the cubic once."""

        def __rsub__(self, other):
            steps[-1] += 1
            return other - float(self)

    for row, y in cases:
        want = _solve_fixed_steps(row, y)
        steps.append(0)
        got = K._solve_mono_py(row.tolist(), Counted(y))
        assert got == want and type(got) is float, (row, y)
        # the exit fires at float convergence; only roots very near 0 need
        # more than N_BISECT steps to get there
        if abs(want) > 1e-3:
            assert steps[-1] < K.N_BISECT, (row, y)
    assert max(steps) == K.N_BISECT


def test_solve_mono_batch_matches_the_fixed_step_loop(rng):
    seg = _segment_table(rng, 90)
    rows, ys = [], []
    for row in seg[seg[:, 7] != seg[:, 8]]:
        ymin, ymax = sorted(row[7:9])
        for y in (*rng.uniform(ymin, ymax, size=4), row[7], row[8]):
            rows.append(row)
            ys.append(y)
    rows, ys = np.array(rows), np.array(ys)
    want = np.array([_solve_fixed_steps(row, y) for row, y in zip(rows, ys)])
    assert K._solve_mono_batch(rows, ys).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the certified start of both bisections
# ---------------------------------------------------------------------------

# rising x^3 + 1e-9 x on [0, 1] and on [-1, 0]: for targets near 0 the root
# guess is still far right of the root (first row) or left of it (second)
# after its Newton steps, so the cell around it is refused on its A or B side
_MISSED_GUESS_ROWS = np.array([
    [0.0, 0.0, 1e-9, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0 + 1e-9],
    [0.0, 0.0, 1e-9, 0.0, 1.0, -1.0, 0.0, -1.0 - 1e-9, 0.0],
])

# (x - 512) / 512 on [512, 513]: its ends allow depth D = 43 only, above
# which 512 + 2^-44 is no double, while its guesses would allow more
_DEPTH_BOUND_ROW = np.array([[512.0, 0.0, 2.0**-9, 0.0, 0.0, 512.0, 513.0, 0.0, 2.0**-9]])


def _targets(row, interior):
    """Targets for one row: ``interior`` ones, both end values, the next
    float inside each, and targets near 0 (the step cap where 0 is inside)."""
    ylo, yhi = row[7], row[8]
    ymin, ymax = min(ylo, yhi), max(ylo, yhi)
    near_0 = [0.0, 1e-300, -1e-300, 5e-324, 1e-12, -1e-12]
    return [*interior, ylo, yhi, float(np.nextafter(ylo, yhi)), float(np.nextafter(yhi, ylo)), *near_0] if ymin < ymax else []


def _dyadic_cases(rng):
    """(row with the start columns, target) for the rows of sin_drift,
    quadratic and affine and the step-cap and missed-guess rows."""
    cases = []
    for spec, count in (("sin_drift:amp=0.5", 2), ("quadratic", 300), ("affine:a=0.5,b=2", 300)):
        for row in K.start_table(named_map(spec).segments()).tolist():
            cases += [(row, y) for y in _targets(row, rng.uniform(min(row[7:9]), max(row[7:9]), size=count))]
    for row in K.start_table(np.vstack([_STEP_CAP_ROWS, _MISSED_GUESS_ROWS, _DEPTH_BOUND_ROW])).tolist():
        cases += [(row, y) for y in _targets(row, [-0.7, 0.3, 1e-6, -1e-6])]
    return cases


def _assert_starts_are_the_fixed_brackets(cases):
    """Both kernels equal _solve_fixed_steps by bytes, and each start is the
    fixed-step bracket after its d steps and an exact cell of the tree."""
    rows, ys = np.array([row for row, _ in cases]), np.array([y for _, y in cases])
    want = np.array([_solve_fixed_steps(row, y) for row, y in cases])
    assert np.array([K._solve_mono_py(row, y) for row, y in cases]).tobytes() == want.tobytes()
    assert K._solve_mono_batch(rows, ys).tobytes() == want.tobytes()
    starts = [K._start_cell(row, y) for row, y in cases]
    a_s, b_s, d_s = K._start_cells(rows, ys)
    starts += zip(a_s.tolist(), b_s.tolist(), d_s.tolist())
    for (row, y), (a, b, d) in zip(cases + cases, starts):
        assert np.array([a, b]).tobytes() == np.array(_fixed_bracket(row, y, d)).tobytes(), (row, y, d)
        if d:
            xlo, xhi = Fraction(row[5]), Fraction(row[6])
            k = (Fraction(a) - xlo) / (xhi - xlo) * 2**d
            assert k.denominator == 1 and (Fraction(b) - Fraction(a)) * 2**d == xhi - xlo, (row, y, d)
    return d_s


def test_both_bisections_equal_the_fixed_step_loop_on_dyadic_rows(rng):
    cases = _dyadic_cases(rng)
    d = _assert_starts_are_the_fixed_brackets(cases)
    assert (d >= 30).mean() > 0.8 and (d == 0).any()
    assert K.start_table(_DEPTH_BOUND_ROW)[0, 9] == 43 and 43 in d[[row[5] == 512.0 for row, _ in cases]]


@st.composite
def _dyadic_row(draw):
    """A monotone cubic row whose ends are multiples of 2^e: rising,
    falling, linear or with an inflection inside, with ends at +-0 too."""
    bits, e = draw(st.integers(1, 36)), draw(st.integers(-40, 20))
    lo = draw(st.integers(-(2**bits), 2**bits))
    xlo, xhi = math.ldexp(lo, e), math.ldexp(lo + draw(st.integers(1, 2**bits)), e)
    if draw(st.booleans()):  # an end at +-0
        xlo, xhi = (-0.0, xhi - xlo) if draw(st.booleans()) else (xlo - xhi, draw(st.sampled_from([0.0, -0.0])))
    t0 = draw(st.sampled_from([xlo, xhi, 0.5 * (xlo + xhi)]))
    c0 = draw(st.floats(-1e3, 1e3))
    scale = 1.0 / max(abs(xlo), abs(xhi))
    c1 = draw(st.floats(1e-3, 1e3)) * scale
    kind = draw(st.sampled_from(["rising", "falling", "linear", "inflection"]))
    c = [c0, c1, 0.0, 0.0]
    if kind in ("rising", "falling"):  # same-sign terms keep it monotone for u >= 0
        t0 = xlo
        c = [c0, c1, draw(st.floats(0.0, 1e3)) * scale**2, draw(st.floats(0.0, 1e3)) * scale**3]
    elif kind == "inflection":  # c1 u + c3 (u - v)^3 about t0 = xlo, with v inside
        t0, c3 = xlo, draw(st.floats(1e-3, 1e3)) * scale**3
        v = (xhi - xlo) * draw(st.floats(0.05, 0.95))
        c = [c0 - c3 * v**3, c1 + 3.0 * c3 * v**2, -3.0 * c3 * v, c3]
    if kind == "falling" or draw(st.booleans()):
        c = [-x for x in c]
    return [t0, *c, xlo, xhi, K._poly3(t0, *c, xlo), K._poly3(t0, *c, xhi)]


@given(st.lists(_dyadic_row(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_both_bisections_equal_the_fixed_step_loop_on_random_dyadic_rows(rows, seed):
    rng = np.random.default_rng(seed)
    table = K.start_table(np.array(rows)).tolist()
    cases = [(row, y) for row in table for y in _targets(row, rng.uniform(min(row[7:9]), max(row[7:9]), size=4))]
    if cases:
        _assert_starts_are_the_fixed_brackets(cases)


def _counted_steps(row, y):
    """(root, the bisection steps _solve_mono_py takes for y): each step
    subtracts y from the cubic once, and nothing else does."""
    steps = [0]

    class Counted(float):
        def __rsub__(self, other):
            steps[0] += 1
            return other - float(self)

    return K._solve_mono_py(row, Counted(y)), steps[0]


@pytest.mark.parametrize("spec, count", [("sin_drift:amp=0.5", 2), ("quadratic", 300)])
def test_interior_roots_start_at_depth_30_or_deeper(spec, count, rng):
    # a start at depth d saves d of the steps from the row's ends
    saved = []
    for row in K.start_table(named_map(spec).segments()).tolist():
        for y in rng.uniform(min(row[7:9]), max(row[7:9]), size=count).tolist():
            root, steps = _counted_steps(row, y)
            plain_root, plain_steps = _counted_steps(row[:9], y)
            assert root == plain_root
            saved.append(plain_steps - steps)
    assert np.mean(np.array(saved) >= 30) >= 0.9


def test_roots_at_the_step_cap_still_run_n_bisect_steps_in_all():
    # [-0.5, 0.75] starts deep around 0, which is no point of its tree
    row = K.start_table(_STEP_CAP_ROWS[1:]).tolist()[0]
    for y in (0.0, 1e-300, -1e-300, 5e-324):
        d = K._start_cell(row, y)[2]
        root, steps = _counted_steps(row, y)
        assert d >= 30 and d + steps == K.N_BISECT and root == _solve_fixed_steps(row, y)


def test_segment_clip_flat_segment():
    row = [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 2.0]
    assert K.segment_clip(row, 1.0, 2.5) == (0.0, 3.0)
    assert K.segment_clip(row, 2.5, 3.0) is None


def _vectorized_intervals(phi, lo, hi):
    """preimage_intervals as whole-array steps: screen, clip the rows that
    leave the band, then merge neighbours closer than the tolerance."""
    seg = phi.segments()
    ymin, ymax = np.minimum(seg[:, 7], seg[:, 8]), np.maximum(seg[:, 7], seg[:, 8])
    idx = np.nonzero((ymax >= lo) & (ymin <= hi))[0]
    if idx.size == 0:
        return ()
    xl, xh, ymin, ymax = seg[idx, 5], seg[idx, 6], ymin[idx], ymax[idx]
    for k in np.nonzero((ymin != ymax) & ((ymin < lo) | (ymax > hi)))[0].tolist():
        xl[k], xh[k] = K.segment_clip(seg[idx[k]].tolist(), lo, hi)
    tol = 1e-9 * max(1.0, phi.window[1] - phi.window[0])
    starts = np.flatnonzero(np.concatenate(([True], xl[1:] > xh[:-1] + tol)))
    return tuple(zip(np.minimum.reduceat(xl, starts).tolist(), np.maximum.reduceat(xh, starts).tolist()))


@pytest.mark.parametrize("phi", [sin_map(), quadratic_map(), sin_drift_map(0.5), affine_map(-2.0, 1.0)])
def test_preimage_intervals_equal_the_vectorized_merge(phi, rng):
    crit = phi.critical_values()
    lo, hi = phi.value_range()
    starts = rng.uniform(lo - 2.0, hi + 1.0, size=300)
    targets = [(a, a + w) for a, w in zip(starts, rng.choice([0.0, 1e-12, 0.3, 1.0, 4.0], size=300))]
    # bands starting, ending and degenerate at the segment end values
    targets += [(c, c + 1.0) for c in crit] + [(c - 1.0, c) for c in crit] + [(c, c) for c in crit]
    for a, b in targets:
        got = preimage_intervals(phi, (a, b)).intervals
        want = _vectorized_intervals(phi, float(a), float(b))
        assert np.array(got).tobytes() == np.array(want).tobytes(), (phi.name, a, b)


# ---------------------------------------------------------------------------
# difference stencils
# ---------------------------------------------------------------------------

def _reference_difference(samples, left, right, offsets, m):
    n = samples.size
    out = np.empty((len(offsets), n))
    for k, off in enumerate(offsets):
        for i in range(n):
            acc = (-1.0) ** m * samples[i]
            for j in range(1, m + 1):
                sh = i + j * off
                v = left if sh < 0 else right if sh > n - 1 else samples[sh]
                acc = acc + (-1.0) ** (m - j) * math.comb(m, j) * v
            out[k, i] = acc
    return out


def _reference_rows(samples, left, right, offsets, m):
    """_reference_difference as whole-row array steps, for grids too large
    for the loop: the same terms, added in the same order, on every column."""
    n = samples.size
    idx = np.arange(n)
    out = np.empty((len(offsets), n))
    for k, off in enumerate(offsets):
        acc = (-1.0) ** m * samples
        for j in range(1, m + 1):
            sh = idx + j * off
            v = np.where(sh < 0, left, np.where(sh > n - 1, right, samples[np.clip(sh, 0, n - 1)]))
            acc = acc + (-1.0) ** (m - j) * math.comb(m, j) * v
        out[k] = acc
    return out


def test_shift_difference_parity(rng):
    samples = rng.normal(size=129)
    # negative shifts, and shifts whose every read falls outside the window
    offsets = [1, -3, 7, 64, -128, 129, -300, 1000]
    for m in (1, 2, 3):
        for left, right in ((0.0, 0.0), (0.25, -0.5)):
            got = K.shift_difference_batch(samples, left, right, np.array(offsets), m)
            assert np.array_equal(got, _reference_difference(samples, left, right, offsets, m))


def _stencil_cases(rng):
    """(samples, left, right) rows whose live spans are empty, partial or whole."""
    n = 40
    bump = np.zeros(n)
    bump[12:25] = rng.normal(size=13)
    signed = bump.copy()
    signed[1:12:2] = -0.0  # -0.0 samples next to a 0.0 extension value
    signed[30:] = -0.0
    step = np.where(np.arange(n) < 17, 0.75, -3.0)
    consts = np.full(n, 1.25)
    consts[15:22] = rng.normal(size=7)
    thirds = np.where(np.arange(n) < n // 2, 2.0 / 3.0, 0.3)
    thirds[15:22] = rng.normal(size=7)
    return [
        (bump, 0.0, 0.0),  # zero extension
        (signed, 0.0, 0.0),
        (signed, -0.0, -0.0),
        (consts, 1.25, -0.5),  # unequal nonzero constant extensions
        # constants whose third difference rounds to 1.1e-16 and -5.6e-17,
        # not to 0; a step between two neighbouring floats keeps every
        # live value as small as those
        (thirds, 2.0 / 3.0, 0.3),
        (np.where(np.arange(n) < 20, 2.0 / 3.0, np.nextafter(2.0 / 3.0, 1.0)), 2.0 / 3.0, np.nextafter(2.0 / 3.0, 1.0)),
        (step, 0.75, -3.0),  # a step: no sample differs from both sides
        (np.full(n, 0.3), 0.3, 0.3),  # all constant
        (np.full(n, -0.0), 0.0, 0.0),
        (rng.normal(size=n), 0.6, 0.6),
    ]


# both signs, shifts past the window and m * |off| > n, and repeated shifts
# of both signs apart from their first use
STENCIL_OFFSETS = [1, -1, 2, -3, 7, -9, 13, 20, -21, 39, -39, 40, 57, -150, 2, -3, 1, -150, -1, 40, 2]


def test_stencil_rows_equal_the_brute_force_loop(rng):
    # m = 4 has the coefficients -4 and 6 between its +-1 end terms
    for samples, left, right in _stencil_cases(rng):
        for m in (1, 2, 3, 4):
            got = K.shift_difference_batch(samples, left, right, np.array(STENCIL_OFFSETS), m)
            want = _reference_difference(samples, left, right, STENCIL_OFFSETS, m)
            # bytes, so that the sign of every zero counts
            assert got.tobytes() == want.tobytes(), (samples, left, right, m)
            assert _reference_rows(samples, left, right, STENCIL_OFFSETS, m).tobytes() == want.tobytes()


def test_stencil_rows_keep_the_sign_of_zero():
    # +0.0 and -0.0 samples alternate, next to a +0.0 extension: compared
    # by value every column would read the constant 0.0, but a column that
    # starts from -(+0.0) and adds -0.0 is -0.0
    samples = np.zeros(16)
    samples[1::2] = -0.0
    offsets = [1, -1, 3, 30]
    for m in (1, 2, 3):
        want = _reference_difference(samples, 0.0, 0.0, offsets, m)
        got = K.shift_difference_batch(samples, 0.0, 0.0, np.array(offsets), m)
        assert got.tobytes() == want.tobytes(), m
    assert np.signbit(want).any() and not np.signbit(want).all()


def _stencil_functions(rng, spacing):
    """_stencil_cases as grid functions whose ext_values are the case's."""
    for samples, left, right in _stencil_cases(rng):
        ext = Extension.ZERO if left == right == 0.0 else Extension.CONSTANT
        if ext is Extension.CONSTANT:
            # a CONSTANT function extends by its end samples
            samples = np.concatenate(([left], samples, [right]))
        yield GridFunction(samples, spacing, 0.0, ext)


NORM_PS = (1.0, 1.5, 2.0, 3.0, math.inf)


def _reference_norms(table, spacing, p):
    """||row||_{L^p} of every row of a difference table, each row reduced whole."""
    table = np.abs(table)
    if math.isinf(p):
        return table.max(axis=1)
    return (table**p).sum(axis=1) ** (1.0 / p) * spacing ** (1.0 / p)


def test_difference_norm_table_equals_the_brute_force_table(rng):
    spacing = 0.125
    hs = np.array(STENCIL_OFFSETS) * spacing
    for f in _stencil_functions(rng, spacing):
        left, right = f.ext_values()
        for m in (1, 2, 3, 4):
            table = _reference_difference(f.samples, left, right, STENCIL_OFFSETS, m)
            for p in NORM_PS:
                got = _difference_norm_table(f, m, hs, p)
                assert got.tobytes() == _reference_norms(table, spacing, p).tobytes(), (f.samples, m, p)


def _reference_sobolev_seminorm(f, s, p, m, difference=_reference_difference):
    """sobolev_seminorm_diff from the brute-force difference table: each
    level's weighted |rows| summed column by column in row order."""
    hs, _, wlin, lev = DEFAULT_HGRID.materialize(f.spacing)
    left, right = f.ext_values()
    offs = np.round(hs / f.spacing).astype(np.int64).tolist()
    table = np.abs(difference(f.samples, left, right, offs, m)) * wlin[:, None]
    square, inner = np.zeros(f.count), np.zeros(f.count)
    for k in range(int(lev.max()), -1, -1):
        rows = table[lev == k]
        level = rows[0].copy()
        for row in rows[1:]:
            level += row
        inner += level
        t_k = 2.0 ** (-(k + 0.5))
        square += (inner / t_k) ** 2 * (LN2 * t_k ** (-2.0 * s))
    return lp_norm(GridFunction(np.sqrt(square), f.spacing, f.origin), p)


def test_sobolev_seminorm_equals_the_brute_force_loop(rng):
    # 0.125 keeps three whole levels; 0.04 snaps nodes and keeps three of
    # the four magnitudes of a fifth level
    for spacing in (0.125, 0.04):
        for f in _stencil_functions(rng, spacing):
            for s, m in ((0.7, 1), (1.25, 2), (1.25, 3), (2.5, 4)):
                for p in (1.5, 2.0, 3.0):
                    got = sobolev_seminorm_diff(f, s, p, m)
                    want = _reference_sobolev_seminorm(f, s, p, m)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (f.samples, s, p, m)


def _constant_steps(count):
    """Two CONSTANT extensions over the default window, as _stencil_cases'
    "thirds" and its step between neighbouring floats: from 2/3 to 0.3 with
    a live middle, and from 2/3 to the next float up, where every live value
    is as small as the end constants' third differences."""
    lo, hi = DEFAULT_WINDOW
    left = np.arange(count) < count // 2
    thirds = np.where(left, 2.0 / 3.0, 0.3)
    thirds[count // 2 - 50 : count // 2 + 50] = np.sin(0.1 * np.arange(100))
    floats = np.where(left, 2.0 / 3.0, np.nextafter(2.0 / 3.0, 1.0))
    return [GridFunction(v, (hi - lo) / (count - 1), lo, Extension.CONSTANT) for v in (thirds, floats)]


@pytest.mark.parametrize("count", [2**13 + 1, 2**15 + 1])
def test_the_h_grids_own_repeated_shifts_equal_whole_rows(count):
    steps = _constant_steps(count)
    # at m = 3 both end constants of the thirds are nonzero; the float
    # step's left one is nonzero and its right one is 0
    ends = [K.Stencil(f.samples, *f.ext_values(), 3, [1]) for f in steps]
    assert [(e.left_value != 0.0, e.right_value != 0.0) for e in ends] == [(True, True), (True, False)]
    rows = (sample("gaussian", count=count), sample("sine", count=count, freq=0.7, phase=0.3), *steps)
    for f in rows:
        hs = DEFAULT_HGRID.materialize(f.spacing)[0]
        offs = np.round(hs / f.spacing).astype(np.int64).tolist()
        # the finest levels snap 1, 2, 3 and 4 cells, of both signs, twice
        assert all(offs.count(off) >= 2 for off in (1, -1, 2, -2, 3, -3, 4, -4))
        left, right = f.ext_values()
        for m in (1, 3):
            table = _reference_rows(f.samples, left, right, offs, m)
            for p in NORM_PS:
                got = _difference_norm_table(f, m, hs, p)
                assert got.tobytes() == _reference_norms(table, f.spacing, p).tobytes(), (f.extension, m, p)
    # compactly supported zero-extension witnesses: live spans inside the row
    witnesses = (unit_bump(0.0, count=count), eta_eps(0.1, count=count), linear_cutoff(0.0, 2.0, count=count))
    for f in rows + witnesses:
        for s, m in ((0.7, 1), (2.1, 3)):
            for p in (1.5, 2.0, 3.0):
                got = sobolev_seminorm_diff(f, s, p, m)
                want = _reference_sobolev_seminorm(f, s, p, m, _reference_rows)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (f.extension, s, p, m)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_the_sup_norm_reads_empty_live_spans_and_keeps_a_nan():
    offsets = [1, -1, 3, 3, -50, 50]
    hs = np.array(offsets) * 0.125
    # no sample differs from the extension, so every live span is empty: at
    # the end (-1), inside (1, 3) and at the start (50) of the row. The third
    # difference of 2/3 rounds to 1.1e-16, not to 0.
    flat = GridFunction(np.full(40, 2.0 / 3.0), 0.125, 0.0, Extension.CONSTANT)
    spans = K.Stencil(flat.samples, 2.0 / 3.0, 2.0 / 3.0, 3, offsets).spans
    assert {a for a, b in spans if a == b} == {0, 31, 37, 40}
    with_nan = np.zeros(40)
    with_nan[20] = np.nan
    nan = GridFunction(with_nan, 0.125, 0.0, Extension.ZERO)
    # an infinite left end: at m = 1 its constant's difference is inf - inf,
    # a NaN, where the live columns read inf - x = inf
    inf_end = GridFunction(np.concatenate(([np.inf], np.linspace(0.0, 1.0, 39))), 0.125, 0.0, Extension.CONSTANT)
    for f, m in ((flat, 3), (nan, 3), (inf_end, 1)):
        left, right = f.ext_values()
        want = np.max(np.abs(_reference_difference(f.samples, left, right, offsets, m)), axis=1)
        got = _difference_norm_table(f, m, hs, math.inf)
        assert got.tobytes() == want.tobytes(), (f.samples, m)
    assert (_difference_norm_table(flat, 3, hs, math.inf) > 0.0).all()
    assert np.isnan(_difference_norm_table(nan, 3, hs, math.inf)).all()
    assert np.isnan(got).any() and not np.isnan(got).all()


def test_stencils_of_one_offset_table_share_its_distinct_shifts():
    spacing = 32.0 / 8192
    offsets = np.round(DEFAULT_HGRID.materialize(spacing)[0] / spacing).astype(np.int64)
    samples = np.linspace(0.0, 1.0, 8193)
    first = K.Stencil(samples, 0.0, 1.0, 2, offsets)
    again = K.Stencil(2.0 * samples, 0.0, 2.0, 3, offsets.tolist())
    assert first.shifts is again.shifts and first.inverse is again.inverse
    assert not first.shifts.flags.writeable and not first.inverse.flags.writeable
    shifts, inverse = np.unique(offsets, return_inverse=True)
    assert np.array_equal(first.shifts, shifts) and np.array_equal(first.inverse, inverse)


def test_shift_difference_without_offsets(rng):
    out = K.shift_difference_batch(rng.normal(size=17), 1.0, 2.0, np.zeros(0, dtype=np.int64), 2)
    assert out.shape == (0, 17)


# ---------------------------------------------------------------------------
# interpolation and greedy classes
# ---------------------------------------------------------------------------

def test_interp_eval_parity(rng):
    samples = rng.normal(size=257)
    grid = 0.0625 * np.arange(257)
    xs = rng.uniform(-5.0, 20.0, size=4001)
    got = K.interp_eval(samples, 0.0, 0.0625, -1.5, 2.5, xs)
    want = np.interp(xs, grid, samples, left=-1.5, right=2.5)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def _reference_classes(lefts, rights):
    """Greedy min-index rule by exhaustive pairwise tests."""
    labels = [-1] * len(lefts)
    cls = 0
    while -1 in labels:
        chosen = []
        for j, (l, r) in enumerate(zip(lefts, rights)):
            if labels[j] < 0 and all(rights[i] < l or r < lefts[i] for i in chosen):
                chosen.append(j)
                labels[j] = cls
        cls += 1
    return labels


def _greedy_numpy_indexed(lefts, rights):
    """greedy_classes as it ran on numpy arrays, element by element."""
    lefts = np.ascontiguousarray(lefts, dtype=np.float64)
    rights = np.ascontiguousarray(rights, dtype=np.float64)
    n = lefts.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    remaining = n
    cls = 0
    while remaining > 0:
        sel_l: list = []
        sel_r: list = []
        for j in range(n):
            if labels[j] >= 0:
                continue
            l, r = lefts[j], rights[j]
            pos = bisect.bisect_left(sel_l, l)
            if pos > 0 and sel_r[pos - 1] >= l:
                continue
            if pos < len(sel_l) and sel_l[pos] <= r:
                continue
            sel_l.insert(pos, l)
            sel_r.insert(pos, r)
            labels[j] = cls
            remaining -= 1
        cls += 1
    return labels


def _sin_workload_family():
    """The preimage pieces of 512 unit targets stratified over sin's range
    and one below it, as the preimage_split benchmark builds them."""
    phi = sin_map()
    lo, hi = phi.value_range()
    starts = (lo - 1.0) + (np.arange(512) + 0.5) * (hi - lo + 1.0) / 512
    pairs = [iv for a in starts for iv in preimage_intervals(phi, (float(a), float(a) + 1.0))]
    return IntervalFamily(np.array(pairs))


def test_greedy_classes_match_the_numpy_indexed_loop(rng):
    families = [_sin_workload_family().items]
    for n, spread in ((1, 1.0), (300, 5.0), (300, 60.0), (2000, 200.0)):
        lefts = np.round(rng.uniform(0.0, spread, size=n), 1)  # ties and shared endpoints
        families.append(np.column_stack([lefts, lefts + np.round(rng.exponential(1.0, size=n), 1)]))
    for items in families:
        got = K.greedy_classes(items[:, 0], items[:, 1])
        assert got.dtype == np.int64
        assert np.array_equal(got, _greedy_numpy_indexed(items[:, 0], items[:, 1]))
        assert got.max() + 1 <= intersection_degree(IntervalFamily(items)) + 1
    assert len(families[0]) > 2000 and K.greedy_classes(*families[0].T).max() + 1 > 200


def test_greedy_classes_parity(rng):
    lefts = rng.uniform(0.0, 30.0, size=120)
    rights = lefts + rng.uniform(0.0, 2.0, size=120)
    lefts[10:20] = rights[:10]  # touching intervals intersect
    rights[10:20] = lefts[10:20] + 0.5
    assert K.greedy_classes(lefts, rights).tolist() == _reference_classes(lefts, rights)
    assert K.greedy_classes(np.zeros(0), np.zeros(0)).shape == (0,)
