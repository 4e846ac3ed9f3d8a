"""Hot numeric kernels, vectorized with numpy.

There is one implementation of each kernel. The batched kernels
(``preimage_lengths``, ``Stencil`` and ``shift_difference_batch`` on it) do
the same floating-point operations, in the same order, as the scalar
reference loops they replace, so their results are bit-identical to them;
tests/test_kernels.py checks them against those loops and against
closed-form oracles. ``Stencil`` skips work whose result is known: it
computes each distinct shift of a table once, only on the columns of its
row that read a sample differing from the extension values, and adds each
term through one reused temporary row, so a term allocates nothing. The
terms are summed for j = 0 .. m in increasing order, as the reference loop
sums them. The end coefficients are c_0 = (-1)^m and c_m = 1, which
multiply exactly, so the row starts as c_1 s_1 -/+ s_0 (the same IEEE
value as c_0 s_0 + c_1 s_1; s_1 - s_0 at m = 1) and s_m is added as read.

The scalar kernels (``segment_clip``, ``greedy_classes``) run on Python floats
and lists, which do the same IEEE double arithmetic as numpy scalars at a
fraction of the cost per operation. The scalar bisection stops at float
convergence: once the midpoint rounds to an end of the bracket, every later
midpoint equals it, so the early result is bit-identical to running all
steps. ``N_BISECT`` caps the steps; roots very near 0 reach it before
converging. The batched bisection retires each lane at that point, so only
lanes with such a root run all ``N_BISECT`` steps; a batch of only a few
roots runs the scalar bisection on them instead, and so do the last few
lanes of a larger one.

Both bisections start at a certified cell of their bisection tree on rows
that carry ``start_table``'s columns (``maps.LineMap.clip_table`` caches
them). When a row's ends are multiples of 2^E below 2^F in size, every
tree point down to depth D = 53 - F + E is exact, so a depth-d cell around
a guessed root is the bracket after d steps when the values the bisection
computes at its sides clear the rounding margin m; the bisection then runs
the remaining ``N_BISECT`` - d steps, about 15 of 50. A row with other
ends (sin's, at -10 + k / 20) or a root within m of the cell's sides starts
from the row's ends. ``preimage_lengths`` and ``preimage_length_bounds``,
its upper bound from certified slopes without solving, add their terms in
``_pair_sums``, over fixed-size target chunks, which bound the memory, and
only the (target, segment) pairs that meet.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np


# ---------------------------------------------------------------------------
# linear interpolation with extension values
# ---------------------------------------------------------------------------

def interp_eval(samples, origin, spacing, left, right, xs):
    """Evaluate a uniformly sampled function at ``xs`` (linear interpolation,
    constant extension values ``left``/``right`` beyond the window)."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    n = samples.shape[0]
    t = (xs - origin) / spacing
    i = np.clip(np.floor(t).astype(np.int64), 0, n - 2)
    frac = t - i
    vals = samples[i] + (samples[i + 1] - samples[i]) * frac
    return np.where(t < 0.0, left, np.where(t > n - 1.0, right, vals))


# ---------------------------------------------------------------------------
# difference operator, batched over shifts
# ---------------------------------------------------------------------------

class Stencil:
    """Delta^m of one sample row for a table of integer shift counts: each
    distinct shift once, on the columns whose reads are not all one
    extension value.

    The plan is built up front: the distinct shifts (``shifts``, sorted;
    ``inverse`` maps each table entry to its own; both read-only and cached
    by the offsets' content), and as plain lists the live span [a, b) of
    each and the starts of its m + 1 terms in the buffer padded with
    min(m * max|off|, n) extension values on each side.
    Outside [lo, hi] every sample is bitwise equal to its side's extension
    value, so a column whose every read lies before ``lo`` holds the stencil
    of the constant ``left``, one whose every read lies after ``hi`` that of
    ``right``; both are computed once, term by term in the same order as a
    column, so every value is bit-identical to evaluating the whole row.
    """

    def __init__(self, samples, left, right, m, offsets):
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        self.m = m
        self.n = n = samples.shape[0]
        self.coefs = [(-1.0) ** (m - j) * math.comb(m, j) for j in range(m + 1)]
        left, right = float(left), float(right)
        shifts, inverse = _distinct_shifts(np.asarray(offsets, dtype=np.int64).tobytes())
        self.shifts, self.inverse = shifts, inverse
        # no read reaches past m * max|off| cells, and every read past n
        # cells is an extension value, so a read is clamped to n cells
        pad = min(m * int(np.abs(shifts).max(initial=0)), n)
        self.buf = np.concatenate((np.full(pad, left), samples, np.full(pad, right)))
        self._tmp = np.empty(n)
        # compared as bits: a -0.0 sample next to a 0.0 extension is live
        bits = samples.view(np.int64)
        off_left = bits != np.array(left).view(np.int64)
        off_right = (bits != np.array(right).view(np.int64))[::-1]
        lo, hi = int(off_left.argmax()), n - 1 - int(off_right.argmax())
        lo, hi = lo if off_left[lo] else n, hi if off_right[n - 1 - hi] else -1
        reach = m * shifts
        a = np.minimum(np.maximum(lo - np.maximum(reach, 0), 0), n)
        b = np.minimum(np.maximum(hi + 1 - np.minimum(reach, 0), a), n)
        starts = pad + np.minimum(np.maximum(np.arange(m + 1)[:, None] * shifts, -pad), pad) + a
        self.spans = list(zip(a.tolist(), b.tolist()))
        self.starts = starts.T.tolist()
        self.left_value = self._constant(left)
        self.right_value = self._constant(right)

    def _constant(self, v):
        acc = self.coefs[0] * v
        for c in self.coefs[1:]:
            acc += c * v
        return acc

    def live(self, k: int, out):
        """Write Delta^m for distinct shift ``k`` into out[a:b], its live
        span, and return that view. The columns before a read only ``left``
        and those from b on only ``right`` (when a == b the two are the same
        bits); they are left untouched."""
        a, b = self.spans[k]
        width, buf, seg = b - a, self.buf, out[a:b]
        s0, s1, *rest = self.starts[k]
        # c_0 = (-1)^m and c_m = 1 multiply exactly, so c_0 s_0 + c_1 s_1
        # is c_1 s_1 -/+ s_0 and the last term is added as read
        if self.m == 1:
            np.subtract(buf[s1 : s1 + width], buf[s0 : s0 + width], out=seg)
            return seg
        np.multiply(self.coefs[1], buf[s1 : s1 + width], out=seg)
        if self.m % 2:
            seg -= buf[s0 : s0 + width]
        else:
            seg += buf[s0 : s0 + width]
        tmp = self._tmp[:width]
        for c, s in zip(self.coefs[2:-1], rest):
            np.multiply(c, buf[s : s + width], out=tmp)
            seg += tmp
        seg += buf[rest[-1] : rest[-1] + width]
        return seg


@functools.lru_cache(maxsize=64)
def _distinct_shifts(offsets: bytes):
    """The sorted distinct shifts of the int64 ``offsets`` bytes and the
    inverse, read-only. Cached by content: every table of one (h-grid,
    spacing) has the same snapped offsets, so np.unique runs once for them."""
    shifts, inverse = np.unique(np.frombuffer(offsets, dtype=np.int64), return_inverse=True)
    inverse = inverse.reshape(-1)
    shifts.flags.writeable = inverse.flags.writeable = False
    return shifts, inverse


def shift_difference_batch(samples, left, right, offsets, m):
    """Delta^m_h on the sample grid for integer shift counts ``offsets``.

    Entry [k, i] is sum_j (-1)^(m-j) C(m,j) f(x_i + j*offsets[k]*dx), with
    out-of-window reads replaced by the extension values. The sum runs over
    j in increasing order; a repeated shift is computed once.
    """
    stencil = Stencil(samples, left, right, m, offsets)
    table = np.empty((len(stencil.spans), stencil.n))
    for k, (a, b) in enumerate(stencil.spans):
        stencil.live(k, table[k])
        table[k, :a] = stencil.left_value
        table[k, b:] = stencil.right_value
    return table[stencil.inverse]


def interp_difference(samples, origin, spacing, left, right, h, m):
    """Delta^m_h for arbitrary (sub-spacing) h, using linear interpolation."""
    n = samples.shape[0]
    xs = origin + spacing * np.arange(n)
    acc = ((-1.0) ** m) * samples.astype(np.float64)
    for j in range(1, m + 1):
        c = (-1.0) ** (m - j) * math.comb(m, j)
        acc = acc + c * interp_eval(samples, origin, spacing, left, right, xs + j * h)
    return acc


# ---------------------------------------------------------------------------
# monotone-segment preimage solving
# ---------------------------------------------------------------------------
# Segment table columns: [t0, c0, c1, c2, c3, xlo, xhi, ylo, yhi] where the
# cubic is c0 + c1*u + c2*u**2 + c3*u**3 in u = x - t0 and is monotone on
# [xlo, xhi] with values ylo = p(xlo), yhi = p(xhi). Flat segments have
# ylo == yhi.

N_BISECT = 80  # cap on bisection steps; 2^-80 of the segment width

_CHUNK_TARGETS = 2048  # targets per preimage_lengths chunk; bounds its pairs and gathered arrays
_RETIRE_EVERY = 8  # bisection steps between retirements of converged lanes
_SCALAR_ROOTS = 48  # up to this many roots bisect faster as Python floats (measured crossover: 48-56)
_START_DEPTH = 16  # a row whose exact depth is below this bisects from its ends: the root guess costs more


def _poly3(c0, c1, c2, c3, u):
    """c0 + c1 u + c2 u^2 + c3 u^3, by Horner."""
    return c0 + u * (c1 + u * (c2 + u * c3))


def _slope3(c1, c2, c3, u):
    """d/du of c0 + c1 u + c2 u^2 + c3 u^3."""
    return c1 + u * (2.0 * c2 + 3.0 * u * c3)


def _start_cell(row, y):
    """(a, b, d): the bracket that the bisection of ``row`` for ``y`` holds
    after d steps, read off a certified cell of its bisection tree; (xlo,
    xhi, 0) where none is certified. ``row`` carries start_table's depth D
    and margin m.

    Every y - p below is written in that order, so a counting target sees
    only the bisection's own p - y."""
    t0, c0, c1, c2, c3, xlo, xhi, ylo, yhi, depth, margin = row
    fail = (xlo, xhi, 0)
    if c3 == 0.0 and c2 != 0.0:  # a quadratic in u: the stable formula, the root nearer the segment
        disc = c1 * c1 + 4.0 * c2 * (y - c0)
        q = -0.5 * (c1 + math.copysign(math.sqrt(disc) if disc > 0.0 else 0.0, c1))
        if q == 0.0:
            return fail
        u1, u2, um = q / c2, -(y - c0) / q, 0.5 * (xlo + xhi) - t0
        r = t0 + (u1 if abs(u1 - um) <= abs(u2 - um) else u2)
    else:  # the secant, then Newton
        r = xlo + (y - ylo) * ((xhi - xlo) / (yhi - ylo))
        for _ in range(4):
            u = r - t0
            g = c1 + u * (2.0 * c2 + 3.0 * u * c3)
            if g == 0.0:
                return fail
            step = (y - (c0 + u * (c1 + u * (c2 + u * c3)))) / g
            r += step
            if abs(step) * abs(g) <= margin:
                break
    r = min(max(r, xlo), xhi)  # a NaN guess stays NaN and fails below
    u = r - t0
    g = abs(c1 + u * (2.0 * c2 + 3.0 * u * c3))
    if not g > 0.0:
        return fail
    # the deepest cell holding r +- h; the checks below decide whether it is the bracket
    h = 2.0 * margin / g
    width, top = xhi - xlo, 1 << int(depth)
    scale = top / width
    lo_k, hi_k = (r - h - xlo) * scale, (r + h - xlo) * scale
    ka = int(lo_k) if lo_k > 0.0 else 0
    kb = int(hi_k) if hi_k < top else top - 1
    shift = (ka ^ kb).bit_length()
    d = int(depth) - shift
    if d < 1:
        return fail
    k, n, w = kb >> shift, 1 << d, math.ldexp(width, -d)
    # from the nearer end, so that k w is exact too
    a = xlo if k == 0 else xlo + k * w if 2 * k <= n else xhi - (n - k) * w
    b = xhi if k + 1 == n else a + w
    s = 1.0 if yhi >= ylo else -1.0
    if k:
        u = a - t0
        if not s * (y - (c0 + u * (c1 + u * (c2 + u * c3)))) >= margin:
            return fail
    if k + 1 < n:
        u = b - t0
        if not s * (y - (c0 + u * (c1 + u * (c2 + u * c3)))) <= -margin:
            return fail
    return a, b, d


def _solve_mono_py(row, y):
    a, b, d = _start_cell(row, y) if len(row) > 9 and row[9] else (row[5], row[6], 0)
    return _bisect_py(row, y, a, b, N_BISECT - d)


def _bisect_py(row, y, a, b, steps):
    """At most ``steps`` bisection steps of [a, b] for y on Python floats;
    the midpoint once it rounds to an end of the bracket."""
    t0, c0, c1, c2, c3 = row[:5]
    inc = row[8] >= row[7]
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        u = mid - t0  # _poly3 inlined, in its operation order
        fm = c0 + u * (c1 + u * (c2 + u * c3)) - y
        if (fm <= 0.0) == inc:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def segment_clip(row, lo, hi):
    """The clip of one segment table row, a list of Python floats, to the
    band [lo, hi]: (xa, xb) with xa <= xb for {x in segment : lo <= p(x) <= hi},
    or None when the segment misses the band. preimage_lengths sums the same
    clip over a batch of targets."""
    ylo, yhi = row[7], row[8]
    ymin, ymax = min(ylo, yhi), max(ylo, yhi)
    if ymax < lo or ymin > hi:
        return None
    xlo, xhi = row[5], row[6]
    if ymin == ymax:
        return (xlo, xhi)
    inc = yhi >= ylo
    a = max(lo, ymin)
    b = min(hi, ymax)
    xa = (xlo if inc else xhi) if a <= ymin else _solve_mono_py(row, a)
    xb = (xhi if inc else xlo) if b >= ymax else _solve_mono_py(row, b)
    return (min(xa, xb), max(xa, xb))


def _start_cells(rows, ys):
    """_start_cell for each (rows[k], ys[k]) as whole-array steps: (a, b, d).
    The root guess is the secant, then three Newton steps where p has a
    cubic term, and the stable formula where p is a quadratic in u."""
    t0, c0, c1, c2, c3, xlo, xhi, ylo, yhi, depth, margin = np.ascontiguousarray(rows.T)
    with np.errstate(all="ignore"):
        r = xlo + (ys - ylo) * ((xhi - xlo) / (yhi - ylo))
        if (c3 != 0.0).any():
            for _ in range(3):
                r = r + (ys - _poly3(c0, c1, c2, c3, r - t0)) / _slope3(c1, c2, c3, r - t0)
        quad = (c3 == 0.0) & (c2 != 0.0)
        if quad.any():
            q = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(c1 * c1 + 4.0 * c2 * (ys - c0), 0.0)), c1))
            u1, u2, um = q / c2, -(ys - c0) / q, 0.5 * (xlo + xhi) - t0
            r = np.where(quad, t0 + np.where(np.abs(u1 - um) <= np.abs(u2 - um), u1, u2), r)
        r = np.minimum(np.maximum(r, xlo), xhi)
        h = 2.0 * margin / np.abs(_slope3(c1, c2, c3, r - t0))
        top = np.ldexp(1.0, depth.astype(np.int64)) - 1.0
        scale = (top + 1.0) / (xhi - xlo)
        lo_k = np.minimum(np.maximum((r - h - xlo) * scale, 0.0), top)
        hi_k = np.minimum(np.maximum((r + h - xlo) * scale, 0.0), top)
        known = lo_k <= hi_k  # False where the guess or h is NaN
        ka = np.where(known, lo_k, 0.0).astype(np.int64)
        kb = np.where(known, hi_k, top).astype(np.int64)
    shift = np.frexp((ka ^ kb).astype(np.float64))[1]
    d = depth.astype(np.int64) - shift
    k = kb >> shift
    n = np.left_shift(1, d)
    w = np.ldexp(xhi - xlo, -d)
    a = np.where(k == 0, xlo, np.where(2 * k <= n, xlo + k * w, xhi - (n - k) * w))
    b = np.where(k + 1 == n, xhi, a + w)
    s = np.where(yhi >= ylo, 1.0, -1.0)
    ok = (d > 0) & ((k == 0) | (s * (ys - _poly3(c0, c1, c2, c3, a - t0)) >= margin))
    ok &= (k + 1 == n) | (s * (ys - _poly3(c0, c1, c2, c3, b - t0)) <= -margin)
    return np.where(ok, a, xlo), np.where(ok, b, xhi), np.where(ok, d, 0)


def _solve_mono_batch(rows, ys):
    """_solve_mono_py for each (rows[k], ys[k]): itself for at most
    _SCALAR_ROOTS of them, where it is faster, else as whole-array steps.

    Every _RETIRE_EVERY steps the lanes whose midpoint equals an end of
    their bracket leave the batch with that midpoint as their root: from
    that step on the midpoint never changes, so it is the root that all
    N_BISECT steps give, bit for bit. With start_table's columns a lane
    starts at its certified depth d and has N_BISECT - d steps; a lane whose
    last step comes before the next retirement, and every lane once at most
    _SCALAR_ROOTS are left, takes its remaining steps in _bisect_py."""
    if ys.shape[0] <= _SCALAR_ROOTS:
        return np.array([_solve_mono_py(row, y) for row, y in zip(rows.tolist(), ys.tolist())])
    t0, c0, c1, c2, c3, a, b, ylo, yhi = np.ascontiguousarray(rows[:, :9].T)
    stop, targets = np.full(ys.shape[0], N_BISECT), ys
    if rows.shape[1] > 9 and rows[:, 9].any():
        a, b, d = _start_cells(rows, ys)
        stop -= d
    inc = yhi >= ylo
    lane = np.arange(ys.shape[0])
    out = np.empty(ys.shape[0])
    for step in range(N_BISECT):
        mid = 0.5 * (a + b)
        if step % _RETIRE_EVERY == 0:
            done = (mid == a) | (mid == b)
            out[lane[done]] = mid[done]
            left = ~done
            rest = left if lane.size - done.sum() <= _SCALAR_ROOTS else left & (stop - step < _RETIRE_EVERY)
            for k in np.flatnonzero(rest).tolist():
                i = int(lane[k])
                out[i] = _bisect_py(rows[i].tolist(), float(targets[i]), float(a[k]), float(b[k]), int(stop[k]) - step)
            live = left & ~rest
            if not live.all():
                lane, mid, t0, c0, c1, c2, c3, a, b, ys, inc, stop = (
                    v[live] for v in (lane, mid, t0, c0, c1, c2, c3, a, b, ys, inc, stop)
                )
                if not lane.size:
                    return out
        fm = _poly3(c0, c1, c2, c3, mid - t0) - ys
        up = (fm <= 0.0) == inc
        a = np.where(up, mid, a)
        b = np.where(up, b, mid)
    out[lane] = 0.5 * (a + b)
    return out


def _meeting_pairs(ymin, ymax, lo, hi):
    """Every (target t, segment s) with ymin[s] <= hi[t] and lo[t] <= ymax[s],
    grouped by segment in increasing order.

    With the targets in increasing lo, those with lo <= ymax[s] are a
    prefix, and those before the first whose running max of hi reaches
    ymin[s] all miss s; the rest of the prefix is checked one by one. When
    hi increases with lo, as in a sweep of one width, every target checked
    meets s."""
    order = np.argsort(lo, kind="stable")
    first = np.searchsorted(np.maximum.accumulate(hi[order]), ymin, "left")
    count = np.maximum(np.searchsorted(lo[order], ymax, "right") - first, 0)
    s = np.repeat(np.arange(ymin.shape[0]), count)
    t = order[np.arange(s.shape[0]) + np.repeat(first - (np.cumsum(count) - count), count)]
    meet = hi[t] >= ymin[s]
    return t[meet], s[meet]


def _pair_sums(seg, los, his, terms):
    """Per target [lo, hi] of ``los``, ``his``, the sum of terms(s, lo, hi,
    ymin, ymax), arrays over the (target, segment s) pairs that meet, with
    [ymin, ymax] the segment's value range. The targets run in chunks of
    _CHUNK_TARGETS, which bound the pairs; _meeting_pairs gives the pairs
    segment by segment and bincount adds them in input order from 0.0, so
    every target's terms are summed in segment order, whatever they are."""
    los = np.ascontiguousarray(los, dtype=np.float64)
    his = np.ascontiguousarray(his, dtype=np.float64)
    ymin, ymax = np.minimum(seg[:, 7], seg[:, 8]), np.maximum(seg[:, 7], seg[:, 8])
    out = np.zeros(los.shape[0])
    for start in range(0, los.shape[0], _CHUNK_TARGETS):
        lo, hi = los[start : start + _CHUNK_TARGETS], his[start : start + _CHUNK_TARGETS]
        t, s = _meeting_pairs(ymin, ymax, lo, hi)
        weights = terms(s, lo[t], hi[t], ymin[s], ymax[s])
        out[start : start + lo.shape[0]] = np.bincount(t, weights=weights, minlength=lo.shape[0])
    return out


def preimage_lengths(seg, los, his):
    """Total preimage length |phi^-1([lo, hi])| for a batch of targets: the
    _pair_sums of the segment_clip lengths of the segments that meet it."""
    seg = np.ascontiguousarray(seg, dtype=np.float64)
    xlo, xhi = seg[:, 5], seg[:, 6]
    inc = seg[:, 8] >= seg[:, 7]

    def clip_lengths(s, lo_t, hi_t, ymin_s, ymax_s):
        flat, inc_s = ymin_s == ymax_s, inc[s]
        solve_a = ~flat & ~(lo_t <= ymin_s)
        solve_b = ~flat & ~(hi_t >= ymax_s)
        xa = np.where(inc_s, xlo[s], xhi[s])
        xb = np.where(inc_s, xhi[s], xlo[s])
        rows = seg[np.concatenate((s[solve_a], s[solve_b]))]
        roots = _solve_mono_batch(rows, np.concatenate((lo_t[solve_a], hi_t[solve_b])))
        n_a = int(solve_a.sum())
        xa[solve_a] = roots[:n_a]
        xb[solve_b] = roots[n_a:]
        return np.where(flat, xhi[s] - xlo[s], np.abs(xb - xa))

    return _pair_sums(seg, los, his, clip_lengths)


def _rounding(seg):
    """Per row: low and high, the least and largest computed p' at the
    candidates for its extremes on the segment; slop, a bound on their
    rounding; and delta, a bound on the Horner rounding of p and on the
    rounding of x - t0 in value terms (see _slope_floor)."""
    eps = np.finfo(np.float64).eps
    t0, c0, c1, c2, c3, xlo, xhi = np.ascontiguousarray(seg[:, :7].T)
    ua, ub = xlo - t0, xhi - t0
    big = np.maximum(np.abs(ua), np.abs(ub))
    with np.errstate(all="ignore"):  # an overflow makes a bound inf, which certifies nothing
        vertex = -c2 / (3.0 * c3)
        inside = (c3 != 0.0) & (ua < vertex) & (vertex < ub)
        ends = [_slope3(c1, c2, c3, u) for u in (ua, ub, np.where(inside, vertex, ua))]
        slop = 16.0 * eps * (np.abs(c1) + big * (4.0 * np.abs(c2) + 9.0 * big * np.abs(c3)))
        delta = 16.0 * eps * (np.abs(c0) + big * (2.0 * np.abs(c1) + big * (3.0 * np.abs(c2) + 4.0 * big * np.abs(c3))))
    return np.minimum.reduce(ends), np.maximum.reduce(ends), slop, delta


def _slope_floor(seg):
    """Per segment: (1 + 4 eps) / mu, the margin and the width xhi - xlo,
    where mu > 0 is a certified lower bound on |p'| over [xlo, xhi]. Where
    none is certified (a flat segment among them) the first is 0 and the
    margin is the width, so a bounded term is the whole width.

    p' is a quadratic in u = x - t0, so its extremes on the segment lie at
    the ends and at its vertex when that is inside. mu is the least |p'|
    there less a bound on the rounding of those evaluations, and is
    certified only when all of them have one sign by more than that bound,
    which makes p monotone on the segment. Let U be the largest |u| and
    delta = 16 eps sum_k (k + 1) |c_k| U^k, a bound on the Horner rounding
    of p and on the rounding of x - t0 in value terms. Then every root the
    bisection returns, and every end value in the table, is within
    delta / mu + 4 eps X in x of where the exact p puts it, with
    X = |xlo| + |xhi| + |t0| for the roundings in x. A clipped length is
    therefore at most overlap / mu + margin, with margin =
    4 delta / mu + 16 eps X and overlap the length of the target band
    inside [ymin, ymax]; 1 + 4 eps covers the rounding of overlap / mu.
    Without the margin the bound fails by an ulp of x: a target of
    sin_drift(0.5) that meets a segment by 3.5e-15 in x gets a clip of
    2^-48, one ulp at x = -16."""
    eps = np.finfo(np.float64).eps
    low, high, slop, delta = _rounding(seg)
    t0, xlo, xhi, ylo, yhi = (seg[:, k] for k in (0, 5, 6, 7, 8))
    mu = np.where(ylo != yhi, np.maximum(np.maximum(low, -high) - slop, 0.0), 0.0)
    with np.errstate(divide="ignore"):
        inv = np.where(mu > 0.0, (1.0 + 4.0 * eps) / mu, 0.0)
    width = xhi - xlo
    margin = np.where(mu > 0.0, 4.0 * delta * inv + 16.0 * eps * (np.abs(xlo) + np.abs(xhi) + np.abs(t0)), width)
    return inv, margin, width


def start_table(seg):
    """The segment table with the two columns that the certified start of
    _start_cell reads: the exact depth D and the margin m.

    With both ends multiples of 2^E and |xlo|, |xhi| < 2^F, each point of
    the row's bisection tree at depth d is a multiple of 2^(E - d) below 2^F
    in size, which a double holds, and each midpoint is computed exactly,
    while d <= D = 53 - F + E (the larger end normal). m = 3 delta + 2 zeta
    (xhi - xlo), with delta from _rounding and zeta how far the exact p'
    may cross 0 against the row's direction. So when a cell [A, B] at depth
    d <= D has s (y - P(A)) >= m and s (P(B) - y) >= m in floats, with s
    the direction and P the bisection's Horner value, every tree point the
    bisection visits left of A, or right of B, decides as at A, or at B: the
    cell is its bracket after d steps. D is 0 on a flat row, where m is not
    finite and positive, and where it is below _START_DEPTH (the ends of
    sin's rows, at -10 + k / 20, give D <= 9)."""
    seg = np.ascontiguousarray(seg[:, :9], dtype=np.float64)
    low, high, slop, delta = _rounding(seg)
    xlo, xhi, ylo, yhi = np.ascontiguousarray(seg[:, 5:9].T)
    finite = np.isfinite(seg[:, 5:7])
    ends = np.where(finite, seg[:, 5:7], 0.0)
    frac, expo = np.frexp(ends)
    mant = np.abs(np.ldexp(frac, 53)).astype(np.int64)
    lowest_bit = expo - 53 + np.frexp((mant & -mant).astype(np.float64))[1] - 1
    big = np.abs(ends).max(axis=1)
    depth = 53 - np.frexp(big)[1] + np.where(ends != 0.0, lowest_bit, 2000).min(axis=1)  # 0 is any multiple
    with np.errstate(all="ignore"):
        zeta = np.maximum(np.where(yhi >= ylo, slop - low, high + slop), 0.0)
        margin = 3.0 * delta + 2.0 * zeta * (xhi - xlo)
        ok = (ylo != yhi) & (margin > 0.0) & np.isfinite(margin) & finite.all(axis=1)
    depth = np.where(ok & (big >= np.finfo(np.float64).tiny) & (depth >= _START_DEPTH), depth, 0)
    return np.column_stack([seg, depth, margin])


def preimage_length_bounds(seg, los, his):
    """An upper bound on each preimage_lengths total, without solving: the
    _pair_sums of min(width, overlap / mu + margin) (see _slope_floor). A
    computed clip lies inside its segment, so it is at most the width, and
    a flat term is the width. The terms are added in the lengths' order and
    rounding is monotone, so each total is at least the computed one."""
    seg = np.ascontiguousarray(seg, dtype=np.float64)
    inv, margin, width = _slope_floor(seg)

    def bounded_lengths(s, lo_t, hi_t, ymin_s, ymax_s):
        terms = np.minimum(hi_t, ymax_s)
        terms -= np.maximum(lo_t, ymin_s)
        terms *= inv[s]
        terms += margin[s]
        return np.minimum(terms, width[s], out=terms)

    return _pair_sums(seg, los, his, bounded_lengths)


# ---------------------------------------------------------------------------
# greedy disjoint-class extraction (splitting lemma)
# ---------------------------------------------------------------------------

def greedy_classes(lefts, rights):
    """Label each interval with its class index under the greedy min-index
    extraction rule (closed-interval intersection; touching counts)."""
    lefts = np.asarray(lefts, dtype=np.float64).tolist()
    rights = np.asarray(rights, dtype=np.float64).tolist()
    labels = [-1] * len(lefts)
    todo = list(range(len(lefts)))  # unlabelled indices, in increasing order
    cls = 0
    while todo:
        sel_l, sel_r, rest = [], [], []
        for j in todo:
            l, r = lefts[j], rights[j]
            pos = bisect.bisect_left(sel_l, l)
            if (pos > 0 and sel_r[pos - 1] >= l) or (pos < len(sel_l) and sel_l[pos] <= r):
                rest.append(j)
                continue
            sel_l.insert(pos, l)
            sel_r.insert(pos, r)
            labels[j] = cls
        todo = rest
        cls += 1
    return np.array(labels, dtype=np.int64)


def warm_up():
    """Run every kernel once on a tiny input. Nothing is compiled; a timed
    caller uses this to keep first-call costs out of its measurements."""
    s = np.linspace(0.0, 1.0, 8)
    interp_eval(s, 0.0, 1.0, 0.0, 0.0, np.array([0.5, 9.0]))
    shift_difference_batch(s, 0.0, 0.0, np.array([1, 2]), 2)
    seg = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
    preimage_lengths(start_table(seg), np.array([0.2]), np.array([0.4]))
    preimage_length_bounds(seg, np.array([0.2]), np.array([0.4]))
    greedy_classes(np.array([0.0, 0.5]), np.array([1.0, 1.5]))
