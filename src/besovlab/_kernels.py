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
lanes with such a root run all ``N_BISECT`` steps. ``preimage_lengths``
runs its targets in fixed-size chunks, which bound its memory, and skips
the (target, segment) pairs that cannot meet, block by block of targets.
"""

from __future__ import annotations

import bisect
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

    The plan is built up front as plain lists: the distinct shifts
    (``shifts``, sorted; ``inverse`` maps each table entry to its own), the
    live span [a, b) of each, and the starts of its m + 1 terms in the
    buffer padded with min(m * max|off|, n) extension values on each side.
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
        shifts, inverse = np.unique(np.asarray(offsets, dtype=np.int64), return_inverse=True)
        self.shifts, self.inverse = shifts, inverse.reshape(-1)
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

_CHUNK_TARGETS = 2048  # targets per preimage_lengths chunk; bounds its masks and gathered arrays
_BLOCK = 64  # targets per screening block of a chunk
_RETIRE_EVERY = 8  # bisection steps between retirements of converged lanes


def _poly3(t0, c0, c1, c2, c3, x):
    u = x - t0
    return c0 + u * (c1 + u * (c2 + u * c3))


def _solve_mono_py(row, y):
    t0, c0, c1, c2, c3, xlo, xhi, ylo, yhi = row[:9]
    a, b = xlo, xhi
    inc = yhi >= ylo
    for _ in range(N_BISECT):
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


def _clip_segment_py(row, lo, hi):
    """Return (xa, xb) with xa <= xb for {x in segment : lo <= p(x) <= hi},
    or None when the segment misses the target band."""
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


def _solve_mono_batch(rows, ys):
    """_solve_mono_py for each (rows[k], ys[k]), as whole-array steps.

    Every _RETIRE_EVERY steps the lanes whose midpoint equals an end of
    their bracket leave the batch with that midpoint as their root: from
    that step on the midpoint never changes, so it is the root that all
    N_BISECT steps give, bit for bit."""
    t0, c0, c1, c2, c3, a, b, ylo, yhi = np.ascontiguousarray(rows.T)
    inc = yhi >= ylo
    lane = np.arange(ys.shape[0])
    out = np.empty(ys.shape[0])
    for step in range(N_BISECT):
        mid = 0.5 * (a + b)
        if step % _RETIRE_EVERY == 0:
            done = (mid == a) | (mid == b)
            if done.any():
                out[lane[done]] = mid[done]
                live = ~done
                lane, mid, t0, c0, c1, c2, c3, a, b, ys, inc = (
                    v[live] for v in (lane, mid, t0, c0, c1, c2, c3, a, b, ys, inc)
                )
        fm = _poly3(t0, c0, c1, c2, c3, mid) - ys
        up = (fm <= 0.0) == inc
        a = np.where(up, mid, a)
        b = np.where(up, b, mid)
    out[lane] = 0.5 * (a + b)
    return out


def preimage_lengths(seg, los, his):
    """Total preimage length |phi^-1([lo, hi])| for a batch of targets.

    Each target's total is the sum, in segment order from 0.0, of the
    _clip_segment_py lengths of the segments that meet [lo, hi]. A segment
    that meets a target meets the [min lo, max hi] of the target's block of
    _BLOCK, so only those segments enter the block's dense mask. Its pairs
    come out segment by segment, so each target's terms stay in segment
    order, and bincount adds them in input order from 0.0.
    """
    seg = np.ascontiguousarray(seg, dtype=np.float64)
    los = np.ascontiguousarray(los, dtype=np.float64)
    his = np.ascontiguousarray(his, dtype=np.float64)
    out = np.zeros(los.shape[0])
    if seg.shape[0] == 0:
        return out
    xlo, xhi, ylo, yhi = seg[:, 5], seg[:, 6], seg[:, 7], seg[:, 8]
    ymin, ymax = np.minimum(ylo, yhi), np.maximum(ylo, yhi)
    inc = yhi >= ylo
    for start in range(0, los.shape[0], _CHUNK_TARGETS):
        lo, hi = los[start : start + _CHUNK_TARGETS], his[start : start + _CHUNK_TARGETS]
        n = lo.shape[0]
        firsts = np.arange(0, n, _BLOCK)
        block_lo, block_hi = np.minimum.reduceat(lo, firsts), np.maximum.reduceat(hi, firsts)
        b, s = np.nonzero(~((ymax < block_lo[:, None]) | (ymin > block_hi[:, None])))
        t, s = (firsts[b][:, None] + np.arange(_BLOCK)).ravel(), np.repeat(s, _BLOCK)
        t, s = t[t < n], s[t < n]
        meet = ~((ymax[s] < lo[t]) | (ymin[s] > hi[t]))
        t, s = t[meet], s[meet]
        lo_t, hi_t, ymin_s, ymax_s, inc_s = lo[t], hi[t], ymin[s], ymax[s], inc[s]
        flat = ymin_s == ymax_s
        solve_a = ~flat & ~(lo_t <= ymin_s)
        solve_b = ~flat & ~(hi_t >= ymax_s)
        xa = np.where(inc_s, xlo[s], xhi[s])
        xb = np.where(inc_s, xhi[s], xlo[s])
        roots = _solve_mono_batch(
            seg[np.concatenate((s[solve_a], s[solve_b]))],
            np.concatenate((lo_t[solve_a], hi_t[solve_b])),
        )
        n_a = int(solve_a.sum())
        xa[solve_a] = roots[:n_a]
        xb[solve_b] = roots[n_a:]
        terms = np.where(flat, xhi[s] - xlo[s], np.abs(xb - xa))
        out[start : start + n] = np.bincount(t, weights=terms, minlength=n)
    return out


def segment_clip(seg_row, lo, hi):
    """The clip of one segment table row, or of the row's list of Python
    floats, to the band [lo, hi], as Python floats: (xa, xb) with xa <= xb,
    or None when the row misses the band. preimage_lengths sums the same
    clip over a batch of targets."""
    if not isinstance(seg_row, list):
        seg_row = np.asarray(seg_row, dtype=np.float64).tolist()
    return _clip_segment_py(seg_row, lo, hi)


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
    preimage_lengths(seg, np.array([0.2]), np.array([0.4]))
    greedy_classes(np.array([0.0, 0.5]), np.array([1.0, 1.5]))
