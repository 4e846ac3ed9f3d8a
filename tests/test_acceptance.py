"""Acceptance criteria A1-A12.

Each test pins the criterion's stated tolerance, measures its wall time
(the first test to run also pays the imports), and prints one PASS/FAIL
line.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from besovlab._kernels import shift_difference_batch
from besovlab.gadgets import eta_eps, linear_cutoff, plateau, unit_bump
from besovlab.grid import SpaceParams, catalog_family, sample, lp_norm
from besovlab.maps import (
    affine_map,
    identity_map,
    preimage_intervals,
    quadratic_map,
    sin_drift_map,
    sin_map,
    M_functional,
    U_functional,
    max_preimage_count,
)
from besovlab.multipliers import make_psi, msq_norm_lower_detailed, unif_profile
from besovlab.norms import (
    DyadicHGrid,
    besov_norm_diff,
    besov_seminorm_diff,
    littlewood_paley_norm,
    sobolev_norm_diff,
    sobolev_norm_fourier,
)
from besovlab import theorems as th
from besovlab.splitting import IntervalFamily, intersection_degree, split_partition

WINDOW = (-16.0, 16.0)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(name, ok, limit_s, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{name} {status}  {detail}  runtime={elapsed:.1f}s (limit {limit_s}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit_s, f"{name}: runtime {elapsed:.1f}s over limit {limit_s}s"


def _band_constant(ratios):
    return max(max(ratios), 1.0 / min(ratios))


def test_A1_characterization_equivalence():
    sp = SpaceParams(1.5, 2.0, 2.0, 2)
    with Timer() as t:
        consts = []
        for count in (2**13 + 1, 2**14 + 1):
            ratios = [
                besov_norm_diff(f, sp) / littlewood_paley_norm(f, sp)
                for _, f in catalog_family(count)
            ]
            consts.append(_band_constant(ratios))
    c0, c1 = consts
    ok = c0 <= 10.0 and c1 <= 10.0 and abs(c1 - c0) <= 0.2 * c0
    report("A1", ok, 60, t.elapsed, f"C={c0:.3f} refined C={c1:.3f}")


def test_A2_sobolev_equivalence():
    s, p, m = 1.25, 2.0, 2
    with Timer() as t:
        consts = []
        for count in (2**13 + 1, 2**14 + 1):
            ratios = [
                sobolev_norm_diff(f, s, p, m) / sobolev_norm_fourier(f, s, p)
                for _, f in catalog_family(count)
            ]
            consts.append(_band_constant(ratios))
    c0, c1 = consts
    ok = c0 <= 10.0 and c1 <= 10.0 and abs(c1 - c0) <= 0.2 * c0
    report("A2", ok, 60, t.elapsed, f"C'={c0:.3f} refined C'={c1:.3f}")


def test_A3_polynomial_annihilation():
    hg = DyadicHGrid()
    with Timer() as t:
        worst = 0.0
        for m, coeffs in ((1, [1.0]), (2, [1.0, -0.3]), (3, [1.0, -0.3, 0.25])):
            f = sample("poly", WINDOW, 2**13 + 1, coeffs=coeffs)
            hs, _, _, _ = hg.materialize(f.spacing)
            scale = float(np.max(np.abs(f.samples)))
            guard = int((m + 1.0) / f.spacing) + 1
            for h in hs:
                d = shift_difference_batch(f.samples, *f.ext_values(), np.array([round(h / f.spacing)]), m)[0]
                worst = max(worst, float(np.max(np.abs(d[guard:-guard]))) / scale)
    report("A3", worst <= 1e-10, 5, t.elapsed, f"worst relative residual {worst:.2e}")


def test_A4_eta_scaling_exponent():
    sp = SpaceParams(1.5, 2.0, 2.0, 2)
    eps = (0.2, 0.1, 0.05)
    with Timer() as t:
        vals = [besov_seminorm_diff(eta_eps(e, WINDOW, 2**13 + 1), sp) for e in eps]
        slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    target = 1.0 / sp.p - sp.s
    report("A4", abs(slope - target) <= 0.1, 30, t.elapsed, f"slope {slope:.3f} target {target}")


def test_A5_dilation_witness_identity():
    # |eta_eps((. - x0)/r)| = r^(1/p - s) |eta_eps|; the exponent follows by
    # substitution in the h-integral (see the decisions ledger for the sign)
    sp = SpaceParams(1.5, 2.0, 2.0, 2)
    eps, count = 0.1, 2**14 + 1
    with Timer() as t:
        ref = besov_seminorm_diff(eta_eps(eps, WINDOW, count), sp)
        worst = 0.0
        for r in (0.5, 1.0, 2.0):
            f = plateau(0.5 - r, 0.5 + r, r * eps, WINDOW, count)
            lhs = besov_seminorm_diff(f, sp)
            rhs = r ** (1.0 / sp.p - sp.s) * ref
            worst = max(worst, abs(lhs / rhs - 1.0))
    report("A5", worst <= 0.02, 30, t.elapsed, f"worst relative mismatch {worst:.4f}")


def test_A6_preimage_decomposition_bounds():
    rng = np.random.default_rng(42)
    with Timer() as t:
        violations = 0
        for phi in (identity_map(), affine_map(2.0, 0.0), quadratic_map(), sin_map()):
            uval = U_functional(phi)
            npre = max_preimage_count(phi)
            ymin, ymax = phi.value_range()
            for _ in range(20):
                a = rng.uniform(ymin - 1.0, ymax + 1.0)
                b = rng.uniform(0.05, 3.0)
                dec = preimage_intervals(phi, (a - b, a + b))
                if dec.total_length > 2.0 * math.ceil(b) * uval * (1.0 + 1e-6):
                    violations += 1
                if dec.count > npre:
                    violations += 1
    report("A6", violations == 0, 10, t.elapsed, f"{violations} violations over 80 targets")


def test_A7_splitting_bound():
    rng = np.random.default_rng(7)
    with Timer() as t:
        violations = 0
        for _ in range(10**4):
            n = int(rng.integers(1, 201))
            lefts = rng.uniform(0.0, 60.0, n)
            widths = rng.uniform(0.0, 1.5, n)
            fam = IntervalFamily(np.column_stack([lefts, lefts + widths]))
            if split_partition(fam).count > intersection_degree(fam) + 1:
                violations += 1
    report("A7", violations == 0, 20, t.elapsed, f"{violations} violations over 10^4 families")


def test_A8_unit_interval_necessity():
    sp = SpaceParams(2.1, 2.0, 2.0, 3)
    with Timer() as t:
        bump_norm = besov_norm_diff(unit_bump(0.0, WINDOW, 2**13 + 1), sp)
        kappas = []
        for phi in (
            identity_map(),
            affine_map(0.5, 0.0),
            affine_map(2.0, 0.0),
            sin_drift_map(0.5),
        ):
            op = th.opnorm_lower_detailed(th.MapOnGrid.read(phi, th.Resolution()), sp)[0]
            kappas.append(U_functional(phi) ** 0.5 / (op * bump_norm))
        kappa = max(kappas)
    report("A8", kappa <= 3.0, 120, t.elapsed, f"kappa = {kappa:.4f} (<= 3)")


def test_A9_chain_rule_residual():
    sp = SpaceParams(2.1, 2.0, 2.0, 3)
    with Timer() as t:
        mg = th.MapOnGrid.read(sin_drift_map(0.5), th.Resolution())
        frag = th.check_sufficiency_chain(mg, sample("gaussian", WINDOW, 2**13 + 1), sp)
        residual = frag.values["residual"]
    report("A9", residual < 1e-4, 10, t.elapsed, f"residual {residual:.2e}")


def test_A10_p_inf_witness():
    sp = SpaceParams(1.5, math.inf, 2.0, 2)
    with Timer() as t:
        mg = th.MapOnGrid.read(sin_drift_map(0.5), th.Resolution())
        frag = th.check_infinity_witness(mg, sp, th.opnorm_lower_detailed(mg, sp)[0])
        recon = frag.values["lip_reconstructed"]
        direct = frag.values["phiprime_seminorm_direct"]
        bound = frag.values["zigzag_bound"]
    ok = abs(recon - 1.5) <= 0.02 * 1.5 and direct <= bound * 1.1
    report(
        "A10", ok, 120, t.elapsed,
        f"lip recon {recon:.4f} (target 1.5), |phi'| {direct:.3f} <= bound {bound:.3f}",
    )


def test_A11_multiplier_ordering():
    sp = SpaceParams(0.5, 2.0, 2.0, 1)
    count = 2**13 + 1
    with Timer() as t:
        psi = make_psi("mollifier")
        base = sample("zero", WINDOW, count)
        from besovlab.grid import Extension, GridFunction

        psif = GridFunction(psi(base.x), base.spacing, base.origin, Extension.ZERO)
        ordering_ok = True
        for f in (sample("const", WINDOW, count), sample("sine", WINDOW, count), psif):
            if msq_norm_lower_detailed(f, sp, psi).value < unif_profile(f, sp, psi)[1].max():
                ordering_ok = False
        # disjoint-translate l^p identity, gap 5 >= 3m between supports
        zs = (-10.0, -5.0, 0.0, 5.0, 10.0)
        c = np.array([0.3, -1.2, 0.77, 2.0, -0.41])
        total = np.zeros_like(base.x)
        for ci, zi in zip(c, zs):
            total += ci * psi(base.x - zi)
        g = GridFunction(total, base.spacing, base.origin, Extension.ZERO)
        lhs = lp_norm(g, 2.0) ** 2
        rhs = float(np.sum(np.abs(c) ** 2)) * lp_norm(psif, 2.0) ** 2
        identity_err = abs(lhs - rhs) / rhs
    ok = ordering_ok and identity_err <= 1e-10
    report("A11", ok, 60, t.elapsed, f"ordering {ordering_ok}, identity err {identity_err:.2e}")


# sha256 of the default suite's records.json; a change that moves one bit
# of any record must update it and say which fields moved
SUITE_RECORDS_SHA256 = "6151ce8e82d511a6a31336b7b13264044805e092e0b7890befc0220d470a374f"


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """Two runs of the default suite: exit codes, records.json bytes, seconds."""
    from besovlab.cli import main

    out = tmp_path_factory.mktemp("suite")
    with Timer() as t:
        codes = [main(["suite", "--out", str(out / run)]) for run in ("run1", "run2")]
        records = [(out / run / "records.json").read_bytes() for run in ("run1", "run2")]
    return codes, records, t.elapsed


def test_A12_suite_determinism(suite_runs):
    (code1, code2), (b1, b2), elapsed = suite_runs
    ok = code1 == 0 and code2 == 0 and b1 == b2
    report("A12", ok, 600, elapsed, f"{len(b1)} bytes, identical={b1 == b2}")


def test_default_suite_records_are_pinned(suite_runs):
    _, (b1, _), _ = suite_runs
    assert hashlib.sha256(b1).hexdigest() == SUITE_RECORDS_SHA256
