import csv
import itertools
import math
import os

import numpy as np
import pytest

from besovlab import maps, theorems
from besovlab.gadgets import unit_bump
from besovlab.grid import (
    DEFAULT_COUNT,
    Extension,
    GridFunction,
    SpaceParams,
    grid_derivative,
    lp_norm,
    sample,
)
from besovlab.maps import (
    LineMap,
    U_functional,
    affine_map,
    compose,
    identity_map,
    inverse_map,
    lipschitz_constant,
    max_preimage_count,
    named_map,
    quadratic_map,
    sample_composed,
    sin_drift_map,
)
from besovlab.norms import DEFAULT_HGRID, besov_norm_diff, besov_seminorm_diff, sobolev_norm_diff
from besovlab.theorems import (
    LIP_DELTAS,
    LIP_FACTOR_TOL,
    LIP_MARGIN,
    WINDOW_RUN,
    CheckReport,
    MapOnGrid,
    RangeGateError,
    Resolution,
    check_infinity_witness,
    check_nec_U,
    check_nec_lipschitz,
    check_sufficiency_chain,
    classify,
    composed_bump_masses,
    gate_space,
    opnorm_lower_detailed,
    _window_limited,
    _witness_oracle_lower,
)

SP = SpaceParams(2.1, 2.0, 2.0, 3)
SP_INF = SpaceParams(1.5, math.inf, 2.0, 2)


def flat_right_tail():
    return LineMap(
        np.array([-16.0, 16.0]), np.array([[-16.0, 1.0, 0, 0]]), 1.0, 0.0, name="flat_tail"
    )


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_gate_open_case_named():
    with pytest.raises(RangeGateError, match="open case"):
        gate_space(SpaceParams(1.2, 2.0, 2.0, 2))


def test_gate_low_order_and_small_p():
    with pytest.raises(RangeGateError, match="low-order"):
        gate_space(SpaceParams(0.9, 2.0, 2.0, 2))
    with pytest.raises(RangeGateError, match="open"):
        gate_space(SpaceParams(3.0, 1.0, 2.0, 4))


def test_gate_p_inf_and_sobolev():
    gate_space(SpaceParams(1.5, math.inf, 2.0, 2))
    with pytest.raises(RangeGateError):
        gate_space(SpaceParams(0.9, math.inf, 2.0, 1))
    gate_space(SP, kind="sobolev")
    with pytest.raises(RangeGateError):
        gate_space(SpaceParams(2.1, math.inf, 2.0, 3), kind="sobolev")


# ---------------------------------------------------------------------------
# operator-norm lower bound
# ---------------------------------------------------------------------------

def test_opnorm_identity_exact():
    assert opnorm_lower_detailed(MapOnGrid.read(identity_map(), Resolution()), SP)[0] == 1.0


def test_opnorm_translation_invariance():
    mg = MapOnGrid.read(affine_map(1.0, 1.0), Resolution())
    assert opnorm_lower_detailed(mg, SP)[0] == pytest.approx(1.0, abs=1e-9)


def test_opnorm_dilation_monotone():
    res = Resolution()
    vals = [opnorm_lower_detailed(MapOnGrid.read(affine_map(lam, 0.0), res), SP)[0] for lam in (1, 1.5, 2, 3)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_witness_family_members_are_distinct():
    fam = Resolution(2**10 + 1).family
    for (a, fa), (b, fb) in itertools.combinations(fam.items(), 2):
        assert not np.array_equal(fa.samples, fb.samples), (a, b)


@pytest.mark.parametrize("count", [641, DEFAULT_COUNT])
@pytest.mark.parametrize("kind", ["besov", "sobolev"])
def test_every_family_member_has_a_positive_norm(count, kind):
    # opnorm_lower_detailed skips a member whose norm is 0.0, which at a
    # moderate p none may be; 641 is the least count a Resolution accepts
    # (tests/test_cli.py checks the refusal below it)
    res = Resolution(count)
    assert all(res.norm(f, SP, kind=kind) > 0.0 for f in res.family.values())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_opnorm_skips_a_member_whose_norm_underflows_at_a_large_p():
    # |xgauss| <= 0.43, so |f|^p underflows to 0 at this finite p
    res, sp = Resolution(641), SpaceParams(1.5, 1e5, 2.0, 2)
    assert res.norm(res.family["xgauss"], sp) == 0.0
    mg = MapOnGrid.read(identity_map(), res)
    assert opnorm_lower_detailed(mg, sp)[1] != "xgauss"


def test_opnorm_detail_records_argmax():
    res = Resolution()
    mg = MapOnGrid.read(affine_map(2.0, 0.0), res)
    ratios = {name: res.norm(mg.compose(f), SP) / res.norm(f, SP) for name, f in res.family.items()}
    val, arg = opnorm_lower_detailed(mg, SP)
    assert val == max(ratios.values()) == ratios[arg]


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------

def test_nec_U_identity():
    phi = identity_map()
    frag = check_nec_U(MapOnGrid.read(phi, Resolution()), SP, opnorm=1.0, uval=U_functional(phi))
    assert frag.passed
    assert frag.values["U"] == pytest.approx(1.0, abs=1e-9)
    assert frag.values["kappa_required"] <= 3.0


def test_nec_U_halving_map():
    phi = affine_map(0.5, 0.0)
    mg = MapOnGrid.read(phi, Resolution())
    frag = check_nec_U(mg, SP, opnorm_lower_detailed(mg, SP)[0], U_functional(phi))
    assert frag.passed
    assert frag.values["U"] == pytest.approx(2.0, abs=1e-9)
    assert frag.values["witness_worst_margin"] >= -1e-9


def test_nec_U_requires_finite_p():
    with pytest.raises(ValueError):
        check_nec_U(MapOnGrid.read(identity_map(), Resolution()), SP_INF, opnorm=1.0, uval=1.0)


def test_nec_U_flat_tail_fails():
    phi = flat_right_tail()
    mg = MapOnGrid.read(phi, Resolution())
    frag = check_nec_U(mg, SP, opnorm_lower_detailed(mg, SP)[0], U_functional(phi))
    assert not frag.passed
    assert math.isinf(frag.values["U"])


def test_bump_masses_equal_the_compose_loop():
    phi = named_map("affine:a=0.5,b=2")
    targets = np.arange(-13.0, 12.0, 0.25)
    masses = composed_bump_masses(MapOnGrid.read(phi, Resolution()), targets, SP.p)
    loop = [lp_norm(compose(unit_bump(float(a)), phi), SP.p) ** SP.p for a in targets]
    assert masses == loop


def _whole_grid_masses(mg, targets, p):
    """The bump masses with every bump sampled and interpolated over the
    whole grid, and the rectangle-rule sum written out."""
    res, masses = mg.res, []
    for a in targets:
        fa = unit_bump(float(a), res.window, res.count)
        power = np.abs(fa(mg.ys)) ** p
        masses.append((float(power.sum() * fa.spacing) ** (1.0 / p)) ** p)
    return masses


@pytest.mark.parametrize("spec", ["sin_drift:amp=1.5", "scale:k=3", "affine:a=0.5,b=2", "quadratic"])
def test_bump_masses_equal_the_whole_grid_formula(spec):
    # a folded map among them; targets within 2 of both window edges, where
    # the bump's support leaves the window
    mg = MapOnGrid.read(named_map(spec), Resolution())
    lo, hi = mg.res.window
    targets = np.concatenate([[lo, lo + 0.3, lo + 1.75], np.arange(-6.0, 6.0, 0.75), [hi - 2.9, hi - 1.5, hi - 1.0]])
    for p in (1.5, 2.0, 4.0):
        got = np.array(composed_bump_masses(mg, targets, p))
        assert got.tobytes() == np.array(_whole_grid_masses(mg, targets, p)).tobytes(), p
        assert (got > 0.0).any()


def test_nec_lipschitz_identity():
    frag = check_nec_lipschitz(MapOnGrid.read(identity_map(), Resolution()), SP)
    assert frag.passed and not frag.vacuous
    assert frag.values["implied_lip"] == pytest.approx(1.0, rel=0.5)


def test_nec_lipschitz_dilation_factor_two():
    frag = check_nec_lipschitz(MapOnGrid.read(affine_map(3.0, 0.0), Resolution()), SP)
    assert frag.passed
    assert 1.5 <= frag.values["implied_lip"] <= 6.0  # within factor 2 of 3


def test_nec_lipschitz_has_a_place_for_its_witness_on_the_grid():
    # it searches the grid's window shrunk by LIP_MARGIN on each side
    lo, hi = Resolution.window
    assert lo + LIP_MARGIN < hi - LIP_MARGIN


def test_nec_lipschitz_flat_vacuous():
    flat = LineMap(np.array([-16.0, 16.0]), np.array([[0.0, 0.0, 0, 0]]), 0.0, 0.0)
    frag = check_nec_lipschitz(MapOnGrid.read(flat, Resolution()), SP)
    assert frag.passed and frag.vacuous


def test_nec_lipschitz_vacuous_where_the_map_is_steep_only_near_the_edges():
    # C^1, flat on [-14, 14], -(x + 14)^2 left of it and (x - 14)^2 right of
    # it, with tails of slope 4: no point of the searched range has a slope
    pieces = [[-4.0, 4.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    phi = LineMap(np.array([-16.0, -14.0, 14.0, 16.0]), np.array(pieces), 4.0, 4.0)
    mg = MapOnGrid.read(phi, Resolution(2049))
    assert mg.lip == 4.0
    frag = check_nec_lipschitz(mg, SP)
    assert frag.passed and frag.vacuous
    assert frag.note == "derivative vanishes at the steepest sample; vacuous"


@pytest.mark.parametrize("delta", LIP_DELTAS)
def test_witness_oracle_at_q_inf_is_the_closed_form_sup(delta):
    # (h - delta)^(1/p) h^-s on [delta, 3 delta] peaks at h = s delta / (s - 1/p)
    sp = SpaceParams(2.1, 2.0, math.inf, 3)
    h = sp.s * delta / (sp.s - 1.0 / sp.p)
    assert delta < h < 3.0 * delta
    want = (h - delta) ** (1.0 / sp.p) * h ** (-sp.s)
    assert _witness_oracle_lower(delta, sp) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("lo, hi", [(20.0, 30.0), (14.0, 20.0), (-17.0, -15.0)])
def test_nec_lipschitz_places_its_witness_on_the_tails(lo, hi):
    # phi = 2x written on [lo, hi]: no point of its pieces lies 2 inside the
    # grid's [-16, 16], but its tails do, and there phi is 2x as on the grid
    phi = LineMap(np.array([lo, hi]), np.array([[2.0 * lo, 2.0, 0, 0]]), 2.0, 2.0)
    frag = check_nec_lipschitz(MapOnGrid.read(phi, Resolution(2049)), SP)
    on_grid = check_nec_lipschitz(MapOnGrid.read(affine_map(2.0, 0.0), Resolution(2049)), SP)
    assert frag.passed and not frag.vacuous
    assert frag.values["implied_lip"] == pytest.approx(on_grid.values["implied_lip"], rel=0.0, abs=1e-9)


def test_nec_lipschitz_fails_where_a_composed_witness_falls_short_of_the_oracle(monkeypatch):
    mg = MapOnGrid.read(identity_map(), Resolution())
    assert check_nec_lipschitz(mg, SP).values["oracle_ok"] is True
    # each composed seminorm is hundreds of oracles here; a million oracles is out of its reach
    oracle = theorems._witness_oracle_lower
    monkeypatch.setattr(theorems, "_witness_oracle_lower", lambda delta, sp: 1e6 * oracle(delta, sp))
    frag = check_nec_lipschitz(mg, SP)
    assert frag.values["oracle_ok"] is False and not frag.passed
    assert 1.0 / LIP_FACTOR_TOL <= frag.values["ratio"] <= LIP_FACTOR_TOL  # the slope alone would pass


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nec_lipschitz_skips_a_witness_whose_seminorm_underflows():
    # slope 2.97 on [-16, 0] and 5.94 on [0, 1/3], so b = 0 and at delta = 1/3
    # r = eps = 0.99: the witness's ramps are 0.98 wide, wider than the h-grid's
    # largest step 2^(-1/8), so every |Delta^2_h f| is below 1 and underflows at
    # p = 1e6, and the witness's seminorm reads 0
    t = LIP_DELTAS[0]
    phi = LineMap(np.array([-16.0, 0.0, t, 16.0]),
                  np.array([[-16.0 * 2.97, 2.97, 0, 0], [0.0, 5.94, 0, 0], [5.94 * t, 2.97, 0, 0]]), 2.97, 2.97)
    frag = check_nec_lipschitz(MapOnGrid.read(phi, Resolution()), SpaceParams(1.5, 1e6, 2.0, 2))
    assert [d["delta"] for d in frag.values["sweep"]] == list(LIP_DELTAS[1:3])


def test_a_short_profile_is_never_window_limited():
    rising = np.arange(1.0, WINDOW_RUN + 2.0)
    assert _window_limited(np.arange(WINDOW_RUN + 1), rising)
    assert _window_limited(np.arange(WINDOW_RUN + 1), rising[::-1])
    # a profile of WINDOW_RUN translates has too few steps to show growth
    assert not _window_limited(np.arange(WINDOW_RUN), rising[1:])
    assert not _window_limited(np.arange(WINDOW_RUN), rising[1:][::-1])


def test_chain_identity_exact():
    f = sample("gaussian")
    frag = check_sufficiency_chain(MapOnGrid.read(identity_map(), Resolution()), f, SP)
    assert frag.passed
    assert frag.values["residual"] == 0.0


def test_chain_zero_function():
    frag = check_sufficiency_chain(MapOnGrid.read(identity_map(), Resolution()), sample("zero"), SP)
    assert frag.passed
    assert frag.values["lhs"] == 0.0 and frag.values["rhs"] == 0.0


def test_chain_sin_drift_residual():
    frag = check_sufficiency_chain(MapOnGrid.read(sin_drift_map(0.5), Resolution()), sample("gaussian"), SP)
    assert frag.passed
    assert frag.values["residual"] < 1e-4


def kink():
    # phi(x) = x for x < 0 and 2x for x > 0: phi' jumps by 1 at 0
    return LineMap(np.array([-16.0, 0.0, 16.0]), np.array([[-16.0, 1.0, 0, 0], [0.0, 2.0, 0, 0]]), 1.0, 2.0)


def test_chain_requires_c1():
    with pytest.raises(ValueError):
        check_sufficiency_chain(MapOnGrid.read(kink(), Resolution()), sample("gaussian"), SP)


@pytest.mark.parametrize(
    "phi, c1, chain",
    [
        (kink(), False, False),
        # slope 1 on the window, slope 2 past its right edge
        (LineMap(np.array([-16.0, 16.0]), np.array([[-16.0, 1.0, 0, 0]]), 1.0, 2.0), False, False),
        # x + x^2 / 64 on [0, 16]: phi'' jumps at 0, phi' does not
        (LineMap(np.array([-16.0, 0.0, 16.0]), np.array([[-16.0, 1.0, 0, 0], [0.0, 1.0, 1 / 64, 0]]), 1.0, 1.5),
         True, True),
        # C^1, but f o phi is the constant f(0) past the window too
        (affine_map(0.0, 0.0), True, False),
    ],
    ids=["kink", "tail slope 2", "C1 join", "flat"],
)
def test_classify_runs_the_chain_fragment_on_c1_maps_without_a_flat_tail(phi, c1, chain):
    assert phi.c1 is c1
    for sp in (SP, SP_INF):
        rep = classify(phi, sp, res=Resolution(2**11 + 1))
        assert ("sufficiency_chain" in [fr.name for fr in rep.fragments]) is chain


def test_infinity_witness_identity_degenerate():
    mg = MapOnGrid.read(identity_map(), Resolution())
    frag = check_infinity_witness(mg, SP_INF, opnorm_lower_detailed(mg, SP_INF)[0])
    assert frag.passed
    assert frag.values["phiprime_seminorm_direct"] == pytest.approx(0.0, abs=1e-9)
    assert frag.values["lip_reconstructed"] == pytest.approx(1.0, rel=1e-6)


def test_infinity_witness_affine():
    mg = MapOnGrid.read(affine_map(2.0, 1.0), Resolution())
    frag = check_infinity_witness(mg, SP_INF, opnorm_lower_detailed(mg, SP_INF)[0])
    assert frag.passed
    assert frag.values["lip_reconstructed"] == pytest.approx(2.0, rel=0.02)


def test_infinity_witness_off_lattice_range():
    # the shift's range puts a_lo = -13.9 off the 0.25 step of the targets a;
    # no target may pass a_hi = 14, where the cutoff support leaves the window
    phi = named_map("shift:c=2.1")
    mg = MapOnGrid.read(phi, Resolution(2**11 + 1))
    frag = check_infinity_witness(mg, SpaceParams(1.5, math.inf, math.inf, 2), 1.0)
    assert frag.passed
    assert frag.values["lip_reconstructed"] == pytest.approx(1.0, rel=1e-9)


def test_infinity_witness_requires_p_inf():
    with pytest.raises(ValueError):
        check_infinity_witness(MapOnGrid.read(identity_map(), Resolution()), SP, opnorm=1.0)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def test_classify_identity():
    rep = classify(identity_map(), SP)
    assert rep.verdict == "ConsistentBounded"
    assert rep.computed["opnorm_lower"] == pytest.approx(1.0, abs=1e-9)
    assert all(fr.passed for fr in rep.fragments)


def test_classify_sin_drift_bounded():
    rep = classify(sin_drift_map(0.5), SP)
    assert rep.verdict == "ConsistentBounded"
    assert rep.computed["U"] < math.inf
    assert rep.computed["phiprime_unif"] < math.inf


def test_classify_quadratic_window_limited():
    rep = classify(quadratic_map(), SP)
    assert rep.verdict == "Inconclusive"
    assert rep.computed["window_limited"]
    assert "window-limited" in rep.computed["note"]


def test_classify_flat_tail_unbounded():
    rep = classify(flat_right_tail(), SP)
    assert rep.verdict == "ConsistentUnbounded"
    assert math.isinf(rep.computed["U"])


def test_classify_p_inf_route():
    rep = classify(affine_map(2.0, 0.0), SP_INF)
    assert rep.verdict == "ConsistentBounded"
    assert any(fr.name == "infinity_witness" for fr in rep.fragments)


def test_classify_sobolev_route():
    # the route runs on every homeomorphism, read off the segment table; no flag asks for it
    rep = classify(sin_drift_map(0.5), SP, kind="sobolev")
    assert rep.verdict == "ConsistentBounded"
    with pytest.raises(RangeGateError, match="homeomorphism"):
        classify(quadratic_map(), SP, kind="sobolev")


def test_classify_sobolev_refuses_a_flat_piece():
    # monotone but not injective: slope 1, flat on [-1, 1], slope 1
    phi = LineMap(
        np.array([-16.0, -1.0, 1.0, 16.0]),
        np.array([[-16.0, 1.0, 0, 0], [-1.0, 0.0, 0, 0], [-1.0, 1.0, 0, 0]]),
        1.0,
        1.0,
    )
    with pytest.raises(RangeGateError, match="homeomorphism"):
        classify(phi, SP, kind="sobolev", res=Resolution(2**11 + 1))


def test_classify_threads_count_into_fragments():
    count = 2**12 + 1
    phi = named_map("scale:k=2")
    rep = classify(phi, SP, res=Resolution(count))
    frags = {fr.name: fr for fr in rep.fragments}
    bump = besov_norm_diff(unit_bump(0.0, count=count), SP)
    assert frags["nec_U"].values["bump_norm"] == pytest.approx(bump, rel=1e-12)
    lhs = besov_norm_diff(sample_composed(sample("gaussian", count=count), phi), SP)
    assert frags["sufficiency_chain"].values["lhs"] == pytest.approx(lhs, rel=1e-12)
    assert rep.grid["count"] == rep.to_json()["grid"]["count"] == count


def test_classify_open_range_refused():
    with pytest.raises(RangeGateError, match="open case"):
        classify(identity_map(), SpaceParams(1.2, 2.0, 2.0, 2))


def test_corollary_inverse_symmetry():
    phi = sin_drift_map(0.5)
    r1 = classify(phi, SP)
    r2 = classify(inverse_map(phi), SP)
    assert r1.verdict == r2.verdict == "ConsistentBounded"


def test_report_serialization():
    rep = classify(identity_map(), SP)
    blob = rep.to_json()
    assert blob["verdict"] == "ConsistentBounded"
    assert blob["schema_version"] == 1
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(CheckReport.CSV_HEADER.split(","))
    # a map name with commas stays one quoted field
    named = CheckReport(
        map_name="affine(0.5,2.0)", space=SP.as_dict(), kind="besov", computed={"U": 2.0},
        fragments=[], verdict="Inconclusive", tolerances={}, runtime_s=0.0,
        grid={"count": 8193}, seed=1234,
    )
    (header,) = csv.reader([CheckReport.CSV_HEADER])
    for r in (rep, named):
        (fields,) = csv.reader([r.to_csv_row()])
        assert len(fields) == len(header)
        assert fields[header.index("map")] == r.map_name


# ---------------------------------------------------------------------------
# resolution: one grid and one norm cache
# ---------------------------------------------------------------------------

SUITE_SLICE_MAPS = ("sin_drift:amp=0.5", "affine:a=0.5,b=2", "scale:k=0.5")


def test_shared_resolution_gives_the_fresh_reports():
    res = Resolution()
    for spec in SUITE_SLICE_MAPS:
        shared = classify(named_map(spec), SP, res=res)
        assert shared.to_json() == classify(named_map(spec), SP).to_json()
    # a second classify through the filled cache adds no entry
    entries = len(res)
    again = classify(named_map("scale:k=0.5"), SP, res=res)
    assert len(res) == entries
    assert again.to_json() == shared.to_json()


def test_resolution_grid_is_the_sampling_grid():
    res = Resolution(2**10 + 1)
    f = sample("gaussian", res.window, res.count)
    assert res.spacing == f.spacing
    assert np.array_equal(res.x, f.x)


def test_resolution_key_separates_extension_space_and_kind():
    x = np.linspace(-4.0, 4.0, 1025)
    samples = np.exp(-x * x / 8.0)  # nonzero at both window edges
    f_zero = GridFunction(samples, x[1] - x[0], -4.0, Extension.ZERO)
    f_const = GridFunction(samples, x[1] - x[0], -4.0, Extension.CONSTANT)
    low = SpaceParams(1.5, 2.0, 2.0, 3)
    res = Resolution()
    got = [
        res.norm(f_zero, SP, kind="besov_seminorm"),
        res.norm(f_const, SP, kind="besov_seminorm"),
        res.norm(f_zero, low, kind="besov_seminorm"),
        res.norm(f_zero, SP),
        res.norm(f_zero, SP, kind="sobolev"),
    ]
    want = [
        besov_seminorm_diff(f_zero, SP),
        besov_seminorm_diff(f_const, SP),
        besov_seminorm_diff(f_zero, low),
        besov_norm_diff(f_zero, SP),
        sobolev_norm_diff(f_zero, SP.s, SP.p, SP.m, DEFAULT_HGRID),
    ]
    assert got == want
    assert len(set(want)) == len(want)
    assert len(res) == len(want)
    # a hit returns the stored value and adds no entry
    assert res.norm(f_const, SP, kind="besov_seminorm") == want[1]
    assert len(res) == len(want)


# ---------------------------------------------------------------------------
# the per-map reading: phi evaluated on the grid once per classify
# ---------------------------------------------------------------------------

def test_reading_holds_the_per_map_values():
    res = Resolution(2**10 + 1)
    phi = sin_drift_map(0.5)
    mg = MapOnGrid.read(phi, res)
    assert np.array_equal(mg.ys, phi(res.x))
    assert (mg.lip, mg.npre) == (lipschitz_constant(phi), max_preimage_count(phi))
    f = sample("gauss_cos", res.window, res.count)
    assert np.array_equal(mg.compose(f).samples, sample_composed(f, phi).samples)
    fprime = grid_derivative(f)  # no descriptor: interpolated, as compose reads it
    assert np.array_equal(mg.compose(fprime).samples, compose(fprime, phi).samples)
    # a witness sampled off the grid composes on res's grid: its descriptor at
    # ys when it has one, else its interpolant there
    off = sample("gaussian", (-12.0, 20.0), res.count + 1)
    for g, want in ((off, off.descriptor(mg.ys)), (grid_derivative(off), grid_derivative(off)(mg.ys))):
        composed = mg.compose(g)
        assert (composed.count, composed.origin, composed.spacing) == (res.count, res.window[0], res.spacing)
        assert np.array_equal(composed.samples, want)


@pytest.mark.parametrize("sp", [SP, SP_INF], ids=["p=2", "p=inf"])
def test_classify_evaluates_phi_on_the_grid_once(sp, monkeypatch):
    # one CPU: classify runs its phi' half in this process, where the count sees it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    res = Resolution()
    on_grid = []
    call = LineMap.__call__

    def counting(self, xs):
        if np.ndim(xs) == 1 and len(xs) == res.count:
            on_grid.append(self.name)
        return call(self, xs)

    monkeypatch.setattr(LineMap, "__call__", counting)
    classify(named_map("sin_drift:amp=0.5"), sp, res=res)
    assert on_grid == ["sin_drift(0.5)"]


def test_classify_sweeps_U_once(monkeypatch):
    # M's width-1 rung is U itself: U sweeps width 1, and one more sweep
    # covers every other width of the ladder once; one CPU keeps every
    # sweep in this process, where the count sees it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sweeps = []
    sweep = maps._sup_preimage_lengths

    def counting(phi, widths):
        sweeps.append(list(widths))
        return sweep(phi, widths)

    monkeypatch.setattr(maps, "_sup_preimage_lengths", counting)
    rep = classify(named_map("sin_drift:amp=0.5"), SP, res=Resolution(2049))
    assert sweeps == [[1.0], [2.0**-k for k in range(1, maps.M_LEVELS + 1)]]
    assert rep.computed["M_ladder"][0] == [1.0, rep.computed["U"]]
    assert rep.computed["U"] == U_functional(named_map("sin_drift:amp=0.5"))
