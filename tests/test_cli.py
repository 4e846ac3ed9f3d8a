import csv
import json
import math
import warnings

import numpy as np
import pytest

from besovlab.cli import main, parse_fn
from besovlab.grid import DEFAULT_WINDOW, SpaceParams, sample
from besovlab.norms import DyadicHGrid, besov_norm_diff, littlewood_paley_norm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_records(capsys):
    code, out, _ = run(
        capsys,
        "norm",
        "--fn", "gaussian",
        "--space", "s=1.5,p=2,q=2,m=2",
        "--method", "diff,lp",
        "--count", "4097",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == ["diff", "lp"]
    assert all(r["value"] > 0 for r in records)
    assert records[0]["grid"]["count"] == 4097
    ratio = records[0]["value"] / records[1]["value"]
    assert 0.1 < ratio < 10.0


def test_norm_csv_keeps_a_spec_with_commas(tmp_path, capsys):
    path = tmp_path / "norms.csv"
    code, _, _ = run(
        capsys,
        "norm",
        "--fn", "gaussian:center=1,width=2",
        "--space", "s=1.5,p=2,q=2,m=2",
        "--method", "diff,lp",
        "--count", "1025",
        "--csv", str(path),
    )
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["function", "method", "s", "p", "q", "m", "value", "count"]
    assert [len(r) for r in rows] == [8, 8, 8]
    assert [(r[0], r[1], r[7]) for r in rows[1:]] == [
        ("gaussian:center=1,width=2", "diff", "1025"),
        ("gaussian:center=1,width=2", "lp", "1025"),
    ]


def test_norm_zero(capsys):
    code, out, _ = run(capsys, "norm", "--fn", "zero", "--space", "s=1.5,p=2,q=2,m=2")
    assert code == 0
    assert json.loads(out)[0]["value"] == 0.0


def test_stray_bare_item_exit_4_names_it(capsys):
    for argv in (
        ("check", "--map", "shift:c=1,zz", "--space", "s=2.1,p=2,q=2,m=3"),
        ("norm", "--fn", "gaussian", "--space", "s=1.5,p=2,zz"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "expected key=value, got 'zz'" in err


def test_norm_bad_space_exit_4(capsys):
    code, _, err = run(capsys, "norm", "--fn", "gaussian", "--space", "s=1.5,p=2,q=2,m=1")
    assert code == 4
    assert "m > s" in err


def test_norm_unknown_fn_exit_4(capsys):
    code, _, err = run(capsys, "norm", "--fn", "wat", "--space", "s=1.5,p=2,q=2,m=2")
    assert code == 4


def test_norm_unknown_method_exit_4(capsys):
    code, out, err = run(capsys, "norm", "--fn", "gaussian", "--space", "s=1.5,p=2,q=2,m=2", "--method", "diff,nope")
    assert code == 4 and out == ""
    assert "unknown method 'nope'" in err


def test_norm_p_inf(capsys):
    code, out, _ = run(
        capsys, "norm", "--fn", "gaussian", "--space", "s=1.5,p=inf,q=inf,m=2",
        "--count", "4097",
    )
    assert code == 0
    assert json.loads(out)[0]["value"] > 0


def test_map_identity(capsys):
    code, out, _ = run(capsys, "map", "--map", "identity", "--target", "0,1")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["U"] == pytest.approx(1.0, abs=1e-9)
    assert rec["M"] == pytest.approx(1.0, abs=1e-9)
    assert rec["lip"] == 1.0
    assert rec["max_preimage"] == 1
    assert len(rec["preimage"]) == 1


def test_split_roundtrip(tmp_path, capsys):
    fam = [[0.0, 1.0], [0.5, 1.5], [1.0, 2.0]]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, out, _ = run(capsys, "split", "--family", str(path))
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["degree"] == 3
    assert rec["classes"] == [[0], [1], [2]]
    assert rec["bound_ok"]


def test_split_reads_an_empty_family(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text("[]")
    code, out, _ = run(capsys, "split", "--family", str(path))
    assert code == 0
    rec = json.loads(out)[0]
    assert (rec["n"], rec["degree"], rec["classes"], rec["bound_ok"]) == (0, 0, [], True)


def test_split_refuses_a_flat_pair(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "split", "--family", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("config error:") and "(n, 2)" in err


@pytest.mark.parametrize("text", ["{}", '"[[0, 1]]"', '[[0, {"r": 1}]]'], ids=["object", "string", "object end"])
def test_split_refuses_a_family_that_is_not_a_list_of_pairs(text, tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(text)
    code, out, err = run(capsys, "split", "--family", str(path))
    assert (code, out) == (4, "")
    assert err.startswith("config error:") and "--family" in err


def test_check_identity(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "check",
        "--map", "identity",
        "--space", "s=2.1,p=2,q=2,m=3",
        "--json", str(jpath),
        "--csv", str(cpath),
    )
    assert code == 0
    rec = json.loads(jpath.read_text())[0]
    assert rec["verdict"] == "ConsistentBounded"
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("schema_version,")


def test_check_open_range_exit_3(capsys):
    code, _, err = run(capsys, "check", "--map", "identity", "--space", "s=1.2,p=2,q=2,m=2")
    assert code == 3
    assert "open case" in err


def test_check_sobolev_below_its_range_exit_3(capsys):
    code, _, err = run(capsys, "check", "--map", "identity", "--space", "s=1.5,p=2,q=2,m=2", "--kind", "sobolev")
    assert code == 3
    assert "Sobolev route requires s > 1 + 1/p" in err


def test_check_sobolev_flat_piece_exit_3(tmp_path, capsys):
    pieces = [([-16, -1], [-16, 1, 0, 0]), ([-1, 1], [-1, 0, 0, 0]), ([1, 16], [-1, 1, 0, 0])]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"pieces": [{"interval": i, "coeffs": c} for i, c in pieces]}))
    code, _, err = run(
        capsys, "check", "--map", str(path), "--space", "s=2.1,p=2,q=2,m=3",
        "--kind", "sobolev", "--count", "2049",
    )
    assert code == 3
    assert "homeomorphism" in err


def test_check_refuses_a_count_too_coarse_for_the_witness_family(capsys):
    # eta(0.1) needs 2 * dx <= 0.1, so 32 / (count - 1) <= 0.05
    code, _, err = run(capsys, "check", "--map", "identity", "--space", "s=2.1,p=2,q=2,m=3", "--count", "513")
    assert code == 4
    assert "count = 513" in err and "smallest count that resolves it is 641" in err


def test_check_runs_at_the_smallest_count_the_family_allows(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "check", "--map", "identity", "--space", "s=2.1,p=2,q=2,m=3", "--count", "641", "--json", str(out),
    )
    assert "config error" not in err and code in (0, 2)
    assert json.loads(out.read_text())[0]["grid"]["count"] == 641


def test_check_refuses_a_difference_order_that_leaves_no_psi_translate(tmp_path, capsys):
    # phi' is read in the space one order lower: m - 1 = 16 needs [z-17, z+17]
    # inside [-16, 16]; m - 1 = 15 leaves z = 0
    code, _, err = run(capsys, "check", "--map", "identity", "--space", "s=2.1,p=2,q=2,m=17", "--count", "2049")
    assert code == 4
    assert err.startswith("config error:") and "m = 16" in err and "window [-16.0, 16.0]" in err
    out = tmp_path / "report.json"
    code, _, err = run(capsys, "check", "--map", "identity", "--space", "s=2.1,p=2,q=2,m=16", "--count", "2049",
                       "--json", str(out))
    assert "config error" not in err and code in (0, 2)
    assert math.isfinite(json.loads(out.read_text())[0]["computed"]["phiprime_unif"])


def test_check_flat_map_reads_unbounded(tmp_path, capsys):
    # constant on its window, flat tails too: every other value is regular
    # with no preimage, and U is infinite
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "pieces": [{"interval": [-16, 16], "coeffs": [0, 0, 0, 0]}],
        "tails": {"left_slope": 0, "right_slope": 0},
    }))
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "check", "--map", str(path), "--space", "s=2.1,p=2,q=2,m=3", "--count", "2049", "--json", str(out),
    )
    assert "config error" not in err
    report = json.loads(out.read_text())[0]
    assert report["verdict"] == "ConsistentUnbounded"
    assert report["computed"]["max_preimage"] == 0 and report["computed"]["U"] == float("inf")
    assert code == 2  # nec_U fails: U is infinite
    code, out_text, _ = run(capsys, "map", "--map", str(path))
    assert code == 0 and json.loads(out_text)[0]["max_preimage"] == 0


def test_check_flat_map_at_p_inf_is_bounded(tmp_path, capsys):
    # at p = inf f o phi is the constant f(0), so U = inf does not make the
    # verdict, and the Lipschitz stage skips the targets holding the flat
    # tails' value instead of refusing the map
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "pieces": [{"interval": [-16, 16], "coeffs": [0, 0, 0, 0]}],
        "tails": {"left_slope": 0, "right_slope": 0},
    }))
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "check", "--map", str(path), "--space", "s=1.5,p=inf,q=2,m=2", "--count", "2049", "--json", str(out),
    )
    assert (code, err) == (0, "")
    report = json.loads(out.read_text())[0]
    assert report["verdict"] == "ConsistentBounded"
    (frag,) = report["fragments"]
    assert frag["values"]["lip_reconstructed"] == 0.0 and frag["values"]["phiprime_seminorm_direct"] == 0.0


def test_check_short_map_window_reads_like_its_map(tmp_path, capsys):
    # the identity written as one piece on [-2, 2]: its own window holds no
    # multiplier translate, so phi' is sampled over the grid's window too,
    # where the tails give phi' = 1 exactly
    path = tmp_path / "id4.json"
    path.write_text(json.dumps({
        "pieces": [{"interval": [-2, 2], "coeffs": [-2, 1, 0, 0]}],
        "tails": {"left_slope": 1, "right_slope": 1},
    }))
    reports = []
    for spec in (str(path), "identity"):
        out = tmp_path / "report.json"
        code, _, err = run(
            capsys, "check", "--map", spec, "--space", "s=2.1,p=2,q=2,m=3", "--count", "2049", "--json", str(out),
        )
        assert (code, err) == (0, "")
        reports.append(json.loads(out.read_text())[0])
    short, identity = reports
    assert short["verdict"] == "ConsistentBounded"
    for key in ("phiprime_unif", "phiprime_mult_lower", "phiprime_msq_lower"):
        assert short["computed"][key] == identity["computed"][key]


def test_check_wide_map_window_reads_nec_lipschitz_like_its_map(tmp_path, capsys):
    # 2x written as one piece on [-40, 40], wider than the grid's [-16, 16]:
    # the ramp witness is built at a steepest point inside both windows, as
    # for scale(2) on its own window
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "pieces": [{"interval": [-40, 40], "coeffs": [-80, 2, 0, 0]}],
        "tails": {"left_slope": 2, "right_slope": 2},
    }))
    implied = []
    for spec in (str(path), "scale:k=2"):
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "check", "--map", spec, "--space", "s=2.1,p=2,q=2,m=3", "--json", str(out))
        report = json.loads(out.read_text())[0]
        assert (code, err, report["verdict"]) == (0, "", "ConsistentBounded")
        (frag,) = [fr for fr in report["fragments"] if fr["name"] == "nec_lipschitz"]
        assert frag["passed"] and not frag["vacuous"]
        implied.append(frag["values"]["implied_lip"])
    wide, scale = implied
    assert wide == pytest.approx(scale, rel=0.0, abs=1e-9)


def test_check_p_inf_m3_zigzag_vacuous(tmp_path, capsys):
    # the m - 1 = 2 zigzag needs a window of length 64; the default one is 32.
    # The Lipschitz stage alone does not make the map ConsistentBounded.
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "check", "--map", "sin_drift:amp=0.5", "--space", "s=2.1,p=inf,q=2,m=3",
        "--count", "2049", "--json", str(out),
    )
    assert code == 2 and "config error" not in err
    report = json.loads(out.read_text())[0]
    assert report["verdict"] == "Inconclusive"
    assert report["computed"]["note"] == "failed fragments: infinity_witness"
    (frag,) = [fr for fr in report["fragments"] if fr["name"] == "infinity_witness"]
    assert frag["vacuous"] and not frag["passed"]
    assert frag["note"].startswith("zigzag stage not evaluated")
    assert "two 8m-periods" in frag["note"] and "64" in frag["note"]
    assert "zigzag_bound" not in frag["values"]


def test_check_sobolev_runs_without_a_flag(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "check", "--map", "sin_drift", "--space", "s=2.1,p=2,q=2,m=3",
        "--kind", "sobolev", "--count", "2049", "--json", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text())[0]["verdict"] == "ConsistentBounded"
    # the removed --homeo is a usage error
    code, _, err = run(
        capsys, "check", "--map", "sin_drift", "--space", "s=2.1,p=2,q=2,m=3", "--kind", "sobolev", "--homeo"
    )
    assert code == 4
    assert "--homeo" in err


@pytest.mark.parametrize(
    "tails, chain", [((1, 2), True), ((1, 1), False)], ids=["C1 with no flag", "a tail meets the window with slope 1"]
)
def test_check_reads_c1_from_the_map_file_pieces(tails, chain, tmp_path, capsys):
    # x on [-16, 0], x + x^2 / 32 on [0, 16]: phi' is 1 at 0 from both sides and 2 at 16
    path = tmp_path / "join.json"
    path.write_text(json.dumps({
        "pieces": [{"interval": [-16, 0], "coeffs": [-16, 1, 0, 0]}, {"interval": [0, 16], "coeffs": [0, 1, 1 / 32, 0]}],
        "tails": {"left_slope": tails[0], "right_slope": tails[1]},
    }))
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "check", "--map", str(path), "--space", "s=2.1,p=2,q=2,m=3", "--count", "2049", "--json", str(out),
    )
    assert code in (0, 2) and "config error" not in err
    names = [fr["name"] for fr in json.loads(out.read_text())[0]["fragments"]]
    assert ("sufficiency_chain" in names) is chain


# each malformed map file is refused with the key it names
PIECE = {"interval": [-1, 1], "coeffs": [0, 1, 0, 0]}
BAD_MAP_FILE = {
    "no pieces": ({"tails": {}}, "'pieces'"),
    "pieces empty": ({"pieces": []}, "'pieces'"),
    "a top-level list": ([PIECE], "'pieces'"),
    "a piece without coeffs": ({"pieces": [{"interval": [-1, 1]}]}, "'coeffs'"),
    "a piece without interval": ({"pieces": [{"coeffs": [0, 1, 0, 0]}]}, "'interval'"),
    "tails a list": ({"pieces": [PIECE], "tails": []}, "'tails'"),
    "a null tail slope": ({"pieces": [PIECE], "tails": {"left_slope": None}}, "'tails'"),
    "an interval with null": ({"pieces": [{"interval": [None, 1], "coeffs": [0, 1, 0, 0]}]}, "'interval'"),
    "c1 a string": ({"pieces": [PIECE], "c1": "false"}, "'c1'"),
    "c1 left from older files": ({"pieces": [PIECE], "c1": True}, "'c1'"),
    "tail for tails": ({"pieces": [PIECE], "tail": {"left_slope": 2, "right_slope": 2}}, "'tail'"),
    "an undeclared piece key": ({"pieces": [dict(PIECE, c1=True)]}, "'c1'"),
    "an undeclared tails key": ({"pieces": [PIECE], "tails": {"left_slope": 2, "right": 2}}, "'right'"),
    "a gap between pieces": ({"pieces": [PIECE, {"interval": [2, 3], "coeffs": [2, 1, 0, 0]}]}, "'interval'"),
    "a NaN tail slope": ({"pieces": [PIECE], "tails": {"left_slope": math.nan}}, "'left_slope'"),
    "an infinite tail slope": ({"pieces": [PIECE], "tails": {"right_slope": -math.inf}}, "'right_slope'"),
    "an infinite breakpoint": ({"pieces": [{"interval": [-1, math.inf], "coeffs": [0, 1, 0, 0]}]}, "'breakpoints'"),
    "a NaN coefficient": ({"pieces": [{"interval": [-1, 1], "coeffs": [0, 1, math.nan, 0]}]}, "'coeffs'"),
}


@pytest.mark.parametrize("case", list(BAD_MAP_FILE))
def test_bad_map_file_exit_4(case, tmp_path, capsys):
    obj, key = BAD_MAP_FILE[case]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "map", "--map", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("config error:") and key in err


# check refuses a non-finite map before it samples anything, naming the field
NON_FINITE_CHECK = {
    "a map file with a NaN tail slope": ("{path}", "'left_slope'"),
    "scale:k=nan": ("scale:k=nan", "'coeffs'"),
    "affine:a=1,b=inf": ("affine:a=1,b=inf", "'coeffs'"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CHECK))
def test_check_non_finite_map_exit_4(case, tmp_path, capsys):
    spec, key = NON_FINITE_CHECK[case]
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"pieces": [PIECE], "tails": {"left_slope": math.nan}}))
    code, out, err = run(capsys, "check", "--map", spec.format(path=path), "--space", "s=2.1,p=2,q=2,m=3")
    assert code == 4
    assert out == ""
    assert err.startswith("config error:") and key in err


def test_suite_runs_and_is_deterministic(tmp_path, capsys):
    cfg = {
        "seed": 77,
        "count": 2**12 + 1,
        "space": {"s": 2.1, "p": 2.0, "q": 2.0, "m": 3},
        "maps": ["identity", "scale:k=2"],
    }
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1, _, _ = run(capsys, "suite", "--config", str(cfg_path), "--out", str(out1))
    code2, _, _ = run(capsys, "suite", "--config", str(cfg_path), "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert (out1 / "records.json").read_bytes() == (out2 / "records.json").read_bytes()
    rows = (out1 / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    meta = json.loads((out1 / "meta.json").read_text())
    assert "runtime_s" in meta


# each input names a key (or an item) its spec does not declare
REFUSED = {
    "scale:3": (["map", "--map", "scale:3"], "'3'"),
    "scale:kk=3": (["map", "--map", "scale:kk=3"], "'kk'"),
    "shift:c=1,zz=4": (["map", "--map", "shift:c=1,zz=4"], "'zz'"),
    "identity:k=5": (["map", "--map", "identity:k=5"], "'k'"),
    "gaussian:centre=3": (["norm", "--fn", "gaussian:centre=3", "--space", "s=1.5,p=2"], "'centre'"),
    "space Q=5": (["norm", "--fn", "gaussian", "--space", "s=1.5,p=2,Q=5"], "'Q'"),
    "suite cout": (["suite", "--config", "{config}", "--out", "{out}"], "'cout'"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_undeclared_spec_key_exit_4(case, tmp_path, capsys):
    argv, key = REFUSED[case]
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"space": {"s": 2.1, "p": 2.0, "q": 2.0, "m": 3}, "maps": ["identity"], "cout": 2049}))
    argv = [a.format(config=config, out=tmp_path / "out") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert key in err


def test_norm_table_list_value_matches_in_process(capsys):
    points = [[-1, 0], [0, 1], [1, 0]]
    code, out, _ = run(
        capsys,
        "norm",
        "--fn", "table:points=[[-1,0],[0,1],[1,0]]",
        "--space", "s=0.5,p=2,q=2,m=1",
        "--method", "diff,lp",
        "--count", "1025",
    )
    assert code == 0
    f = sample("table", DEFAULT_WINDOW, 1025, points=points)
    sp = SpaceParams(0.5, 2.0, 2.0, 1)
    values = [r["value"] for r in json.loads(out)]
    assert values == [besov_norm_diff(f, sp, DyadicHGrid(levels=10)), littlewood_paley_norm(f, sp)]


def test_parse_fn_poly_list_value():
    f = parse_fn("poly:coeffs=[1,2,3]", DEFAULT_WINDOW, 257)
    g = sample("poly", DEFAULT_WINDOW, 257, coeffs=[1, 2, 3])
    assert np.array_equal(f.samples, g.samples)
    assert f.extension is g.extension


@pytest.mark.parametrize(
    "argv, option",
    [
        (["norm", "--fn", "gaussian", "--space", "s=1.5,p=2", "--window", "1,2,3"], "--window"),
        (["map", "--map", "identity", "--target", "0,1,5"], "--target"),
        (["map", "--map", "identity", "--target", "0"], "--target"),
    ],
)
def test_pair_option_needs_two_values_exit_4(argv, option, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert option in err and "two values" in err


NON_FINITE_INPUT = {
    "map --target nan,1": (["map", "--map", "identity", "--target", "nan,1"], "target"),
    "split with a NaN end": (["split", "--family", "{family}"], "NaN"),
    "norm --window 0,inf": (["norm", "--fn", "gaussian", "--space", "s=1.5,p=2", "--window", "0,inf"], "window"),
    "norm --fn bump:center=inf": (["norm", "--fn", "bump:center=inf", "--space", "s=1.5,p=2"], "center=inf"),
    "norm --fn gaussian:center=nan": (["norm", "--fn", "gaussian:center=nan", "--space", "s=1.5,p=2"], "center=nan"),
    "norm --fn bump:width=inf": (["norm", "--fn", "bump:width=inf", "--space", "s=1.5,p=2"], "width=inf"),
    "norm --fn gaussian:width=1e999": (["norm", "--fn", "gaussian:width=1e999", "--space", "s=1.5,p=2"], "width"),
    "norm --fn const:value=-Infinity": (["norm", "--fn", "const:value=-Infinity", "--space", "s=1.5,p=2"], "value"),
    "norm --fn poly:coeffs=[1,NaN]": (["norm", "--fn", "poly:coeffs=[1,NaN]", "--space", "s=1.5,p=2"], "coeffs"),
    "norm --fn table with an inf point": (
        ["norm", "--fn", "table:points=[[0,1],[1,Infinity]]", "--space", "s=1.5,p=2"], "points"
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE_INPUT))
def test_non_finite_input_exit_4(case, tmp_path, capsys):
    argv, name = NON_FINITE_INPUT[case]
    family = tmp_path / "family.json"
    family.write_text("[[NaN, 1], [0, 2], [0.5, 3]]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        code, out, err = run(capsys, *(arg.format(family=family) for arg in argv))
    assert code == 4
    assert out == ""
    assert err.startswith("config error:") and name in err


@pytest.mark.parametrize("fn, key", [("poly:coeffs=[]", "coeffs"), ("gaussian:width=0", "width"),
                                     ("bump:width=0", "width"), ("bump:width=-1", "width"),
                                     ("indicator:a=1,b=0", "a"), ("indicator:a=1,b=1", "b"),
                                     ("table:points=[[0,1],[0,2]]", "x"), ("table:points=[[1,0],[0,1],[1,2]]", "x")])
def test_norm_refuses_a_degenerate_descriptor(fn, key, capsys):
    code, out, err = run(capsys, "norm", "--fn", fn, "--space", "s=1.5,p=2", "--count", "513")
    assert (code, out) == (4, "")
    assert err.startswith("config error:") and f"{key}=" in err


@pytest.mark.parametrize("count, space", [(2, "s=1.5,p=2"), (3, "s=1.5,p=2"), (3, "s=1.5,p=3"), (3, "s=1.5,p=2,q=inf")])
def test_norm_lp_refuses_a_grid_with_no_dyadic_band(count, space, capsys):
    code, out, err = run(capsys, "norm", "--fn", "gaussian", "--space", space, "--method", "lp", "--count", str(count))
    assert (code, out) == (4, "")
    assert err.startswith("config error:") and "too coarse" in err
    # the difference norm refuses the same grid the same way
    assert run(capsys, "norm", "--fn", "gaussian", "--space", space, "--count", str(count))[0] == 4


def test_norm_refuses_an_int_past_float_range(capsys):
    code, out, err = run(capsys, "norm", "--fn", "gaussian:width=1" + "0" * 400, "--space", "s=1.5,p=2")
    assert (code, out) == (4, "")
    assert err.startswith("config error:") and "too large" in err


def test_finite_fn_parameters_keep_their_values(capsys):
    code, out, err = run(capsys, "norm", "--fn", "bump:center=0.5,width=2", "--space", "s=1.5,p=2", "--count", "513")
    assert (code, err) == (0, "")
    want = besov_norm_diff(sample("bump", count=513, center=0.5, width=2.0), SpaceParams(1.5, 2.0, 2.0, 2))
    assert json.loads(out)[0]["value"] == want


def test_map_target_may_end_at_infinity(capsys):
    code, out, _ = run(capsys, "map", "--map", "identity", "--target", "0,inf")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["target"] == [0.0, math.inf]
    [(lo, hi)] = rec["preimage"]
    assert lo == pytest.approx(0.0, abs=1e-9) and hi == DEFAULT_WINDOW[1]


@pytest.mark.parametrize("form", ["space", "equals"])
def test_pair_values_may_start_with_a_minus(form, capsys):
    def pair(option, value):
        return [option, value] if form == "space" else [f"{option}={value}"]

    code, out, err = run(capsys, "norm", "--fn", "gaussian", "--space", "s=1.5,p=2", "--count", "513",
                         *pair("--window", "-8,8"))
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["grid"]["window"] == [-8.0, 8.0]
    code, out, err = run(capsys, "map", "--map", "identity", *pair("--target", "-1,0"))
    assert (code, err) == (0, "")
    rec = json.loads(out)[0]
    assert rec["target"] == [-1.0, 0.0]
    [(lo, hi)] = rec["preimage"]
    assert lo == pytest.approx(-1.0, abs=1e-9) and hi == pytest.approx(0.0, abs=1e-9)


USAGE_ERRORS = {
    "a removed flag": ["norm", "--fn", "gaussian", "--space", "s=1.5,p=2", "--levels", "5"],
    "a missing required flag": ["check", "--map", "identity"],
    "an unknown command": ["classify"],
    "no command": [],
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_exit_4(case, capsys):
    code, out, err = run(capsys, *USAGE_ERRORS[case])
    assert code == 4
    assert out == ""
    assert err.startswith("usage: besovlab") and "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["top", "check"])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: besovlab")


SUITE_SPACE = {"s": 2.1, "p": 2.0, "q": 2.0, "m": 3}


def test_suite_records_equal_the_check_records(tmp_path, capsys):
    """The suite's records.json is each map's `check` record, in sorted
    order: a record does not depend on how the suite schedules its maps or
    on the norm memo they share."""
    maps = ["sin_drift:amp=0.5", "affine:a=0.5,b=2", "scale:k=0.5"]
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"space": SUITE_SPACE, "maps": maps}))
    run(capsys, "suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite"))
    records = []
    for i, spec in enumerate(sorted(maps)):
        path = tmp_path / f"check{i}.json"
        run(capsys, "check", "--map", spec, "--space", "s=2.1,p=2,q=2,m=3", "--json", str(path))
        records += json.loads(path.read_text())
    want = json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "suite" / "records.json").read_text() == want


# each suite config field is refused with the key it names
BAD_SUITE = {
    "no maps": ({"maps": []}, "maps"),
    "maps a string": ({"maps": "identity"}, "maps"),
    "maps with a number": ({"maps": ["identity", 2]}, "maps"),
    "a map twice": ({"maps": ["identity", "scale:k=2", "identity"]}, "maps"),
    # two specs that build maps of one name, both named
    "one map, two specs": (
        {"maps": ["identity", " identity"]}, "maps ' identity' and 'identity' both build the map 'identity'"
    ),
    "one affine map, two key orders": (
        {"maps": ["affine:b=2,a=0.5", "shift:c=1", "affine:a=0.5,b=2"]},
        "maps 'affine:a=0.5,b=2' and 'affine:b=2,a=0.5' both build the map 'affine(0.5,2.0)'",
    ),
    # three specs, three names, one window, pieces and tails: the first two specs are named
    "one map, three names": (
        {"maps": ["scale:k=2.0", "affine:a=2,b=0", "scale:k=2"]},
        "maps 'affine:a=2,b=0' and 'scale:k=2' both build the map 'affine(2.0,0.0)'",
    ),
    "one scale map, two names": (
        {"maps": ["scale:k=2.0", "scale:k=2"]}, "maps 'scale:k=2' and 'scale:k=2.0' both build the map 'scale(2)'"
    ),
    "kind foo": ({"kind": "foo"}, "kind"),
    "count 1025.7": ({"count": 1025.7}, "count"),
    "count a string": ({"count": "1025"}, "count"),
    "count 1": ({"count": 1}, "count"),
    "homeo is not a key": ({"kind": "sobolev", "homeo": True}, "'homeo'"),
    "space s a string": ({"space": dict(SUITE_SPACE, s="2.1")}, "'s'"),
    "space m a bool": ({"space": dict(SUITE_SPACE, m=True)}, "'m'"),
    "space q a bool": ({"space": dict(SUITE_SPACE, q=True)}, "'q'"),
}


@pytest.mark.parametrize("case", list(BAD_SUITE))
def test_bad_suite_config_exit_4(case, tmp_path, capsys):
    fields, key = BAD_SUITE[case]
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"space": SUITE_SPACE, "maps": ["identity"], "count": 1025, **fields}))
    code, _, err = run(capsys, "suite", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 4
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()
