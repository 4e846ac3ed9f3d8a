"""Command-line orchestration: norm, map, split, check, suite.

Exit codes: 0 all checks passed, 2 a check failed, 3 refused parameter
range, 4 config or usage error. All reports are reproducible from config
+ seed; timestamps live only in the separate meta output so record files
are byte-identical across reruns. The suite classifies its maps in sorted
order in one theorems.classify_maps call, on one theorems.Resolution (the
grid and the norm cache) and with one worker for the phi' halves.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from .grid import (
    DEFAULT_COUNT, DEFAULT_WINDOW, SpaceParams, call_declared, is_json_number, parse_items, parse_spec, sample
)
from .maps import (
    M_functional,
    U_functional,
    lipschitz_constant,
    max_preimage_count,
    named_map,
    preimage_intervals,
)
from .norms import (
    DEFAULT_HGRID,
    besov_norm_diff,
    littlewood_paley_norm,
    sobolev_norm_diff,
    sobolev_norm_fourier,
)
from .splitting import IntervalFamily, intersection_degree, split_partition
from .theorems import CheckReport, RangeGateError, Resolution, classify, classify_maps

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_REFUSED_RANGE = 3
EXIT_CONFIG = 4
KINDS = ("besov", "sobolev")


def _space(s, p, q=2.0, m=2):
    return SpaceParams(float(s), float(p), float(q), int(m))


def parse_space(text: str) -> SpaceParams:
    return call_declared("space", _space, parse_items(text))


def _spec_value(key: str, text: str):
    """A --fn value: JSON (numbers, lists) or a bare float such as 1e-3. A
    non-finite number (inf, NaN, 1e999, [1, NaN]) is refused by its key."""
    def finite(number: str) -> float:
        if not np.isfinite(value := float(number)):
            raise ValueError(f"--fn parameter {key}={text} must be finite")
        return value

    try:
        return json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError:
        return finite(text)


def parse_fn(text: str, window, count):
    name, params = parse_spec(text)
    try:
        return sample(name, window, count, **{k: _spec_value(k, v) for k, v in params.items()})
    except (TypeError, OverflowError) as exc:  # a value of the wrong type (center=[1]) or an int past float range
        raise ValueError(str(exc)) from exc


def _pair(option: str, text: str) -> tuple[float, float]:
    """The two numbers of ``--option a,b``."""
    values = text.split(",")
    if len(values) != 2:
        raise ValueError(f"--{option} needs two values a,b, got {text!r}")
    return float(values[0]), float(values[1])


def _attach_pair_values(argv: list) -> list:
    """``--window -8,8`` as ``--window=-8,8``: argparse takes a value that
    starts with '-' and is not a plain number for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--window", "--target") and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _np_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_records(records: list, path=None):
    text = json.dumps(records, indent=2, sort_keys=True, default=_np_default)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# --method name -> norm of (f, sp, hg)
METHODS = {
    "diff": lambda f, sp, hg: besov_norm_diff(f, sp, hg),
    "lp": lambda f, sp, hg: littlewood_paley_norm(f, sp),
    "sobolev_fourier": lambda f, sp, hg: sobolev_norm_fourier(f, sp.s, sp.p),
    "sobolev_diff": lambda f, sp, hg: sobolev_norm_diff(f, sp.s, sp.p, sp.m, hg),
}


def cmd_norm(args) -> int:
    window = _pair("window", args.window)
    sp = parse_space(args.space)
    methods = [m.strip() for m in args.method.split(",")]
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r} (choose from {tuple(METHODS)})")
    f = parse_fn(args.fn, window, args.count)
    records = [
        {
            "function": args.fn,
            "space": sp.as_dict(),
            "method": method,
            "value": METHODS[method](f, sp, DEFAULT_HGRID),
            "grid": {"count": args.count, "window": list(window), "K": DEFAULT_HGRID.levels},
        }
        for method in methods
    ]
    _dump_records(records, args.json)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["function", "method", "s", "p", "q", "m", "value", "count"])
            for r in records:
                s = r["space"]
                writer.writerow([r["function"], r["method"], s["s"], s["p"], s["q"], s["m"], r["value"], args.count])
    return EXIT_OK


def cmd_map(args) -> int:
    phi = named_map(args.map)
    uval = U_functional(phi)
    mest = M_functional(phi, uval)
    record = {
        "map": phi.name,
        "U": uval,
        "M": None if mest.infinite else mest.value,
        "M_infinite": mest.infinite,
        "M_ladder": [list(p) for p in zip(mest.widths, mest.sups)],
        "lip": lipschitz_constant(phi),
        "max_preimage": max_preimage_count(phi),
    }
    if args.target:
        lo, hi = _pair("target", args.target)
        record["target"] = [lo, hi]
        record["preimage"] = preimage_intervals(phi, (lo, hi)).to_json()
    _dump_records([record], args.json)
    return EXIT_OK


def cmd_split(args) -> int:
    with open(args.family) as fh:
        pairs = json.load(fh)
    if not isinstance(pairs, list):
        raise ValueError(f"--family must hold a JSON list of [l, r] pairs, not {json.dumps(pairs)[:40]}")
    try:
        # [] is the empty family, which np.asarray would read as shape (0,)
        fam = IntervalFamily(np.asarray(pairs, dtype=float) if pairs != [] else np.empty((0, 2)))
    except TypeError as exc:  # an end that is an object or a list of them
        raise ValueError(f"--family: {exc}") from exc
    degree = intersection_degree(fam)
    part = split_partition(fam)
    record = {"n": len(fam), "degree": degree, **part.to_json(), "bound_ok": part.count <= degree + 1}
    _dump_records([record], args.json)
    return EXIT_OK if record["bound_ok"] else EXIT_CHECK_FAILED


def _write_summary(path, reports):
    with open(path, "w") as fh:
        fh.write(CheckReport.CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.to_csv_row() + "\n")


def cmd_check(args) -> int:
    sp = parse_space(args.space)
    report = classify(
        named_map(args.map), sp, kind=args.kind, seed=args.seed, res=Resolution(args.count)
    )
    _dump_records([report.to_json()], args.json)
    if args.csv:
        _write_summary(args.csv, [report])
    failed = any(not fr.passed for fr in report.fragments)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


DEFAULT_SUITE = {
    "seed": 1234,
    "count": DEFAULT_COUNT,
    "space": {"s": 2.1, "p": 2.0, "q": 2.0, "m": 3},
    "kind": "besov",
    "maps": [
        "identity",
        "shift:c=1",
        "scale:k=2",
        "scale:k=0.5",
        "scale:k=3",
        "affine:a=0.5,b=2",
        "sin_drift:amp=0.5",
        "sin_drift:amp=0.25",
    ],
}


def _suite_settings(space, maps, seed=1234, count=DEFAULT_COUNT, kind="besov"):
    """The suite config's fields, with their defaults; the maps come built,
    in sorted spec order, no two with one name or one window, pieces and tails."""
    if not isinstance(maps, list) or not maps or not all(isinstance(spec, str) for spec in maps):
        raise ValueError(f"suite config: maps must be a nonempty list of map specs, got {maps!r}")
    if kind not in KINDS:
        raise ValueError(f"suite config: kind must be one of {KINDS}, got {kind!r}")
    for key, value in (("seed", seed), ("count", count)):
        if type(value) is not int:
            raise ValueError(f"suite config: {key} must be an integer, got {value!r}")
    for key, value in space.items() if isinstance(space, dict) else ():
        if not is_json_number(value):
            raise ValueError(f"suite config: space key {key!r} must be a number, got {value!r}")
    specs = sorted(maps)
    phis = [named_map(spec) for spec in specs]
    built = ("breakpoints", "coeffs", "left_slope", "right_slope")  # the window, pieces and tails
    for i, phi in enumerate(phis):
        for first, other in zip(specs, phis[:i]):
            if other.name == phi.name or all(np.array_equal(getattr(other, a), getattr(phi, a)) for a in built):
                raise ValueError(f"suite config: maps {first!r} and {specs[i]!r} both build the map {other.name!r}")
    return call_declared("suite space", SpaceParams, space), phis, seed, count, kind


def cmd_suite(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    else:
        cfg = DEFAULT_SUITE
    sp, phis, seed, count, kind = call_declared("suite config", _suite_settings, cfg)
    res = Resolution(count)  # one grid and norm cache for the whole run
    os.makedirs(args.out, exist_ok=True)
    started = time.time()
    ordered = classify_maps(phis, sp, kind=kind, seed=seed, res=res)

    records_path = os.path.join(args.out, "records.json")
    _dump_records([r.to_json() for r in ordered], records_path)
    _write_summary(os.path.join(args.out, "summary.csv"), ordered)
    meta = {
        "started": started,
        "finished": time.time(),
        "runtime_s": {r.map_name: r.runtime_s for r in ordered},
        # the worker's wall_s, cpu_s on the map's phi' half and the caller's wait_s; null where shared or in the caller
        "worker": {r.map_name: r.worker for r in ordered},
        "config": cfg,
    }
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    n_failed = sum(1 for r in ordered for fr in r.fragments if not fr.passed)
    verdicts = {r.map_name: r.verdict for r in ordered}
    print(json.dumps({"rows": len(ordered), "failed_fragments": n_failed, "verdicts": verdicts}, indent=2, sort_keys=True))
    return EXIT_CHECK_FAILED if n_failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="besovlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="compute norms of a catalog function")
    p.add_argument("--fn", required=True, help="descriptor, e.g. gaussian or bump:center=1")
    p.add_argument("--space", required=True, help="e.g. s=1.5,p=2,q=2,m=2 (inf allowed)")
    p.add_argument("--method", default="diff", help=f"comma list from {tuple(METHODS)}")
    p.add_argument("--count", type=int, default=DEFAULT_COUNT)
    p.add_argument("--window", default=f"{DEFAULT_WINDOW[0]},{DEFAULT_WINDOW[1]}")
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("map", help="geometric functionals of a line map")
    p.add_argument("--map", required=True, help="e.g. identity, scale:k=2, or file.json")
    p.add_argument("--target", default=None, help="a,b for a preimage decomposition")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("split", help="greedy disjoint partition of an interval family")
    p.add_argument("--family", required=True, help="JSON file: [[l, r], ...]")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("check", help="classify one (map, space) pair")
    p.add_argument("--map", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--kind", choices=KINDS, default="besov")
    p.add_argument("--count", type=int, default=DEFAULT_COUNT)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("suite", help="run a regression suite of checks")
    p.add_argument("--config", default=None, help="JSON config; omit for the default suite")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_suite)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_pair_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 0 after --help, 2 (a failed check's code) after a usage error
        if exc.code == 0:
            raise
        return EXIT_CONFIG
    try:
        return args.func(args)
    except RangeGateError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED_RANGE
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
