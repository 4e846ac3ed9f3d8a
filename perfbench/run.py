#!/usr/bin/env python3
"""Layered benchmark of besovlab, run from the root of a source checkout.

    python3 perfbench/run.py --workload suite_slice --seed 1 --seconds 20 --trace 0

Imports besovlab from ``src/`` of the checkout (never from an installed
copy), repeats set-up and one pass of a workload for about ``--seconds``
(at least one pass), checks the outputs and prints every metric with its
unit. Times are scaled to a reference host speed by a calibration kernel
run around every set-up and pass (see ``run_workload``); the raw times are
kept in the results file. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` one more pass runs with span
tracing and the metrics are the per-layer ones. ``--workload all`` runs
the three workloads in turn and prefixes each metric with its workload.
Results, with the machine facts, are also written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5
CALIB_BISECTIONS = 8000
CALIB_STENCILS = 120
CALIB_REF_S = 0.07  # calibration time on the 2-core 2.1 GHz Xeon VM the bounds were set on
CALIB_SHARE = 0.08
MODULES = ("_kernels", "grid", "norms", "maps", "splitting", "gadgets", "multipliers", "theorems", "cli")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "stage_s": "s",
    "peak_rss_mb": "MB",
}


def import_besovlab() -> SimpleNamespace:
    """Import besovlab afresh from the checkout's src/ (the import is part
    of set-up, so every repetition pays for it)."""
    for name in [n for n in sys.modules if n == "besovlab" or n.startswith("besovlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("besovlab")
    if Path(package.__file__).resolve().parent != (SRC / "besovlab").resolve():
        raise ImportError(f"besovlab imported from {package.__file__}, not from {SRC}")
    mods = {name.lstrip("_"): importlib.import_module(f"besovlab.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def machine_facts(bl) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "numba" if bl.package.USING_NUMBA else "numpy",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _git_commit() -> str:
    # the ceiling keeps git from taking the commit of a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    if out.returncode != 0:
        return "unavailable: not a git checkout"
    return out.stdout.strip()


def _setup(workload, seed: int, workdir: Path):
    t0 = time.perf_counter()
    bl = import_besovlab()
    bl.kernels.warm_up()
    state = workload.setup(bl, seed, workdir)
    return time.perf_counter() - t0, bl, state


def calibrate(repeats: int) -> float:
    """Mean wall time of a fixed kernel that does not use besovlab: scalar
    bisection in Python and difference stencils and FFTs in numpy, the two
    kinds of work the workloads do."""
    import numpy as np

    t0 = time.perf_counter()
    for _ in range(repeats):
        for k in range(CALIB_BISECTIONS):
            a, lo, hi = -0.9 + 1.8 * k / CALIB_BISECTIONS, 0.0, 3.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if math.sin(mid - 1.5) < a:
                    lo = mid
                else:
                    hi = mid
        x = np.sin(np.linspace(0.0, 50.0, 2**15 + 1))
        total = 0.0
        for h in range(1, CALIB_STENCILS + 1):
            d = x[2 * h :] - 2.0 * x[h:-h] + x[: -2 * h]
            total += float(np.sum(np.abs(d) ** 2)) + float(np.abs(np.fft.rfft(x[: 2**14] * h)).sum())
    return (time.perf_counter() - t0) / repeats


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    # The pass count follows from --seconds and the workload's nominal pass
    # time on a 2-core box, not from the clock, so two versions of the
    # program being compared take the same number of samples.
    # Every pass starts from a fresh set-up, as a new besovlab process would;
    # spreading the set-ups over the run keeps their median from landing in
    # one slow spell of a shared machine.
    # A shared machine's speed drifts by up to 1.7x over minutes, and whole
    # runs land in a fast or a slow spell. Each set-up and pass is therefore
    # bracketed by the calibration kernel, and its times are scaled by
    # CALIB_REF_S / (mean of the two calibrations): seconds on a host whose
    # calibration takes CALIB_REF_S. The raw times go to the results file.
    # A calibration lasts CALIB_SHARE of a nominal pass, so that it samples
    # the host's speed about as long for a long pass as for a short one.
    n_passes = max(1, round(seconds / workload.nominal_pass_s))
    repeats = max(1, round(CALIB_SHARE * workload.nominal_pass_s / CALIB_REF_S))
    setup_times, passes = [], []
    raw = {"calibration_s": [calibrate(repeats)], "setup_s": [], "pass_s": []}
    for _ in range(max(n_passes, SETUP_REPEATS)):
        setup_s, bl, state = _setup(workload, seed, workdir)
        p = workload.run_pass(state) if len(passes) < n_passes else None
        raw["calibration_s"].append(calibrate(repeats))
        scale = CALIB_REF_S / statistics.fmean(raw["calibration_s"][-2:])
        raw["setup_s"].append(setup_s)
        setup_times.append(setup_s * scale)
        if p is not None:
            raw["pass_s"].append(p.wall_s)
            passes.append(p.scaled(scale))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pass_total = sum(p.wall_s for p in passes)
    pass_median = statistics.median(p.wall_s for p in passes)
    op_s = [t for p in passes for t in p.op_s]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": pass_median,
        "ops_per_s": len(op_s) / pass_total,
        "op_p50_ms": statistics.median(op_s) * 1000.0,
        "stage_s": statistics.median(p.stage_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)

    if trace:
        import layers
        from spans import Tracer, installed

        tracer = Tracer()
        with installed(tracer, layers.targets()):
            traced = workload.run_pass(state)
        raw["calibration_s"].append(calibrate(repeats))
        traced = traced.scaled(CALIB_REF_S / statistics.fmean(raw["calibration_s"][-2:]))
        passes.append(traced)
        metrics = layers.per_layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = traced.wall_s - pass_median
        metrics["trace.overhead_share"] = (traced.wall_s - pass_median) / pass_median
        units = {spec["name"]: spec["unit"] for spec in layers.per_layer_spec()}

    checks = workload.check(state, passes)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "aliases": {} if trace else workload.aliases,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "machine": machine_facts(bl),
        "raw": raw,
    }


def _print_result(result: dict):
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}")
    for name, m in result["metrics"].items():
        alias = result["aliases"].get(name)
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:<52} {m['value']:>16.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  checks: attempted {result['attempted']}, failed {result['failed']}, op_error_rate {rate:g}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "besovlab" / "__init__.py").is_file():
        print(f"perfbench: no besovlab sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    RESULTS_DIR.mkdir(exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), RESULTS_DIR)
        suffix = ".trace" if args.trace else ""
        (RESULTS_DIR / f"{name}{suffix}.json").write_text(json.dumps(result, indent=2) + "\n")
        _print_result(result)
        results.append(result)
    print("machine " + json.dumps(results[0]["machine"], sort_keys=True))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
