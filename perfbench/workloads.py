"""The benchmark's three workloads: set-up, one timed pass, output checks.

Each pass is closed-loop: one suite, one norm or one preimage target at a
time, in one process. A pass returns its wall time, the latency of every
operation in it, the time of the workload's named stage, and the outputs
that ``check`` compares with a committed reference or an independent
oracle. The seed only reaches the program through the generated inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9  # committed reference values, relative
ABS_TOL = 1e-12


@dataclass
class PassOutput:
    wall_s: float
    op_s: list  # latency of every operation in the pass
    stage_s: float  # the workload's named stage, see each workload's aliases
    outputs: dict

    def scaled(self, factor: float) -> "PassOutput":
        """The same pass with every time multiplied by ``factor``."""
        return PassOutput(self.wall_s * factor, [t * factor for t in self.op_s],
                          self.stage_s * factor, self.outputs)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # the first few failures

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _mismatch(got, want, path: str = ""):
    """The first place where JSON-like ``got`` differs from ``want``, or
    None: floats within REL_TOL, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path}: {got!r} != {want!r}"
        for key in want:
            found = _mismatch(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _mismatch(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(want, float) and isinstance(got, float):
        return None if _close(got, want) else f"{path}: {got!r} != {want!r}"
    return None if type(got) is type(want) and got == want else f"{path}: {got!r} != {want!r}"


# ---------------------------------------------------------------------------
# suite_slice: the default suite's configuration on three of its maps
# ---------------------------------------------------------------------------

# One pass of the full 8-map default suite takes ~100 s on a 2-core box,
# too long to repeat within the run budget. These three default-suite maps
# keep its shape: sin_drift(0.5) is the M/U ladder over preimage_lengths,
# the two contracting affine maps carry the norm and multiplier stages and
# the two known nec_lipschitz failures at 2^13+1 samples. sin_drift goes
# first so that one pool thread runs it throughout while the other runs the
# two affine maps in turn; any other order lets the interpreter lock's
# hand-offs decide which classify calls overlap.
SUITE_MAPS = ("sin_drift:amp=0.5", "affine:a=0.5,b=2", "scale:k=0.5")
# the only record fields the seed reaches (through the msq Rademacher draws)
SEEDED_FIELDS = ("seed",)
SEEDED_COMPUTED = ("phiprime_msq_lower",)


class SuiteSlice:
    name = "suite_slice"
    why = (
        "besovlab suite on 3 default-suite maps at the default space and grid: "
        "M/U ladders over preimage_lengths, then the norm and multiplier stages"
    )
    nominal_pass_s = 40.0
    aliases = {"pass_s": "suite_s", "op_p50_ms": "classify_p50", "stage_s": "classify_max_s",
               "ops_per_s": "classify_per_s"}

    def setup(self, bl, seed: int, workdir: Path):
        os.environ["BESOVLAB_THREADS"] = str(len(os.sched_getaffinity(0)))
        config = dict(bl.cli.DEFAULT_SUITE, seed=seed, maps=list(SUITE_MAPS))
        path = workdir / "suite_config.json"
        path.write_text(json.dumps(config))
        return SimpleNamespace(bl=bl, seed=seed, config=path, workdir=workdir)

    def run_pass(self, st) -> PassOutput:
        out = Path(tempfile.mkdtemp(prefix="suite-", dir=st.workdir))
        try:
            summary = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(summary):
                code = st.bl.cli.main(["suite", "--config", str(st.config), "--out", str(out)])
            wall = time.perf_counter() - t0
            records = (out / "records.json").read_bytes()
            meta = json.loads((out / "meta.json").read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        classify_s = list(meta["runtime_s"].values())
        return PassOutput(wall, classify_s, max(classify_s), {"code": code, "records": records})

    @staticmethod
    def summarize_records(records: bytes) -> dict:
        """Every record field that does not depend on the seed, by map."""
        out = {}
        for rec in json.loads(records):
            row = {k: v for k, v in rec.items() if k not in SEEDED_FIELDS}
            row["computed"] = {k: v for k, v in rec["computed"].items() if k not in SEEDED_COMPUTED}
            out[rec["map"]] = row
        return out

    def check(self, st, passes) -> CheckResult:
        ref = load_reference("suite_slice.json")
        res = CheckResult()
        for p in passes:
            got = self.summarize_records(p.outputs["records"])
            for name, want in ref["maps"].items():
                found = _mismatch(got.get(name), want, name)
                res.record(found is None, f"classify {found}")
            res.record(p.outputs["code"] == ref["exit_code"],
                       f"suite exit code {p.outputs['code']} != {ref['exit_code']}")
            if st.seed == ref["seed"]:
                sha = hashlib.sha256(p.outputs["records"]).hexdigest()
                res.record(sha == ref["records_sha256"], f"records.json sha256 {sha}")
        return res


# ---------------------------------------------------------------------------
# norms_sweep: both norm paths and the multiplier estimators, no geometry
# ---------------------------------------------------------------------------

NORM_COUNTS = (2**13 + 1, 2**15 + 1)
INF = math.inf
# (label, s, p, q, m)
DIFF_SPACES = (
    ("B2.1_2_2", 2.1, 2.0, 2.0, 3),
    ("B1.5_2_2", 1.5, 2.0, 2.0, 2),
    ("B1.5_inf_inf", 1.5, INF, INF, 2),
    ("B2.5_1.5_inf", 2.5, 1.5, INF, 3),
)
LP_SPACES = DIFF_SPACES[:2]
SOBOLEV = (1.25, 2.0, 2)  # s, p, m of H^1.25_2
MULT_SPACE = (1.1, 2.0, 2.0, 2)  # derivative space of the default suite's B^2.1_2,2
MSQ_RANDOM = 64  # msq_norm_lower's own default; classify uses 16


class NormsSweep:
    name = "norms_sweep"
    why = (
        "norm CLI path plus the multiplier half of classify: difference and "
        "Littlewood-Paley norms, msq of sin_drift'; never calls the preimage kernels"
    )
    nominal_pass_s = 7.5
    aliases = {"pass_s": "norms_sweep_s", "op_p50_ms": "norm_eval_p50", "stage_s": "multiplier_s",
               "ops_per_s": "norm_evals_per_s"}

    def setup(self, bl, seed: int, workdir: Path):
        functions = {}
        for count in NORM_COUNTS:
            fam = bl.grid.catalog_family(count=count)
            fam.append(("unit_bump(0)", bl.gadgets.unit_bump(0.0, count=count)))
            fam.append(("eta(0.1)", bl.gadgets.eta_eps(0.1, count=count)))
            fam.append(("cutoff(0,2)", bl.gadgets.linear_cutoff(0.0, 2.0, count=count)))
            functions[count] = fam
        spaces = {label: bl.grid.SpaceParams(s, p, q, m) for label, s, p, q, m in DIFF_SPACES}
        phi = bl.maps.named_map("sin_drift:amp=0.5")
        return SimpleNamespace(
            bl=bl, seed=seed, functions=functions, spaces=spaces,
            phi_prime=bl.maps.derivative(phi).sample(bl.grid.DEFAULT_COUNT),
            mult_space=bl.grid.SpaceParams(*MULT_SPACE), psi=bl.multipliers.make_psi("mollifier"),
        )

    def run_pass(self, st) -> PassOutput:
        norms = st.bl.norms
        values, op_s = {}, []
        t_pass = time.perf_counter()

        def timed(key, fn, *args):
            t0 = time.perf_counter()
            values[key] = fn(*args)
            op_s.append(time.perf_counter() - t0)

        for count, fam in st.functions.items():
            for fname, f in fam:
                for label, *_ in DIFF_SPACES:
                    timed(f"{count}/{fname}/diff/{label}", norms.besov_norm_diff, f, st.spaces[label])
                for label, *_ in LP_SPACES:
                    timed(f"{count}/{fname}/lp/{label}", norms.littlewood_paley_norm, f, st.spaces[label])
                s, p, m = SOBOLEV
                timed(f"{count}/{fname}/sobolev_diff", norms.sobolev_norm_diff, f, s, p, m)
                timed(f"{count}/{fname}/sobolev_fourier", norms.sobolev_norm_fourier, f, s, p)
        mult = st.bl.multipliers
        t_stage = time.perf_counter()
        t0 = time.perf_counter()
        _, unif = mult.unif_profile(st.phi_prime, st.mult_space, st.psi)
        op_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        msq = mult.msq_norm_lower_detailed(
            st.phi_prime, st.mult_space, st.psi, n_random=MSQ_RANDOM, seed=st.seed
        )
        op_s.append(time.perf_counter() - t0)
        end = time.perf_counter()
        outputs = {"values": values, "unif": [float(v) for v in unif], "msq": msq.value}
        return PassOutput(end - t_pass, op_s, end - t_stage, outputs)

    @staticmethod
    def msq_candidates(st, seed: int) -> dict:
        """msq at ``seed`` with every norm it evaluates, in call order: the
        coordinate sequences, then the Rademacher and block candidates."""
        norm, seen = st.bl.norms.besov_norm_diff, []

        def recording(g, sp, hg):
            seen.append(norm(g, sp, hg))
            return seen[-1]

        res = st.bl.multipliers.msq_norm_lower_detailed(
            st.phi_prime, st.mult_space, st.psi, n_random=MSQ_RANDOM, seed=seed, norm_fn=recording
        )
        return {"value": res.value, "argmax": res.argmax, "norms": seen}

    def check(self, st, passes) -> CheckResult:
        ref = load_reference("norms_sweep.json")
        res = CheckResult()
        # The candidates msq draws depend on the seed, and on this input a
        # coordinate sequence wins, so no timed output shows them. One
        # untimed msq at the reference seed pins every candidate's norm.
        found = _mismatch(self.msq_candidates(st, ref["seed"]), ref["msq_candidates"], "msq")
        res.record(found is None, f"msq candidates at seed {ref['seed']}: {found}")
        for p in passes:
            out = p.outputs
            for key, value in out["values"].items():
                res.record(_close(value, ref["values"].get(key)), f"{key}: {value} vs {ref['values'].get(key)}")
            unif_ok = len(out["unif"]) == len(ref["unif"]) and all(
                _close(a, b) for a, b in zip(out["unif"], ref["unif"])
            )
            res.record(unif_ok, "unif_profile differs from reference")
            # coordinate sequences are msq candidates, so msq >= sup unif
            msq_ok = math.isfinite(out["msq"]) and out["msq"] >= max(out["unif"])
            if st.seed == ref["seed"]:
                msq_ok = msq_ok and _close(out["msq"], ref["msq"])
            res.record(msq_ok, f"msq {out['msq']}")
        return res


# ---------------------------------------------------------------------------
# preimage_split: per-target preimage decompositions, then greedy splitting
# ---------------------------------------------------------------------------

PREIMAGE_MAPS = ("sin", "quadratic", "sin_drift:amp=0.5", "sin_drift:amp=0.25")
TARGETS_PER_MAP = 512
ORACLE_FINE = 2**20 + 1  # samples for the length oracle
ORACLE_COARSE = 2**16 + 1  # samples for the component-count oracle


class PreimageSplit:
    name = "preimage_split"
    why = (
        "map --target and split paths: preimage_intervals per seeded target via "
        "segment_clip, then intersection_degree and split_partition per map"
    )
    nominal_pass_s = 2.0
    aliases = {"pass_s": "preimage_split_s", "op_p50_ms": "target_p50", "stage_s": "split_s",
               "ops_per_s": "preimage_targets_per_s"}

    def setup(self, bl, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        maps, targets = {}, {}
        for spec in PREIMAGE_MAPS:
            phi = bl.maps.named_map(spec)
            lo, hi = phi.value_range()
            # stratified over [lo - 1, hi] so every seed covers the range evenly
            n = TARGETS_PER_MAP
            maps[spec] = phi
            targets[spec] = (lo - 1.0) + (np.arange(n) + rng.random(n)) * (hi - lo + 1.0) / n
        return SimpleNamespace(bl=bl, seed=seed, maps=maps, targets=targets)

    def run_pass(self, st) -> PassOutput:
        maps, splitting = st.bl.maps, st.bl.splitting
        op_s, outputs = [], {}
        split_s = 0.0
        t_pass = time.perf_counter()
        for spec, phi in st.maps.items():
            totals, counts, pairs = [], [], []
            for a in st.targets[spec]:
                t0 = time.perf_counter()
                iv = maps.preimage_intervals(phi, (float(a), float(a) + 1.0))
                op_s.append(time.perf_counter() - t0)
                totals.append(iv.total_length)
                counts.append(iv.count)
                pairs.extend(iv.intervals)
            t0 = time.perf_counter()
            fam = splitting.IntervalFamily(np.asarray(pairs, dtype=np.float64).reshape(-1, 2))
            degree = splitting.intersection_degree(fam)
            part = splitting.split_partition(fam)
            dt = time.perf_counter() - t0
            split_s += dt
            op_s.append(dt)
            outputs[spec] = {"totals": totals, "counts": counts, "items": fam.items,
                             "degree": degree, "labels": part.labels, "classes": part.count}
        return PassOutput(time.perf_counter() - t_pass, op_s, split_s, outputs)

    def check(self, st, passes) -> CheckResult:
        res = CheckResult()
        first = passes[0].outputs
        for spec, out in first.items():
            a = st.targets[spec]
            total_ref, count_ref, dx = _preimage_oracle(st.maps[spec], a)
            for i in range(a.size):
                tol = (2 * count_ref[i] + 2) * dx
                ok = out["counts"][i] == count_ref[i] and abs(out["totals"][i] - total_ref[i]) <= tol
                res.record(ok, f"{spec} target {a[i]!r}: {out['counts'][i]} intervals, "
                               f"length {out['totals'][i]} vs oracle {count_ref[i]}, {total_ref[i]}")
            res.record(_split_ok(out), f"{spec} split: degree {out['degree']}, classes {out['classes']}")
        for p in passes[1:]:
            for spec, out in p.outputs.items():
                same = (
                    out["totals"] == first[spec]["totals"]
                    and out["counts"] == first[spec]["counts"]
                    and np.array_equal(out["labels"], first[spec]["labels"])
                )
                for _ in range(len(out["totals"]) + 1):
                    res.record(same, f"{spec}: pass output differs from the first pass")
        return res


def _preimage_oracle(phi, a):
    """Length and component count of phi^-1([a, a+1]) on the window from
    dense samples: length from the sorted values (error <= dx per interval
    endpoint), components from runs on a coarser grid."""
    lo, hi = phi.window
    xs = np.linspace(lo, hi, ORACLE_FINE)
    dx = xs[1] - xs[0]
    ys = np.sort(phi(xs))
    inside = np.searchsorted(ys, a + 1.0, side="right") - np.searchsorted(ys, a, side="left")
    yc = phi(np.linspace(lo, hi, ORACLE_COARSE))
    counts = np.empty(a.size, dtype=np.int64)
    for start in range(0, a.size, 64):
        aa = a[start : start + 64, None]
        mask = (yc[None, :] >= aa) & (yc[None, :] <= aa + 1.0)
        counts[start : start + 64] = mask[:, 0] + (mask[:, 1:] & ~mask[:, :-1]).sum(axis=1)
    return inside * dx, counts, dx


def _split_ok(out) -> bool:
    """Degree by brute force, then the partition: every interval labelled,
    classes pairwise disjoint (closed intervals), classes <= degree + 1."""
    items, labels = out["items"], np.asarray(out["labels"])
    n = items.shape[0]
    if n == 0:
        return out["classes"] == 0
    degree = 0
    for start in range(0, n, 256):
        blk = items[start : start + 256]
        meets = (items[None, :, 0] <= blk[:, None, 1]) & (items[None, :, 1] >= blk[:, None, 0])
        degree = max(degree, int(meets.sum(axis=1).max()))
    if degree != out["degree"] or labels.shape != (n,) or labels.min() < 0:
        return False
    if int(labels.max()) + 1 != out["classes"] or out["classes"] > degree + 1:
        return False
    for cls in range(out["classes"]):
        members = items[labels == cls]
        members = members[np.argsort(members[:, 0])]
        if members.shape[0] == 0 or np.any(members[1:, 0] <= members[:-1, 1]):
            return False
    return True


WORKLOADS = {w.name: w for w in (SuiteSlice(), NormsSweep(), PreimageSplit())}
