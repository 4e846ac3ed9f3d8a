"""The layers a traced pass wraps, the work counts taken at each boundary,
and the per-layer metrics derived from the spans.

Counts are computed here from each call's inputs, never read from inside
the program. Byte figures are computed from array sizes (float64) and do
not see caches; their names say ``computed``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import threading

import numpy as np

from spans import has_ancestor, self_times, summarize

# (module, attribute, span name); the span name is the metric prefix
TRACED = (
    ("besovlab._kernels", "preimage_lengths", "kernels.preimage_lengths"),
    ("besovlab._kernels", "shift_difference_batch", "kernels.shift_difference_batch"),
    ("besovlab._kernels", "interp_difference", "kernels.interp_difference"),
    ("besovlab._kernels", "segment_clip", "kernels.segment_clip"),
    ("besovlab._kernels", "greedy_classes", "kernels.greedy_classes"),
    ("besovlab.maps", "M_functional", "maps.M_functional"),
    ("besovlab.maps", "U_functional", "maps.U_functional"),
    ("besovlab.maps", "max_preimage_count", "maps.max_preimage_count"),
    ("besovlab.maps", "preimage_intervals", "maps.preimage_intervals"),
    ("besovlab.maps", "sample_composed", "maps.sample_composed"),
    ("besovlab.norms", "besov_seminorm_diff", "norms.besov_seminorm_diff"),
    ("besovlab.norms", "littlewood_paley_norm", "norms.littlewood_paley_norm"),
    ("besovlab.norms", "sobolev_norm_diff", "norms.sobolev_norm_diff"),
    ("besovlab.multipliers", "unif_profile", "multipliers.unif_profile"),
    ("besovlab.multipliers", "msq_norm_lower_detailed", "multipliers.msq_norm_lower_detailed"),
    (
        "besovlab.multipliers",
        "multiplier_norm_lower_detailed",
        "multipliers.multiplier_norm_lower_detailed",
    ),
    ("besovlab.theorems", "classify", "theorems.classify"),
    ("besovlab.theorems", "opnorm_lower_detailed", "theorems.opnorm_lower_detailed"),
    ("besovlab.theorems", "check_nec_U", "theorems.check_nec_U"),
    ("besovlab.theorems", "check_nec_lipschitz", "theorems.check_nec_lipschitz"),
    ("besovlab.theorems", "check_sufficiency_chain", "theorems.check_sufficiency_chain"),
    ("besovlab.splitting", "split_partition", "splitting.split_partition"),
    ("besovlab.splitting", "intersection_degree", "splitting.intersection_degree"),
    ("besovlab.cli", "cmd_suite", "cli.cmd_suite"),
)

# metric name -> (unit, better); counts and ratios beyond calls/self_s
DERIVED = {
    "kernels.preimage_lengths.pairs": ("count", "lower"),
    "kernels.preimage_lengths.active_pair_share": ("ratio", "higher"),
    "kernels.preimage_lengths.under_M_share": ("ratio", "lower"),
    "kernels.shift_difference_batch.stencil_points": ("count", "lower"),
    "kernels.shift_difference_batch.bytes_computed": ("bytes", "lower"),
    "kernels.greedy_classes.intervals": ("count", "lower"),
    "maps.U_functional.targets": ("count", "lower"),
    "norms.evals": ("count", "lower"),
    "norms.duplicate_eval_share": ("ratio", "lower"),
    "theorems.failed_fragments": ("count", "lower"),
    "theorems.vacuous_fragments": ("count", "lower"),
    "splitting.classes_over_bound": ("ratio", "lower"),
    "cli.pool_busy_share": ("ratio", "higher"),
    "cli.pool_cpu_share": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

NORM_SPANS = ("norms.besov_seminorm_diff", "norms.littlewood_paley_norm", "norms.sobolev_norm_diff")


def per_layer_spec() -> list[dict]:
    """Every per-layer metric, in print order, as BENCHMARK.json lists it."""
    out = []
    for _, _, name in TRACED:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_preimage_pairs(args, kwargs, result):
    seg = np.asarray(_arg(args, kwargs, 0, "seg"), dtype=np.float64)
    los = np.asarray(_arg(args, kwargs, 1, "los"), dtype=np.float64)
    his = np.asarray(_arg(args, kwargs, 2, "his"), dtype=np.float64)
    n_seg = seg.shape[0]
    if n_seg == 0:
        return {"pairs": 0, "active_pairs": 0, "targets": los.size}
    # a (target, segment) pair is active unless the kernel's skip test
    # ymax < lo or ymin > hi holds; the two events are disjoint
    ymin = np.sort(np.minimum(seg[:, 7], seg[:, 8]))
    ymax = np.sort(np.maximum(seg[:, 7], seg[:, 8]))
    below = np.searchsorted(ymax, los, side="left")
    above = n_seg - np.searchsorted(ymin, his, side="right")
    active = int((n_seg - below - above).sum())
    return {"pairs": n_seg * los.size, "active_pairs": active, "targets": los.size}


def _count_stencil(args, kwargs, result):
    n = np.asarray(_arg(args, kwargs, 0, "samples")).shape[0]
    n_off = np.asarray(_arg(args, kwargs, 3, "offsets")).size
    m = int(_arg(args, kwargs, 4, "m"))
    # m+1 float64 reads and one write per output point
    return {"stencil_points": n_off * n * (m + 1), "bytes_computed": 8 * n_off * n * (m + 2)}


def _count_intervals(args, kwargs, result):
    return {"intervals": np.asarray(_arg(args, kwargs, 0, "lefts")).size}


def _count_fragments(args, kwargs, report):
    return {
        "failed_fragments": sum(1 for fr in report.fragments if not fr.passed),
        "vacuous_fragments": sum(1 for fr in report.fragments if fr.vacuous),
    }


class _NormKeys:
    """Flags a norm evaluation whose (function, samples, grid, space) was
    already evaluated earlier in the same traced pass."""

    def __init__(self):
        self._seen = set()
        self._lock = threading.Lock()

    def counter(self, name, fn):
        sig = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            f, *rest = bound.arguments.values()
            digest = hashlib.blake2b(f.samples.tobytes(), digest_size=16).digest()
            key = (name, digest, f.spacing, f.origin, f.extension, repr(rest))
            with self._lock:
                dup = key in self._seen
                self._seen.add(key)
            return {"evals": 1, "duplicate_evals": int(dup)}

        return count


def targets() -> list:
    """(module, attribute, span name, counter) tuples for ``spans.installed``.

    Call before patching: counters that need a program function capture
    the original from the imported besovlab modules.
    """
    degree_fn = importlib.import_module("besovlab.splitting").intersection_degree

    def count_split(args, kwargs, partition):
        fam = _arg(args, kwargs, 0, "fam")
        return {"classes": partition.count, "bound": degree_fn(fam) + 1}

    norm_keys = _NormKeys()
    counters = {
        "kernels.preimage_lengths": _count_preimage_pairs,
        "kernels.shift_difference_batch": _count_stencil,
        "kernels.greedy_classes": _count_intervals,
        "theorems.classify": _count_fragments,
        "splitting.split_partition": count_split,
    }
    out = []
    for module_name, attr, name in TRACED:
        counter = counters.get(name)
        if name in NORM_SPANS:
            counter = norm_keys.counter(name, getattr(importlib.import_module(module_name), attr))
        out.append((module_name, attr, name, counter))
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(spans) -> dict:
    """Per-layer values of one traced pass (trace.* are added by the caller)."""
    selfs = self_times(spans)
    summary = summarize(spans, selfs)
    empty = {"calls": 0, "self_s": 0.0, "counts": {}}
    values = {}
    for _, _, name in TRACED:
        entry = summary.get(name, empty)
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]

    def counts(name):
        return summary.get(name, empty)["counts"]

    pre = counts("kernels.preimage_lengths")
    values["kernels.preimage_lengths.pairs"] = int(pre.get("pairs", 0))
    values["kernels.preimage_lengths.active_pair_share"] = _ratio(pre.get("active_pairs", 0), pre.get("pairs", 0))
    pre_idx = [i for i, s in enumerate(spans) if s.name == "kernels.preimage_lengths"]
    under_m = sum(selfs[i] for i in pre_idx if has_ancestor(spans, i, "maps.M_functional"))
    values["kernels.preimage_lengths.under_M_share"] = _ratio(under_m, sum(selfs[i] for i in pre_idx))
    stencil = counts("kernels.shift_difference_batch")
    values["kernels.shift_difference_batch.stencil_points"] = int(stencil.get("stencil_points", 0))
    values["kernels.shift_difference_batch.bytes_computed"] = int(stencil.get("bytes_computed", 0))
    values["kernels.greedy_classes.intervals"] = int(counts("kernels.greedy_classes").get("intervals", 0))
    values["maps.U_functional.targets"] = int(
        sum(
            (spans[i].counts or {}).get("targets", 0)
            for i in pre_idx
            if spans[i].parent is not None and spans[spans[i].parent].name == "maps.U_functional"
        )
    )
    evals = sum(counts(n).get("evals", 0) for n in NORM_SPANS)
    dups = sum(counts(n).get("duplicate_evals", 0) for n in NORM_SPANS)
    values["norms.evals"] = int(evals)
    values["norms.duplicate_eval_share"] = _ratio(dups, evals)
    frags = counts("theorems.classify")
    values["theorems.failed_fragments"] = int(frags.get("failed_fragments", 0))
    values["theorems.vacuous_fragments"] = int(frags.get("vacuous_fragments", 0))
    split = counts("splitting.split_partition")
    values["splitting.classes_over_bound"] = _ratio(split.get("classes", 0), split.get("bound", 0))
    values["cli.pool_busy_share"], values["cli.pool_cpu_share"] = _pool_shares(spans)
    return values


def _pool_shares(spans) -> tuple[float, float]:
    """Summed classify wall time, and summed classify thread CPU time, over
    (pool threads used x suite wall time). Threads waiting for the
    interpreter lock are busy but use no CPU, so the CPU share near
    1/threads means the pool buys no parallelism."""
    suite_wall = sum(s.end - s.start for s in spans if s.name == "cli.cmd_suite")
    classify = [s for s in spans if s.name == "theorems.classify"]
    capacity = len({s.thread for s in classify}) * suite_wall
    return (
        _ratio(sum(s.end - s.start for s in classify), capacity),
        _ratio(sum(s.cpu for s in classify), capacity),
    )
