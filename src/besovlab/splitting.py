"""Greedy partition of an interval family into pairwise-disjoint classes.

Intervals are closed, so sharing an endpoint counts as intersecting. The
class extraction rule is the greedy min-index sweep: starting from the
least remaining index, repeatedly add the least index whose interval misses
the union collected so far; each sweep forms one class. With intersection
degree L (self-intersection included) the number of classes never exceeds
L + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class IntervalFamily:
    """Indexed list of closed intervals, not necessarily disjoint."""

    items: np.ndarray  # (n, 2)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.items, dtype=np.float64)
        object.__setattr__(self, "items", arr)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("items must be an (n, 2) array of [l, r] pairs")
        if not np.all(arr[:, 0] <= arr[:, 1]):  # NaN fails too
            raise ValueError("interval with r < l or a NaN end")

    def __len__(self) -> int:
        return self.items.shape[0]


@dataclass(frozen=True)
class Partition:
    """Disjoint index classes covering 1..n (stored 0-based)."""

    classes: tuple[tuple[int, ...], ...]
    labels: np.ndarray

    @property
    def count(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "labels": [int(v) for v in self.labels],
        }


def intersection_degree(fam: IntervalFamily) -> int:
    """L = max_j #{i : I_j meets I_i}, counting i = j."""
    n = len(fam)
    if n == 0:
        return 0
    lefts = np.sort(fam.items[:, 0])
    rights = np.sort(fam.items[:, 1])
    # disjoint from I_j iff r_i < l_j or l_i > r_j (closed intervals)
    below = np.searchsorted(rights, fam.items[:, 0], side="left")
    above = n - np.searchsorted(lefts, fam.items[:, 1], side="right")
    return int(np.max(n - below - above))


def split_partition(fam: IntervalFamily) -> Partition:
    """Greedy min-index partition; class count <= intersection_degree + 1."""
    n = len(fam)
    if n == 0:
        return Partition((), np.zeros(0, dtype=np.int64))
    labels = _kernels.greedy_classes(fam.items[:, 0], fam.items[:, 1])
    classes = []
    for cls in range(int(labels.max()) + 1):
        classes.append(tuple(int(i) for i in np.nonzero(labels == cls)[0]))
    return Partition(tuple(classes), labels)


def pairwise_disjoint(fam: IntervalFamily, indices) -> bool:
    """Check one class: closed intervals, touching counts as intersecting."""
    chosen = sorted((fam.items[i, 0], fam.items[i, 1]) for i in indices)
    for (l1, r1), (l2, r2) in zip(chosen[:-1], chosen[1:]):
        if r1 >= l2:
            return False
    return True
