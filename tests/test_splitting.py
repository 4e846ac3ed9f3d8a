import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab.splitting import (
    IntervalFamily,
    intersection_degree,
    pairwise_disjoint,
    split_partition,
)


def fam(pairs):
    return IntervalFamily(np.asarray(pairs, dtype=float))


def test_degree_examples():
    disjoint = fam([[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]])
    assert intersection_degree(disjoint) == 1  # only self-intersection
    assert intersection_degree(fam([[0, 1], [0.5, 1.5], [1, 2]])) == 3
    assert intersection_degree(fam([[0, 1]])) == 1
    assert intersection_degree(fam(np.zeros((0, 2)))) == 0


def test_degree_counts_touching_endpoints():
    assert intersection_degree(fam([[0, 1], [1, 2]])) == 2


def test_split_disjoint_family_single_class():
    f = fam([[0, 1], [2, 3], [4, 5]])
    part = split_partition(f)
    assert part.classes == ((0, 1, 2),)


def test_split_chain_example():
    # [1,2] touches [0,1] at the shared endpoint, so the first sweep keeps
    # only index 0; then index 1; then index 2
    part = split_partition(fam([[0, 1], [0.5, 1.5], [1, 2]]))
    assert part.classes == ((0,), (1,), (2,))
    assert part.count <= intersection_degree(fam([[0, 1], [0.5, 1.5], [1, 2]])) + 1


def test_split_skip_example():
    part = split_partition(fam([[0, 1], [2, 3], [0.5, 2.5]]))
    assert part.classes == ((0, 1), (2,))


def test_pairwise_disjoint_refuses_touching_and_overlapping_intervals():
    f = fam([(0.0, 1.0), (2.0, 3.0), (1.0, 1.5), (2.5, 4.0)])
    assert pairwise_disjoint(f, [0, 1])
    assert not pairwise_disjoint(f, [2, 0])  # touching at 1
    assert not pairwise_disjoint(f, [1, 3])  # overlapping on [2.5, 3]


def test_empty_and_invalid():
    assert split_partition(fam(np.zeros((0, 2)))).count == 0
    with pytest.raises(ValueError):
        fam([[1.0, 0.0]])


def _check_partition(f):
    part = split_partition(f)
    degree = intersection_degree(f)
    assert part.count <= degree + 1
    seen = set()
    for cls in part.classes:
        assert pairwise_disjoint(f, cls)
        seen.update(cls)
    assert seen == set(range(len(f)))
    return part


def test_maximality_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        lefts = rng.uniform(0, 20, n)
        items = np.column_stack([lefts, lefts + rng.uniform(0, 2, n)])
        f = IntervalFamily(items)
        part = _check_partition(f)
        # every index outside class k (among those not used by earlier
        # classes) meets the union of class k
        remaining = set(range(n))
        for cls in part.classes:
            for j in remaining - set(cls):
                assert any(
                    items[i, 0] <= items[j, 1] and items[j, 0] <= items[i, 1] for i in cls
                )
            remaining -= set(cls)


def test_determinism_and_permutation_bound():
    rng = np.random.default_rng(11)
    lefts = rng.uniform(0, 10, 40)
    items = np.column_stack([lefts, lefts + rng.uniform(0, 1.5, 40)])
    f = IntervalFamily(items)
    p1 = split_partition(f)
    p2 = split_partition(f)
    assert p1.classes == p2.classes
    perm = rng.permutation(40)
    _check_partition(IntervalFamily(items[perm]))


@given(st.lists(st.tuples(st.floats(0, 50), st.floats(0, 3)), min_size=1, max_size=80))
@settings(max_examples=60, deadline=None)
def test_bound_property(pairs):
    items = np.array([[l, l + w] for l, w in pairs])
    _check_partition(IntervalFamily(items))
