"""Property-based tests for the planner's dominance filters.

The planner's estimator-pruned and pareto-active strategies both lean
on ``pareto_front`` to decide which design points deserve a real
simulation, so its semantics (tie survival, direction flags, order
independence) are pinned here with Hypothesis rather than a handful of
examples. The estimator-pruned strategy's blocked numpy ε-front is held
to the pure-Python double loop it replaced, index for index.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import planner
from repro.analysis.pareto import pareto_front

# Bounded integers keep dominance checks exact (no float rounding) and
# force plenty of ties, which is exactly the regime the planner hits
# (hit rate plateaus across the breakeven axis).
points = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=24
)

OBJECTIVES = [lambda p: p[0], lambda p: p[1]]


def dominates(a, b, maximize):
    oriented = [
        (x, y) if up else (-x, -y) for (x, y), up in zip(zip(a, b), maximize)
    ]
    return all(x >= y for x, y in oriented) and any(x > y for x, y in oriented)


@settings(max_examples=200)
@given(points)
def test_front_is_exactly_the_nondominated_subset(items):
    front = pareto_front(items, OBJECTIVES)
    expected = [
        item
        for item in items
        if not any(dominates(other, item, (True, True)) for other in items)
    ]
    assert front == expected
    assert front  # ties survive, so non-empty input keeps a front


@settings(max_examples=200)
@given(points, st.randoms(use_true_random=False))
def test_front_membership_is_permutation_invariant(items, rng):
    baseline = set(pareto_front(items, OBJECTIVES))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert set(pareto_front(shuffled, OBJECTIVES)) == baseline


@settings(max_examples=200)
@given(points)
def test_duplicates_of_a_front_point_all_survive(items):
    front = pareto_front(items, OBJECTIVES)
    doubled = items + list(front)
    front_doubled = pareto_front(doubled, OBJECTIVES)
    for item in front:
        assert front_doubled.count(item) == doubled.count(item)


@settings(max_examples=200)
@given(points, st.tuples(st.booleans(), st.booleans()))
def test_maximize_flags_mirror_negated_objectives(items, maximize):
    flagged = pareto_front(items, OBJECTIVES, maximize=list(maximize))
    negated = pareto_front(
        items,
        [
            (lambda p: p[0]) if maximize[0] else (lambda p: -p[0]),
            (lambda p: p[1]) if maximize[1] else (lambda p: -p[1]),
        ],
    )
    assert flagged == negated


@settings(max_examples=200)
@given(points)
def test_front_of_front_is_idempotent(items):
    front = pareto_front(items, OBJECTIVES)
    assert pareto_front(front, OBJECTIVES) == front


# ----------------------------------------------------------------------
# The estimator-pruned strategy's ε-front
# ----------------------------------------------------------------------
def reference_epsilon_front(scores, epsilon):
    """The O(n²) pure-Python ε-front the blocked numpy one replaced."""
    if not scores:
        return []
    dims = len(scores[0])
    margins = []
    for j in range(dims):
        column = [row[j] for row in scores]
        margins.append(epsilon * (max(column) - min(column)))
    keep = []
    for i, row in enumerate(scores):
        dominated = False
        for k, other in enumerate(scores):
            if k == i:
                continue
            if all(
                other[j] >= row[j] + margins[j] for j in range(dims)
            ) and any(other[j] > row[j] for j in range(dims)):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def score_tables(draw):
    """Rows of 1-3 finite scores, mostly drawn from a small pool so that
    ties and duplicate rows are common."""
    dims = draw(st.integers(1, 3))
    pool = draw(st.lists(finite, min_size=1, max_size=4))
    value = st.one_of(st.sampled_from(pool), st.sampled_from(pool), finite)
    row = st.lists(value, min_size=dims, max_size=dims)
    rows = draw(st.lists(row, min_size=0, max_size=30))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    return rows


@settings(max_examples=300)
@given(score_tables(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_epsilon_front_matches_the_double_loop(scores, epsilon):
    assert planner._epsilon_front(scores, epsilon) == reference_epsilon_front(
        scores, epsilon
    )


def test_epsilon_front_spans_several_blocks():
    rng = np.random.default_rng(600)
    scores = rng.integers(0, 12, size=(600, 3)).astype(float).tolist()
    scores += scores[:40]  # exact duplicates across blocks
    assert len(scores) > 2 * planner._FRONT_BLOCK
    for epsilon in (0.0, 0.05, 0.3):
        front = planner._epsilon_front(scores, epsilon)
        assert front == reference_epsilon_front(scores, epsilon)
        assert front
