"""The closure engine against the reference closure it replaced: identical
members, identical violation witnesses and identical cap behaviour, on both
membership paths (dense bitmap and sorted codes)."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import CapExceededError, FiniteAlgebra
from finalg import core
from finalg.core import closure_in_power

from oracles import reference_closure

def _violation(kind: str, pick: int):
    """A fresh violation check: none, a row predicate that reports its last
    hit (so the order of the rows it is shown matters), or a stateful
    functional-dependency check across calls, like the two-term condition."""
    if kind == "none":
        return None
    if kind == "predicate":

        def check(rows):
            col = pick % rows.shape[1]
            bad = np.flatnonzero(rows[:, col] == pick // 5 % 3)
            return int(bad[-1]) if bad.size else None

        return check
    seen = {}

    def check(rows):
        for i, row in enumerate(map(tuple, rows.tolist())):
            if seen.setdefault(row[:-1], row[-1]) != row[-1]:
                return i
        return None

    return check


def _run(fn, algebra, width, seeds, kind, pick, cap):
    try:
        return fn(algebra, width, seeds, cap=cap, violation=_violation(kind, pick))
    except CapExceededError as exc:
        return ("cap", exc.cap_name, exc.cap)


@st.composite
def closure_cases(draw, n=None, width=None):
    n = draw(st.integers(2, 5)) if n is None else n
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    if width is None:
        # arity 4 runs through the reference's per-row Python loop: keep its
        # space small
        top = 5 if max(arities) < 4 else max(w for w in range(1, 6) if n**w <= 64 or w == 1)
        width = draw(st.integers(1, top))
        columns = None
    else:
        # few distinct seed columns keep a wide closure small
        kinds = draw(st.integers(1, 3))
        columns = draw(st.lists(st.integers(0, kinds - 1), min_size=width, max_size=width))
    ops = [
        (f"f{i}", k, draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for i, k in enumerate(arities)
    ]
    nseeds = draw(st.integers(1, 3))
    if columns is None:
        seeds = draw(
            st.lists(
                st.tuples(*[st.integers(0, n - 1)] * width), min_size=nseeds, max_size=nseeds
            )
        )
    else:
        patterns = [
            draw(st.lists(st.integers(0, n - 1), min_size=nseeds, max_size=nseeds))
            for _ in range(max(columns) + 1)
        ]
        seeds = [tuple(patterns[c][s] for c in columns) for s in range(nseeds)]
    kind = draw(st.sampled_from(["none", "predicate", "dependency"]))
    pick = draw(st.integers(0, 10**6))
    cap = draw(st.sampled_from([40, 400]))
    return FiniteAlgebra(n, ops), width, seeds, kind, pick, cap


# x + y and x * y on Z5: three seed columns generate all 125 triples
_RING5 = FiniteAlgebra(
    5,
    [
        ("add", 2, [(x + y) % 5 for x in range(5) for y in range(5)]),
        ("mul", 2, [(x * y) % 5 for x in range(5) for y in range(5)]),
    ],
)

_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("membership", ["dense", "sorted"])
@_settings
@given(case=closure_cases())
@example(case=(_RING5, 3, [(0, 1, 2), (1, 1, 3)], "none", 0, 40))
@example(case=(_RING5, 3, [(0, 1, 2), (1, 1, 3)], "dependency", 0, 400))
@example(case=(_RING5, 3, [(0, 1, 2), (1, 1, 3)], "predicate", 5, 400))
def test_closure_matches_reference(membership, case):
    algebra, width, seeds, kind, pick, cap = case
    dense = core._DENSE_CODES if membership == "dense" else 0
    with mock.patch.object(core, "_DENSE_CODES", dense):
        got = _run(closure_in_power, algebra, width, seeds, kind, pick, cap)
    assert got == _run(reference_closure, algebra, width, seeds, kind, pick, cap)


@_settings
@given(case=closure_cases(n=3, width=17))
def test_wide_closure_matches_reference(case):
    # 3^17 codes exceed the dense bitmap, so membership falls back to sorted codes
    algebra, width, seeds, kind, pick, cap = case
    assert algebra.size**width > core._DENSE_CODES
    got = _run(closure_in_power, algebra, width, seeds, kind, pick, cap)
    assert got == _run(reference_closure, algebra, width, seeds, kind, pick, cap)


@pytest.mark.parametrize("budget", [3, 10, 50, 200])
def test_grid_batches_tile_grid_within_budget(budget):
    sizes, width = [7, 6, 5], 2
    with mock.patch.object(core, "_CHUNK_CELLS", budget):
        batches = list(core._grid_batches(sizes, width))
    seen = []
    for prefix, sl in batches:
        grid = np.arange(np.prod(sizes)).reshape(sizes)[prefix][sl]
        assert grid.size * width <= max(budget, width)
        seen.extend(grid.ravel().tolist())
    assert seen == list(range(int(np.prod(sizes))))


def test_small_chunk_budget_keeps_members(gen1):
    # one leading row of the ternary grid exceeds the budget, so chunks also
    # split along the later axes
    algebra = gen1.algebra
    n = algebra.size
    seeds = [(a, b, a, b) for a, b in itertools.product(range(n), repeat=2) if a <= b][:5]
    expected, _ = reference_closure(algebra, 4, seeds)
    assert len(expected) ** 2 * 4 > 100
    for budget in (100, 10):
        with mock.patch.object(core, "_CHUNK_CELLS", budget):
            members, witness = closure_in_power(algebra, 4, seeds)
        assert witness is None and members == expected


def test_unary_frontier_is_one_batch():
    # the reference never split a unary frontier, so witnesses depend on it
    # staying whole, however far it exceeds the budget
    succ = FiniteAlgebra(5, [("s", 1, [1, 2, 3, 4, 0]), ("d", 1, [0, 2, 4, 1, 3])])
    seeds = [(0, 1, 2), (3, 3, 4)]
    with mock.patch.object(core, "_CHUNK_CELLS", 3):
        assert list(core._grid_batches([50], 3)) == [((), slice(0, 50))]
        for pick in range(0, 15, 5):
            got = _run(closure_in_power, succ, 3, seeds, "predicate", pick, 400)
            assert got == _run(reference_closure, succ, 3, seeds, "predicate", pick, 400)
            assert got[1] is not None
