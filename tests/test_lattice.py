"""Con(A) and its tables, built lazily in numpy, against the eager
construction of `oracles.reference_lattice` (all-pairs join closure, |Con|^2
tables, cubic cover loop), and its elements against `brute_congruences`."""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import (
    CapExceededError,
    FiniteAlgebra,
    congruence_lattice,
    core,
    fixtures,
    structure_report,
)
from finalg.generator import fixture_gen1, fixture_gen2, fixture_gen3

from oracles import brute_congruences, reference_lattice


@st.composite
def algebras(draw):
    """(n, ops), ops as (arity, flat table).  Tables may be forced to respect
    a drawn partition, so that Con(A) is not just {0, 1}."""
    n = draw(st.integers(2, 6))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    canon = [labels.index(labels[x]) for x in range(n)]
    respect = draw(st.booleans())
    ops = []
    for k in arities:
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        if respect:
            out = []
            for idx, args in enumerate(itertools.product(range(n), repeat=k)):
                rep = 0
                for a in args:
                    rep = rep * n + canon[a]
                want = table[rep]
                out.append(table[idx] if labels[table[idx]] == labels[want] else canon[want])
            table = out
        ops.append((k, table))
    return n, ops


def _algebra(n, ops):
    return FiniteAlgebra(n, [(f"f{i}", k, table) for i, (k, table) in enumerate(ops)])


def _assert_matches_reference(algebra):
    lat = congruence_lattice(algebra)
    ops = [(op.arity, op.table) for op in algebra.operations]
    elements, leq, join, meet, covers = reference_lattice(algebra.size, ops)
    assert [p.index for p in lat.elements] == elements
    assert lat.leq_matrix == leq
    assert lat.join_table == join
    assert lat.meet_table == meet
    assert lat.covers == covers
    # in a finite lattice the meet-irreducibles, read off the reference meet
    # table, are the completely meet-irreducibles of structure_report
    m = len(elements)
    top = next(i for i in range(m) if all(leq[j][i] for j in range(m)))
    meet_irreducibles = {
        i for i in range(m)
        if i != top and not any(
            meet[j][k] == i
            for j in range(m) for k in range(m)
            if j != i and k != i and leq[i][j] and leq[i][k]
        )
    }
    rep = structure_report(lat)
    assert {lat.position(low) for low, _ in rep.completely_meet_irreducibles} == meet_irreducibles
    return lat


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras(), tiny=st.booleans())
@example(case=(5, [(0, [2])]), tiny=False)  # constant-only: all 52 partitions
@example(case=(5, [(0, [2])]), tiny=True)
@example(case=(4, [(2, [(x + y) % 4 for x in range(4) for y in range(4)])]), tiny=False)
def test_lattice_matches_eager_reference(case, tiny):
    n, ops = case
    algebra = _algebra(n, ops)
    # a budget of 16 cells builds the order and the tables one row at a time
    with mock.patch.object(core, "_CHUNK_CELLS", 16 if tiny else core._CHUNK_CELLS):
        lat = _assert_matches_reference(algebra)
    assert set(lat.elements) == set(brute_congruences(algebra))


def test_fixture_lattices_match_eager_reference():
    for algebra in (
        fixtures.z2(),
        fixtures.z4(),
        fixtures.s2(),
        fixtures.two_squared(),
        fixture_gen1().algebra,
        fixture_gen2().algebra,
        fixture_gen3().algebra,
    ):
        _assert_matches_reference(algebra)


@pytest.mark.parametrize(
    "n, ops",
    [
        (5, [(0, [2])]),
        # Con(Z4) is 0 and its two principal congruences: no join adds to it
        (4, [(2, [(x + y) % 4 for x in range(4) for y in range(4)])]),
    ],
)
def test_closure_raises_at_a_cap_one_below_its_size(n, ops):
    size = len(congruence_lattice(_algebra(n, ops)))
    # a fresh algebra each time: the lattice is memoized on the algebra
    with pytest.raises(CapExceededError):
        congruence_lattice(_algebra(n, ops), cap=size - 1)
    assert len(congruence_lattice(_algebra(n, ops), cap=size)) == size


def test_memoized_lattice_still_respects_the_cap():
    """A memo hit re-checks the cap: the second call on the same algebra
    raises exactly as a first call with that cap would."""
    algebra = _algebra(5, [(0, [2])])
    assert len(congruence_lattice(algebra)) == 52
    with pytest.raises(CapExceededError):
        congruence_lattice(algebra, cap=10)
    assert len(congruence_lattice(algebra, cap=52)) == 52
