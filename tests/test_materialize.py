"""The one materializer against the per-tuple loops it replaced: subsets of
products (`core._materialize`), quotients and homomorphism checks, each at
the default chunk budget and at a budget of 16 cells, which cuts every
gather into many chunks."""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from finalg import ElementMap, FiniteAlgebra, Partition, core, is_congruence, is_homomorphism, power, quotient

from oracles import compatible, reference_is_homomorphism, reference_quotient, reference_restrict

BUDGETS = (core._CHUNK_CELLS, 16)

# argument grids (rows^arity) stay within this many cells, for the loops
GRID_CELLS = 3000


def _tables(draw, n, arities):
    """One random table per arity; a nullary operation is one constant."""
    return [draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)) for k in arities]


def _algebra(n, arities, tables):
    return FiniteAlgebra(n, [(f"f{i}", k, t) for i, (k, t) in enumerate(zip(arities, tables))])


def _relabel(algebra, perm):
    """The isomorphic copy of `algebra` along the permutation `perm`."""
    n = algebra.size
    ops = []
    for op in algebra.operations:
        table = [0] * len(op.table)
        for idx, args in enumerate(itertools.product(range(n), repeat=op.arity)):
            j = 0
            for a in args:
                j = j * n + perm[a]
            table[j] = perm[op.table[idx]]
        ops.append((op.name, op.arity, table))
    return FiniteAlgebra(n, ops)


def _close(factors, seeds, limit):
    """The subuniverse of the product generated by `seeds`, by a full-grid
    fixpoint; cut to its first `limit` rows once it grows past them."""
    found = set(seeds)
    while True:
        new = set()
        for i, op in enumerate(factors[0].operations):
            for args in itertools.product(sorted(found), repeat=op.arity):
                out = []
                for c, factor in enumerate(factors):
                    idx = 0
                    for t in args:
                        idx = idx * factor.size + t[c]
                    out.append(factor.operations[i].table[idx])
                new.add(tuple(out))
        new -= found
        found |= new
        if len(found) > limit:
            return sorted(found)[:limit]
        if not new:
            return sorted(found)


@st.composite
def restrictions(draw):
    """(factors, rows): 1-4 same-signature factors of sizes 2-5 (at most 3
    with a 4-ary operation) and sorted distinct rows of their product: a
    random subset, a generated subuniverse (cut short when it is large), or
    the graph of isomorphisms over a subuniverse of the first factor."""
    arities = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    top = 3 if 4 in arities else 5
    w = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["subset", "closure", "graph"]))
    limit = int(GRID_CELLS ** (1 / max(1, *arities)))
    if kind == "graph":
        n = draw(st.integers(2, top))
        first = _algebra(n, arities, _tables(draw, n, arities))
        perms = [list(range(n))] + [draw(st.permutations(range(n))) for _ in range(w - 1)]
        factors = [_relabel(first, perm) for perm in perms]
        universe = _close([first], [(draw(st.integers(0, n - 1)),)], n)
        return factors, [tuple(perm[x] for perm in perms) for (x,) in universe]
    sizes = draw(st.lists(st.integers(2, top), min_size=w, max_size=w))
    factors = [_algebra(n, arities, _tables(draw, n, arities)) for n in sizes]
    space = list(itertools.product(*map(range, sizes)))
    if kind == "subset":
        picks = draw(st.sets(st.integers(0, len(space) - 1), min_size=1, max_size=min(limit, len(space))))
        return factors, [space[i] for i in sorted(picks)]
    seeds = draw(st.lists(st.sampled_from(space), min_size=1, max_size=2))
    return factors, _close(factors, seeds, limit)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=restrictions())
def test_materialize_matches_the_loops(case):
    factors, rows = case
    tables, witness = reference_restrict(factors, rows)
    for budget in BUDGETS:
        with mock.patch.object(core, "_CHUNK_CELLS", budget):
            got, got_witness = core._materialize(factors, rows)
        assert got_witness == witness
        if witness is None:
            assert got.size == len(rows)
            assert got.signature() == factors[0].signature()
            assert [list(op.table) for op in got.operations] == tables
        else:
            assert got is None


@st.composite
def partitions(draw):
    """(algebra, partition): n 2-5, arity 0-3 (4 at n <= 3); the tables are
    sometimes forced to respect the partition, so that it is a congruence."""
    n = draw(st.integers(2, 5))
    arities = draw(st.lists(st.integers(0, 4 if n <= 3 else 3), min_size=1, max_size=2))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    tables = _tables(draw, n, arities)
    if draw(st.booleans()):
        canon = [labels.index(labels[x]) for x in range(n)]
        for table, k in zip(tables, arities):
            for idx, args in enumerate(itertools.product(range(n), repeat=k)):
                rep = 0
                for a in args:
                    rep = rep * n + canon[a]
                if labels[table[idx]] != labels[table[rep]]:
                    table[idx] = canon[table[rep]]
    return _algebra(n, arities, tables), Partition.from_labels(n, labels)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=partitions())
def test_quotient_matches_the_loops(case):
    algebra, theta = case
    try:
        expected = reference_quotient(algebra, theta.blocks)
        error = None
    except ValueError as exc:
        error = str(exc)
    for budget in BUDGETS:
        with mock.patch.object(core, "_CHUNK_CELLS", budget):
            assert is_congruence(algebra, theta) == (error is None)
            if error is not None:
                with pytest.raises(ValueError) as info:
                    quotient(algebra, theta)
                assert str(info.value) == error
                continue
            q = quotient(algebra, theta)
        tables, labels, reps = expected
        assert [list(op.table) for op in q.algebra.operations] == tables
        assert list(q.projection.images) == labels
        assert list(q.block_representatives) == reps
    assert (error is None) == compatible(algebra, theta.blocks)


@st.composite
def maps(draw):
    """(a, b, images): a map between same-signature algebras that is a
    random map, an isomorphism onto a relabeled copy, or such an
    isomorphism after one table entry of the copy was changed."""
    n = draw(st.integers(2, 5))
    arities = draw(st.lists(st.integers(0, 4 if n <= 3 else 3), min_size=1, max_size=2))
    a = _algebra(n, arities, _tables(draw, n, arities))
    kind = draw(st.sampled_from(["random", "isomorphism", "perturbed"]))
    if kind == "random":
        m = draw(st.integers(2, 5 if max(arities) < 4 else 3))
        b = _algebra(m, arities, _tables(draw, m, arities))
        return a, b, draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    b = _relabel(a, perm)
    if kind == "perturbed":
        i = draw(st.integers(0, len(arities) - 1))
        ops = [(op.name, op.arity, list(op.table)) for op in b.operations]
        cell = draw(st.integers(0, len(ops[i][2]) - 1))
        ops[i][2][cell] = draw(st.integers(0, n - 1))
        b = FiniteAlgebra(n, ops)
    return a, b, list(perm)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=maps())
def test_is_homomorphism_matches_the_loop(case):
    a, b, images = case
    expected = reference_is_homomorphism(a, b, images)
    for budget in BUDGETS:
        with mock.patch.object(core, "_CHUNK_CELLS", budget):
            assert is_homomorphism(a, b, ElementMap(a.size, b.size, images)) == expected


def test_is_homomorphism_needs_one_signature_and_matching_sizes(z4, s2):
    assert not is_homomorphism(z4, s2, ElementMap(4, 2, [0, 1, 0, 1]))
    with pytest.raises(ValueError, match="sizes"):
        is_homomorphism(z4, z4, ElementMap(4, 5, [0, 1, 2, 3]))


@pytest.mark.parametrize("name, k", [("two_sq", 1), ("two_sq", 2), ("z2", 3)])
def test_power_is_the_full_product(request, name, k):
    algebra = request.getfixturevalue(name)
    rows = list(itertools.product(range(algebra.size), repeat=k))
    tables, witness = reference_restrict([algebra] * k, rows)
    assert witness is None
    assert [list(op.table) for op in power(algebra, k).operations] == tables


def test_no_rows_give_no_results_and_no_algebra(z2):
    """An empty relation is vacuously closed, and there is no empty algebra."""
    assert list(core._restricted_results([z2, z2], [])) == []
    with pytest.raises(ValueError, match="size must be >= 1"):
        core._materialize([z2, z2], [])
