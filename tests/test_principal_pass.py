"""The pair-graph pass that gives every principal congruence at once, against
the per-pair worklist on operation tables and against the congruence kernel
it replaced for Con(A): on the algebra and on materialized pair algebras, at
the default slice budget and at a budget that slices the edge gather, on a
long chain of components, and with the kernel switched off."""

from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import (
    FiniteAlgebra,
    Partition,
    congruence_generated,
    congruence_lattice,
    congruences,
    core,
    principal_congruence,
)

from oracles import brute_congruences, reference_generated, reference_pair_algebra
from test_congruence_kernel import _affine_quaternary, _algebra, cases

# pair algebras up to this size are checked on every pair, larger ones on
# the drawn picks, since the worklist oracle rebuilds its translations per call
EVERY_PAIR_UP_TO = 16


def _check_principals(n, ops, pairs):
    algebra = _algebra(n, ops)
    for a, b in pairs:
        assert principal_congruence(algebra, a, b).blocks == reference_generated(n, ops, [(a, b)])
    assert all(principal_congruence(algebra, a, a) == Partition.zero(n) for a in range(n))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), tiny=st.booleans())
@example(case=(4, [], [(0, 1)], [(1, 2)], [(0, 3)]), tiny=True)
@example(case=(3, [(0, [2])], [(0, 1)], [(1, 2)], [(0, 4)]), tiny=True)
@example(case=_affine_quaternary(), tiny=False)
@example(case=_affine_quaternary(), tiny=True)
def test_every_principal_congruence_matches_the_worklist(case, tiny):
    n, ops, _, theta_seeds, picks = case
    pairs, pair_ops = reference_pair_algebra(n, ops, reference_generated(n, ops, theta_seeds))
    size = len(pairs)
    if size <= EVERY_PAIR_UP_TO:
        pair_pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    else:
        pair_pairs = [(i % size, j % size) for i, j in picks]
    # a budget of 16 cells gathers the edges one translation at a time; a
    # fresh algebra for each budget, since the pass is memoized
    budget = 16 if tiny else core._CHUNK_CELLS
    with mock.patch.object(core, "_CHUNK_CELLS", budget):
        _check_principals(n, ops, [(a, b) for a in range(n) for b in range(a + 1, n)])
        _check_principals(size, pair_ops, pair_pairs)


def test_components_come_sinks_first_without_recursion():
    """A path of 5000 nodes ending in a 2-cycle: far deeper than Python's
    recursion limit, and every edge points to an earlier component."""
    m = 5000
    succ = list(range(1, m)) + [m - 2]
    comp, count = congruences._components_sinks_first(list(range(m + 1)), succ)
    assert count == m - 1
    assert comp[m - 1] == comp[m - 2] == 0
    assert all(comp[v] > comp[w] for v, w in enumerate(succ) if comp[v] != comp[w])


def test_a_long_chain_of_components_agrees_with_the_kernel():
    """f(x) = min(x + 1, n - 1) on n = 80: 3160 pairs, each reaching every
    pair shifted further up, a long chain of components."""
    n = 80
    algebra = FiniteAlgebra(n, [("f", 1, [min(x + 1, n - 1) for x in range(n)])])
    kernel = FiniteAlgebra(n, algebra.operations)
    for a in range(n):
        for b in range(a + 1, n):
            expected = congruence_generated(kernel, [(a, b)])
            assert principal_congruence(algebra, a, b) == principal_congruence(algebra, b, a) == expected


def test_con_and_principals_run_no_kernel(gen1, gen2, gen3):
    """Con(A) and every Cg(a, b) come from the pass alone, built once per
    algebra."""
    for gen in (gen1, gen2, gen3):
        algebra = FiniteAlgebra(gen.algebra.size, gen.algebra.operations)
        n = algebra.size
        sccs = mock.Mock(wraps=congruences._components_sinks_first)
        with mock.patch.object(congruences, "_generate_congruence", side_effect=AssertionError("kernel ran")), \
                mock.patch.object(congruences, "_components_sinks_first", sccs):
            lattice = congruence_lattice(algebra)
            table = [principal_congruence(algebra, a, b) for a in range(n) for b in range(n)]
        assert sccs.call_count == 1
        assert set(lattice.elements) == set(brute_congruences(gen.algebra))
        assert set(table) <= set(lattice.elements)
