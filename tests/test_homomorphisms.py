"""The one homomorphism search (`core._homomorphisms`) against the searches it
replaced: endomorphisms kept in the blocks of a partition and fixing a set
(the division ring's carrier), the lexicographically least isomorphism
(`find_isomorphism`), and the Freese ring's carrier."""

import itertools

from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import (
    FiniteAlgebra,
    Partition,
    certificate_from_operation,
    core,
    find_isomorphism,
    freese_ring,
    similarity,
)
from finalg.generator import fixture_gen1, fixture_gen2, fixture_gen3

from oracles import reference_endomorphisms_fixing, reference_find_isomorphism, reference_freese_carrier

SEARCH = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def raw_algebras(draw):
    """(n, ops): n from 2 to 5 and one or two operations of arity 0 to 3,
    as (arity, flat table) pairs; a nullary table is one constant."""
    n = draw(st.integers(2, 5))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    ops = [
        (k, draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for k in arities
    ]
    return n, ops


def _algebra(n, ops):
    return FiniteAlgebra(n, [(f"f{i}", k, t) for i, (k, t) in enumerate(ops)])


def _relabel(n, ops, perm):
    """The tables of the isomorphic copy along the permutation `perm`."""
    out = []
    for k, table in ops:
        new = [0] * len(table)
        for idx, args in enumerate(itertools.product(range(n), repeat=k)):
            j = 0
            for a in args:
                j = j * n + perm[a]
            new[j] = perm[table[idx]]
        out.append((k, new))
    return out


@st.composite
def blocked_algebras(draw):
    """(n, ops, block labels, fixed set) for a drawn algebra."""
    n, ops = draw(raw_algebras())
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return n, ops, labels, draw(st.sets(st.integers(0, n - 1)))


@SEARCH
@given(blocked_algebras())
# 0 -> 2 forces 1 -> f(2) = 2, out of the block of 1
@example((4, [(1, [1, 1, 2, 3])], [0, 1, 0, 1], set()))
# 0 -> 2 forces 2 -> f(2) = 1 and 2 -> g(2) = 2 at once
@example((3, [(1, [2, 1, 1]), (1, [2, 1, 2])], [0, 0, 0], set()))
def test_endomorphisms_in_blocks_match_reference(case):
    n, ops, labels, fixed = case
    phi = Partition.from_labels(n, labels)
    a = _algebra(n, ops)
    found = list(core._homomorphisms(a, a, similarity._kept_in_blocks(phi, fixed)))
    assert found == reference_endomorphisms_fixing(n, ops, phi.blocks, fixed)


@SEARCH
@given(raw_algebras(), st.data())
def test_least_isomorphism_matches_reference(alg, data):
    n, ops = alg
    perm = data.draw(st.permutations(range(n)))
    copy = _relabel(n, ops, perm)
    h = find_isomorphism(_algebra(n, ops), _algebra(n, copy))
    assert h is not None
    assert h.images == reference_find_isomorphism(n, ops, copy)

    # one table entry changed: both searches agree on None or on the map
    i = data.draw(st.integers(0, len(ops) - 1))
    k, table = copy[i]
    cell = data.draw(st.integers(0, len(table) - 1))
    table = list(table)
    table[cell] = data.draw(st.integers(0, n - 1))
    copy[i] = (k, table)
    h = find_isomorphism(_algebra(n, ops), _algebra(n, copy))
    assert (None if h is None else h.images) == reference_find_isomorphism(n, ops, copy)


def test_constants_forced_onto_one_image_are_not_isomorphic():
    """The two constants of a are forced in one step onto the one constant
    of b, so the injective search must refuse the merged map."""
    a = FiniteAlgebra(3, [("c", 0, [2]), ("e", 0, [1])])
    b = FiniteAlgebra(3, [("c", 0, [1]), ("e", 0, [1])])
    assert reference_find_isomorphism(3, [(0, [2]), (0, [1])], [(0, [1]), (0, [1])]) is None
    assert find_isomorphism(a, b) is None


def test_freese_carriers_match_reference(z2, cert_z2, z4, cert_z4, z4_theta):
    cases = [(z2, Partition.one(2), cert_z2), (z4, z4_theta, cert_z4)]
    for fixture in (fixture_gen1, fixture_gen2, fixture_gen3):
        gen = fixture()
        cases.append((gen.algebra, gen.mu, certificate_from_operation(gen.algebra, "d")))
    for algebra, theta, cert in cases:
        transversal = [blk[0] for blk in theta.blocks]
        fr = freese_ring(algebra, theta, transversal, cert)
        expected = reference_freese_carrier(
            algebra.size, cert.d, theta.blocks, fr.base_points, fr.restrictions
        )
        assert fr.carrier == expected
