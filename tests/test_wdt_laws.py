"""The weak-difference-term law harness against its former loops: the
reflexive-subuniverse law closed once per pair-graph component against one
closure per pair and theta, the batched subuniverse test and transversal
scan against closing each candidate, and the batched polynomial-commutation
sample on a forged certificate."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import (
    FiniteAlgebra,
    Operation,
    Partition,
    check_wdt_laws,
    congruence_lattice,
    core,
    diffterm,
    generate_subuniverse,
    is_subuniverse,
    search_wdt,
    subuniverse_transversals,
)
from finalg.congruences import _principal_congruences
from finalg.diffterm import WdtCertificate
from finalg.generator import config_from_dict, generate_example

from oracles import reference_reflexive_witness, reference_subuniverse_transversals


@st.composite
def algebras(draw, max_size=5):
    """(n, ops) with n <= max_size, one to three operations of arity 0-3."""
    n = draw(st.integers(1, max_size))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    ops = [
        (f"f{i}", k, draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for i, k in enumerate(arities)
    ]
    return n, ops


def _projection_certificate(algebra: FiniteAlgebra) -> WdtCertificate:
    """A certificate for d(x, y, z) = x, passed as term-derived so that the
    harness does not search the clone again; d commutes with every
    operation, so only the reflexive law can fail."""
    n = algebra.size
    d = np.repeat(np.arange(n), n * n)
    return WdtCertificate(algebra, Operation("d", 3, d), (1,), (), True, provenance="term-derived")


def _components(algebra: FiniteAlgebra) -> set[int]:
    component = _principal_congruences(algebra)[2]
    return set(component[component >= 0].tolist())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras())
# a constant and the swap of 0 and 1: (0, 1) passes, (0, 2) is the witness
@example(case=(3, [("c", 0, [1]), ("f", 1, [1, 0, 2])]))
def test_reflexive_law_matches_the_per_pair_loop(case):
    """With every congruence taken as abelian, the verdict and witness are
    the per-pair loop's, from at most one closure per component."""
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    thetas = [t for t in congruence_lattice(algebra).elements if t.rank > 0]
    expected = reference_reflexive_witness(algebra, thetas)
    closures = mock.Mock(wraps=diffterm.closure_in_power)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffterm, "is_abelian", lambda *args: True)
        mp.setattr(diffterm, "_is_minimal_congruence", lambda *args: False)
        mp.setattr(diffterm, "closure_in_power", closures)
        item = check_wdt_laws(algebra, _projection_certificate(algebra)).item("reflexive-subuniverse")
    assert item.witness == expected
    assert item.passed == (expected is None)
    if expected is None:
        # the full congruence holds every pair, so every component is closed
        assert closures.call_count == len(_components(algebra))
    else:
        assert closures.call_count <= len(_components(algebra))


def test_meet_semilattice_fails_the_reflexive_law(s2):
    """rho(0, 1) = {(0, 0), (1, 1), (0, 1)} in the 2-element meet
    semilattice is not symmetric."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffterm, "is_abelian", lambda *args: True)
        mp.setattr(diffterm, "_is_minimal_congruence", lambda *args: False)
        item = check_wdt_laws(s2, _projection_certificate(s2)).item("reflexive-subuniverse")
    assert item.passed is False
    assert item.witness == (Partition.one(2), (0, 1))
    assert reference_reflexive_witness(s2, [Partition.one(2)]) == item.witness


@pytest.mark.parametrize("name", ["gen1", "gen3", "g7"])
def test_one_reflexive_closure_on_generated_examples(name, request):
    if name == "g7":
        config = {"field": {"p": 3, "k": 1}, "dims": [2, 1], "subspaces": [[[[1, 0]]], []]}
        algebra = generate_example(config_from_dict(config)).algebra
    else:
        algebra = request.getfixturevalue(name).algebra
    cert = search_wdt(algebra, cap=3000)
    closures = mock.Mock(wraps=diffterm.closure_in_power)
    with mock.patch.object(diffterm, "closure_in_power", closures):
        report = check_wdt_laws(algebra, cert)
    assert report.item("reflexive-subuniverse").passed
    assert closures.call_count == 1


def test_component_numbers_are_symmetric(gen2):
    algebra = gen2.algebra
    n = algebra.size
    component = _principal_congruences(algebra)[2].reshape(n, n)
    assert (component == component.T).all()
    assert (np.diag(component) == -1).all()
    assert (component[~np.eye(n, dtype=bool)] >= 0).all()


def _agrees_on_every_subset(algebra: FiniteAlgebra):
    n = algebra.size
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            assert is_subuniverse(algebra, subset) == (generate_subuniverse(algebra, subset) == set(subset))


@pytest.mark.parametrize("budget", [None, 16, 1])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras())
def test_is_subuniverse_matches_generation(budget, case):
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(core, "_CHUNK_CELLS", budget)
        _agrees_on_every_subset(algebra)


@pytest.mark.parametrize("budget", [None, 16, 1])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras())
def test_transversal_scan_matches_the_per_candidate_scan(budget, case):
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(core, "_CHUNK_CELLS", budget)
        for theta in congruence_lattice(algebra).elements:
            expected = reference_subuniverse_transversals(algebra, theta)
            assert subuniverse_transversals(algebra, theta) == expected


def test_empty_set_generates_the_constants():
    """Sg(empty set) is the subuniverse generated by the constants."""
    cycle = FiniteAlgebra(3, [("c", 0, [2]), ("f", 1, [1, 2, 0])])
    assert generate_subuniverse(cycle, []) == frozenset({0, 1, 2})
    assert not is_subuniverse(cycle, [])
    assert is_subuniverse(cycle, [0, 1, 2])
    _agrees_on_every_subset(cycle)
    constant = FiniteAlgebra(3, [("c", 0, [2])])
    assert generate_subuniverse(constant, []) == frozenset({2})
    assert not is_subuniverse(constant, [])
    assert is_subuniverse(constant, [2])
    assert not is_subuniverse(constant, [0])
    _agrees_on_every_subset(constant)
    no_constants = FiniteAlgebra(3, [("f", 1, [1, 2, 0])])
    assert generate_subuniverse(no_constants, []) == frozenset()
    assert is_subuniverse(no_constants, [])


def test_forged_certificate_fails_polynomial_commutation(z4, cert_z4, z4_theta):
    """d = x - y + z on the classes of theta, so that the class groups hold,
    and the first projection across them: on the full congruence, which is
    abelian in Z4, d fails to commute with x - y + z on many cases."""
    n = 4
    label = np.array(z4_theta.index)
    x, y, z = np.indices((n, n, n)).reshape(3, -1)
    inside = (label[x] == label[y]) & (label[y] == label[z])
    bad = np.where(inside, (x - y + z) % n, x)
    forged = dataclasses.replace(cert_z4, operation=Operation("d", 3, bad))
    p = z4.operation("p").array()
    # every case (a, b, c) of three argument triples, as nine columns
    a, b, c = np.indices((n,) * 9).reshape(3, 3, -1)
    place = n ** np.arange(2, -1, -1)
    lhs = bad[(p[a.T @ place] * n + p[b.T @ place]) * n + p[c.T @ place]]
    rhs = p[bad[(a * n + b) * n + c].T @ place]
    assert (lhs != rhs).mean() > 0.25

    item = check_wdt_laws(z4, forged).item("polynomial-commutation")
    assert item.passed is False
    theta, aa, bb, cc = item.witness
    assert theta == Partition.one(n)
    assert all(type(v) is int for v in aa + bb + cc)

    def f(args):
        return int(p[(args[0] * n + args[1]) * n + args[2]])

    def d(u, v, w):
        return int(bad[(u * n + v) * n + w])

    lhs = d(f(aa), f(bb), f(cc))
    rhs = f([d(aa[i], bb[i], cc[i]) for i in range(3)])
    assert lhs != rhs

