"""The weak-difference-term check at principal congruences, against the
brute-force sweep of Con(A)^2, and the theta = 0 shortcuts it rests on: the
term condition, the two-term condition and the centralizer at theta = 0
without the kernel or a closure."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import FiniteAlgebra, Partition, power, verify_wdt
from finalg import centrality, congruences, diffterm
from finalg.centrality import centralizer, centralizes, two_term_condition

from oracles import (
    brute_centralizer,
    brute_centralizes,
    brute_congruences,
    matrix_centralizes,
    naive_matrix_closure,
    reference_wdt_verdict,
    seed_matrices,
)


@st.composite
def algebras(draw):
    """(n, ops) with n <= 4 and arities 0-2: the brute force closes matrix
    sets over the full argument grid, which grows as |A|^(4 * arity), and
    A^2 is checked at n <= 2.  Tables may be forced to respect a drawn partition,
    so that Con(A) is not just {0, 1}."""
    n = draw(st.integers(1, 4))
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    canon = [labels.index(labels[x]) for x in range(n)]
    respect = draw(st.booleans())
    ops = []
    for i, k in enumerate(arities):
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
        ops.append((f"f{i}", k, table))
    return n, ops


def _tables(n: int, seed: int) -> list[list[int]]:
    """Projections, clipped and modular x - y + z, and random idempotent tables."""
    idx = list(itertools.product(range(n), repeat=3))
    rng = random.Random(seed)
    out = [[x for x, _, _ in idx], [z for _, _, z in idx]]
    out.append([min(n - 1, max(0, x - y + z)) for x, y, z in idx])
    out.append([(x - y + z) % n for x, y, z in idx])
    for _ in range(3):
        t = [rng.randrange(n) for _ in idx]
        for x in range(n):
            t[(x * n + x) * n + x] = x
        out.append(t)
    return out


def _z(n, op):
    return n, [("f", 2, [op(x, y) % n for x, y in itertools.product(range(n), repeat=2)])]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras(), seed=st.integers(0, 10**6))
@example(case=_z(4, lambda x, y: x - y), seed=0)
@example(case=_z(2, lambda x, y: x + y), seed=1)
@example(case=(2, [("f", 2, [0, 0, 0, 1])]), seed=2)
@example(case=(3, [("c", 0, [1])]), seed=3)
def test_verify_wdt_matches_brute_sweep(case, seed):
    n, ops = case
    for scope in [(1,), (1, 2)] if n <= 2 else [(1,)]:
        for d in _tables(n, seed):
            got = verify_wdt(FiniteAlgebra(n, ops), d, scope=scope)
            assert got.verdict == reference_wdt_verdict(FiniteAlgebra(n, ops), d, scope), (scope, d)
            assert (got.failure is None) == got.verdict


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras())
@example(case=_z(4, lambda x, y: x - y))
@example(case=(4, [("c", 0, [1])]))
def test_self_commutator_is_least_centralizing_congruence(case):
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    con = brute_congruences(algebra)
    commutators = diffterm._principal_conditions(algebra)[0]
    for comm, psi in commutators:
        central = [d for d in con if brute_centralizes(algebra, psi, psi, d)]
        least = [d for d in central if all(d.leq(e) for e in central)]
        assert len(least) == 1
        expected = least[0]
        assert diffterm._self_commutator(algebra, psi) == expected
        # the shortcut of the condition table reads the same commutator
        assert comm == expected
    # one entry per distinct principal congruence
    principal = {congruences.principal_congruence(algebra, a, b) for a in range(n) for b in range(n) if a != b}
    assert {psi for _, psi in commutators} == principal


@pytest.mark.parametrize("fixture", ["z4", "s2", "gen1", "gen3"])
def test_self_commutators_of_fixtures(request, fixture):
    algebra = request.getfixturevalue(fixture)
    algebra = getattr(algebra, "algebra", algebra)
    for comm, psi in diffterm._principal_conditions(algebra)[0]:
        assert comm == diffterm._self_commutator(algebra, psi)
        assert comm.leq(psi) and centralizes(algebra, psi, psi, comm).holds
        # every congruence with C(psi, psi; delta) lies above it
        for delta in congruences.congruence_lattice(algebra).elements:
            if centralizes(algebra, psi, psi, delta).holds:
                assert comm.leq(delta)


def test_verify_wdt_reports_principal_pairs(z2, gen1):
    proj1 = [x for x, _, _ in itertools.product(range(2), repeat=3)]
    cert = verify_wdt(z2, proj1)
    assert cert.failure == ("congruence-condition", "A", Partition.zero(2), Partition.one(2), (0, 1))
    assert cert.checked == (("A", Partition.zero(2), Partition.one(2)),)
    cert = verify_wdt(gen1.algebra, gen1.algebra.operation("d").table, scope=(1, 2))
    assert cert.verdict
    assert [label for label, _, _ in cert.checked].count("A") == 2
    assert len(cert.checked) == 15


def _no_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("theta = 0 ran the kernel or a closure")

    for name in ("diagonal_pair_congruence", "_pair_translations", "closure_in_power"):
        monkeypatch.setattr(centrality, name, refuse)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras())
@example(case=_z(4, lambda x, y: x - y))
def test_zero_theta_shortcuts_match_oracles(case):
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    zero = Partition.zero(n)
    con = brute_congruences(algebra)
    constant = naive_matrix_closure(algebra, seed_matrices(zero.pairs(), zero.pairs()))
    two_term = all(
        m[3] == other[3] for m in constant for other in constant if m[:3] == other[:3]
    )
    with pytest.MonkeyPatch.context() as mp:
        _no_kernel(mp)
        assert two_term_condition(algebra, zero).holds == two_term
        for delta in con:
            assert centralizer(algebra, delta, zero) == brute_centralizer(algebra, delta, zero)
            for phi in con:
                assert centralizes(algebra, phi, zero, delta).holds
                assert brute_centralizes(algebra, phi, zero, delta)
                assert matrix_centralizes(algebra, phi, zero, delta) == (True, True)


def test_zero_theta_size_mismatch_still_raises(z4):
    wrong = Partition.zero(5)
    one = Partition.one(4)
    with pytest.raises(ValueError):
        centralizes(z4, one, wrong, Partition.zero(4))
    with pytest.raises(ValueError):
        centralizer(z4, Partition.zero(4), wrong)


def _idempotent_ternary(rng, n):
    table = [rng.randrange(n) for _ in range(n**3)]
    for x in range(n):
        table[(x * n + x) * n + x] = x
    return table


@pytest.mark.parametrize("k", [2, 3])
def test_lifted_d_matches_the_power_lift(request, k):
    """d lifted to A^k from the digits of the cells equals d's table in the
    materialized power of the algebra (d), on every cell: gen1-gen3 at
    k = 2, gen1 and gen3 at k = 3 (gen2's 512^3-cell cube is left out),
    and random idempotent tables."""
    rng = random.Random(k)
    tables = [_idempotent_ternary(rng, n) for n in (1, 2, 3, 4) for _ in range(3)]
    names = ("gen1", "gen2", "gen3") if k == 2 else ("gen1", "gen3")
    tables += [request.getfixturevalue(name).algebra.operation("d").array() for name in names]
    for d in tables:
        n = round(len(d) ** (1 / 3))
        algebra = FiniteAlgebra(n, [("d", 3, d)])
        lift = power(algebra, k).operations[0].array()
        got = diffterm._lifted(algebra.operations[0].array(), n, k, np.arange(len(lift)))
        assert np.array_equal(got, lift)


def test_lifted_d_on_the_cube_of_gen2(gen2):
    """gen2 at k = 3, where the power lift would be a 512^3-cell table:
    sampled cells against d applied to each coordinate."""
    d = gen2.algebra.operation("d").table
    n, k = gen2.algebra.size, 3
    m = n**k
    rng = random.Random(0)
    cells = [rng.randrange(m**3) for _ in range(2000)]
    got = diffterm._lifted(gen2.algebra.operation("d").array(), n, k, np.array(cells))

    def coordinates(element):
        return [element // n ** (k - 1 - i) % n for i in range(k)]

    for cell, value in zip(cells, got.tolist()):
        x, y, z = (coordinates(e) for e in (cell // (m * m), cell // m % m, cell % m))
        image = [d[(a * n + b) * n + c] for a, b, c in zip(x, y, z)]
        assert value == sum(v * n ** (k - 1 - i) for i, v in enumerate(image))
