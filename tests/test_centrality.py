import pytest

from finalg import (
    CapExceededError,
    FiniteAlgebra,
    Partition,
    Tolerance,
    centralizer,
    centralizes,
    check_centrality_laws,
    congruence_lattice,
    fixtures,
    generate_matrices,
    is_abelian,
    two_term_condition,
)
from finalg import centrality
from finalg.core import quotient
from finalg.diffterm import search_wdt

from oracles import brute_centralizer, brute_centralizes, naive_matrix_closure, seed_matrices


def test_matrix_set_examples(z2, s2):
    one2 = Partition.one(2)
    ms = generate_matrices(z2, one2, one2)
    assert len(ms) == 8
    assert all((a ^ b ^ c ^ d) == 0 for a, b, c, d in ms.matrices)
    from finalg.centrality import seed_matrices

    assert set(seed_matrices(z2, one2, one2)) <= set(ms.matrices)
    zero2 = Partition.zero(2)
    diag = generate_matrices(z2, zero2, zero2)
    assert set(diag.matrices) == {(a, a, a, a) for a in range(2)}
    ms2 = generate_matrices(s2, one2, one2)
    # the meet of a column seed and a row seed: columns (0, 1), (0, 0)
    assert (0, 1, 0, 0) in set(ms2.matrices)


def test_memoized_matrix_set_still_respects_the_cap():
    """A memo hit re-checks the cap: the second call on the same algebra
    raises exactly as a first call with that cap would."""
    algebra = fixtures.z4()
    one = Partition.one(4)
    assert len(generate_matrices(algebra, one, one)) == 64
    with pytest.raises(CapExceededError):
        generate_matrices(fixtures.z4(), one, one, cap=1)
    with pytest.raises(CapExceededError):
        generate_matrices(algebra, one, one, cap=1)
    with pytest.raises(CapExceededError):
        generate_matrices(algebra, one, one, cap=63)
    assert len(generate_matrices(algebra, one, one, cap=64)) == 64


def test_matrix_sets_match_naive_closure(z2, z4, s2, z4_theta):
    cases = [
        (z2, Partition.one(2), Partition.one(2)),
        (s2, Partition.one(2), Partition.one(2)),
        (z4, z4_theta, Partition.one(4)),
        (z4, z4_theta, z4_theta),
    ]
    for alg, th, ph in cases:
        ms = generate_matrices(alg, th, ph)
        oracle = naive_matrix_closure(alg, seed_matrices(th.pairs(), ph.pairs()))
        assert frozenset(ms.matrices) == oracle
        # role-M invariant: columns in theta, rows in phi
        for a1, a2, a3, a4 in ms.matrices:
            assert th.related(a1, a2) and th.related(a3, a4)
            assert ph.related(a1, a3) and ph.related(a2, a4)


def test_centralizes_examples(z2, s2, z4, z4_theta):
    one2, zero2 = Partition.one(2), Partition.zero(2)
    assert centralizes(z2, one2, one2, zero2).holds
    v = centralizes(s2, one2, one2, zero2)
    assert not v.holds
    # the witness: the pairs (0, 0) and (0, 1) lie in one class of the
    # diagonal congruence, and only the first is in delta
    assert v.witness == (0, 0, 0, 1)
    assert centralizes(z4, Partition.zero(4), z4_theta, Partition.zero(4)).holds


def test_centralizer_examples(z4, s2, z4_theta):
    assert centralizer(z4, Partition.zero(4), z4_theta) == Partition.one(4)
    assert centralizer(s2, Partition.zero(2), Partition.one(2)) == Partition.zero(2)
    assert centralizer(s2, Partition.one(2), Partition.one(2)) == Partition.one(2)


def test_centralizer_matches_brute(z2, s2, z4, two_sq, z4_theta):
    for alg in (z2, s2, z4, two_sq):
        lat = congruence_lattice(alg)
        for delta in lat.elements:
            for theta in lat.elements:
                assert centralizer(alg, delta, theta) == brute_centralizer(alg, delta, theta)


def test_is_abelian_examples(z4, s2, z4_theta):
    assert is_abelian(z4, z4_theta)
    assert not is_abelian(s2, Partition.one(2))
    assert is_abelian(s2, Partition.zero(2))
    with pytest.raises(ValueError):
        is_abelian(z4, z4_theta, Partition.one(4))


def test_two_term_examples(z2, s2):
    assert two_term_condition(z2, Partition.one(2)).holds
    verdict = two_term_condition(s2, Partition.one(2))
    assert not verdict.holds
    m1, m2 = verdict.witness
    assert m1[:3] == m2[:3] and m1[3] != m2[3]
    assert two_term_condition(s2, Partition.zero(2)).holds


def test_monotonicity_in_second_argument(z4, two_sq, z4_theta):
    # theta' <= theta and C(phi, theta; delta) imply C(phi, theta'; delta)
    cases = [(z4, z4_theta), (two_sq, Partition(4, [[0, 1], [2, 3]]))]
    for alg, smaller in cases:
        one = Partition.one(alg.size)
        zero = Partition.zero(alg.size)
        assert centralizes(alg, one, one, zero).holds
        assert centralizes(alg, one, smaller, zero).holds


def test_abelian_iff_two_term_with_wdt(z2, z4, s2, two_sq, gen1, gen2, gen3,
                                       cert_z2, cert_z4, cert_two_sq,
                                       cert_gen1, cert_gen2, cert_gen3):
    cases = [
        (z2, cert_z2), (z4, cert_z4), (two_sq, cert_two_sq),
        (gen1.algebra, cert_gen1), (gen2.algebra, cert_gen2), (gen3.algebra, cert_gen3),
        (s2, search_wdt(s2)),
    ]
    for alg, cert in cases:
        assert cert is not None and cert.verdict
        for theta in congruence_lattice(alg).elements:
            assert is_abelian(alg, theta) == two_term_condition(alg, theta).holds


def test_oracle_agreement_small(z2, s2):
    for alg in (z2, s2):
        lat = congruence_lattice(alg)
        for phi in lat.elements:
            for theta in lat.elements:
                for delta in lat.elements:
                    assert (
                        centralizes(alg, phi, theta, delta).holds
                        == brute_centralizes(alg, phi, theta, delta)
                    )


def test_tolerance_generation(s2):
    tol = Tolerance.generated(s2, [(0, 1)])
    assert (0, 1) in tol.pairs and (1, 0) in tol.pairs and (0, 0) in tol.pairs
    ms = generate_matrices(s2, tol, tol)
    assert len(ms) >= 4


def test_centrality_laws_z4(z4, cert_z4):
    rep = check_centrality_laws(z4, certificate=cert_z4)
    assert rep.passed
    assert {item.id for item in rep.items} == {
        "quotient-centralizer",
        "preimage-centralizer",
        "abelian-join-absorption",
        "perspective-abelian-transfer",
        "perspective-centralizer-transfer",
    }


def test_centrality_laws_two_sq(two_sq, cert_two_sq):
    rep = check_centrality_laws(two_sq, certificate=cert_two_sq)
    assert rep.passed
    # the perspectivity (0, eta1) up to (eta2, 1) forces equal centralizers
    eta1 = Partition(4, [[0, 1], [2, 3]])
    eta2 = Partition(4, [[0, 2], [1, 3]])
    lhs = centralizer(two_sq, Partition.zero(4), eta1)
    rhs = centralizer(two_sq, eta2, Partition.one(4))
    assert lhs == rhs == Partition.one(4)


def test_centrality_laws_build_each_quotient_once(gen1, cert_gen1, monkeypatch):
    calls = []

    def counting_quotient(algebra, theta, **kwargs):
        calls.append(theta)
        return quotient(algebra, theta, **kwargs)

    monkeypatch.setattr(centrality, "quotient", counting_quotient)
    rep = check_centrality_laws(gen1.algebra, certificate=cert_gen1)
    con = congruence_lattice(gen1.algebra).elements
    assert 0 < len(calls) <= len(con)
    assert len(set(calls)) == len(calls)
    assert [(item.id, item.passed, item.witness) for item in rep.items] == [
        ("quotient-centralizer", True, None),
        ("preimage-centralizer", True, None),
        ("abelian-join-absorption", True, None),
        ("perspective-abelian-transfer", True, None),
        ("perspective-centralizer-transfer", True, None),
    ]


def test_centrality_laws_trivial_algebra():
    trivial = FiniteAlgebra(1, [("f", 1, [0])])
    rep = check_centrality_laws(trivial)
    assert rep.passed  # vacuous pass; certificate-gated items are skipped
    assert any(item.passed is None for item in rep.items)


def test_centrality_laws_without_certificate(s2):
    rep = check_centrality_laws(s2)
    assert rep.passed
    skipped = [item for item in rep.items if item.passed is None]
    assert len(skipped) == 3
