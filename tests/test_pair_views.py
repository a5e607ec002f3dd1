"""The difference algebra as a quotient of the pair set, against the former
route that materialized the pair algebra and d on it and checked both
quotients tuple by tuple (`oracles.reference_difference_algebra`); the
forged-certificate guards of `difference_algebra`; the pipeline commands
with the materializer refused; and the per-component reflexive scan of
`verify_claims` against one closure per pair."""

import dataclasses
import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from finalg import (
    FiniteAlgebra,
    InconsistencyError,
    Operation,
    Partition,
    certificate_from_operation,
    congruence_lattice,
    core,
    diffalg,
    difference_algebra,
    is_abelian,
    quotient,
    similarity,
)
from finalg.cli import run_command
from finalg.documents import serialize_algebra
from finalg.generator import _principal_reflexives, _unique_minimal_reflexive, config_to_dict

from oracles import (
    reference_difference_algebra,
    reference_principal_reflexives,
    reference_unique_minimal_reflexive,
)

BUDGETS = (core._CHUNK_CELLS, 16)


def _assert_matches_reference(base, theta, cert):
    da = difference_algebra(base, theta, cert)
    pairs = da.pair.pairs
    tables, labels, reps, induced = reference_difference_algebra(
        base, pairs, da.delta.partition.blocks, list(cert.operation.table)
    )
    assert [list(op.table) for op in da.algebra.operations] == tables
    assert list(da.nu.images) == labels
    assert list(da.certificate_d.operation.table) == induced
    # phi is the image of alpha-bar: D-elements by the alpha-class of a pair
    assert da.phi == Partition.from_labels(len(reps), [da.alpha.index[pairs[r][0]] for r in reps])
    assert da.transversal == tuple(labels[pairs.index((b[0], b[0]))] for b in da.alpha.blocks)
    assert list(da.class_iso.images) == [da.phi.index[t] for t in da.transversal]


@st.composite
def maltsev_cases(draw):
    """(algebra, theta): Z_m, m 2-4, with the Maltsev operation x - y + z
    and up to two more operations, affine maps or arbitrary unary ones,
    relabeled by a random permutation; theta an abelian congruence."""
    m = draw(st.integers(2, 4))
    perm = draw(st.permutations(range(m)))
    ops = [("p", 3, lambda x, y, z: (x - y + z) % m)]
    for i in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            a, b, c = (draw(st.integers(0, m - 1)) for _ in range(3))
            ops.append((f"f{i}", 2, lambda x, y, a=a, b=b, c=c: (a * x + b * y + c) % m))
        else:
            image = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
            ops.append((f"f{i}", 1, lambda x, image=image: image[x]))
    tables = []
    for name, k, f in ops:
        table = [0] * m**k
        for args in itertools.product(range(m), repeat=k):
            idx = 0
            for x in args:
                idx = idx * m + perm[x]
            table[idx] = perm[f(*args)]
        tables.append((name, k, table))
    algebra = FiniteAlgebra(m, tables)
    theta = draw(st.sampled_from(congruence_lattice(algebra).elements))
    assume(is_abelian(algebra, theta))
    return algebra, theta


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=maltsev_cases())
def test_difference_algebra_matches_the_former_route(case):
    algebra, theta = case
    _assert_matches_reference(algebra, theta, certificate_from_operation(algebra, "p"))


def test_difference_algebra_matches_the_former_route_on_fixtures(
    z4, z4_theta, cert_z4, gen1, cert_gen1, gen2, cert_gen2, gen3, cert_gen3
):
    _assert_matches_reference(z4, z4_theta, cert_z4)
    _assert_matches_reference(z4, Partition.one(4), cert_z4)
    for gen, cert in ((gen1, cert_gen1), (gen2, cert_gen2), (gen3, cert_gen3)):
        _assert_matches_reference(gen.algebra, gen.mu, cert)


def _forged(cert, f):
    n = cert.algebra.size
    table = [f(x, y, z) for x, y, z in itertools.product(range(n), repeat=3)]
    return dataclasses.replace(
        cert, operation=Operation("d", 3, table), provenance="table-attested"
    )


@pytest.mark.parametrize("budget", BUDGETS)
def test_forged_certificates_are_refused(budget, z4, z4_theta, cert_z4):
    # theta = {0, 2 | 1, 3}; the first projection, moved at one cell, sends
    # the theta-pair (2, 0) and the diagonal (0, 0) twice to (2, 1)
    leaves = _forged(cert_z4, lambda x, y, z: 1 if (x, y, z) == (0, 0, 0) else x)
    # preserves theta, but sends the Delta-related (1, 3) and (0, 2) to
    # (1, 1) and (0, 2), which are not
    unfactored = _forged(cert_z4, lambda x, y, z: 1 if x == 3 else x)
    with mock.patch.object(core, "_CHUNK_CELLS", budget):
        with pytest.raises(InconsistencyError, match="does not preserve theta"):
            difference_algebra(z4, z4_theta, leaves)
        with pytest.raises(InconsistencyError, match="does not factor through the quotient"):
            difference_algebra(z4, z4_theta, unfactored)


def test_quotient_check_rejects_a_non_congruence(z4):
    with pytest.raises(ValueError, match=r"^partition is not a congruence \(operation 'p'\)$"):
        quotient(z4, Partition.from_labels(4, [0, 0, 1, 1]))


class Materialized(Exception):
    pass


def test_pipeline_builds_no_pair_algebra(tmp_path, gen1, gen2, gen3):
    """ranges, arrow, freese and similar never materialize a subalgebra of a
    product: D is a quotient of the pair set."""

    def refuse(*args, **kwargs):
        raise Materialized

    paths = []
    for i, gen in enumerate((gen1, gen2, gen3)):
        path = tmp_path / f"gen{i + 1}.alg"
        path.write_text(serialize_algebra(
            gen.algebra, labels={"mu": gen.mu, "alpha": gen.alpha}, generator=config_to_dict(gen.config)
        ))
        paths.append(str(path))
    with mock.patch.object(core, "_materialize", refuse), \
            mock.patch.object(diffalg, "_materialize", refuse), \
            mock.patch.object(similarity, "_materialize", refuse):
        for path in paths:
            for argv in (
                ["ranges", "--theta", "mu", "--d", "d"],
                ["arrow", "--theta", "mu", "--d", "d"],
                ["freese", "--theta", "mu", "--d", "d"],
                ["similar", "--in2", path, "--d", "d", "--d2", "d"],
            ):
                code, text = run_command([argv[0], "--in", path] + argv[1:])
                assert code == 0, (path, argv, text)


@st.composite
def reflexive_cases(draw):
    """(algebra, mu): n 2-5, one or two operations of arity 1-3 (at most 2
    at n = 5), mu a random partition."""
    n = draw(st.integers(2, 5))
    arities = draw(st.lists(st.integers(1, 2 if n == 5 else 3), min_size=1, max_size=2))
    ops = [
        (f"f{i}", k, draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for i, k in enumerate(arities)
    ]
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return FiniteAlgebra(n, ops), Partition.from_labels(n, labels)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=reflexive_cases())
def test_unique_minimal_reflexive_matches_the_scan(case):
    algebra, mu = case
    got = _principal_reflexives(algebra)
    assert {
        pair: frozenset(zip(*map(tuple, rho.nonzero()))) for pair, rho in got.items()
    } == reference_principal_reflexives(algebra)
    expected = reference_unique_minimal_reflexive(algebra, mu)
    assert _unique_minimal_reflexive(algebra, mu) == expected
    # the monolith, where there is one, is the candidate the claim names
    atoms = congruence_lattice(algebra).atoms()
    if len(atoms) == 1:
        assert _unique_minimal_reflexive(algebra, atoms[0]) == reference_unique_minimal_reflexive(
            algebra, atoms[0]
        )


def test_unique_minimal_reflexive_on_generated(gen1, gen2, gen3):
    for gen in (gen1, gen2, gen3):
        assert _unique_minimal_reflexive(gen.algebra, gen.mu)
        assert not _unique_minimal_reflexive(gen.algebra, Partition.one(gen.algebra.size))


def test_delta_that_is_not_a_congruence_fails_its_item(z4, z4_theta, cert_z4):
    """The theorem suite checks that Delta is a congruence of the pair
    algebra before taking its centralizer, so a forged Delta fails the
    item with a witness instead of raising."""
    da = difference_algebra(z4, z4_theta, cert_z4)
    assert diffalg.verify_diffalg_theorems(da).item("delta-centralizer-fixed").passed
    m = len(da.pair.pairs)
    forged = dataclasses.replace(da.delta, partition=Partition.from_labels(m, [0] + [1] * (m - 1)))
    assert not diffalg.is_congruence(da.pair.algebra, forged.partition)
    copy = dataclasses.replace(da, delta=forged)
    item = diffalg.verify_diffalg_theorems(copy).item("delta-centralizer-fixed")
    assert item.passed is False and item.witness[2] is None
