import hashlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from finalg import (
    CapExceededError,
    FiniteAlgebra,
    Partition,
    affine_decompose,
    certificate_from_operation,
    check_wdt_laws,
    class_group,
    connecting_polynomial,
    evaluate,
    search_wdt,
    transversal_automorphism,
    verify_wdt,
)
from finalg import diffterm
from finalg.diffterm import subuniverse_transversals


def _min3_table():
    return [min(x, y, z) for x, y, z in itertools.product(range(2), repeat=3)]


def test_verify_wdt_examples(z4, s2, z2):
    assert certificate_from_operation(z4, "p").verdict
    assert verify_wdt(s2, _min3_table()).verdict  # all abelian quotients trivial
    proj1 = [x for x, y, z in itertools.product(range(2), repeat=3)]
    cert = verify_wdt(z2, proj1)
    assert not cert.verdict
    assert cert.failure[0] == "congruence-condition"


def test_verify_wdt_scope_monotone(z2):
    d = z2.operation("d").table
    wide = verify_wdt(z2, d, scope=(1, 2, 3))
    narrow = verify_wdt(z2, d, scope=(1,))
    assert wide.verdict and narrow.verdict
    assert {lbl for lbl, _, _ in wide.checked} == {"A", "A^2", "A^3"}


def test_verify_wdt_scope_square(z4):
    assert verify_wdt(z4, z4.operation("p").table, scope=(1, 2)).verdict


def test_search_wdt_examples(z4, s2):
    cert = search_wdt(z4)
    assert cert is not None and cert.verdict
    assert cert.d == z4.operation("p").table
    assert cert.provenance == "term-derived"
    cert2 = search_wdt(s2)
    assert cert2 is not None and cert2.verdict  # any idempotent table passes vacuously
    unary = FiniteAlgebra(2, [("f", 1, [0, 1])])
    assert search_wdt(unary) is None


def test_search_wdt_cap():
    # a two-element algebra with a rich clone and a tiny cap
    table = [x ^ y for x, y in itertools.product(range(2), repeat=2)]
    alg = FiniteAlgebra(2, [("xor", 2, table)])
    with pytest.raises(CapExceededError):
        search_wdt(alg, cap=2)


def test_search_wdt_quaternary():
    # q(x, y, z, w) = x - y + z mod 3: the clone search applies a 4-ary
    # operation, and checking its hit exercises the pair-congruence kernel
    # at arity 4
    table = [(x - y + z) % 3 for x, y, z, _ in itertools.product(range(3), repeat=4)]
    cert = search_wdt(FiniteAlgebra(3, [("q", 4, table)]), cap=100)
    assert cert is not None and cert.verdict
    assert cert.d == tuple((x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3))


def test_class_group_examples(z4, z2, cert_z4, cert_z2, z4_theta):
    g = class_group(z4, cert_z4, z4_theta, 0)
    assert g.elements == (0, 2) and g.zero == 0
    assert g.add(2, 2) == 0 and g.neg(2) == 2
    g1 = class_group(z4, cert_z4, z4_theta, 1)
    assert g1.elements == (1, 3) and g1.zero == 1 and g1.add(3, 3) == 1
    g2 = class_group(z2, cert_z2, Partition.one(2), 0)
    assert len(g2) == 2


def test_class_group_is_d_restriction(z4, cert_z4, z4_theta):
    # on any class of an abelian congruence the certified table is exactly
    # the Maltsev operation of the class group
    for blk in z4_theta.blocks:
        grp = class_group(z4, cert_z4, z4_theta, blk[0])
        for x, y, z in itertools.product(blk, repeat=3):
            assert cert_z4.apply(x, y, z) == grp.add(grp.sub(x, y), z)
            assert cert_z4.apply(x, x, y) == y and cert_z4.apply(y, x, x) == y


def test_affine_decompose_examples(z4, cert_z4, z4_theta):
    f = lambda x, y: evaluate(z4, "p", (x, 0, y))
    dec = affine_decompose(z4, cert_z4, z4_theta, f, 2, (0, 0), 0)
    assert dec.r_maps[0] == {0: 0, 2: 2} and dec.r_maps[1] == {0: 0, 2: 2}
    assert dec.constant == 0
    ident = affine_decompose(z4, cert_z4, z4_theta, lambda x: x, 1, (2,), 2)
    assert ident.r_maps[0][0] == 0 and ident.constant == 2


def test_affine_decompose_generated_operation(gen1, cert_gen1):
    # a basic sort-collapsing operation, restricted to the distinguished class
    alg = gen1.algebra
    f = lambda x: evaluate(alg, "F0_1_0", (x,))
    src = gen1.sort_elements[0]
    target_base = gen1.zero_of_sort[(0, 1)]
    dec = affine_decompose(alg, cert_gen1, gen1.mu, f, 1, (src[0],), target_base)
    assert dec.r_maps[0][src[0]] == target_base


def test_affine_decompose_precondition(z4, cert_z4, z4_theta):
    with pytest.raises(ValueError):
        affine_decompose(z4, cert_z4, z4_theta, lambda x: (x + 1) % 4, 1, (0,), 0)


def test_connecting_polynomial_examples(z4, z4_theta):
    f = connecting_polynomial(z4, z4_theta, (0, 2), (1, 3))
    assert f(0) == 1 and f(2) == 3
    g = connecting_polynomial(z4, z4_theta, (0, 2), (0, 2))
    assert g(0) == 0 and g(2) == 2
    h = connecting_polynomial(z4, z4_theta, (0, 2), (3, 3))
    assert h(0) == 3 and h(2) == 3


def test_connecting_polynomial_requires_theta_pairs(z4, z4_theta):
    with pytest.raises(ValueError):
        connecting_polynomial(z4, z4_theta, (0, 1), (0, 1))


def test_transversal_automorphism(z4, cert_z4, z4_theta, gen1, cert_gen1):
    from finalg import difference_algebra, is_subuniverse

    da = difference_algebra(z4, z4_theta, cert_z4)
    D, certD = da.algebra, da.certificate_d
    one = Partition.one(D.size)
    d1, d2 = [da.transversal[0]], [1 - da.transversal[0]]
    sigma = transversal_automorphism(D, certD, one, d1, d2)
    assert sigma.images == (1, 0)
    ident = transversal_automorphism(D, certD, one, d1, d1)
    assert ident.images == (0, 1)
    # in the generated fixture's difference algebra the sort detectors all
    # collapse to the canonical zero, so the non-canonical singleton is not
    # a subuniverse and the construction must refuse it
    dag = difference_algebra(gen1.algebra, gen1.mu, cert_gen1)
    Dg = dag.algebra
    other = 1 - dag.transversal[0]
    assert not is_subuniverse(Dg, [other])
    with pytest.raises(ValueError, match="not a subuniverse"):
        transversal_automorphism(
            Dg, dag.certificate_d, Partition.one(Dg.size),
            [dag.transversal[0]], [other],
        )


def test_subuniverse_transversals(z4, z4_theta):
    out = subuniverse_transversals(z4, z4_theta)
    assert out == [frozenset({0, 1}), frozenset({0, 3}), frozenset({1, 2}), frozenset({2, 3})] or all(
        len(s) == 2 for s in out
    )


def test_wdt_laws_z4(z4, cert_z4):
    rep = check_wdt_laws(z4, cert_z4)
    assert rep.passed
    item = rep.item("class-size-prime-power")
    assert item.passed
    # the clone search's only hit is the certificate's own table, and Z4 has
    # no subuniverse transversal: both checks examine nothing, so they skip
    assert rep.item("term-agreement").passed is None
    assert rep.item("transversal-maximality").passed is None


def test_wdt_laws_term_derived_skips_search(z4, monkeypatch):
    cert = search_wdt(z4)
    assert cert.provenance == "term-derived"

    def no_search(*args, **kwargs):
        raise AssertionError("term-agreement searched again for its own certificate")

    monkeypatch.setattr(diffterm, "search_wdt", no_search)
    rep = check_wdt_laws(z4, cert)
    item = rep.item("term-agreement")
    assert item.passed is None
    assert item.note == "skipped: certificate is the clone search's own first hit"


def test_wdt_laws_gen2(gen2, cert_gen2):
    rep = check_wdt_laws(gen2.algebra, cert_gen2)
    assert rep.passed
    sizes = sorted(len(blk) for blk in gen2.mu.blocks)
    assert sizes == [2, 2, 4]  # the non-uniform class sizes {2^1, 2^1, 2^2}


def test_wdt_laws_trivial():
    trivial = FiniteAlgebra(1, [("f", 1, [0])])
    cert = verify_wdt(trivial, [0])
    rep = check_wdt_laws(trivial, cert)
    assert rep.passed


def _random_algebras(seed, count):
    """The seeded random algebras of the benchmark's random-sweep workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("sweep_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.random_algebras(seed, count)


def _search_outcome(algebra, cap):
    try:
        cert = search_wdt(algebra, cap=cap)
    except CapExceededError as exc:
        return ("cap", str(exc))
    return None if cert is None else (cert.d, cert.verdict, cert.checked)


def test_search_wdt_survives_hash_collisions(monkeypatch, z2, z4, s2, two_sq, gen1, gen2, gen3):
    """With every row hash 0, each batch of two or more distinct rows is one
    colliding group, so the exact check fails and the sort fallback runs; the
    certificates and cap errors must not change."""
    algebras = [FiniteAlgebra(n, ops) for n, ops in _random_algebras(11, 216)]
    algebras += [z2, z4, s2, two_sq, gen1.algebra, gen2.algebra, gen3.algebra]
    expected = [_search_outcome(algebra, 600) for algebra in algebras]
    monkeypatch.setattr(
        diffterm, "_row_hashes", lambda rows, salt: np.zeros(len(rows), dtype=np.int64)
    )
    assert [_search_outcome(algebra, 600) for algebra in algebras] == expected


# SHA-256 of every `search_wdt(cap=600)` outcome below, as computed before
# the check read the condition at principal congruences: the table and the
# verdict of a found term, None when the clone has none, or the cap message.
# `checked` is left out, since it now lists one entry per principal congruence.
SEARCH_OUTCOMES_SHA256 = "37026ccb99b9d2ccfb5d162f850e5e6509f7d1923c130740b8a1e0396d9171cd"


def test_search_wdt_outcomes_are_pinned(z2, z4, s2, gen1, gen2, gen3):
    algebras = [FiniteAlgebra(n, ops) for n, ops in _random_algebras(11, 216)]
    algebras += [z2, z4, s2, gen1.algebra, gen2.algebra, gen3.algebra]
    outcomes = []
    for algebra in algebras:
        outcome = _search_outcome(algebra, 600)
        outcomes.append(outcome[:2] if outcome is not None and outcome[0] != "cap" else outcome)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == SEARCH_OUTCOMES_SHA256
