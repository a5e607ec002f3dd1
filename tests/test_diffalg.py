import copy
import dataclasses
import itertools

import pytest

from finalg import (
    ElementMap,
    FiniteAlgebra,
    InconsistencyError,
    Partition,
    arrow_graph,
    centralizer,
    certificate_from_operation,
    class_group,
    delta_congruence,
    difference_algebra,
    find_isomorphism,
    generate_matrices,
    lambda_embed,
    pair_algebra,
    range_of_class,
    verify_diffalg_theorems,
    verify_wdt,
)
from finalg import centrality, diffalg


def test_pair_algebra_examples(z4, z2, z4_theta):
    p = pair_algebra(z4, z4_theta)
    assert len(p.pairs) == 8
    diag = pair_algebra(z4, Partition.zero(4))
    assert find_isomorphism(diag.algebra, z4) is not None
    full = pair_algebra(z2, Partition.one(2))
    assert len(full.pairs) == 4
    assert p.eta1.blocks != p.eta2.blocks
    # the lift of a congruence above theta is well defined on either coordinate
    lifted = p.lift(Partition.one(4))
    assert lifted == Partition.one(8)


def _matrix_transitive_closure(pair, matrices):
    """The transitive closure of a matrix set read as a relation on
    theta-pairs (a, b) ~ (c, d), as a partition of the pair indices."""
    parent = list(range(len(pair.pairs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b, c, d in matrices:
        parent[find(pair.pos[(a, b)])] = find(pair.pos[(c, d)])
    return Partition.from_labels(len(parent), [find(i) for i in range(len(parent))])


def test_delta_examples(z2, z4, z4_theta, gen1):
    p2 = pair_algebra(z2, Partition.one(2))
    dc = delta_congruence(p2, Partition.one(2))
    classes = {frozenset(p2.pairs[i] for i in blk) for blk in dc.partition.blocks}
    assert classes == {
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0)}),
    }
    p4 = pair_algebra(z4, z4_theta)
    dc4 = delta_congruence(p4, Partition.one(4))
    assert sorted(len(blk) for blk in dc4.partition.blocks) == [4, 4]
    dc0 = delta_congruence(p4, Partition.zero(4))
    assert dc0.partition == Partition.zero(8)
    # Delta is the transitive closure of M(theta, phi)
    g = gen1.algebra
    cases = [
        (z2, Partition.one(2), Partition.one(2)),
        (z4, z4_theta, Partition.one(4)),
        (z4, z4_theta, Partition.zero(4)),
        (z4, Partition.one(4), z4_theta),
        (g, gen1.mu, Partition.one(g.size)),
        (g, gen1.mu, centralizer(g, Partition.zero(g.size), gen1.mu)),
        (g, Partition.one(g.size), gen1.mu),
    ]
    for base, theta, phi in cases:
        pair = pair_algebra(base, theta)
        closure = _matrix_transitive_closure(pair, generate_matrices(base, theta, phi).matrices)
        assert delta_congruence(pair, phi).partition == closure


def test_delta_horizontal_matrices_vertically_symmetric(z4, z4_theta):
    p4 = pair_algebra(z4, z4_theta)
    dc = delta_congruence(p4, Partition.one(4))
    # vertical symmetry of the horizontal matrices
    dh = set(dc.horizontal_matrices().matrices)
    assert all((b, a, d, c) in dh for a, b, c, d in dh)


def test_difference_algebra_z4(z4, cert_z4, z4_theta):
    da = difference_algebra(z4, z4_theta, cert_z4)
    assert da.algebra.size == 2
    assert da.phi == Partition.one(2)
    assert len(da.transversal) == 1
    assert da.theta_minimal


def test_difference_algebra_gen_fixtures(gen1, cert_gen1, gen2, cert_gen2):
    da1 = difference_algebra(gen1.algebra, gen1.mu, cert_gen1)
    assert da1.algebra.size == 2
    da2 = difference_algebra(gen2.algebra, gen2.mu, cert_gen2)
    assert da2.algebra.size == 6
    assert sorted(len(blk) for blk in da2.phi.blocks) == [2, 4]


def test_difference_algebra_requires_abelian(s2):
    cert = verify_wdt(s2, [min(x, y, z) for x, y, z in itertools.product(range(2), repeat=3)])
    with pytest.raises(ValueError):
        difference_algebra(s2, Partition.one(2), cert)


def test_lambda_embed_examples(z4, cert_z4, z4_theta, gen2, cert_gen2):
    da = difference_algebra(z4, z4_theta, cert_z4)
    emb = lambda_embed(da, 0)
    assert emb.bijective and len(set(emb.images)) == 2
    da2 = difference_algebra(gen2.algebra, gen2.mu, cert_gen2)
    small = gen2.sort_elements[1]  # the 2-element copy inside the big class
    emb_small = lambda_embed(da2, small[0])
    assert not emb_small.bijective
    assert len(emb_small.image_set()) == 2
    big = gen2.sort_elements[0]
    emb_big = lambda_embed(da2, big[0])
    assert emb_big.bijective and len(emb_big.image_set()) == 4


def test_lambda_embed_group_homomorphism(z4, cert_z4, z4_theta):
    da = difference_algebra(z4, z4_theta, cert_z4)
    for e in range(4):
        emb = lambda_embed(da, e)
        src = class_group(z4, cert_z4, z4_theta, e)
        dst = da.phi_group(e)
        for x in emb.theta_class:
            for y in emb.theta_class:
                assert emb(src.add(x, y)) == dst.add(emb(x), emb(y))
                # d maps to subtraction-addition on the image
                lhs = emb(cert_z4.apply(x, y, e))
                assert lhs == dst.add(dst.sub(emb(x), emb(y)), emb(e))


def test_singleton_class_embedding():
    # an algebra with a singleton class of a minimal abelian congruence
    from finalg.generator import GeneratorConfig, build_field, generate_example

    gen = generate_example(GeneratorConfig(build_field(2), (1,), (((),),)))
    assert sorted(len(b) for b in gen.mu.blocks) == [1, 2]
    cert = certificate_from_operation(gen.algebra, "d")
    da = difference_algebra(gen.algebra, gen.mu, cert)
    singleton = next(blk for blk in gen.mu.blocks if len(blk) == 1)
    emb = lambda_embed(da, singleton[0])
    assert emb.images == (da.zero_of(singleton[0]),)
    rng = range_of_class(da, singleton)
    assert rng.elements == (da.zero_of(singleton[0]),)


def test_ranges_gen2(gen2, cert_gen2):
    da = difference_algebra(gen2.algebra, gen2.mu, cert_gen2)
    big = range_of_class(da, gen2.sort_elements[0])
    small = range_of_class(da, gen2.sort_elements[1])
    assert len(big.elements) == 4 and len(small.elements) == 2
    assert set(small.elements) < set(big.elements)


def test_range_outside_the_zero_class_is_internal(z4, z4_theta, cert_z4):
    """With phi forged to the zero partition, the range of a theta-class
    leaves the phi-class of the canonical zero: an internal inconsistency,
    not a KeyError that the CLI would report as an input error."""
    da = difference_algebra(z4, z4_theta, cert_z4)
    forged = copy.copy(da)
    forged.phi = Partition.zero(da.algebra.size)
    with pytest.raises(InconsistencyError, match="leaves the phi-class"):
        range_of_class(forged, z4_theta.blocks[0])


def test_arrow_graph_examples(z4, cert_z4, z4_theta, gen2, cert_gen2):
    da = difference_algebra(z4, z4_theta, cert_z4)
    graph = arrow_graph(da, 0)
    assert len(graph.nodes) == 2
    assert all(graph.arrow(c1, c2) for c1 in graph.nodes for c2 in graph.nodes)
    da2 = difference_algebra(gen2.algebra, gen2.mu, cert_gen2)
    g0 = arrow_graph(da2, gen2.sort_elements[0][0])
    v00, v10 = gen2.sort_elements[0], gen2.sort_elements[1]
    assert g0.arrow(v10, v00) and not g0.arrow(v00, v10)
    # witnesses can be normalized to send any source point to any target point
    w = g0.witness_fixing(v10, v00, v10[0], v00[2])
    assert w[v10[0]] == v00[2]
    # singleton centralizer class: one reflexive node
    g1 = arrow_graph(da2, gen2.sort_elements[2][0])
    assert len(g1.nodes) == 1 and g1.arrow(g1.nodes[0], g1.nodes[0])


def test_diffalg_theorem_suite_z4(z4, cert_z4, z4_theta):
    da = difference_algebra(z4, z4_theta, cert_z4)
    rep = verify_diffalg_theorems(da)
    assert rep.passed
    assert rep.item("m3-sublattice").passed
    assert rep.item("height-and-meet-irreducibility").passed
    assert rep.item("idempotent-class-sizes").passed  # Z4 is idempotent with full centralizer


def test_diffalg_theorem_suite_gen2(gen2, cert_gen2):
    da = difference_algebra(gen2.algebra, gen2.mu, cert_gen2)
    rep = verify_diffalg_theorems(da)
    assert rep.passed
    item = rep.item("idempotent-class-sizes")
    assert item.passed is None and "not idempotent" in item.note


def test_si_check_skips_for_non_minimal_theta(z4, cert_z4):
    # 0 < {0,2|1,3} < 1 in Con(Z4), so theta = 1 is abelian but not minimal
    rep = verify_diffalg_theorems(difference_algebra(z4, Partition.one(4), cert_z4))
    assert rep.passed
    item = rep.item("subdirectly-irreducible")
    assert item.passed is None and item.note == "skipped: theta is not minimal"


def test_idempotent_class_size_law_runs():
    # the affine GF(3) line is idempotent with (0 : theta) = 1
    table = [(x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3)]
    z3 = FiniteAlgebra(3, [("p", 3, table)])
    cert = certificate_from_operation(z3, "p")
    da = difference_algebra(z3, Partition.one(3), cert)
    rep = verify_diffalg_theorems(da)
    assert rep.item("idempotent-class-sizes").passed is True


def test_ranges_union_is_full_class(gen1, cert_gen1, gen2, cert_gen2):
    for gen, cert in ((gen1, cert_gen1), (gen2, cert_gen2)):
        da = difference_algebra(gen.algebra, gen.mu, cert)
        for blk in da.alpha.blocks:
            classes = sorted({da.theta.block_of(x) for x in blk})
            union = set()
            for cls in classes:
                union |= set(range_of_class(da, cls).elements)
            assert union == set(da.phi.block_of(da.zero_of(blk[0])))


# The checks that `difference_algebra` leaves to the harness.
MOVED_CHECKS = (
    "two-sided-matrices",
    "horizontal-vertical-closure",
    "derived-congruence",
    "canonical-transversal",
    "class-isomorphism",
    "subdirectly-irreducible",
)


class Refused(Exception):
    pass


def test_constructor_leaves_matrix_closure_to_the_harness(
    monkeypatch, gen1, cert_gen1, gen2, cert_gen2, gen3, cert_gen3
):
    def refuse(*args, **kwargs):
        raise Refused

    monkeypatch.setattr(centrality, "generate_matrices", refuse)
    monkeypatch.setattr(diffalg, "generate_matrices", refuse)
    for gen, cert in ((gen1, cert_gen1), (gen2, cert_gen2), (gen3, cert_gen3)):
        da = difference_algebra(gen.algebra, gen.mu, cert)
        with pytest.raises(Refused):
            verify_diffalg_theorems(da)


@pytest.mark.parametrize("label", ["z4", "gen2"])
def test_moved_checks_fail_on_a_forged_field(label, z4, z4_theta, cert_z4, gen2, cert_gen2):
    """Each check moved out of the constructor fails, with a witness, on a
    copy of D with one field tampered, while every check that does not read
    that field still passes."""
    base, theta, cert = {
        "z4": (z4, z4_theta, cert_z4),
        "gen2": (gen2.algebra, gen2.mu, cert_gen2),
    }[label]
    da = difference_algebra(base, theta, cert)
    rep = verify_diffalg_theorems(da)
    assert rep.failures == ()
    assert all(rep.item(item_id).passed for item_id in MOVED_CHECKS)

    t0 = da.transversal[0]
    swapped = next(x for x in da.phi.block_of(t0) if x != t0)
    s, t = da.class_iso.source_size, da.class_iso.target_size
    phi_readers = {
        "derived-congruence", "canonical-transversal", "class-isomorphism",
        "subdirectly-irreducible",
    }
    forgeries = [
        ("transversal", (swapped,) + da.transversal[1:], {"canonical-transversal"}),
        ("phi", Partition.zero(da.algebra.size), phi_readers),
        ("class_iso", ElementMap(s, max(t, 2), [0] * s), {"class-isomorphism"}),
    ]
    for field, value, failing in forgeries:
        forged = copy.copy(da)
        setattr(forged, field, value)
        forged_rep = verify_diffalg_theorems(forged)
        assert {it.id for it in forged_rep.failures} == failing, field
        assert all(it.witness is not None for it in forged_rep.failures), field


def test_two_sided_matrix_check_compares(monkeypatch, z4, z4_theta, cert_z4):
    """M(theta, theta) missing one matrix fails the item, naming that matrix."""
    real = diffalg.generate_matrices

    def one_short(base, theta, phi):
        ms = real(base, theta, phi)
        return dataclasses.replace(ms, matrices=ms.matrices[1:])

    monkeypatch.setattr(diffalg, "generate_matrices", one_short)
    da = difference_algebra(z4, z4_theta, cert_z4)
    item = verify_diffalg_theorems(da).item("two-sided-matrices")
    assert item.passed is False
    assert item.witness == real(z4, z4_theta, z4_theta).matrices[0]


def test_vertical_closure_witnesses():
    closed = [(a, b, a, b) for a in range(2) for b in range(2)]
    assert diffalg._vertical_closure_witness(closed) is None
    assert diffalg._vertical_closure_witness(closed + [(0, 1, 2, 3)]) == (0, 1, 2, 3)
    # symmetric, but (0, 1, 0, 1) stacked on (1, 2, 1, 2) needs (0, 2, 0, 2)
    stacked = closed + [(1, 2, 1, 2), (2, 1, 2, 1)]
    assert diffalg._vertical_closure_witness(stacked) == ((0, 1, 0, 1), (1, 2, 1, 2))
