import itertools

import pytest

from finalg import (
    FiniteAlgebra,
    Partition,
    bridge_construct,
    bridge_verify,
    canonical_action,
    certificate_from_operation,
    congruence_lattice,
    diff_of,
    difference_algebra,
    division_ring,
    find_isomorphism,
    freese_ring,
    is_similar,
    perspective_diff_iso,
    verify_wdt,
)
from finalg import core, similarity
from finalg.generator import config_from_dict, generate_example

from oracles import brute_hom_sets, reference_freese_carrier


def _xor_binary():
    table = [x ^ y for x, y in itertools.product(range(2), repeat=2)]
    return FiniteAlgebra(2, [("meet", 2, table)])


def test_division_ring_z4(z4, cert_z4, z4_theta):
    da = difference_algebra(z4, z4_theta, cert_z4)
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    assert len(ring) == 2
    assert ring.add(ring.one_index, ring.one_index) == ring.zero_index  # characteristic 2


def test_division_ring_gen2(gen2, cert_gen2):
    da = difference_algebra(gen2.algebra, gen2.mu, cert_gen2)
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    assert len(ring) == 2


def test_division_ring_gen3(gen3, cert_gen3):
    # classes of size 3: the ring is GF(3), so it has exactly p elements
    da = difference_algebra(gen3.algebra, gen3.mu, cert_gen3)
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    assert len(ring) == 3


def test_division_ring_preconditions(z4, cert_z4, z4_theta):
    da = difference_algebra(z4, z4_theta, cert_z4)
    with pytest.raises(ValueError):
        division_ring(da.algebra, Partition.zero(da.algebra.size), da.transversal, da.certificate_d)


def test_canonical_action_z4(z4, cert_z4, z4_theta):
    da = difference_algebra(z4, z4_theta, cert_z4)
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    act = canonical_action(da, ring, 0)
    assert act.dimension == 1
    assert act.act(ring.one_index, 2) == 2
    assert act.act(ring.zero_index, 2) == 0


def test_canonical_action_gen2_dimensions(gen2, cert_gen2):
    da = difference_algebra(gen2.algebra, gen2.mu, cert_gen2)
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    act_big = canonical_action(da, ring, gen2.sort_elements[0][0])
    assert act_big.dimension == 2
    act_small = canonical_action(da, ring, gen2.sort_elements[1][0])
    assert act_small.dimension == 1


def test_canonical_action_zero_dimension():
    from finalg.generator import GeneratorConfig, build_field, generate_example

    gen = generate_example(GeneratorConfig(build_field(2), (1,), (((),),)))
    cert = certificate_from_operation(gen.algebra, "d")
    da = difference_algebra(gen.algebra, gen.mu, cert)
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    singleton = next(blk for blk in gen.mu.blocks if len(blk) == 1)
    act = canonical_action(da, ring, singleton[0])
    assert act.dimension == 0


def test_freese_ring_examples(z2, cert_z2, z4, cert_z4, z4_theta):
    fr = freese_ring(z2, Partition.one(2), [0], cert_z2)
    assert len(fr.carrier) == 2 and fr.division_ring_size == 2
    fr4 = freese_ring(z4, z4_theta, [0, 1], cert_z4)
    assert len(fr4.carrier) == 2
    assert len(set(fr4.iso_to_division_ring)) == 2


def test_freese_ring_gen_fixtures(gen1, cert_gen1, gen2, cert_gen2):
    for gen, cert, expected in ((gen1, cert_gen1, 2), (gen2, cert_gen2, 2)):
        transversal = [blk[0] for blk in gen.mu.blocks]  # the zero vectors
        fr = freese_ring(gen.algebra, gen.mu, transversal, cert)
        assert len(fr.carrier) == expected == fr.division_ring_size


def test_freese_ring_rejects_elements_outside_the_algebra(gen1, cert_gen1):
    # gen1's mu-blocks are (0, 1) and (2, 3): 0 and 2 already form a
    # transversal, so the stray element must be refused, not dropped
    for transversal in ([0, 2, 99], [-1, 0, 2]):
        with pytest.raises(ValueError, match="out of range"):
            freese_ring(gen1.algebra, gen1.mu, transversal, cert_gen1)


def test_freese_restrictions_match_brute_pol1(
    z2, cert_z2, z4, cert_z4, z4_theta, gen1, cert_gen1, gen3, cert_gen3
):
    """Each hom-set is the brute-force unary polynomials restricted to C_j
    that send e_j to e_i, and the carrier is the tuples commuting with
    exactly those."""
    cases = [
        (z2, Partition.one(2), cert_z2),
        (z4, z4_theta, cert_z4),
        (gen1.algebra, gen1.mu, cert_gen1),
        (gen3.algebra, gen3.mu, cert_gen3),
    ]
    for algebra, theta, cert in cases:
        fr = freese_ring(algebra, theta, [blk[0] for blk in theta.blocks], cert)
        expected = brute_hom_sets(algebra, theta.blocks, fr.base_points)
        assert fr.restrictions == expected
        assert fr.carrier == reference_freese_carrier(
            algebra.size, cert.d, theta.blocks, fr.base_points, expected
        )


def _freese_over_all_of_a(algebra, theta, base_points, cert):
    """(restrictions, carrier) as `freese_ring` built them before it used the
    normalized basic translations: each class's identity and every constant
    closed under all of A's operations, and one unary operation of the
    auxiliary algebra per restriction found."""
    n = algebra.size
    classes = theta.blocks
    restrictions = {}
    for j, cj in enumerate(classes):
        seeds = [cj] + [(c,) * len(cj) for c in range(n)]
        members, _ = core.closure_in_power(algebra, len(cj), seeds)
        at = cj.index(base_points[j])
        for i, e in enumerate(base_points):
            restrictions[(i, j)] = tuple(g for g in members if g[at] == e)
    label = theta.index
    m = [
        cert.apply(x, y, z) if label[x] == label[y] == label[z] else x
        for x, y, z in itertools.product(range(n), repeat=3)
    ]
    ops = [("m", 3, m)]
    for (i, j), rs in restrictions.items():
        for r in rs:
            table = list(range(n))
            for x, rx in zip(classes[j], r):
                table[x] = rx
            ops.append((f"r{len(ops)}", 1, table))
    aux = FiniteAlgebra(n, ops)
    allowed = similarity._kept_in_blocks(theta, base_points)
    carrier = tuple(sorted(
        tuple(tuple(h[x] for x in blk) for blk in classes)
        for h in core._homomorphisms(aux, aux, allowed)
    ))
    return restrictions, carrier


def test_freese_ring_matches_the_closure_over_all_of_a(gen2):
    configs = [  # g5, gf4 and g8 of ROADMAP.md
        {"field": {"p": 5, "k": 1}, "dims": [1], "subspaces": [[[[1]]]]},
        {"field": {"p": 2, "k": 2}, "dims": [1, 1], "subspaces": [[], []]},
        {"field": {"p": 2, "k": 1}, "dims": [2, 2, 1], "subspaces": [[[[1, 0]]], [], []]},
    ]
    for gen in [gen2] + [generate_example(config_from_dict(c)) for c in configs]:
        cert = certificate_from_operation(gen.algebra, "d")
        fr = freese_ring(gen.algebra, gen.mu, [blk[0] for blk in gen.mu.blocks], cert)
        restrictions, carrier = _freese_over_all_of_a(gen.algebra, gen.mu, fr.base_points, cert)
        assert fr.restrictions == restrictions
        assert fr.carrier == carrier


def test_diff_of_examples(z4, cert_z4, s2, gen2, cert_gen2):
    d4 = diff_of(z4, cert_z4)
    assert d4.monolith_abelian and d4.algebra.size == 2
    cert_s2 = verify_wdt(s2, [min(x, y, z) for x, y, z in itertools.product(range(2), repeat=3)])
    ds2 = diff_of(s2, cert_s2)
    assert not ds2.monolith_abelian and ds2.algebra == s2
    dg2 = diff_of(gen2.algebra, cert_gen2)
    assert dg2.algebra.size == 6


def test_diff_of_requires_si(two_sq, cert_two_sq):
    with pytest.raises(ValueError):
        diff_of(two_sq, cert_two_sq)


def test_similarity_examples(z4, cert_z4, z2, s2, gen2, cert_gen2):
    d4 = diff_of(z4, cert_z4)
    cert_d4 = d4.construction.certificate_d
    assert is_similar(z4, d4.algebra, cert_z4, cert_d4).similar
    z2p = z2.rename_operations(["p"])
    cert_z2p = certificate_from_operation(z2p, "p")
    assert is_similar(z4, z2p, cert_z4, cert_z2p).similar
    # the two-element meet semilattice against the xor algebra on the same
    # signature: monolith abelianness differs, so they are not similar
    from finalg.diffterm import search_wdt

    xor2 = _xor_binary()
    cert_s2 = verify_wdt(s2, [min(x, y, z) for x, y, z in itertools.product(range(2), repeat=3)])
    cert_xor = search_wdt(xor2)
    verdict = is_similar(s2, xor2, cert_s2, cert_xor)
    assert not verdict.similar


def test_similarity_is_equivalence_on_family(z4, cert_z4):
    # reflexive, symmetric, transitive across the fixture family
    perm = [(x + 1) % 4 for x in range(4)]
    inv = [(x - 1) % 4 for x in range(4)]
    table = [
        perm[(inv[x] - inv[y] + inv[z]) % 4]
        for x, y, z in itertools.product(range(4), repeat=3)
    ]
    relabeled = FiniteAlgebra(4, [("p", 3, table)])
    cert_rel = certificate_from_operation(relabeled, "p")
    d4 = diff_of(z4, cert_z4)
    cert_d4 = d4.construction.certificate_d
    dz = d4.algebra
    family = [(z4, cert_z4), (relabeled, cert_rel), (dz, cert_d4)]
    for a, ca in family:
        assert is_similar(a, a, ca, ca).similar
        for b, cb in family:
            ab = is_similar(a, b, ca, cb)
            ba = is_similar(b, a, cb, ca)
            assert ab.similar and ba.similar


def test_canonical_bridge_z4(z4, cert_z4):
    d4 = diff_of(z4, cert_z4)
    bridge = bridge_construct(z4, d4.algebra, "canonical-to-d", cert_a=cert_z4)
    assert bridge.report.passed
    assert bridge.report.item("kernel-perspectivities").passed


def test_canonical_and_from_iso_bridges_gen2(gen2, cert_gen2):
    dg = diff_of(gen2.algebra, cert_gen2)
    bridge = bridge_construct(gen2.algebra, dg.algebra, "canonical-to-d", cert_a=cert_gen2)
    assert bridge.report.passed
    cert_d = dg.construction.certificate_d
    verdict = is_similar(gen2.algebra, dg.algebra, cert_gen2, cert_d)
    assert verdict.similar
    bridge2 = bridge_construct(
        gen2.algebra, dg.algebra, "from-iso",
        cert_a=cert_gen2, cert_b=cert_d, iso=verdict.isomorphism,
    )
    assert bridge2.report.passed


def test_identity_bridge_nonabelian(s2):
    T = {(a, b, a, b) for a in range(2) for b in range(2)}
    rep = bridge_verify(s2, s2, T)
    assert rep.passed
    assert rep.item("nonabelian-forced-form").passed
    # trace is the diagonal
    bad = set(T) - {(0, 0, 0, 0)}
    rep_bad = bridge_verify(s2, s2, bad)
    assert not rep_bad.passed
    assert rep_bad.item("reflexive-closure").passed is False


def test_bridge_existence_iff_similar(s2):
    xor2 = _xor_binary()
    from finalg.diffterm import search_wdt

    cert_s2 = verify_wdt(s2, [min(x, y, z) for x, y, z in itertools.product(range(2), repeat=3)])
    cert_xor = search_wdt(xor2)
    with pytest.raises(ValueError):
        bridge_construct(s2, xor2, "from-iso", cert_a=cert_s2, cert_b=cert_xor)


def test_d_operator_idempotent(z4, cert_z4, gen1, cert_gen1, gen2, cert_gen2):
    for alg, cert in ((z4, cert_z4), (gen1.algebra, cert_gen1), (gen2.algebra, cert_gen2)):
        d1 = diff_of(alg, cert)
        d2 = diff_of(d1.algebra, d1.construction.certificate_d)
        assert find_isomorphism(d2.algebra, d1.algebra) is not None


def test_perspectivity_transfer_two_sq(two_sq, cert_two_sq):
    eta1 = Partition(4, [[0, 1], [2, 3]])
    eta2 = Partition(4, [[0, 2], [1, 3]])
    transfer = perspective_diff_iso(
        two_sq, (Partition.zero(4), eta1), (eta2, Partition.one(4)), cert_two_sq
    )
    assert transfer.left.algebra.size == 2 and transfer.right.algebra.size == 2
    assert len(transfer.left_ring) == len(transfer.right_ring) == 2
    assert transfer.ring_map[transfer.left_ring.one_index] == transfer.right_ring.one_index


def test_perspectivity_transfer_degenerate(z4, cert_z4, z4_theta):
    transfer = perspective_diff_iso(
        z4, (Partition.zero(4), z4_theta), (Partition.zero(4), z4_theta), cert_z4
    )
    assert transfer.isomorphism.is_bijective()
    assert transfer.isomorphism.images == tuple(range(transfer.left.algebra.size))


def test_perspectivity_transfer_in_pair_algebra(z4, cert_z4, z4_theta):
    # a cover pair found by lattice scan inside the pair algebra of the monolith
    from finalg import pair_algebra

    pa = pair_algebra(z4, z4_theta)
    cert_pair = verify_wdt(
        pa.algebra, pa.algebra.operation("p").table, provenance="pair lift"
    )
    lat = congruence_lattice(pa.algebra)
    zero = Partition.zero(pa.algebra.size)
    theta_bar = pa.lift(z4_theta)
    # (0, eta1) transposes up to (eta2, theta-bar)
    transfer = perspective_diff_iso(
        pa.algebra, (zero, pa.eta1), (pa.eta2, theta_bar), cert_pair
    )
    assert transfer.isomorphism.is_bijective()


def test_division_ring_of_one_nine_element_class(tmp_path):
    """GF(3)^2 with no range subspace: D has a single 9-element phi-block, so
    maps into the blocks number 9^8 over T, yet the division ring is GF(3)
    and the generated algebra's claims all pass."""
    import json

    from finalg import run_command
    from finalg.generator import config_from_dict, generate_example

    config = {"field": {"p": 3, "k": 1}, "dims": [2], "subspaces": [[]]}
    gen = generate_example(config_from_dict(config))
    cert = certificate_from_operation(gen.algebra, "d")
    da = difference_algebra(gen.algebra, gen.mu, cert)
    assert sorted(len(blk) for blk in da.phi.blocks) == [9]
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    assert len(ring) == 3

    cfg, doc = tmp_path / "nine.cfg", tmp_path / "nine.alg"
    cfg.write_text(json.dumps(config))
    assert run_command(["generate", "--config", str(cfg), "--out", str(doc)])[0] == 0
    code, text = run_command(["verify-claims", "--in", str(doc)])
    assert code == 0, text
