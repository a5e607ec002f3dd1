"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import random
import time

from finalg import (
    FiniteAlgebra,
    Partition,
    bridge_construct,
    centralizer,
    certificate_from_operation,
    class_group,
    congruence_lattice,
    delta_congruence,
    diff_of,
    difference_algebra,
    division_ring,
    find_isomorphism,
    freese_ring,
    is_abelian,
    is_similar,
    pair_algebra,
    perspective_diff_iso,
    principal_congruence,
    range_of_class,
    search_wdt,
    structure_report,
    two_term_condition,
    CapExceededError,
)
from finalg.generator import build_field, fixture_gen1, fixture_gen2, fixture_gen3
from finalg import fixtures

from oracles import brute_centralizes, brute_congruences, brute_principal


def _report(name: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"PASS {name} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_m3_shape():
    """The five named congruences of the pair algebra of the four-element
    affine fixture form the modular diamond, the bottom interval has height
    two, and the diagonal congruence is covered exactly by the lifted
    centralizer and is completely meet-irreducible."""
    started = time.time()
    z4 = fixtures.z4()
    theta = principal_congruence(z4, 0, 2)
    pa = pair_algebra(z4, theta)
    alpha = centralizer(z4, Partition.zero(4), theta)
    dc = delta_congruence(pa, alpha)
    delta = dc.partition
    theta_bar = pa.lift(theta)
    alpha_bar = pa.lift(alpha)
    eps = theta_bar.meet(delta)
    zero = Partition.zero(pa.algebra.size)

    five = [zero, pa.eta1, pa.eta2, eps, theta_bar]
    assert len(set(five)) == 5
    for x, y in itertools.combinations(five[1:4], 2):
        assert x.meet(y) == zero and x.join(y) == theta_bar
    for x in five[1:4]:
        assert zero.meet(x) == zero and x.join(theta_bar) == theta_bar

    lat = congruence_lattice(pa.algebra)
    interval = lat.interval(zero, theta_bar)
    # height two: every maximal chain 0 < atom < theta-bar
    atoms = [p for p in interval if p.rank > 0 and not any(zero < q < p for q in interval)]
    for atom in atoms:
        assert not any(atom < q < theta_bar for q in interval)
    assert atoms and all(atom != theta_bar for atom in atoms)

    covers_delta = [q for q in lat.elements if delta < q and not any(delta < r < q for r in lat.elements)]
    assert covers_delta == [alpha_bar]
    rep = structure_report(lat)
    assert any(p == delta for p, _ in rep.completely_meet_irreducibles)
    _report("criterion-1 modular-diamond shape", started, 1.0)


def test_criterion_2_class_size_law():
    """Every monolith class of the four fixtures has prime-power size and
    every class group has prime exponent."""
    started = time.time()
    cases = []
    z4 = fixtures.z4()
    cases.append((z4, certificate_from_operation(z4, "p"), principal_congruence(z4, 0, 2), 2))
    for fix, p in ((fixture_gen1(), 2), (fixture_gen2(), 2), (fixture_gen3(), 3)):
        cases.append((fix.algebra, certificate_from_operation(fix.algebra, "d"), fix.mu, p))
    for algebra, cert, mu, p in cases:
        for blk in mu.blocks:
            size = len(blk)
            while size % p == 0:
                size //= p
            assert size == 1, f"class size {len(blk)} is not a power of {p}"
            grp = class_group(algebra, cert, mu, blk[0])
            for x in blk:
                acc = grp.zero
                for _ in range(p):
                    acc = grp.add(acc, x)
                assert acc == grp.zero, "class group exponent is not the prime"
    _report("criterion-2 class-size law", started, 10.0)


def test_criterion_3_nonuniform_ranges():
    """The two-class generated fixture has monolith classes of sizes 4 and 2
    inside one centralizer class; the ranges are exactly the configured
    subspaces under the canonical identification and form a directed family
    whose union is the full derived class."""
    started = time.time()
    gen = fixture_gen2()
    cert = certificate_from_operation(gen.algebra, "d")
    da = difference_algebra(gen.algebra, gen.mu, cert)
    big_class = gen.alpha.blocks[0]
    class_sizes = sorted({len(gen.mu.block_of(x)) for x in big_class})
    assert class_sizes == [2, 4]

    # canonical identification: the unique representative (w, 0) per class
    h = {}
    for l in range(len(gen.config.dims)):
        z = gen.zero_of_sort[(l, 0)]
        for w in gen.sort_elements[gen.sorts.index((l, 0))]:
            h[da.project(w, z)] = w
    for sidx, (l, i) in enumerate(gen.sorts):
        rng = range_of_class(da, gen.sort_elements[sidx])
        assert {h[x] for x in rng.elements} == set(gen.subspace_elements[sidx])

    ranges = [set(range_of_class(da, gen.sort_elements[s]).elements) for s, (l, i) in enumerate(gen.sorts) if l == 0]
    full = set(da.phi.block_of(da.zero_of(big_class[0])))
    assert set().union(*ranges) == full
    assert any(r == full for r in ranges)
    for r1 in ranges:
        for r2 in ranges:
            assert any(r1 | r2 <= r3 for r3 in ranges)
    _report("criterion-3 non-uniform ranges", started, 60.0)


def test_criterion_4_division_rings_agree():
    """The hom-set ring over a transversal has the same cardinality as the
    endomorphism division ring and the canonical map is a verified ring
    isomorphism; the two-class fixture's ring is the two-element field."""
    started = time.time()
    z2, z4 = fixtures.z2(), fixtures.z4()
    gen1, gen2 = fixture_gen1(), fixture_gen2()
    cases = [
        (z2, certificate_from_operation(z2, "d"), Partition.one(2), [0]),
        (z4, certificate_from_operation(z4, "p"), principal_congruence(z4, 0, 2), [0, 1]),
        (gen1.algebra, certificate_from_operation(gen1.algebra, "d"), gen1.mu,
         [blk[0] for blk in gen1.mu.blocks]),
        (gen2.algebra, certificate_from_operation(gen2.algebra, "d"), gen2.mu,
         [blk[0] for blk in gen2.mu.blocks]),
    ]
    for algebra, cert, theta, transversal in cases:
        ring = freese_ring(algebra, theta, transversal, cert)
        assert len(ring.carrier) == ring.division_ring_size
        assert len(set(ring.iso_to_division_ring)) == len(ring.carrier)
    # the two-class fixture: the division ring is GF(2)
    gf2 = build_field(2)
    da = difference_algebra(gen2.algebra, gen2.mu, certificate_from_operation(gen2.algebra, "d"))
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    assert len(ring) == gf2.q
    assert ring.add(ring.one_index, ring.one_index) == ring.zero_index
    _report("criterion-4 division rings agree", started, 120.0)


def test_criterion_5_similarity_round_trip():
    """Each fixture is similar to its difference algebra; the canonical
    bridge and a bridge from a found isomorphism both verify; the operator
    is idempotent up to isomorphism."""
    started = time.time()
    z4 = fixtures.z4()
    gen2 = fixture_gen2()
    cases = [
        (z4, certificate_from_operation(z4, "p")),
        (gen2.algebra, certificate_from_operation(gen2.algebra, "d")),
    ]
    for algebra, cert in cases:
        d = diff_of(algebra, cert)
        cert_d = d.construction.certificate_d
        bridge = bridge_construct(algebra, d.algebra, "canonical-to-d", cert_a=cert)
        assert bridge.report.passed
        verdict = is_similar(algebra, d.algebra, cert, cert_d)
        assert verdict.similar
        bridge2 = bridge_construct(
            algebra, d.algebra, "from-iso", cert_a=cert, cert_b=cert_d, iso=verdict.isomorphism
        )
        assert bridge2.report.passed
        dd = diff_of(d.algebra, cert_d)
        assert find_isomorphism(dd.algebra, d.algebra) is not None
    _report("criterion-5 similarity round trip", started, 60.0)


def test_criterion_6_perspectivity_transfer():
    """Perspective abelian cover pairs in the square fixture give a verified
    isomorphism of difference algebras and of their division rings."""
    started = time.time()
    sq = fixtures.two_squared()
    cert = certificate_from_operation(sq, "d")
    eta1 = Partition(4, [[0, 1], [2, 3]])
    eta2 = Partition(4, [[0, 2], [1, 3]])
    transfer = perspective_diff_iso(
        sq, (Partition.zero(4), eta1), (eta2, Partition.one(4)), cert
    )
    assert transfer.isomorphism.is_bijective()
    assert len(transfer.left_ring) == len(transfer.right_ring) == 2
    assert transfer.ring_map[transfer.left_ring.zero_index] == transfer.right_ring.zero_index
    assert transfer.ring_map[transfer.left_ring.one_index] == transfer.right_ring.one_index
    _report("criterion-6 perspectivity transfer", started, 5.0)


def test_criterion_7_law_sweep():
    """200 seeded random algebras: centralizers match the brute-force lattice
    oracle (both matrix routes of the term condition, by naive closure),
    principal congruences match the brute-force minimum, and abelianness
    coincides with the two-term condition whenever a weak difference term is
    found."""
    started = time.time()
    rng = random.Random(20260810)
    checked_wdt = 0
    for i in range(200):
        n = rng.randint(2, 4)
        ops = []
        for j in range(rng.randint(1, 2)):
            arity = rng.randint(0, 2)
            ops.append((f"f{j}", arity, [rng.randrange(n) for _ in range(n**arity)]))
        algebra = FiniteAlgebra(n, ops)

        lat = congruence_lattice(algebra)
        assert set(lat.elements) == set(brute_congruences(algebra))

        for a in range(n):
            for b in range(a + 1, n):
                assert principal_congruence(algebra, a, b) == brute_principal(algebra, a, b)

        zero = Partition.zero(n)
        for theta in lat.elements:
            # library centralizer (the term condition read off the diagonal
            # congruence) against the independent naive oracle
            cent = centralizer(algebra, zero, theta)
            best = zero
            for cand in lat.elements:
                if brute_centralizes(algebra, cand, theta, zero) and best.leq(cand):
                    best = cand
            assert cent == best, f"algebra #{i}: centralizer mismatch"

        try:
            cert = search_wdt(algebra, cap=600)
        except CapExceededError:
            cert = None
        if cert is not None and cert.verdict:
            checked_wdt += 1
            for theta in lat.elements:
                assert is_abelian(algebra, theta) == two_term_condition(algebra, theta).holds
    assert checked_wdt > 0
    print(f"  (weak difference terms found for {checked_wdt}/200 algebras)")
    _report("criterion-7 law sweep", started, 300.0)


def test_criterion_8_generated_claims():
    """Full claim verification for the three generated fixtures."""
    started = time.time()
    from finalg import verify_claims

    for fix in (fixture_gen1(), fixture_gen2(), fixture_gen3()):
        rep = verify_claims(fix)
        assert rep.passed, [it.id for it in rep.failures]
    _report("criterion-8 generated-algebra claims", started, 180.0)
