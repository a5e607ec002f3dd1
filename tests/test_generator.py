import itertools

import pytest

from finalg import (
    CapExceededError,
    FiniteAlgebra,
    find_isomorphism,
    verify_claims,
)
from finalg.generator import (
    GeneratorConfig,
    build_field,
    build_som,
    config_from_dict,
    config_to_dict,
    generate_example,
    vectors,
)


def test_build_field_gf2():
    f = build_field(2)
    assert f.add(1, 1) == 0 and f.mul(1, 1) == 1  # xor / and


def test_build_field_gf4():
    f = build_field(2, 2)
    # elements: 0, 1, x = 2, x+1 = 3; x * (x+1) = x^2 + x = 1
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1


def test_build_field_gf9():
    f = build_field(3, 2)
    assert f.p == 3 and f.k == 2 and f.q == 9
    # characteristic 3: 1 + 1 + 1 = 0
    assert f.add(f.add(1, 1), 1) == 0


def test_build_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(4)
    with pytest.raises(ValueError):
        build_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over GF(2)


def test_build_som_single_sort():
    # one sort: the glued operation is the Maltsev operation itself
    f = build_field(2)
    vs = vectors(f, 2)
    pos = {v: i for i, v in enumerate(vs)}
    m = [0] * 64
    for (ia, a), (ib, b), (ic, c) in itertools.product(enumerate(vs), repeat=3):
        res = tuple(f.add(f.sub(x, y), z) for x, y, z in zip(a, b, c))
        m[(ia * 4 + ib) * 4 + ic] = pos[res]
    som = build_som([[0]], [tuple(range(4))], {(0, 0): {i: i for i in range(4)}}, {0: tuple(m)})
    assert som.table == tuple(m)


def test_build_som_two_sorts():
    # two sorts s > t with an identity-like connecting map: mixed arguments
    # land in the low sort through the connecting maps
    meet = [[0, 0], [0, 1]]
    sorts = [(0, 1), (2, 3)]
    conn = {
        (0, 0): {0: 0, 1: 1},
        (1, 1): {2: 2, 3: 3},
        (1, 0): {2: 0, 3: 1},
    }
    # local tables index positions 0, 1 inside each sort
    table3 = tuple(x ^ y ^ z for x, y, z in itertools.product(range(2), repeat=3))
    som = build_som(meet, sorts, conn, {0: table3, 1: table3})
    assert som.apply(2, 3, 0) == 1  # xor of local positions 0, 1, 0 in the low sort
    assert som.apply(2, 3, 2) == 3  # a single high sort stays put


def test_build_som_validates_meet():
    with pytest.raises(ValueError):
        build_som([[0, 1], [0, 1]], [(0,), (1,)], {(0, 0): {0: 0}, (1, 1): {1: 1}}, {0: (0,), 1: (1,)})


def test_som_restricts_to_maltsev_per_sort(gen2):
    d = gen2.algebra.operation("d")
    n = gen2.algebra.size
    field = gen2.config.field
    for sidx, ids in enumerate(gen2.sort_elements):
        for x, y, z in itertools.product(ids, repeat=3):
            res = d.table[(x * n + y) * n + z]
            vx, vy, vz = (gen2.vectors_of[e] for e in (x, y, z))
            expected_vec = tuple(
                field.add(field.sub(a, b), c) for a, b, c in zip(vx, vy, vz)
            )
            assert gen2.vectors_of[res] == expected_vec and res in ids


def test_generate_example_counts(gen1, gen2, gen3):
    assert gen1.algebra.size == 4 and len(gen1.algebra.operations) == 5
    assert gen2.algebra.size == 8 and len(gen2.algebra.operations) == 26
    names = [op.name for op in gen2.algebra.operations]
    assert sum(1 for nm in names if nm.startswith("F0_0")) == 15
    assert sum(1 for nm in names if nm.startswith("F0_1")) == 3
    assert sum(1 for nm in names if nm.startswith("F1_0")) == 1
    assert sum(1 for nm in names if nm.startswith("H")) == 3  # one detector per sort
    assert "G1" in names and "Gp1" in names and "K1" in names
    assert gen3.algebra.size == 6 and len(gen3.algebra.operations) == 7


def test_generate_affine_line():
    f3 = build_field(3)
    gen = generate_example(GeneratorConfig(f3, (1,), ((),)))
    assert gen.algebra.size == 3
    assert [op.name for op in gen.algebra.operations] == ["d", "F0_0_0", "F0_0_1", "H0_0"]


def test_generate_operation_cap():
    f2 = build_field(2)
    with pytest.raises(CapExceededError):
        generate_example(GeneratorConfig(f2, (2, 1), ((((1, 0),),), ()), operation_cap=5))


def test_class_sizes_are_powers_of_characteristic(gen1, gen2, gen3):
    for gen in (gen1, gen2, gen3):
        p = gen.config.field.p
        for blk in gen.mu.blocks:
            size = len(blk)
            while size % p == 0:
                size //= p
            assert size == 1


def test_verify_claims_acceptance_matrix(gen1, gen2, gen3):
    for gen in (gen1, gen2, gen3):
        rep = verify_claims(gen)
        assert rep.passed, [it.id for it in rep.failures]


def test_generated_term_is_wdt_on_the_square(gen1):
    # the glued operation stays a weak difference term on the square
    from finalg import verify_wdt

    d = gen1.algebra.operation("d").table
    cert = verify_wdt(gen1.algebra, d, scope=(1, 2))
    assert cert.verdict
    assert {lbl for lbl, _, _ in cert.checked} == {"A", "A^2"}


def _conjugate(algebra, perm):
    """Relabel the universe by an involution, keeping operation names."""
    inv = perm
    ops = []
    for op in algebra.operations:
        k = op.arity
        table = [0] * len(op.table)
        for idx in range(len(op.table)):
            args = []
            rem = idx
            for _ in range(k):
                args.append(rem % algebra.size)
                rem //= algebra.size
            args.reverse()
            jdx = 0
            for x in args:
                jdx = jdx * algebra.size + inv[x]
            table[idx] = perm[op.table[jdx]]
        ops.append((op.name, k, table))
    return FiniteAlgebra(algebra.size, ops)


def test_element_order_is_isomorphism_invariant():
    # enumerating the space elements in another order gives an isomorphic
    # algebra: conjugate by an in-class relabeling and recover it
    f3 = build_field(3)
    a = generate_example(GeneratorConfig(f3, (1,), ((((1,),),),))).algebra
    perm = [0, 2, 1, 3, 5, 4]  # swap the nonzero vectors inside each space
    b = _conjugate(a, perm)
    h = find_isomorphism(a, b)
    assert h is not None and h.images == tuple(perm)


def test_basis_change_renames_operations():
    # presenting the copied subspace through a different basis yields the
    # element-relabeled algebra with its sort-collapsing family renamed
    f3 = build_field(3)
    a = generate_example(GeneratorConfig(f3, (1,), ((((1,),),),))).algebra
    b = generate_example(GeneratorConfig(f3, (1,), ((((2,),),),))).algebra
    assert a != b
    relabeled = _conjugate(a, [0, 1, 2, 3, 5, 4])  # undo the basis change on the copy
    assert sorted((op.arity, op.table) for op in relabeled.operations) == sorted(
        (op.arity, op.table) for op in b.operations
    )


def test_config_roundtrip(gen2):
    cfg = gen2.config
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert generate_example(again).algebra == gen2.algebra


class _Ring:
    """A ring given by its tables, as `_ring_isomorphic_to_field` reads it."""

    def __init__(self, add_table, mul_table):
        self.add_table = add_table
        self.mul_table = mul_table

    def __len__(self):
        return len(self.add_table)


def _relabeled(field, perm):
    """The field's tables carried along the permutation `perm`."""
    q = field.q
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            add[perm[a]][perm[b]] = perm[field.add(a, b)]
            mul[perm[a]][perm[b]] = perm[field.mul(a, b)]
    return _Ring(add, mul)


@pytest.mark.parametrize("p, k, modulus", [(13, 1, None), (2, 4, (1, 1, 0, 0, 1))])
def test_ring_isomorphic_to_a_relabeled_field(p, k, modulus):
    """GF(13) and GF(16), where the former search tried 11! and 14!
    permutations."""
    import random

    from finalg.generator import _ring_isomorphic_to_field

    field = build_field(p, k, modulus)
    perm = list(range(field.q))
    random.Random(field.q).shuffle(perm)
    assert _ring_isomorphic_to_field(_relabeled(field, perm), field)


def test_z4_is_not_gf4():
    from finalg.generator import _ring_isomorphic_to_field

    z4 = _Ring([[(a + b) % 4 for b in range(4)] for a in range(4)],
               [[a * b % 4 for b in range(4)] for a in range(4)])
    assert not _ring_isomorphic_to_field(z4, build_field(2, 2))
    assert not _ring_isomorphic_to_field(z4, build_field(5))
