import itertools
import random

import pytest

from finalg import (
    ElementMap,
    FiniteAlgebra,
    evaluate,
    find_isomorphism,
    generate_subuniverse,
    is_homomorphism,
    product,
    quotient,
    unary_polynomials,
    Partition,
)

from oracles import brute_pol1


def test_evaluate_fixtures(z4, s2, z2):
    assert evaluate(z4, "p", (1, 2, 3)) == 2
    assert evaluate(s2, "meet", (0, 1)) == 0
    assert evaluate(z2, "d", (1, 1, 0)) == 0


def test_evaluate_errors(z4):
    with pytest.raises(KeyError):
        evaluate(z4, "q", (0, 0, 0))
    with pytest.raises(ValueError):
        evaluate(z4, "p", (0, 0))
    with pytest.raises(ValueError):
        evaluate(z4, "p", (0, 0, 4))


def test_nullary_normalized():
    a = FiniteAlgebra(3, [("c", 0, [2])])
    op = a.operation("c")
    assert op.arity == 1 and op.table == (2, 2, 2)


def test_out_of_range_entry_names_the_first_bad_entry():
    """The range is checked with one min and max; the message still names
    the first offending entry in table order, not the smallest or largest."""
    with pytest.raises(ValueError, match=r"operation 'f': entry 5 out of range"):
        FiniteAlgebra(3, [("f", 1, [0, 5, -1])])
    with pytest.raises(ValueError, match=r"operation 'f': entry -1 out of range"):
        FiniteAlgebra(3, [("f", 1, [0, -1, 5])])
    with pytest.raises(ValueError, match=r"operation 'c': entry 3 out of range"):
        FiniteAlgebra(3, [("c", 0, [3])])


def test_subuniverse_examples(z4, s2):
    assert generate_subuniverse(z4, [0, 1]) == frozenset({0, 1, 2, 3})
    assert generate_subuniverse(z4, [0]) == frozenset({0})
    assert generate_subuniverse(s2, [0, 1]) == frozenset({0, 1})


def test_subuniverse_properties(z4, two_sq):
    rng = random.Random(5)
    for alg in (z4, two_sq):
        for _ in range(20):
            seed = {rng.randrange(alg.size) for _ in range(rng.randint(1, 3))}
            bigger = seed | {rng.randrange(alg.size)}
            s1 = generate_subuniverse(alg, seed)
            s2_ = generate_subuniverse(alg, bigger)
            assert seed <= s1                      # extensive
            assert s1 <= s2_                       # monotone
            assert generate_subuniverse(alg, s1) == s1   # idempotent


def test_product_examples(z2, z4, s2):
    sq = product(z2, z2)
    assert sq.algebra.size == 4
    args = (sq.encode(1, 0), sq.encode(0, 0), sq.encode(0, 1))
    assert evaluate(sq.algebra, "d", args) == sq.encode(1, 1)
    assert product(z4, z4).algebra.size == 16
    ss = product(s2, s2)
    assert evaluate(ss.algebra, "meet", (ss.encode(1, 0), ss.encode(0, 1))) == ss.encode(0, 0)


def test_quotient_examples(z4, z2, z4_theta):
    q = quotient(z4, z4_theta)
    assert q.algebra.size == 2
    # Z4 / 2Z4 is the two-element affine algebra, up to the operation name
    assert find_isomorphism(q.algebra, z2.rename_operations(["p"])) is not None
    ident = quotient(z4, Partition.zero(4))
    assert find_isomorphism(ident.algebra, z4) is not None
    assert quotient(z4, Partition.one(4)).algebra.size == 1


def test_quotient_rejects_non_congruence(z4):
    with pytest.raises(ValueError):
        quotient(z4, Partition(4, [[0, 1], [2], [3]]))


def test_correspondence_theorem(z4, z4_theta):
    # quotient(quotient(A, theta), beta/theta) is isomorphic to quotient(A, beta)
    beta = Partition.one(4)
    q1 = quotient(z4, z4_theta)
    beta_over = Partition.from_labels(2, [0, 0])
    twice = quotient(q1.algebra, beta_over)
    once = quotient(z4, beta)
    assert find_isomorphism(twice.algebra, once.algebra) is not None


def test_unary_polynomials_counts(z2, s2, z4):
    assert len(unary_polynomials(z2)) == 4
    assert len(unary_polynomials(s2)) == 3
    # all 16 affine maps x -> a*x + c appear (the spec example's own listing
    # begins "the 16 maps"; coefficient-2 maps such as x -> 2x arise from
    # p(x, 0, x))
    p4 = unary_polynomials(z4)
    assert len(p4) == 16
    expected = {
        tuple((a * x + c) % 4 for x in range(4))
        for a in range(4)
        for c in range(4)
    }
    assert {f.images for f in p4} == expected


def test_unary_polynomials_match_oracle(z2, s2, z4):
    for alg in (z2, s2, z4):
        assert {f.images for f in unary_polynomials(alg)} == brute_pol1(alg)


def test_unary_polynomials_closed_under_composition(z4):
    fns = list(unary_polynomials(z4))
    table = {f.images for f in fns}
    for f in fns:
        for g in fns:
            assert f.compose(g).images in table


def test_find_isomorphism_examples(z2, z4, s2):
    h = find_isomorphism(z2, z2)
    assert h is not None and h.images == (0, 1)
    # conjugate Z4 by the cycle x -> x + 1
    perm = [(x + 1) % 4 for x in range(4)]
    inv = [(x - 1) % 4 for x in range(4)]
    table = [
        perm[(inv[x] - inv[y] + inv[z]) % 4]
        for x, y, z in itertools.product(range(4), repeat=3)
    ]
    relabeled = FiniteAlgebra(4, [("p", 3, table)])
    h = find_isomorphism(z4, relabeled)
    assert h is not None
    assert is_homomorphism(z4, relabeled, h)
    assert find_isomorphism(z2, s2) is None


def test_isomorphism_commutes_with_operations(z4):
    # exhaustive check of the homomorphism law for a found isomorphism
    h = find_isomorphism(z4, z4)
    n = z4.size
    for args in itertools.product(range(n), repeat=3):
        assert h(evaluate(z4, "p", args)) == evaluate(z4, "p", tuple(h(x) for x in args))


def test_element_map_algebra():
    f = ElementMap(3, 3, [1, 2, 0])
    g = ElementMap(3, 3, [0, 0, 1])
    assert f.compose(g).images == (1, 1, 2)
    assert f.inverse().images == (2, 0, 1)
    assert ElementMap.identity(3).images == (0, 1, 2)
    assert not g.is_bijective()
