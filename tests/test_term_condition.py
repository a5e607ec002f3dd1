"""The term condition's one route, the diagonal congruence Delta of the pair
algebra, against both matrix routes on the reference closure and against
brute force; for every arity, at the congruence kernel's default slice
budget and at a budget of a few cells."""

import itertools
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import FiniteAlgebra, Partition, centralizes, congruence_lattice, core

from oracles import brute_centralizes, matrix_centralizes, matrix_delta_classes


def _max_arity(n: int) -> int:
    """The reference closes M(phi, theta) over the full argument grid (a
    per-row Python loop at arity 4), so its cost grows as n^(4 * arity)."""
    return 4 if n <= 3 else 2


@st.composite
def algebras(draw):
    n = draw(st.integers(2, 6))
    arities = draw(st.lists(st.integers(1, _max_arity(n)), min_size=1, max_size=2))
    # tables forced to respect a drawn partition keep Con(A) from collapsing
    # to {0, 1}, as it does for almost every random table
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    respect = draw(st.booleans())
    canon = {x: labels.index(labels[x]) for x in range(n)}
    ops = []
    for i, k in enumerate(arities):
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        if respect:
            # the class of f(args) is the class of f at the representatives
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


def _quaternary(n, f):
    table = [f(x, y, z, w) % n for x, y, z, w in itertools.product(range(n), repeat=4)]
    return n, [("q", 4, table)]


def _affine6():
    # x - y mod 6: Con(A) is the subgroup lattice of Z6, and phi = theta = 1
    # has an ambient matrix space of 6^4 = 1296
    return 6, [("s", 2, [(x - y) % 6 for x, y in itertools.product(range(6), repeat=2)])]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras(), picks=st.tuples(*[st.integers(0, 10**6)] * 3), sliced=st.booleans())
@example(case=_affine6(), picks=(0, 1, 2), sliced=False)
@example(case=_affine6(), picks=(0, 1, 2), sliced=True)
@example(case=_quaternary(3, lambda x, y, z, w: x - y + z + w), picks=(1, 1, 0), sliced=True)
@example(case=_quaternary(2, lambda x, y, z, w: x * y + z * w), picks=(1, 1, 0), sliced=True)
def test_centralizes_matches_matrix_routes(case, picks, sliced):
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    con = congruence_lattice(algebra).elements
    phi, theta, delta = (con[p % len(con)] for p in picks)
    one = Partition.one(n)
    # the drawn triple, and phi = theta = 1, whose ambient space n^4 is above
    # 700 at n = 6
    triples = [(phi, theta, delta), (one, one, delta)]
    # sliced: a budget of a few cells, so that the congruence kernel slices
    # every gather and every enumeration of the pair translations; the
    # lattice above is built first, at the default budget
    budget = 16 if sliced else core._CHUNK_CELLS
    with mock.patch.object(core, "_CHUNK_CELLS", budget):
        verdicts = [centralizes(algebra, *triple) for triple in triples]
    max_arity = max(k for _, k, _ in ops)
    for (phi, theta, delta), verdict in zip(triples, verdicts):
        rows_ok, cols_ok = matrix_centralizes(algebra, phi, theta, delta)
        assert verdict.holds == rows_ok == cols_ok
        # brute force closes the full grid in numpy up to arity 3
        if n <= 4 and max_arity <= 3 and n ** (4 * max_arity) <= 10**6:
            assert verdict.holds == brute_centralizes(algebra, phi, theta, delta)
        if not verdict.holds:
            a, b, c, d = verdict.witness
            classes = matrix_delta_classes(algebra, theta, phi)
            assert classes[(a, b)] == classes[(c, d)]
            assert delta.related(a, b) != delta.related(c, d)


def test_centralizes_quaternary_affine():
    """x - y + z mod n as a 4-ary operation (its last argument ignored): the
    whole algebra is abelian, at n = 3 and at n = 6 (ambient space 1296)."""
    for n in (3, 6):
        table = [(x - y + z) % n for x, y, z, _ in itertools.product(range(n), repeat=4)]
        algebra = FiniteAlgebra(n, [("q", 4, table)])
        one, zero = Partition.one(n), Partition.zero(n)
        assert centralizes(algebra, one, one, zero).holds
