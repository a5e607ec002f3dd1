"""Generation of subdirectly irreducible witness algebras with prescribed
abelian structure.

The construction glues vector spaces over a finite field along a two-level
meet semilattice of sorts.  Each alpha-class is a union of spaces: one
distinguished space plus isomorphic copies of chosen subspaces of it.  A
ternary operation pieced together from the per-sort affine Maltsev
operations (a semilattice-over-Maltsev operation) serves as the weak
difference term; unary and binary sort-collapsing operations pin down the
monolith, its centralizer, and the division ring.  The claim verifier checks
all of that computationally, including the closed form of the diagonal
congruence and the identification of class ranges with the chosen subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CapExceededError, FiniteAlgebra, find_isomorphism
from .congruences import Partition, _principal_congruences, congruence_lattice, structure_report
from .centrality import centralizer
from .diffalg import difference_algebra, range_of_class
from .diffterm import _is_prime, _reflexive_closure, certificate_from_operation
from .similarity import division_ring
from .report import CheckItem, Report

DEFAULT_OPERATION_CAP = 256

_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


@dataclass(frozen=True)
class FiniteField:
    """GF(p^k) on element codes 0..q-1; code digits base p are the
    polynomial coefficients, constant term least significant."""

    p: int
    k: int
    modulus: tuple[int, ...]
    q: int
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return next(b for b in range(self.q) if self.add(a, b) == 0)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))


def _poly_mod(coeffs: list[int], modulus: Sequence[int], p: int) -> list[int]:
    coeffs = list(coeffs)
    k = len(modulus) - 1
    while len(coeffs) > k:
        lead = coeffs.pop()
        if lead == 0:
            continue
        deg = len(coeffs)
        for i in range(k):
            coeffs[deg - k + i] = (coeffs[deg - k + i] - lead * modulus[i]) % p
    return coeffs + [0] * (k - len(coeffs))


def _poly_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg/2 over GF(p)."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            # long division of modulus by divisor
            rem = list(modulus)
            while len(rem) - 1 >= d and any(rem):
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) - 1 < d:
                    break
                lead = rem[-1]
                shift = len(rem) - 1 - d
                for i, c in enumerate(divisor):
                    rem[shift + i] = (rem[shift + i] - lead * c) % p
            if not any(rem):
                return False
    return True


def build_field(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> FiniteField:
    """GF(p^k) with verified field axioms.

    For k > 1 a monic irreducible modulus is required (ascending
    coefficients, length k+1); defaults exist for q in {4, 8, 9}.
    """
    p, k = int(p), int(k)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        modulus = (0, 1)
    elif modulus is None:
        try:
            modulus = _DEFAULT_MODULI[(p, k)]
        except KeyError:
            raise ValueError(f"no default modulus for GF({p}^{k}); supply one") from None
    modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree k")
    if k > 1 and not _poly_irreducible(modulus, p):
        raise ValueError(f"modulus {modulus} is reducible over GF({p})")

    q = p**k

    def digits(a: int) -> list[int]:
        return [(a // p**i) % p for i in range(k)]

    def undigits(cs: Sequence[int]) -> int:
        return sum(c * p**i for i, c in enumerate(cs))

    add = [[undigits([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)] for a in range(q)]
    mul = []
    for a in range(q):
        row = []
        da = digits(a)
        for b in range(q):
            db = digits(b)
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            row.append(undigits(_poly_mod(prod, modulus, p)))
        mul.append(row)
    field = FiniteField(
        p, k, modulus, q,
        tuple(tuple(r) for r in add), tuple(tuple(r) for r in mul),
    )
    _assert_field(field)
    return field


def _assert_field(f: FiniteField):
    q = f.q
    for a in range(q):
        if f.add(a, 0) != a or f.mul(a, 1) != a:
            raise ValueError("identity axiom fails")
        if all(f.mul(a, b) != 1 for b in range(q)) and a != 0:
            raise ValueError(f"{a} has no multiplicative inverse")
        for b in range(q):
            if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                raise ValueError("commutativity fails")
            for c in range(q):
                if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
                    raise ValueError("additive associativity fails")
                if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                    raise ValueError("multiplicative associativity fails")
                if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                    raise ValueError("distributivity fails")


# -- vectors and linear maps over a finite field -----------------------------


def vectors(field: FiniteField, dim: int) -> list[tuple[int, ...]]:
    """All coordinate vectors, lexicographic, leftmost digit most significant."""
    return [tuple(v) for v in itertools.product(range(field.q), repeat=dim)]


def vec_add(field: FiniteField, u, v):
    return tuple(field.add(x, y) for x, y in zip(u, v))

def vec_sub(field: FiniteField, u, v):
    return tuple(field.sub(x, y) for x, y in zip(u, v))


def vec_scale(field: FiniteField, c: int, u):
    return tuple(field.mul(c, x) for x in u)


def matrix_apply(field: FiniteField, rows: Sequence[Sequence[int]], u, target_dim: int):
    """rows[i] is the image of the i-th source basis vector."""
    out = (0,) * target_dim
    for c, row in zip(u, rows):
        out = vec_add(field, out, vec_scale(field, c, row))
    return out


def matrix_rank(field: FiniteField, rows: list[tuple[int, ...]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = next(b for b in range(field.q) if field.mul(rows[rank][col], b) == 1)
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def all_linear_maps(field: FiniteField, src_dim: int, dst_dim: int):
    """All linear maps as row tuples, lexicographic; index 0 is the zero map."""
    rows_space = vectors(field, dst_dim)
    return [
        tuple(choice)
        for choice in itertools.product(rows_space, repeat=src_dim)
    ]


# ---------------------------------------------------------------------------
# Semilattice-over-Maltsev operations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemilatticeOverMaltsev:
    """A ternary operation glued from per-sort Maltsev operations along a
    meet semilattice of sorts with connecting maps."""

    size: int
    meet: tuple[tuple[int, ...], ...]
    sort_elements: tuple[tuple[int, ...], ...]
    sort_of: tuple[int, ...]
    table: tuple[int, ...]

    def apply(self, a: int, b: int, c: int) -> int:
        n = self.size
        return self.table[(a * n + b) * n + c]


def build_som(
    meet: Sequence[Sequence[int]],
    sort_elements: Sequence[Sequence[int]],
    connecting: dict,
    maltsev: dict,
) -> SemilatticeOverMaltsev:
    """Assemble d(a, b, c) = m_t(f_(s1,t)(a), f_(s2,t)(b), f_(s3,t)(c)) with
    t the meet of the three sorts.

    `connecting[(s, t)]` maps global elements of sort s to sort t and must be
    total for every s >= t, with the identity on (s, s).  `maltsev[s]` is a
    local flat ternary table over the positions of sort s.  The operation is
    checked idempotent and to satisfy the absorption and two-variable
    identity families that make it a weak difference term at variety level.
    """
    ns = len(meet)
    for s in range(ns):
        for t in range(ns):
            if meet[s][t] != meet[t][s]:
                raise ValueError("meet not commutative")
            if meet[s][meet[s][t]] != meet[s][t]:
                raise ValueError("meet not absorptive")
            for u in range(ns):
                if meet[meet[s][t]][u] != meet[s][meet[t][u]]:
                    raise ValueError("meet not associative")
        if meet[s][s] != s:
            raise ValueError("meet not idempotent")
    seen = set()
    for elems in sort_elements:
        for x in elems:
            if x in seen:
                raise ValueError("sorts are not disjoint")
            seen.add(x)
    size = len(seen)
    if seen != set(range(size)):
        raise ValueError("sorts must cover 0..n-1")
    sort_of = [0] * size
    for s, elems in enumerate(sort_elements):
        for x in elems:
            sort_of[x] = s
    for s in range(ns):
        for t in range(ns):
            if meet[s][t] == t:
                f = connecting.get((s, t))
                if f is None:
                    raise ValueError(f"missing connecting map {s} -> {t}")
                if s == t and any(f[x] != x for x in sort_elements[s]):
                    raise ValueError("connecting map on (s, s) must be the identity")
                for x in sort_elements[s]:
                    if sort_of[f[x]] != t:
                        raise ValueError("connecting map leaves its target sort")

    pos = {x: i for elems in sort_elements for i, x in enumerate(elems)}
    table = []
    for a, b, c in itertools.product(range(size), repeat=3):
        t = meet[meet[sort_of[a]][sort_of[b]]][sort_of[c]]
        xa, xb, xc = (connecting[(sort_of[x], t)][x] for x in (a, b, c))
        w = len(sort_elements[t])
        table.append(sort_elements[t][maltsev[t][(pos[xa] * w + pos[xb]) * w + pos[xc]]])

    som = SemilatticeOverMaltsev(
        size,
        tuple(tuple(r) for r in meet),
        tuple(tuple(e) for e in sort_elements),
        tuple(sort_of),
        tuple(table),
    )
    _assert_som_identities(som)
    return som


def _assert_som_identities(som: SemilatticeOverMaltsev):
    """Idempotence, the absorption identities, and the two-variable families
    witnessing the weak-difference-term property at variety level."""
    d = som.apply
    n = som.size
    for x in range(n):
        if d(x, x, x) != x:
            raise ValueError(f"not idempotent at {x}")
    for x in range(n):
        for y in range(n):
            u = d(x, y, y)
            v = d(x, x, y)
            if d(u, x, x) != u or d(u, y, y) != u:
                raise ValueError(f"absorption fails at ({x}, {y})")
            if d(x, x, v) != v or d(y, y, v) != v:
                raise ValueError(f"absorption fails at ({x}, {y})")

    def f0(x, y, z):
        return x

    def g0(x, y, z):
        return d(x, z, z)

    def f1(x, y, z):
        return d(x, y, y)

    def g1(x, y, z):
        return d(d(x, y, y), z, z)

    def f2(x, y, z):
        return z

    def g2(x, y, z):
        return d(x, x, z)

    def f3(x, y, z):
        return d(y, y, z)

    def g3(x, y, z):
        return d(x, x, d(y, y, z))

    fs = [f0, f1, f2, f3]
    gs = [g0, g1, g2, g3]
    for x in range(n):
        for y in range(n):
            for fi, gi in zip(fs, gs):
                if fi(x, y, x) != gi(x, y, x):
                    raise ValueError(f"alternation identity fails at ({x}, {y})")
            checks = [
                x == f0(x, y, y),
                f2(x, x, y) == y,
                f1(x, x, y) == f0(x, x, y),
                f2(x, y, y) == f3(x, y, y),
                f1(x, y, y) == g1(x, y, y),
                g3(x, x, y) == f3(x, x, y),
                g0(x, x, y) == g1(x, x, y),
                g3(x, y, y) == g2(x, y, y),
                g0(x, y, y) == d(x, y, y),
                d(x, x, y) == g2(x, x, y),
            ]
            if not all(checks):
                raise ValueError(f"two-variable identity family fails at ({x}, {y})")


# ---------------------------------------------------------------------------
# The generator.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Data for one generated algebra.

    dims[l] is the dimension of the distinguished space of the l-th
    alpha-class; subspaces[l] lists the bases (tuples of row vectors) of the
    extra subspaces copied into that class.  g_maps/h_maps optionally give
    the connecting matrices for classes l >= 1 (defaults send/collapse along
    first basis vectors); `one` is the distinguished nonzero element of the
    first space used by the binary sort-detector operations.
    """

    field: FiniteField
    dims: tuple[int, ...]
    subspaces: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    g_maps: tuple | None = None
    h_maps: tuple | None = None
    one: tuple[int, ...] | None = None
    operation_cap: int = DEFAULT_OPERATION_CAP


@dataclass(frozen=True)
class GeneratedAlgebra:
    algebra: FiniteAlgebra
    config: GeneratorConfig
    mu: Partition
    alpha: Partition
    sorts: tuple[tuple[int, int], ...]
    sort_elements: tuple[tuple[int, ...], ...]
    sort_of: tuple[int, ...]
    vectors_of: tuple[tuple[int, ...], ...]
    sigma: tuple[int, ...]
    zero_of_sort: dict
    one_element: int
    subspace_elements: tuple[frozenset[int], ...]

    def sort_index(self, s: tuple[int, int]) -> int:
        return self.sorts.index(s)


def generate_example(config: GeneratorConfig) -> GeneratedAlgebra:
    """Build the witness algebra for a configuration.

    The universe is the disjoint union of the spaces, sort-major, each space
    enumerated in coordinate-lexicographic order.  Operations: the glued
    ternary d; for every sort (l, i) all nonconstant linear maps from the
    distinguished l-space into it, precomposed with the projections sigma;
    for every l >= 1 with positive dimension a pair of nonconstant maps into
    and out of the first class; a sort detector per sort; and a projection
    conditioned on each class l >= 1.  The monolith and centralizer labels
    are returned with the algebra.
    """
    field = config.field
    m = len(config.dims) - 1
    if m < 0:
        raise ValueError("need at least one class")
    if config.dims[0] < 1:
        raise ValueError("the first space must have positive dimension")
    if len(config.subspaces) != m + 1:
        raise ValueError("need one subspace list per class")

    sorts: list[tuple[int, int]] = []
    space_dim: dict[tuple[int, int], int] = {}
    space_basis: dict[tuple[int, int], tuple] = {}
    for l in range(m + 1):
        sorts.append((l, 0))
        space_dim[(l, 0)] = config.dims[l]
        for i, basis in enumerate(config.subspaces[l], start=1):
            basis = tuple(tuple(int(c) % field.q for c in row) for row in basis)
            for row in basis:
                if len(row) != config.dims[l]:
                    raise ValueError("subspace basis vector has the wrong dimension")
            if basis and matrix_rank(field, list(basis)) != len(basis):
                raise ValueError("subspace basis rows are not independent")
            sorts.append((l, i))
            space_dim[(l, i)] = len(basis)
            space_basis[(l, i)] = basis

    sort_elements: list[tuple[int, ...]] = []
    vectors_of: list[tuple[int, ...]] = []
    sort_of: list[int] = []
    offset = 0
    for s in sorts:
        vs = vectors(field, space_dim[s])
        ids = tuple(range(offset, offset + len(vs)))
        sort_elements.append(ids)
        vectors_of.extend(vs)
        sort_of.extend([len(sort_elements) - 1] * len(vs))
        offset += len(vs)
    size = offset
    elt = {}
    for sidx, ids in enumerate(sort_elements):
        vs = vectors(field, space_dim[sorts[sidx]])
        for x, v in zip(ids, vs):
            elt[(sorts[sidx], v)] = x

    # sigma: project every element into the distinguished space of its class
    sigma = [0] * size
    for sidx, (l, i) in enumerate(sorts):
        basis = space_basis.get((l, i))
        for x in sort_elements[sidx]:
            v = vectors_of[x]
            if i == 0:
                sigma[x] = x
            else:
                w = (0,) * config.dims[l]
                for c, row in zip(v, basis):
                    w = vec_add(field, w, vec_scale(field, c, row))
                sigma[x] = elt[((l, 0), w)]

    zero_of_sort = {
        s: elt[(s, (0,) * space_dim[s])] for s in sorts
    }
    one_vec = tuple(config.one) if config.one is not None else (1,) + (0,) * (config.dims[0] - 1)
    if one_vec == (0,) * config.dims[0]:
        raise ValueError("the distinguished element must be nonzero")
    one_element = elt[((0, 0), one_vec)]

    # d through the semilattice-over-Maltsev glue
    ns = len(sorts)
    meet = [[0] * ns for _ in range(ns)]
    for a, (l, i) in enumerate(sorts):
        for b, (k, j) in enumerate(sorts):
            if (l, i) == (k, j):
                meet[a][b] = a
            elif l == k:
                meet[a][b] = sorts.index((l, 0))
            else:
                meet[a][b] = sorts.index((0, 0))
    connecting = {}
    for a, (l, i) in enumerate(sorts):
        connecting[(a, a)] = {x: x for x in sort_elements[a]}
        if i != 0:
            connecting[(a, sorts.index((l, 0)))] = {x: sigma[x] for x in sort_elements[a]}
        if l != 0:
            zero00 = zero_of_sort[(0, 0)]
            connecting[(a, sorts.index((0, 0)))] = {x: zero00 for x in sort_elements[a]}
    maltsev = {}
    for sidx, s in enumerate(sorts):
        vs = vectors(field, space_dim[s])
        w = len(vs)
        tab = [0] * w**3
        vpos = {v: i for i, v in enumerate(vs)}
        for (ia, va), (ib, vb), (ic, vc) in itertools.product(enumerate(vs), repeat=3):
            res = vec_add(field, vec_sub(field, va, vb), vc)
            tab[(ia * w + ib) * w + ic] = vpos[res]
        maltsev[sidx] = tuple(tab)
    som = build_som(meet, sort_elements, connecting, maltsev)

    # operation family sizes, checked against the cap before building
    ops: list[tuple[str, int, list[int]]] = [("d", 3, list(som.table))]
    op_count = 1
    for l, i in sorts:
        nmaps = field.q ** (config.dims[l] * space_dim[(l, i)]) - 1
        op_count += max(0, nmaps)
    for l in range(1, m + 1):
        if config.dims[l] > 0:
            op_count += 2
    op_count += len(sorts) + m
    if op_count > config.operation_cap:
        raise CapExceededError("generated operations", config.operation_cap)

    def unary_table(fn) -> list[int]:
        return [fn(x) for x in range(size)]

    for sidx, (l, i) in enumerate(sorts):
        d_src, d_dst = config.dims[l], space_dim[(l, i)]
        class_elems = [x for x in range(size) if sorts[sort_of[x]][0] == l]
        maps = all_linear_maps(field, d_src, d_dst)
        t = 0
        for rows in maps:
            if all(all(c == 0 for c in row) for row in rows):
                continue

            def fop(x, rows=rows, l=l, i=i, d_dst=d_dst):
                kcls = sorts[sort_of[x]][0]
                if kcls != l:
                    return zero_of_sort[(kcls, 0)]
                w = matrix_apply(field, rows, vectors_of[sigma[x]], d_dst)
                return elt[((l, i), w)]

            ops.append((f"F{l}_{i}_{t}", 1, unary_table(fop)))
            t += 1

    g_maps = list(config.g_maps) if config.g_maps is not None else [None] * (m + 1)
    h_maps = list(config.h_maps) if config.h_maps is not None else [None] * (m + 1)
    for l in range(1, m + 1):
        if config.dims[l] == 0:
            continue
        g = g_maps[l]
        if g is None:
            g = tuple(
                (1,) + (0,) * (config.dims[l] - 1) if r == 0 else (0,) * config.dims[l]
                for r in range(config.dims[0])
            )
        h = h_maps[l]
        if h is None:
            h = tuple(
                (1,) + (0,) * (config.dims[0] - 1) if r == 0 else (0,) * config.dims[0]
                for r in range(config.dims[l])
            )
        if all(all(c == 0 for c in row) for row in g) or all(all(c == 0 for c in row) for row in h):
            raise ValueError("connecting maps g and h must be nonconstant")

        def gop(x, g=g, l=l):
            kcls = sorts[sort_of[x]][0]
            if kcls != 0:
                return zero_of_sort[(kcls, 0)]
            w = matrix_apply(field, g, vectors_of[sigma[x]], config.dims[l])
            return elt[((l, 0), w)]

        def hop(x, h=h, l=l):
            kcls = sorts[sort_of[x]][0]
            if kcls != l:
                return zero_of_sort[(kcls, 0)]
            w = matrix_apply(field, h, vectors_of[sigma[x]], config.dims[0])
            return elt[((0, 0), w)]

        ops.append((f"G{l}", 1, unary_table(gop)))
        ops.append((f"Gp{l}", 1, unary_table(hop)))

    zero00 = zero_of_sort[(0, 0)]
    for sidx, (l, i) in enumerate(sorts):
        members = set(sort_elements[sidx])
        table = [
            one_element if (a in members and b in members) else zero00
            for a in range(size)
            for b in range(size)
        ]
        ops.append((f"H{l}_{i}", 2, table))

    for l in range(1, m + 1):
        table = [
            b if sorts[sort_of[a]][0] == l else zero_of_sort[(sorts[sort_of[b]][0], 0)]
            for a in range(size)
            for b in range(size)
        ]
        ops.append((f"K{l}", 2, table))

    algebra = FiniteAlgebra(size, ops)
    mu = Partition(size, [list(ids) for ids in sort_elements])
    alpha = Partition(
        size,
        [
            [x for x in range(size) if sorts[sort_of[x]][0] == l]
            for l in range(m + 1)
        ],
    )
    subspace_elements = []
    for sidx, (l, i) in enumerate(sorts):
        subspace_elements.append(frozenset(sigma[x] for x in sort_elements[sidx]))
    return GeneratedAlgebra(
        algebra=algebra,
        config=config,
        mu=mu,
        alpha=alpha,
        sorts=tuple(sorts),
        sort_elements=tuple(sort_elements),
        sort_of=tuple(sort_of),
        vectors_of=tuple(vectors_of),
        sigma=tuple(sigma),
        zero_of_sort=zero_of_sort,
        one_element=one_element,
        subspace_elements=tuple(subspace_elements),
    )


# -- canonical fixtures ------------------------------------------------------


def fixture_gen1() -> GeneratedAlgebra:
    """GF(2), one class: a 2-element line plus one full copy; 4 elements."""
    f2 = build_field(2)
    return generate_example(GeneratorConfig(f2, (1,), ((((1,),),),)))


def fixture_gen2() -> GeneratedAlgebra:
    """GF(2), two classes: a 4-element plane with a 2-element subspace copy,
    plus a separate 2-element line; 8 elements."""
    f2 = build_field(2)
    return generate_example(GeneratorConfig(f2, (2, 1), ((((1, 0),),), ())))


def fixture_gen3() -> GeneratedAlgebra:
    """GF(3) variant of the one-class construction; 6 elements."""
    f3 = build_field(3)
    return generate_example(GeneratorConfig(f3, (1,), ((((1,),),),)))


# ---------------------------------------------------------------------------
# Claim verification.
# ---------------------------------------------------------------------------


def verify_claims(gen: GeneratedAlgebra) -> Report:
    """Check the advertised properties of a generated algebra: the glued
    ternary operation is a weak difference term; the sort partition is the
    monolith and the unique minimal reflexive subuniverse above the diagonal;
    its centralizer is the class partition; the diagonal congruence has the
    closed difference form; the difference algebra is carried by the
    distinguished spaces with ranges the chosen subspaces; and the division
    ring is the configured field."""
    a = gen.algebra
    n = a.size
    field = gen.config.field
    items = []

    cert = certificate_from_operation(a, "d")
    items.append(
        CheckItem(
            id="glued-term-is-wdt",
            anchor="generator/wdt",
            statement="the glued ternary operation is a weak difference term for the algebra",
            passed=cert.verdict,
            witness=cert.failure,
        )
    )

    rep = structure_report(congruence_lattice(a))
    si_ok = rep.is_si and rep.monolith == gen.mu
    unique_min = _unique_minimal_reflexive(a, gen.mu)
    items.append(
        CheckItem(
            id="monolith-unique-minimal",
            anchor="generator/monolith",
            statement="the algebra is subdirectly irreducible with the sort partition as "
            "monolith, the unique minimal reflexive subuniverse above the diagonal",
            passed=bool(si_ok and unique_min),
            witness=None if si_ok and unique_min else (rep.monolith, unique_min),
        )
    )

    cent = centralizer(a, Partition.zero(n), gen.mu)
    items.append(
        CheckItem(
            id="monolith-centralizer",
            anchor="generator/centralizer",
            statement="the centralizer of the monolith is the class partition",
            passed=cent == gen.alpha,
            witness=None if cent == gen.alpha else cent,
        )
    )

    da = difference_algebra(a, gen.mu, cert)
    witness = None
    for (p, q) in itertools.combinations(range(len(da.pair.pairs)), 2):
        (x, y), (u, v) = da.pair.pairs[p], da.pair.pairs[q]
        same_class = gen.sort_of[x] == gen.sort_of[y] and gen.sort_of[u] == gen.sort_of[v]
        same_alpha = gen.alpha.related(x, u)
        closed_form = (
            same_class
            and same_alpha
            and vec_sub(field, gen.vectors_of[gen.sigma[x]], gen.vectors_of[gen.sigma[y]])
            == vec_sub(field, gen.vectors_of[gen.sigma[u]], gen.vectors_of[gen.sigma[v]])
        )
        if closed_form != da.delta.partition.related(p, q):
            witness = ((x, y), (u, v))
            break
    items.append(
        CheckItem(
            id="delta-closed-form",
            anchor="generator/delta-form",
            statement="pairs are delta-related exactly when their projected differences agree "
            "within one class",
            passed=witness is None,
            witness=witness,
        )
    )

    # transfer to the distinguished spaces: unique representatives (w, 0)
    witness = None
    h_map: dict[int, int] = {}
    for l in range(len(gen.config.dims)):
        s0 = gen.sorts.index((l, 0))
        z = gen.zero_of_sort[(l, 0)]
        for w in gen.sort_elements[s0]:
            qd = da.project(w, z)
            if qd in h_map:
                witness = ("representative collision", w)
                break
            h_map[qd] = w
        if witness:
            break
    bij = witness is None and len(h_map) == da.algebra.size
    phi_ok = True
    if bij:
        for blk in da.phi.blocks:
            image = {h_map[x] for x in blk}
            ls = {gen.sorts[gen.sort_of[w]][0] for w in image}
            if len(ls) != 1:
                phi_ok = False
                break
            l = ls.pop()
            if image != set(gen.sort_elements[gen.sorts.index((l, 0))]):
                phi_ok = False
                break
    ranges_ok = True
    if bij:
        for sidx, (l, i) in enumerate(gen.sorts):
            rng = range_of_class(da, gen.sort_elements[sidx])
            image = {h_map[x] for x in rng.elements}
            if image != set(gen.subspace_elements[sidx]):
                ranges_ok = False
                witness = ("range mismatch", (l, i))
                break
    items.append(
        CheckItem(
            id="transfer-to-distinguished-spaces",
            anchor="generator/transfer",
            statement="the difference algebra is carried bijectively by the distinguished "
            "spaces, classes to spaces and ranges to the configured subspaces",
            passed=bool(bij and phi_ok and ranges_ok),
            witness=witness if not (bij and phi_ok and ranges_ok) else None,
        )
    )

    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    iso_found = _ring_isomorphic_to_field(ring, field)
    items.append(
        CheckItem(
            id="division-ring-is-config-field",
            anchor="generator/field",
            statement="the division ring of the monolith is the configured field",
            passed=iso_found,
            witness=None if iso_found else (len(ring), field.q),
        )
    )
    return Report("generated algebra claims", tuple(items))


def _principal_reflexives(algebra: FiniteAlgebra) -> dict[tuple[int, int], np.ndarray]:
    """rho(x, y), the reflexive subuniverse of A^2 generated by (x, y), for
    every x < y, as boolean matrices: one closure per pair-graph component,
    whose pairs have equal rho up to converse (`diffterm._reflexive_witness`),
    read as rho(x, y) when it holds (x, y) and as its converse otherwise."""
    n = algebra.size
    component = _principal_congruences(algebra)[2]
    closures: dict[int, np.ndarray] = {}
    out = {}
    for x, y in itertools.combinations(range(n), 2):
        c = int(component[x * n + y])
        if c not in closures:
            closures[c] = _reflexive_closure(algebra, x, y)
        out[x, y] = closures[c] if closures[c][x, y] else closures[c].T
    return out


def _unique_minimal_reflexive(algebra: FiniteAlgebra, mu: Partition) -> bool:
    """Whether mu is the unique minimal reflexive subuniverse of A^2 above
    the diagonal; every minimal one is some rho(x, y)."""
    principals = {r.tobytes(): r for r in _principal_reflexives(algebra).values()}.values()
    minimal = [r for r in principals if not any(s is not r and not (s & ~r).any() for s in principals)]
    label = np.array(mu.index)
    return len(minimal) == 1 and bool((minimal[0] == (label[:, None] == label)).all())


def _ring_isomorphic_to_field(ring, field: FiniteField) -> bool:
    """Whether a bijection preserves + and * (and so fixes 0 and 1)."""
    def algebra(r):
        return FiniteAlgebra(len(r.add_table), [("+", 2, np.ravel(r.add_table)), ("*", 2, np.ravel(r.mul_table))])

    return len(ring) == field.q and find_isomorphism(algebra(ring), algebra(field)) is not None


# -- config (de)serialization -------------------------------------------------


def config_to_dict(config: GeneratorConfig) -> dict:
    return {
        "field": {"p": config.field.p, "k": config.field.k, "modulus": list(config.field.modulus)},
        "dims": list(config.dims),
        "subspaces": [
            [[list(row) for row in basis] for basis in per_class]
            for per_class in config.subspaces
        ],
        "g_maps": None if config.g_maps is None else [
            None if g is None else [list(r) for r in g] for g in config.g_maps
        ],
        "h_maps": None if config.h_maps is None else [
            None if h is None else [list(r) for r in h] for h in config.h_maps
        ],
        "one": None if config.one is None else list(config.one),
        "operation_cap": config.operation_cap,
    }


def config_from_dict(data: dict) -> GeneratorConfig:
    fdata = data["field"]
    field = build_field(fdata["p"], fdata.get("k", 1), fdata.get("modulus"))
    subspaces = tuple(
        tuple(tuple(tuple(int(c) for c in row) for row in basis) for basis in per_class)
        for per_class in data["subspaces"]
    )
    g_maps = data.get("g_maps")
    if g_maps is not None:
        g_maps = tuple(
            None if g is None else tuple(tuple(int(c) for c in r) for r in g) for g in g_maps
        )
    h_maps = data.get("h_maps")
    if h_maps is not None:
        h_maps = tuple(
            None if h is None else tuple(tuple(int(c) for c in r) for r in h) for h in h_maps
        )
    one = data.get("one")
    return GeneratorConfig(
        field=field,
        dims=tuple(int(d) for d in data["dims"]),
        subspaces=subspaces,
        g_maps=g_maps,
        h_maps=h_maps,
        one=None if one is None else tuple(int(c) for c in one),
        operation_cap=int(data.get("operation_cap", DEFAULT_OPERATION_CAP)),
    )
