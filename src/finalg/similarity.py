"""Division rings of abelian minimal congruences, canonical vector-space
actions, similarity of subdirectly irreducible algebras, and similarity
bridges.

The division ring of an algebra D with abelian minimal congruence phi and
subuniverse transversal T is the set of endomorphisms of D fixing T
pointwise and preserving phi, under pointwise class-group addition and
composition.  Applied to the difference algebra of an abelian minimal
congruence theta (with its derived congruence and canonical transversal)
this yields the division ring of theta, which acts on every theta-class.
Two subdirectly irreducible algebras are similar when their difference
algebras (or the algebras themselves, in the nonabelian-monolith case) are
isomorphic; similarity is equivalently witnessed by a four-ary compatible
relation linking the monoliths (a similarity bridge).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ElementMap,
    FiniteAlgebra,
    _homomorphisms,
    _materialize,
    _restricted_results,
    closure_in_power,
    find_isomorphism,
    is_homomorphism,
    is_subuniverse,
    quotient,
)
from .congruences import (
    Partition,
    _base_translations,
    congruence_lattice,
    is_congruence,
    push_partition,
    structure_report,
)
from .centrality import InconsistencyError, centralizer, is_abelian
from .diffterm import (
    WdtCertificate,
    _is_minimal_congruence,
    class_group,
    transversal_automorphism,
    verify_wdt,
)
from .diffalg import DifferenceAlgebra, difference_algebra, lambda_embed, range_of_class
from .report import CheckItem, Report


# ---------------------------------------------------------------------------
# Endomorphism rings.
# ---------------------------------------------------------------------------


def _kept_in_blocks(partition: Partition, fixed) -> np.ndarray:
    """The allowed images of a map that sends each element into its block
    and fixes `fixed` pointwise, as a boolean matrix for `_homomorphisms`."""
    fixed = sorted(fixed)
    allowed = np.equal.outer(partition.index, partition.index)
    allowed[fixed] = np.eye(partition.size, dtype=bool)[fixed]
    return allowed


@dataclass(eq=False, slots=True)
class EndomorphismRing:
    """The division ring of endomorphisms fixing a subuniverse transversal of
    an abelian minimal congruence.  Addition is pointwise class-group
    addition; multiplication is composition."""

    algebra: FiniteAlgebra
    phi: Partition
    transversal: tuple[int, ...]
    carrier: tuple[ElementMap, ...]
    zero_index: int
    one_index: int
    add_table: tuple
    neg_table: tuple
    mul_table: tuple
    _pos: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._pos = {em: i for i, em in enumerate(self.carrier)}

    def __len__(self):
        return len(self.carrier)

    def index(self, em: ElementMap) -> int:
        return self._pos[em]

    def add(self, i: int, j: int) -> int:
        return self.add_table[i][j]

    def neg(self, i: int) -> int:
        return self.neg_table[i]

    def mul(self, i: int, j: int) -> int:
        return self.mul_table[i][j]


def division_ring(
    algebra: FiniteAlgebra,
    phi: Partition,
    transversal,
    certificate: WdtCertificate,
) -> EndomorphismRing:
    """Build and fully verify the division ring for (algebra, phi, T).

    The carrier is every endomorphism that fixes T pointwise and keeps each
    element in its phi-class, found by the homomorphism search of `core`
    (which branches only on the images of a greedy generating set over T),
    in lexicographic order of the images.

    Preconditions checked: phi is a minimal abelian congruence and T is a
    subuniverse transversal for phi.  Verified afterwards: closure of the
    carrier under +, -, composition; unital ring axioms; invertibility of
    every nonzero element; and commutativity of multiplication (the carrier
    is finite, so the division ring must be a field).
    """
    if not certificate.verdict or certificate.algebra != algebra:
        raise ValueError("need a valid certificate for this algebra")
    tset = frozenset(int(x) for x in transversal)
    if not _is_minimal_congruence(algebra, phi):
        raise ValueError("phi is not a minimal congruence")
    if not is_abelian(algebra, phi):
        raise ValueError("phi is not abelian")
    for blk in phi.blocks:
        if len(tset.intersection(blk)) != 1:
            raise ValueError("T is not a transversal for phi")
    if not is_subuniverse(algebra, tset):
        raise ValueError("T is not a subuniverse")

    n = algebra.size
    maps = _homomorphisms(algebra, algebra, _kept_in_blocks(phi, tset))
    carrier = tuple(ElementMap(n, n, h) for h in maps)
    pos = {em: i for i, em in enumerate(carrier)}
    rep = {}
    for blk in phi.blocks:
        e = next(iter(tset.intersection(blk)))
        for x in blk:
            rep[x] = e
    zero = ElementMap(n, n, [rep[x] for x in range(n)])
    one = ElementMap.identity(n)
    if zero not in pos or one not in pos:
        raise InconsistencyError("zero or identity endomorphism missing from the carrier")

    def add_maps(lam: ElementMap, mu: ElementMap) -> ElementMap:
        return ElementMap(
            n, n, [certificate.apply(lam(x), rep[x], mu(x)) for x in range(n)]
        )

    def neg_map(lam: ElementMap) -> ElementMap:
        return ElementMap(n, n, [certificate.apply(rep[x], lam(x), rep[x]) for x in range(n)])

    m = len(carrier)
    add_table = []
    for lam in carrier:
        row = []
        for mu in carrier:
            s = add_maps(lam, mu)
            if s not in pos:
                raise InconsistencyError("carrier not closed under addition")
            row.append(pos[s])
        add_table.append(tuple(row))
    neg_table = []
    for lam in carrier:
        v = neg_map(lam)
        if v not in pos:
            raise InconsistencyError("carrier not closed under negation")
        neg_table.append(pos[v])
    mul_table = []
    for lam in carrier:
        row = []
        for mu in carrier:
            c = lam.compose(mu)
            if c not in pos:
                raise InconsistencyError("carrier not closed under composition")
            row.append(pos[c])
        mul_table.append(tuple(row))

    ring = EndomorphismRing(
        algebra, phi, tuple(sorted(tset)), carrier, pos[zero], pos[one],
        tuple(add_table), tuple(neg_table), tuple(mul_table),
    )
    _assert_division_ring(ring)
    return ring


def _assert_division_ring(ring: EndomorphismRing):
    m = len(ring.carrier)
    z, o = ring.zero_index, ring.one_index
    for i in range(m):
        if ring.add(i, z) != i or ring.add(z, i) != i:
            raise InconsistencyError("additive zero fails")
        if ring.add(i, ring.neg(i)) != z:
            raise InconsistencyError("additive inverse fails")
        if ring.mul(i, o) != i or ring.mul(o, i) != i:
            raise InconsistencyError("multiplicative identity fails")
        for j in range(m):
            if ring.add(i, j) != ring.add(j, i):
                raise InconsistencyError("addition not commutative")
            if ring.mul(i, j) != ring.mul(j, i):
                raise InconsistencyError("multiplication not commutative (Wedderburn)")
            for k in range(m):
                if ring.add(ring.add(i, j), k) != ring.add(i, ring.add(j, k)):
                    raise InconsistencyError("addition not associative")
                if ring.mul(ring.mul(i, j), k) != ring.mul(i, ring.mul(j, k)):
                    raise InconsistencyError("multiplication not associative")
                if ring.mul(i, ring.add(j, k)) != ring.add(ring.mul(i, j), ring.mul(i, k)):
                    raise InconsistencyError("left distributivity fails")
                if ring.mul(ring.add(j, k), i) != ring.add(ring.mul(j, i), ring.mul(k, i)):
                    raise InconsistencyError("right distributivity fails")
    for i in range(m):
        if i == z:
            continue
        if not any(
            ring.mul(i, j) == o and ring.mul(j, i) == o for j in range(m)
        ):
            raise InconsistencyError("a nonzero element has no inverse")


# ---------------------------------------------------------------------------
# Canonical vector-space action on theta-classes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorAction:
    """The induced action of the division ring on one theta-class: pull a
    class element through lambda_e, act in the difference algebra, pull back."""

    ring: EndomorphismRing
    e: int
    theta_class: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]  # [ring index][class position] -> element
    dimension: int

    def act(self, ring_index: int, a: int) -> int:
        return self.table[ring_index][self.theta_class.index(a)]


def canonical_action(
    da: DifferenceAlgebra, ring: EndomorphismRing, e: int
) -> VectorAction:
    """The left vector-space action of the division ring of theta on the
    class group at e, with the space axioms and the size law |C| = |F|^dim
    asserted."""
    if not da.theta_minimal:
        raise ValueError("theta must be minimal")
    if ring.algebra != da.algebra or ring.phi != da.phi or set(ring.transversal) != set(
        da.transversal
    ):
        raise ValueError("ring does not belong to this difference algebra")

    # every range is closed under every ring element
    for blk in da.theta.blocks:
        rng = range_of_class(da, blk)
        members = set(rng.elements)
        for lam in ring.carrier:
            if not {lam(q) for q in members} <= members:
                raise InconsistencyError("a range is not closed under the ring action")

    emb = lambda_embed(da, e)
    cls = emb.theta_class
    grp = class_group(da.base, da.certificate, da.theta, e)
    table = []
    for lam in ring.carrier:
        row = tuple(emb.preimage(lam(emb(a))) for a in cls)
        table.append(row)
    action = VectorAction(ring, e, cls, tuple(table), _integer_log(len(cls), len(ring.carrier)))

    z, o = ring.zero_index, ring.one_index
    for a in cls:
        if action.act(o, a) != a:
            raise InconsistencyError("identity scalar fails")
        if action.act(z, a) != e:
            raise InconsistencyError("zero scalar fails")
    m = len(ring.carrier)
    for i in range(m):
        for j in range(m):
            for a in cls:
                if action.act(ring.add(i, j), a) != grp.add(action.act(i, a), action.act(j, a)):
                    raise InconsistencyError("scalar addition law fails")
                if action.act(ring.mul(i, j), a) != action.act(i, action.act(j, a)):
                    raise InconsistencyError("scalar multiplication law fails")
        for a in cls:
            for b in cls:
                if action.act(i, grp.add(a, b)) != grp.add(action.act(i, a), action.act(i, b)):
                    raise InconsistencyError("scalar distributivity over vectors fails")
    return action


def _integer_log(size: int, base: int) -> int:
    if size == 1:
        return 0
    dim = 0
    cur = 1
    while cur < size:
        cur *= base
        dim += 1
    if cur != size:
        raise InconsistencyError(f"class size {size} is not a power of the ring size {base}")
    return dim


# ---------------------------------------------------------------------------
# The hom-set ring over a transversal (cross-check construction).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeseRing:
    """The ring of compatible endomorphism tuples over a transversal of an
    abelian minimal congruence: one class-group endomorphism per class,
    commuting with every restriction r: C_j -> C_i of a unary polynomial with
    r(e_j) = e_i (`restrictions[(i, j)]`, sorted image tuples over C_j).
    Each r is affine for the class groups, so it is built by composition and
    pointwise d from the constants e_i and the normalized basic translations,
    and a tuple is compatible iff it commutes with these (see `freese_ring`).
    Isomorphic to the division ring of theta via the per-class action of the
    latter."""

    theta: Partition
    transversal: tuple[int, ...]
    base_points: tuple[int, ...]
    restrictions: dict
    carrier: tuple
    add_table: tuple
    mul_table: tuple
    zero_index: int
    one_index: int
    division_ring_size: int
    iso_to_division_ring: tuple[int, ...]


def freese_ring(
    algebra: FiniteAlgebra,
    theta: Partition,
    transversal,
    certificate: WdtCertificate,
) -> FreeseRing:
    """Build the compatible-tuple ring over a transversal and verify it is
    isomorphic to the division ring of theta via the canonical per-class map.

    As theta is abelian and d a weak difference term, every unary polynomial
    is affine on a theta-class: r(x) = d(f(..x..), f(e), e), the fact that
    `diffterm.affine_decompose` checks.  So the restrictions C_j -> C_i with
    e_j -> e_i are generated, under composition and pointwise d, by the
    constants e_i and the normalized basic translations
    x -> d(t(x), t(e_j), e_i), e_i the base point of the class of t(e_j).
    One auxiliary algebra on A has these as unary operations (the identity
    off C_j) and m: d within a class, the first projection across classes.
    Its closure in the |C_j|-th power from the identity of C_j and the
    constants e_i holds the restrictions out of C_j.  Its endomorphisms that
    fix each e_i and keep every class are the carrier: m makes them
    class-group endomorphisms, and commuting with the generators they commute
    with every composite and pointwise d of them, so with every restriction."""
    if not _is_minimal_congruence(algebra, theta):
        raise ValueError("theta is not a minimal congruence")
    if not is_abelian(algebra, theta):
        raise ValueError("theta is not abelian")
    n = algebra.size
    tlist = sorted(int(x) for x in transversal)
    if any(not 0 <= x < n for x in tlist):
        raise ValueError(f"transversal element out of range 0..{n - 1}")
    classes = list(theta.blocks)
    hits = [[x for x in tlist if x in blk] for blk in classes]
    if any(len(h) != 1 for h in hits):
        raise ValueError("transversal must meet every class exactly once")
    base_points = [h[0] for h in hits]

    labels = np.asarray(theta.index)
    base = np.asarray(base_points)
    d = certificate.operation.array().reshape(n, n, n)
    # image[t, x]: t normalized on the class of x; C_j's generators use it on C_j
    translations, _ = _base_translations(algebra)
    te = translations[:, base[labels]]
    image = d[translations, te, base[labels[te]]]
    own = labels == np.arange(len(classes))[:, None]
    rows = np.where(own[:, None, :], image, np.arange(n)).reshape(-1, n)
    keys = rows.view(np.dtype((np.void, rows.itemsize * n))).ravel()
    _, first = np.unique(keys, return_index=True)
    xs, ys, zs = np.indices((n, n, n))
    within = (labels[xs] == labels[ys]) & (labels[ys] == labels[zs])
    ops = [("m", 3, np.where(within, d, xs).ravel())]
    ops += [(f"r{k}", 1, row) for k, row in enumerate(rows[first])]
    aux = FiniteAlgebra(n, ops)

    # hom-sets: restrictions of unary polynomials sending e_j to e_i
    restrictions: dict[tuple[int, int], tuple] = {}
    for j, cj in enumerate(classes):
        seeds = [cj] + [(e,) * len(cj) for e in base_points]
        members, _ = closure_in_power(aux, len(cj), seeds, cap_name="pol1 restriction")
        at_ej = cj.index(base_points[j])
        by_image: dict[int, list] = {}
        for g in members:
            by_image.setdefault(g[at_ej], []).append(g)
        for i, ci in enumerate(classes):
            rs = tuple(by_image.get(base_points[i], ()))
            if not set().union(*rs) <= set(ci):
                raise InconsistencyError("a polynomial restriction leaves the target class")
            restrictions[(i, j)] = rs

    groups = [class_group(algebra, certificate, theta, e) for e in base_points]
    carrier = tuple(sorted(
        tuple(tuple(h[x] for x in blk) for blk in classes)
        for h in _homomorphisms(aux, aux, _kept_in_blocks(theta, base_points))
    ))
    pos = {t: i for i, t in enumerate(carrier)}

    def add_tuples(s, t):
        return tuple(
            tuple(grp.add(sx, tx) for sx, tx in zip(srow, trow))
            for grp, srow, trow in zip(groups, s, t)
        )

    def mul_tuples(s, t):
        out = []
        for grp, blk, srow, trow in zip(groups, classes, s, t):
            out.append(tuple(srow[blk.index(tx)] for tx in trow))
        return tuple(out)

    zero_t = tuple(tuple(grp.zero for _ in blk) for grp, blk in zip(groups, classes))
    one_t = tuple(tuple(blk) for blk in classes)
    if zero_t not in pos or one_t not in pos:
        raise InconsistencyError("hom-set ring misses zero or one")
    add_table = tuple(tuple(pos.get(add_tuples(s, t), -1) for t in carrier) for s in carrier)
    mul_table = tuple(tuple(pos.get(mul_tuples(s, t), -1) for t in carrier) for s in carrier)
    if any(-1 in row for row in add_table + mul_table):
        raise InconsistencyError("hom-set ring not closed")

    # the canonical isomorphism with the division ring of theta
    da = difference_algebra(algebra, theta, certificate)
    ring = division_ring(da.algebra, da.phi, da.transversal, da.certificate_d)
    if len(ring) != len(carrier):
        raise InconsistencyError(
            f"hom-set ring size {len(carrier)} != division ring size {len(ring)}"
        )
    embeddings = [lambda_embed(da, e) for e in base_points]
    iso = []
    for lam in ring.carrier:
        tup = []
        for emb, blk in zip(embeddings, classes):
            tup.append(tuple(emb.preimage(lam(emb(x))) for x in blk))
        tup = tuple(tup)
        if tup not in pos:
            raise InconsistencyError("division ring element does not map into the hom-set ring")
        iso.append(pos[tup])
    if len(set(iso)) != len(iso):
        raise InconsistencyError("canonical map is not injective")
    for i in range(len(ring)):
        for j in range(len(ring)):
            if iso[ring.add(i, j)] != add_table[iso[i]][iso[j]]:
                raise InconsistencyError("canonical map does not preserve addition")
            if iso[ring.mul(i, j)] != mul_table[iso[i]][iso[j]]:
                raise InconsistencyError("canonical map does not preserve multiplication")
    if iso[ring.zero_index] != pos[zero_t] or iso[ring.one_index] != pos[one_t]:
        raise InconsistencyError("canonical map does not preserve constants")

    return FreeseRing(
        theta=theta,
        transversal=tuple(tlist),
        base_points=tuple(base_points),
        restrictions=restrictions,
        carrier=carrier,
        add_table=add_table,
        mul_table=mul_table,
        zero_index=pos[zero_t],
        one_index=pos[one_t],
        division_ring_size=len(ring),
        iso_to_division_ring=tuple(iso),
    )


# ---------------------------------------------------------------------------
# The D operator and similarity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffOf:
    """D(A): the algebra itself for a nonabelian monolith, otherwise the
    difference algebra of the monolith."""

    source: FiniteAlgebra
    monolith: Partition
    monolith_abelian: bool
    algebra: FiniteAlgebra
    construction: DifferenceAlgebra | None


def _monolith_of(algebra: FiniteAlgebra) -> Partition:
    rep = structure_report(congruence_lattice(algebra))
    if not rep.is_si:
        raise ValueError("algebra is not subdirectly irreducible")
    return rep.monolith


def diff_of(algebra: FiniteAlgebra, certificate: WdtCertificate) -> DiffOf:
    mu = _monolith_of(algebra)
    if is_abelian(algebra, mu):
        da = difference_algebra(algebra, mu, certificate)
        return DiffOf(algebra, mu, True, da.algebra, da)
    return DiffOf(algebra, mu, False, algebra, None)


@dataclass(frozen=True)
class SimilarityVerdict:
    similar: bool
    isomorphism: ElementMap | None
    left: DiffOf
    right: DiffOf

    def __bool__(self):
        return self.similar


def is_similar(
    a: FiniteAlgebra,
    b: FiniteAlgebra,
    cert_a: WdtCertificate,
    cert_b: WdtCertificate,
) -> SimilarityVerdict:
    """a ~ b iff D(a) and D(b) are isomorphic."""
    da = diff_of(a, cert_a)
    db = diff_of(b, cert_b)
    if da.monolith_abelian != db.monolith_abelian:
        return SimilarityVerdict(False, None, da, db)
    h = find_isomorphism(da.algebra, db.algebra)
    return SimilarityVerdict(h is not None, h, da, db)


# ---------------------------------------------------------------------------
# Similarity bridges.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bridge:
    left: FiniteAlgebra
    right: FiniteAlgebra
    tuples: frozenset
    trace: tuple
    report: Report


def bridge_verify(a: FiniteAlgebra, b: FiniteAlgebra, tuples) -> Report:
    """Check the bridge axioms for a four-ary relation between two
    subdirectly irreducible algebras, plus the derived facts: the kernel is a
    congruence of the trace (symmetry and transitivity of the bridge), the
    kernel transposes down from both projection-kernel covers, and with a
    nonabelian monolith the trace is forced to be an isomorphism graph."""
    if not a.same_signature(b):
        raise ValueError("bridge endpoints must share a signature")
    T = {tuple(int(x) for x in t) for t in tuples}
    for t in T:
        if len(t) != 4:
            raise ValueError("bridge members must be 4-tuples")
    mu_a = _monolith_of(a)
    mu_b = _monolith_of(b)
    items = []

    # only the verdict is needed: stream the results instead of building
    # the |T|^k tables of an algebra on T
    results = _restricted_results([a, a, b, b], sorted(T))
    witness = next((w for _, _, w in results if w is not None), None)
    items.append(
        CheckItem(
            id="compatible-relation",
            anchor="bridge/compatible",
            statement="the relation is closed under all operations acting coordinatewise",
            passed=witness is None,
            witness=witness,
        )
    )

    pr12 = {(t[0], t[1]) for t in T}
    pr34 = {(t[2], t[3]) for t in T}
    ok = pr12 == set(mu_a.pairs()) and pr34 == set(mu_b.pairs())
    items.append(
        CheckItem(
            id="projects-onto-monoliths",
            anchor="bridge/projections",
            statement="the left pairs are exactly the left monolith, likewise on the right",
            passed=ok,
            witness=None if ok else (sorted(pr12 ^ set(mu_a.pairs())), sorted(pr34 ^ set(mu_b.pairs()))),
        )
    )

    witness = next((t for t in sorted(T) if (t[0] == t[1]) != (t[2] == t[3])), None)
    items.append(
        CheckItem(
            id="diagonal-synchronized",
            anchor="bridge/diagonal",
            statement="left entries collide exactly when right entries do",
            passed=witness is None,
            witness=witness,
        )
    )

    witness = None
    for t in sorted(T):
        if (t[0], t[0], t[2], t[2]) not in T or (t[1], t[1], t[3], t[3]) not in T:
            witness = t
            break
    items.append(
        CheckItem(
            id="reflexive-closure",
            anchor="bridge/reflexive",
            statement="both diagonal projections of every member are members",
            passed=witness is None,
            witness=witness,
        )
    )

    trace = sorted({(t[0], t[2]) for t in T} | {(t[1], t[3]) for t in T})
    trace_alg, _ = _materialize([a, b], trace)
    if trace_alg is None:
        items.append(
            CheckItem(
                id="kernel-congruence",
                anchor="bridge/kernel",
                statement="the kernel is a congruence of the trace algebra",
                passed=False,
                witness="trace is not closed under the operations",
            )
        )
        return Report("similarity bridge", tuple(items))

    pos = {p: i for i, p in enumerate(trace)}
    kernel_pairs = {
        (pos[(t[0], t[2])], pos[(t[1], t[3])]) for t in T
    }
    sym = all((j, i) in kernel_pairs for i, j in kernel_pairs)
    trans = all(
        (i, l) in kernel_pairs
        for i, j in kernel_pairs
        for j2, l in kernel_pairs
        if j2 == j
    )
    refl = all((i, i) in kernel_pairs for i in range(len(trace)))
    tau = Partition.from_pairs(len(trace), kernel_pairs) if sym and trans and refl else None
    compatible = (
        tau is not None
        and set(tau.pairs()) == kernel_pairs
        and is_congruence(trace_alg, tau)
    )
    items.append(
        CheckItem(
            id="kernel-congruence",
            anchor="bridge/kernel",
            statement="the kernel is symmetric, transitive, and a congruence of the trace",
            passed=bool(sym and trans and refl and compatible),
            witness=None if sym and trans and refl and compatible else (sym, trans, refl),
        )
    )

    if tau is not None:
        lat = congruence_lattice(trace_alg)
        d1 = Partition.from_labels(len(trace), [p[0] for p in trace])
        d2 = Partition.from_labels(len(trace), [p[1] for p in trace])
        ok = True
        wit = None
        for dlt in (d1, d2):
            ups = lat.upper_covers(dlt)
            if len(ups) != 1:
                ok, wit = False, f"projection kernel lacks a unique upper cover"
                break
            up = ups[0]
            if tau.meet(dlt) != Partition.zero(len(trace)) or tau.join(dlt) != up:
                ok, wit = False, (dlt, up)
                break
        items.append(
            CheckItem(
                id="kernel-perspectivities",
                anchor="bridge/perspectivities",
                statement="the kernel transposes up to both projection-kernel covers",
                passed=ok,
                witness=wit,
            )
        )
    else:
        items.append(
            CheckItem(
                id="kernel-perspectivities",
                anchor="bridge/perspectivities",
                statement="the kernel transposes up to both projection-kernel covers",
                passed=None,
                note="skipped: kernel is not an equivalence relation",
            )
        )

    if not is_abelian(a, mu_a) or not is_abelian(b, mu_b):
        h_map = dict(trace)
        functional = len(h_map) == len(trace) and len({v for v in h_map.values()}) == len(h_map)
        good = functional and len(h_map) == a.size
        if good:
            h = ElementMap(a.size, b.size, [h_map[x] for x in range(a.size)])
            good = h.is_bijective() and is_homomorphism(a, b, h)
            forced = T == {(x, y, h(x), h(y)) for x, y in mu_a.pairs()}
        else:
            forced = False
        items.append(
            CheckItem(
                id="nonabelian-forced-form",
                anchor="bridge/nonabelian",
                statement="with a nonabelian monolith the trace is an isomorphism graph "
                "and the bridge has the forced form",
                passed=bool(good and forced),
                witness=None if good and forced else sorted(trace)[:4],
            )
        )
    else:
        items.append(
            CheckItem(
                id="nonabelian-forced-form",
                anchor="bridge/nonabelian",
                statement="nonabelian forced form",
                passed=None,
                note="skipped: both monoliths abelian",
            )
        )
    return Report("similarity bridge", tuple(items))


def bridge_construct(
    a: FiniteAlgebra,
    b: FiniteAlgebra,
    mode: str,
    *,
    cert_a: WdtCertificate | None = None,
    cert_b: WdtCertificate | None = None,
    iso: ElementMap | None = None,
) -> Bridge:
    """Construct a similarity bridge.

    mode "canonical-to-d": b must be the difference algebra of a's monolith;
    the bridge pairs (x, y) with their images (x, e)/delta, (y, e)/delta.

    mode "from-iso": from an isomorphism D(a) = D(b) (found if not given).
    With abelian monoliths the isomorphism is normalized to carry canonical
    transversal to canonical transversal before the bridge is read off; with
    nonabelian monoliths the bridge is the graph of the isomorphism paired
    along the monolith.
    """

    def verified(T: set, failure: str) -> Bridge:
        report = bridge_verify(a, b, T)
        if not report.passed:
            raise InconsistencyError(f"{failure}: {report.failures}")
        trace = tuple(sorted({(t[0], t[2]) for t in T}))
        return Bridge(a, b, frozenset(T), trace, report)

    if mode == "canonical-to-d":
        if cert_a is None:
            raise ValueError("canonical-to-d needs the left certificate")
        mu = _monolith_of(a)
        if not is_abelian(a, mu):
            raise ValueError("canonical-to-d needs an abelian monolith")
        da = difference_algebra(a, mu, cert_a)
        if b != da.algebra:
            raise ValueError("right algebra is not the difference algebra of the left monolith")
        T = set()
        for blk in mu.blocks:
            for x, y, e in itertools.product(blk, repeat=3):
                T.add((x, y, da.project(x, e), da.project(y, e)))
        return verified(T, "canonical bridge failed verification")

    if mode == "from-iso":
        if cert_a is None or cert_b is None:
            raise ValueError("from-iso needs both certificates")
        mu_a = _monolith_of(a)
        mu_b = _monolith_of(b)
        ab_a = is_abelian(a, mu_a)
        ab_b = is_abelian(b, mu_b)
        if ab_a != ab_b:
            raise ValueError("not similar: one monolith abelian, the other not")
        if not ab_a:
            h = iso if iso is not None else find_isomorphism(a, b)
            if h is None:
                raise ValueError("not similar: no isomorphism exists")
            T = {(x, y, h(x), h(y)) for x, y in mu_a.pairs()}
            return verified(T, "bridge failed verification")
        da = difference_algebra(a, mu_a, cert_a)
        db = difference_algebra(b, mu_b, cert_b)
        lam0 = iso if iso is not None else find_isomorphism(da.algebra, db.algebra)
        if lam0 is None:
            raise ValueError("not similar: difference algebras are not isomorphic")
        moved = frozenset(lam0(x) for x in da.transversal)
        sigma = transversal_automorphism(
            db.algebra, db.certificate_d, db.phi, moved, frozenset(db.transversal)
        )
        lam = sigma.compose(lam0)
        if push_partition(da.phi, lambda x: lam(x), db.algebra.size) != db.phi:
            raise InconsistencyError("normalized isomorphism does not carry the monolith over")
        T = set()
        for x, y in mu_a.pairs():
            target = lam(da.project(x, y))
            for u, v in mu_b.pairs():
                if db.project(u, v) == target:
                    T.add((x, y, u, v))
        return verified(T, "bridge failed verification")

    raise ValueError(f"unknown bridge mode '{mode}'")


# ---------------------------------------------------------------------------
# Perspectivity transfer between difference algebras.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerspectivityTransfer:
    lower: tuple[Partition, Partition]
    upper: tuple[Partition, Partition]
    left: DifferenceAlgebra
    right: DifferenceAlgebra
    isomorphism: ElementMap
    left_ring: EndomorphismRing
    right_ring: EndomorphismRing
    ring_map: tuple[int, ...]


def _quotient_certificate(
    algebra: FiniteAlgebra, gamma: Partition, certificate: WdtCertificate
):
    """Push the weak difference term through a quotient and re-verify it."""
    q = quotient(algebra, gamma, check=False)
    try:
        d = quotient(FiniteAlgebra(algebra.size, [certificate.operation]), gamma)
    except ValueError:
        raise InconsistencyError("weak difference term does not factor through the quotient") from None
    (d_op,) = d.algebra.operations
    cert = verify_wdt(q.algebra, d_op.array(), provenance="pushed through quotient")
    if not cert.verdict:
        raise InconsistencyError("pushed table fails verification on the quotient")
    return q, cert


def perspective_diff_iso(
    algebra: FiniteAlgebra,
    lower: tuple[Partition, Partition],
    upper: tuple[Partition, Partition],
    certificate: WdtCertificate,
) -> PerspectivityTransfer:
    """For perspective abelian cover pairs (gamma, theta) up to (delta, eps),
    the rule (a/gamma, b/gamma)/Delta -> (a/delta, b/delta)/Delta is a
    well-defined isomorphism of the two difference algebras, and conjugation
    along it (after normalizing transversals) is an isomorphism of their
    division rings.  Both claims are verified exhaustively."""
    gamma, theta = lower
    delta, eps = upper
    lat = congruence_lattice(algebra)
    for lo, hi in (lower, upper):
        if (lat.position(lo), lat.position(hi)) not in lat.covers:
            raise ValueError("each pair must be a cover in the congruence lattice")
    if theta.meet(delta) != gamma or theta.join(delta) != eps:
        raise ValueError("the pairs are not perspective")

    q1, cert1 = _quotient_certificate(algebra, gamma, certificate)
    q2, cert2 = _quotient_certificate(algebra, delta, certificate)
    theta1 = push_partition(theta, q1.projection, q1.algebra.size)
    eps2 = push_partition(eps, q2.projection, q2.algebra.size)
    if not is_abelian(q1.algebra, theta1) or not is_abelian(q2.algebra, eps2):
        raise ValueError("both quotient congruences must be abelian")
    da1 = difference_algebra(q1.algebra, theta1, cert1)
    da2 = difference_algebra(q2.algebra, eps2, cert2)

    alpha = centralizer(algebra, gamma, theta)
    if da1.alpha != push_partition(alpha, q1.projection, q1.algebra.size):
        raise InconsistencyError("left centralizer does not descend as expected")
    if da2.alpha != push_partition(alpha, q2.projection, q2.algebra.size):
        raise InconsistencyError("right centralizer does not transfer across the perspectivity")

    mapping: dict[int, int] = {}
    for blk in theta.blocks:
        for x in blk:
            for y in blk:
                src = da1.project(q1.projection(x), q1.projection(y))
                dst = da2.project(q2.projection(x), q2.projection(y))
                if mapping.get(src, dst) != dst:
                    raise InconsistencyError(
                        f"transfer rule is not well defined at ({x}, {y})"
                    )
                mapping[src] = dst
    if len(mapping) != da1.algebra.size or len(set(mapping.values())) != da2.algebra.size:
        raise InconsistencyError("transfer rule is not a bijection")
    h = ElementMap(
        da1.algebra.size, da2.algebra.size, [mapping[i] for i in range(da1.algebra.size)]
    )
    if not is_homomorphism(da1.algebra, da2.algebra, h):
        raise InconsistencyError("transfer rule is not a homomorphism")

    ring1 = division_ring(da1.algebra, da1.phi, da1.transversal, da1.certificate_d)
    ring2 = division_ring(da2.algebra, da2.phi, da2.transversal, da2.certificate_d)
    moved = frozenset(h(x) for x in da1.transversal)
    sigma = transversal_automorphism(
        da2.algebra, da2.certificate_d, da2.phi, moved, frozenset(da2.transversal)
    )
    psi = sigma.compose(h)
    psi_inv = psi.inverse()
    ring_map = []
    for lam in ring1.carrier:
        conj = psi.compose(lam).compose(psi_inv)
        ring_map.append(ring2.index(conj))
    if len(set(ring_map)) != len(ring_map) or len(ring_map) != len(ring2):
        raise InconsistencyError("conjugation is not a bijection of the rings")
    for i in range(len(ring1)):
        for j in range(len(ring1)):
            if ring_map[ring1.add(i, j)] != ring2.add(ring_map[i], ring_map[j]):
                raise InconsistencyError("conjugation does not preserve addition")
            if ring_map[ring1.mul(i, j)] != ring2.mul(ring_map[i], ring_map[j]):
                raise InconsistencyError("conjugation does not preserve multiplication")
    if ring_map[ring1.zero_index] != ring2.zero_index or ring_map[ring1.one_index] != ring2.one_index:
        raise InconsistencyError("conjugation does not preserve the ring constants")

    return PerspectivityTransfer(
        lower=lower,
        upper=upper,
        left=da1,
        right=da2,
        isomorphism=h,
        left_ring=ring1,
        right_ring=ring2,
        ring_map=tuple(ring_map),
    )
