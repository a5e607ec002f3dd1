"""The pair algebra of a congruence, its diagonal-generated congruence, the
difference algebra of an abelian congruence, class embeddings, ranges, and
the positive-translation arrow graph.

For an abelian congruence theta with alpha = (0 : theta), the pair algebra
carries the congruence generated by the diagonal pairs of alpha; the
difference algebra is the quotient by it.  Every class of theta embeds into
a class group of the difference algebra's derived congruence, and the images
("ranges") of the classes inside one alpha-class form a directed family of
subgroups whose union is the whole class group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    ElementMap,
    FiniteAlgebra,
    _materialize,
    _memo,
    _row_quotient,
    is_homomorphism,
    is_subuniverse,
    quotient,
)
from .congruences import (
    Partition,
    _pair_translations,
    check_interval_modular_permuting,
    congruence_lattice,
    is_congruence,
    push_partition,
    structure_report,
)
from .centrality import (
    InconsistencyError,
    MatrixSet,
    centralizer,
    diagonal_pair_congruence,
    generate_matrices,
    is_abelian,
)
from .diffterm import WdtCertificate, _is_minimal_congruence, class_group, verify_wdt
from .report import CheckItem, Report


class PairAlgebra:
    """theta viewed as an algebra on its pair set (lexicographic order), read
    from `_pair_translations` (ValueError when theta is not a congruence);
    the tables, `.algebra`, are built on first access, memoized on the base."""

    __slots__ = ("base", "theta", "pairs", "pos", "pr1", "pr2", "eta1", "eta2")

    def __init__(self, base: FiniteAlgebra, theta: Partition):
        self.base = base
        self.theta = theta
        pairs, _, p0, p1, *_ = _pair_translations(base, theta)
        self.pairs = tuple(pairs)
        self.pos = {p: i for i, p in enumerate(self.pairs)}
        m, n = len(self.pairs), base.size
        self.pr1 = ElementMap(m, n, p0)
        self.pr2 = ElementMap(m, n, p1)
        self.eta1 = Partition.from_labels(m, self.pr1.images)
        self.eta2 = Partition.from_labels(m, self.pr2.images)

    @property
    def algebra(self) -> FiniteAlgebra:
        return _memo(self.base, (PairAlgebra, self.theta), lambda: _materialize([self.base] * 2, self.pairs)[0])

    def lift(self, alpha: Partition) -> Partition:
        """alpha-bar: pairs related iff their first coordinates are; for
        alpha >= theta this matches the second-coordinate version, which is
        asserted."""
        if not self.theta.leq(alpha):
            raise ValueError("lift expects a congruence above theta")
        by_first = Partition.from_labels(len(self.pairs), [alpha.index[a] for a, _ in self.pairs])
        by_second = Partition.from_labels(len(self.pairs), [alpha.index[b] for _, b in self.pairs])
        if by_first != by_second:
            raise InconsistencyError("first/second coordinate lifts disagree")
        return by_first

    def diagonal_index(self, a: int) -> int:
        return self.pos[(a, a)]


def pair_algebra(base: FiniteAlgebra, theta: Partition) -> PairAlgebra:
    """theta as a subalgebra of the square, with projections and kernels."""
    return PairAlgebra(base, theta)


@dataclass(frozen=True)
class DeltaCongruence:
    """Delta: the congruence of the pair algebra generated by the diagonal
    pairs of phi, which is the transitive closure of the matrix set
    M(theta, phi) read as a relation on theta-pairs."""

    pair: PairAlgebra
    phi: Partition
    partition: Partition

    def related(self, p: tuple[int, int], q: tuple[int, int]) -> bool:
        return self.partition.related(self.pair.pos[p], self.pair.pos[q])

    def class_of(self, p: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        blk = self.partition.block_of(self.pair.pos[p])
        return tuple(self.pair.pairs[i] for i in blk)

    def horizontal_matrices(self) -> MatrixSet:
        """All matrices (a, b, c, d) with (a, b) and (c, d) delta-related."""
        mats = []
        for blk in self.partition.blocks:
            for i in blk:
                a, b = self.pair.pairs[i]
                for j in blk:
                    c, d = self.pair.pairs[j]
                    mats.append((a, b, c, d))
        return MatrixSet(self.pair.base, self.pair.theta, self.phi, "Dh", tuple(sorted(mats)))


def delta_congruence(pair: PairAlgebra, phi: Partition) -> DeltaCongruence:
    """Delta for phi on the pair algebra of theta, read from
    `centrality.diagonal_pair_congruence`, the one computation of Delta that
    the term condition also uses (and that is cached on the base algebra).
    Its matrix facts are checked by `verify_diffalg_theorems`."""
    _, partition = diagonal_pair_congruence(pair.base, pair.theta, phi)
    return DeltaCongruence(pair, phi, partition)


@dataclass(eq=False, slots=True)
class DifferenceAlgebra:
    """D(A, theta) = pair algebra / diagonal congruence for alpha = (0:theta),
    together with the derived congruence, canonical transversal, and the
    induced weak difference term."""

    base: FiniteAlgebra
    theta: Partition
    alpha: Partition
    pair: PairAlgebra
    delta: DeltaCongruence
    algebra: FiniteAlgebra
    nu: ElementMap
    phi: Partition
    transversal: tuple[int, ...]
    zero_of_block: list[int]
    class_iso: ElementMap
    certificate: WdtCertificate
    certificate_d: WdtCertificate
    theta_minimal: bool

    def project(self, a: int, b: int) -> int:
        """nu((a, b)): the image of a theta-pair in the difference algebra."""
        return self.nu(self.pair.pos[(a, b)])

    def zero_of(self, a: int) -> int:
        """The canonical transversal element for the alpha-class of a."""
        return self.zero_of_block[self.alpha.index[a]]

    def phi_group(self, a: int):
        """Class group of the derived congruence at the canonical zero of a."""
        return class_group(self.algebra, self.certificate_d, self.phi, self.zero_of(a))


def difference_algebra(
    base: FiniteAlgebra, theta: Partition, certificate: WdtCertificate
) -> DifferenceAlgebra:
    """Construct D(A, theta) for an abelian congruence theta: alpha =
    (0 : theta), the pair algebra, Delta, the quotient D with nu, the derived
    congruence phi, the canonical transversal (nu of each alpha-class
    diagonal), the class map A/alpha -> D/phi and the induced weak difference
    term with its verified certificate.

    D and the induced d are quotients of the pair set by Delta, gathered at
    one pair per Delta-class, so no table on the pair set is built; only d's
    quotient is checked, as the kernel builds Delta as a congruence.

    The guards kept here are those without which D is not defined: a
    `ValueError` when the certificate is not a valid one for `base` or theta
    is not abelian, and an `InconsistencyError` when d does not preserve
    theta or does not factor through Delta.  The structure theorems (the
    matrix facts, Delta a congruence, the derived congruence, the
    transversal, A/alpha isomorphic to D/phi and subdirect irreducibility)
    are checks of `verify_diffalg_theorems`."""
    if not certificate.verdict or certificate.algebra != base:
        raise ValueError("need a valid weak-difference-term certificate for the base algebra")
    if not is_abelian(base, theta):
        raise ValueError("theta is not abelian")
    n = base.size
    alpha = centralizer(base, Partition.zero(n), theta)
    pair = pair_algebra(base, theta)
    delta = delta_congruence(pair, alpha)
    q, _ = _row_quotient([base, base], pair.pairs, delta.partition, check=False)
    D, nu = q.algebra, q.projection
    phi = push_partition(pair.lift(alpha), nu, D.size)
    zero_of_block = [nu(pair.diagonal_index(blk[0])) for blk in alpha.blocks]
    class_iso = ElementMap(
        len(alpha.blocks), len(phi.blocks), [phi.index[z] for z in zero_of_block]
    )

    # induced weak difference term on D: d on the pair set, pushed through nu
    d_alg = FiniteAlgebra(n, [certificate.operation])
    qd, failure = _row_quotient([d_alg, d_alg], pair.pairs, delta.partition, check=True)
    if failure is not None:
        what = "preserve theta" if failure[1] else "factor through the quotient"
        raise InconsistencyError(f"ternary table does not {what}")
    (d_op,) = qd.algebra.operations
    certificate_d = verify_wdt(D, d_op.array(), provenance="induced from base certificate")

    return DifferenceAlgebra(
        base, theta, alpha, pair, delta, D, nu, phi, tuple(zero_of_block), zero_of_block,
        class_iso, certificate, certificate_d, _is_minimal_congruence(base, theta),
    )


# ---------------------------------------------------------------------------
# Class embeddings and ranges.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassEmbedding:
    """lambda_e: the map x -> (x, e)/delta from a theta-class into the class
    group of the derived congruence at the canonical zero."""

    e: int
    theta_class: tuple[int, ...]
    images: tuple[int, ...]
    bijective: bool

    def __call__(self, x: int) -> int:
        return self.images[self.theta_class.index(x)]

    def image_set(self) -> frozenset[int]:
        return frozenset(self.images)

    def preimage(self, q: int) -> int:
        return self.theta_class[self.images.index(q)]


def base_has_difference_identity(da: DifferenceAlgebra) -> bool:
    """Whether d(x, x, y) = y holds for all x, y of the base algebra."""
    n = da.base.size
    d = da.certificate.operation.array()
    return all(d[(x * n + x) * n + y] == y for x in range(n) for y in range(n))


def lambda_embed(da: DifferenceAlgebra, e: int) -> ClassEmbedding:
    """Embed the class group at e into the derived class group at its
    canonical zero; a group embedding always, onto the whole class group
    whenever the difference identity d(x,x,y) = y holds on the base."""
    cls = da.theta.block_of(e)
    images = tuple(da.project(x, e) for x in cls)
    if len(set(images)) != len(images):
        raise InconsistencyError("lambda_e is not injective")
    zero = da.zero_of(e)
    if da.project(e, e) != zero:
        raise InconsistencyError("lambda_e does not send e to the canonical zero")
    target = da.phi_group(e)
    src = class_group(da.base, da.certificate, da.theta, e)
    for x in cls:
        for y in cls:
            lhs = images[cls.index(src.add(x, y))]
            rhs = target.add(images[cls.index(x)], images[cls.index(y)])
            if lhs != rhs:
                raise InconsistencyError("lambda_e is not a group homomorphism")
    bij = len(images) == len(target.elements)
    if base_has_difference_identity(da) and not bij:
        raise InconsistencyError("difference identity holds but lambda_e is not onto")
    return ClassEmbedding(e, cls, images, bij)


@dataclass(frozen=True)
class RangeSubgroup:
    """ran(C) = C^2/delta: the common image of lambda_e for e in C, a
    subgroup of the derived class group."""

    theta_class: tuple[int, ...]
    elements: tuple[int, ...]
    zero: int


def range_of_class(da: DifferenceAlgebra, theta_class) -> RangeSubgroup:
    if isinstance(theta_class, int):
        theta_class = da.theta.block_of(theta_class)
    cls = tuple(theta_class)
    members = sorted({da.project(a, b) for a in cls for b in cls})
    zero = da.zero_of(cls[0])
    grp = da.phi_group(cls[0])
    mset = set(members)
    if zero not in mset:
        raise InconsistencyError("range misses the canonical zero")
    if not mset <= set(grp.elements):
        raise InconsistencyError("range leaves the phi-class of the canonical zero")
    for x in members:
        if grp.neg(x) not in mset:
            raise InconsistencyError("range not closed under negation")
        for y in members:
            if grp.add(x, y) not in mset:
                raise InconsistencyError("range not closed under addition")
    for e in cls:
        if lambda_embed(da, e).image_set() != mset:
            raise InconsistencyError("range differs from an embedding image")
    return RangeSubgroup(cls, tuple(members), zero)


# ---------------------------------------------------------------------------
# Positive translations and the arrow graph.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicTranslation:
    """d(x, e, e') when side == "right", d(e, e', x) when side == "left"."""

    side: str
    e: int
    e2: int

    def table(self, certificate: WdtCertificate) -> tuple[int, ...]:
        n = certificate.algebra.size
        if self.side == "right":
            return tuple(certificate.apply(x, self.e, self.e2) for x in range(n))
        return tuple(certificate.apply(self.e, self.e2, x) for x in range(n))


@dataclass(eq=False, slots=True)
class ArrowGraph:
    """Reachability of theta-classes within one alpha-class under positive
    translations, with witness chains of basic translations."""

    da: DifferenceAlgebra
    alpha_class: tuple[int, ...]
    nodes: tuple
    basic_edges: dict
    reach: dict
    chains: dict

    def arrow(self, c1, c2) -> bool:
        return tuple(c2) in self.reach[tuple(c1)]

    def witness_table(self, c1, c2) -> tuple[int, ...]:
        """The composed translation table witnessing c1 -> c2."""
        chain = self.chains[(tuple(c1), tuple(c2))]
        n = self.da.base.size
        cur = tuple(range(n))
        for basic in chain:
            t = basic.table(self.da.certificate)
            cur = tuple(t[x] for x in cur)
        return cur

    def witness_fixing(self, c1, c2, e: int, e2: int) -> tuple[int, ...]:
        """A witness for c1 -> c2 post-composed to send e to e2."""
        f = self.witness_table(c1, c2)
        cert = self.da.certificate
        return tuple(cert.apply(f[x], f[e], e2) for x in range(self.da.base.size))


def arrow_graph(da: DifferenceAlgebra, alpha_class) -> ArrowGraph:
    """Build the arrow graph of one alpha-class and assert its laws: along
    every edge the range grows and pairs keep their delta-class; any two
    classes have a common successor; and when the difference identity holds
    the graph is complete."""
    if isinstance(alpha_class, int):
        alpha_class = da.alpha.block_of(alpha_class)
    E = tuple(alpha_class)
    theta = da.theta
    nodes = sorted({theta.block_of(x) for x in E})
    node_of_elt = {x: theta.block_of(x) for x in E}
    cert = da.certificate

    basics: dict[tuple, dict[tuple, BasicTranslation]] = {tuple(c): {} for c in nodes}
    for e in E:
        for e2 in E:
            for side in ("right", "left"):
                bt = BasicTranslation(side, e, e2)
                table = bt.table(cert)
                for c in nodes:
                    img = node_of_elt[table[c[0]]]
                    basics[tuple(c)].setdefault(tuple(img), bt)

    reach: dict[tuple, set[tuple]] = {}
    chains: dict[tuple[tuple, tuple], tuple[BasicTranslation, ...]] = {}
    for c in nodes:
        c = tuple(c)
        seen = {c}
        chains[(c, c)] = ()
        queue = [c]
        while queue:
            cur = queue.pop(0)
            for nxt, bt in basics[cur].items():
                if nxt not in seen:
                    seen.add(nxt)
                    chains[(c, nxt)] = chains[(c, cur)] + (bt,)
                    queue.append(nxt)
        reach[c] = seen

    graph = ArrowGraph(da, E, tuple(tuple(c) for c in nodes), basics, reach, chains)

    for c1 in graph.nodes:
        r1 = set(range_of_class(da, c1).elements)
        for c2 in graph.reach[c1]:
            f = graph.witness_table(c1, c2)
            for a in c1:
                if f[a] not in c2:
                    raise InconsistencyError("witness does not map the class where claimed")
                for b in c1:
                    if da.project(f[a], f[b]) != da.project(a, b):
                        raise InconsistencyError("translation moved a pair across delta")
            if not r1 <= set(range_of_class(da, c2).elements):
                raise InconsistencyError("range does not grow along an arrow")
    for c1 in graph.nodes:
        for c2 in graph.nodes:
            if not (graph.reach[c1] & graph.reach[c2]):
                raise InconsistencyError("no common successor for two classes")
    if base_has_difference_identity(da):
        for c1 in graph.nodes:
            if graph.reach[c1] != set(graph.nodes):
                raise InconsistencyError("difference identity holds but graph is incomplete")
    return graph


# ---------------------------------------------------------------------------
# Theorem suite.
# ---------------------------------------------------------------------------


def _m3_template_check(elems: list[Partition], zero: Partition, top: Partition):
    """elems = [zero, a, b, c, top] must form the five-element modular
    diamond: distinct, atoms pairwise meeting at zero and joining at top."""
    if len(set(elems)) != 5:
        return False, "elements not distinct"
    a, b, c = elems[1], elems[2], elems[3]
    for x, y in itertools.combinations((a, b, c), 2):
        if x.meet(y) != zero or x.join(y) != top:
            return False, f"pair {x}, {y} breaks the diamond"
    return True, None


def verify_diffalg_theorems(da: DifferenceAlgebra) -> Report:
    """Itemized executable checks of the structure theorems for the pair
    algebra and the difference algebra of an abelian congruence, including
    every fact `difference_algebra` does not assert while building D."""
    items = []

    def check(item_id: str, anchor: str, statement: str, witness) -> None:
        """An item that passes exactly when no witness against it was found."""
        anchor = f"difference-algebra/{anchor}"
        items.append(CheckItem(item_id, anchor, statement, witness is None, witness))

    def skip(item_id: str, anchor: str, statement: str, reason: str) -> None:
        anchor = f"difference-algebra/{anchor}"
        items.append(CheckItem(item_id, anchor, statement, None, note=f"skipped: {reason}"))

    pair, base = da.pair, da.base
    theta, alpha, phi = da.theta, da.alpha, da.phi
    P, D = pair.algebra, da.algebra
    delta = da.delta.partition
    theta_bar = pair.lift(theta)
    alpha_bar = pair.lift(alpha)
    eps = theta_bar.meet(delta)
    zero_p = Partition.zero(P.size)

    witness = None
    for a in range(base.size):
        expected = {pair.pos[(b, b)] for b in alpha.block_of(a)}
        got = set(delta.block_of(pair.diagonal_index(a)))
        if got != expected:
            witness = (a, sorted(got), sorted(expected))
            break
    check("diagonal-delta-classes", "diagonal-classes",
          "the delta-class of a diagonal pair is the diagonal of its alpha-class", witness)

    _, delta_tt = diagonal_pair_congruence(base, theta, theta)
    dh_tt = set(DeltaCongruence(pair, theta, delta_tt).horizontal_matrices().matrices)
    check("two-sided-matrices", "two-sided",
          "M(theta, theta) is the set of horizontal matrices of Delta(theta, theta)",
          min(dh_tt.symmetric_difference(generate_matrices(base, theta, theta).matrices),
              default=None))

    check("horizontal-vertical-closure", "vertical",
          "the horizontal matrices of delta are vertically symmetric and transitive",
          _vertical_closure_witness(da.delta.horizontal_matrices().matrices))

    abelian = is_abelian(D, phi)
    own = centralizer(D, Partition.zero(D.size), phi)
    derived_ok = da.certificate_d.verdict and abelian and own == phi
    check("derived-congruence", "derived",
          "the induced d is a weak difference term on D, and phi is abelian with (0 : phi) = phi",
          None if derived_ok else (da.certificate_d.failure, abelian, own))

    check("canonical-transversal", "transversal",
          "the canonical transversal has one element per alpha-class, meets every phi-class "
          "once, is a subuniverse of D, and its preimage under nu is the diagonal",
          _transversal_witness(da))

    qa = quotient(base, alpha, check=False).algebra
    qd = quotient(D, phi, check=False).algebra
    iso = da.class_iso
    ok = (
        (iso.source_size, iso.target_size) == (qa.size, qd.size)
        and iso.is_bijective()
        and is_homomorphism(qa, qd, iso)
    )
    check("class-isomorphism", "class-iso", "the class map is an isomorphism A/alpha -> D/phi",
          None if ok else (qa.size, qd.size, iso.images))

    statement = "for minimal theta, D is subdirectly irreducible with monolith phi"
    if da.theta_minimal:
        rep = structure_report(congruence_lattice(D))
        ok = rep.is_si and rep.monolith == phi
        check("subdirectly-irreducible", "si", statement, None if ok else (rep.is_si, rep.monolith))
    else:
        skip("subdirectly-irreducible", "si", statement, "theta is not minimal")

    ok = delta != alpha_bar and delta.leq(alpha_bar)
    # D is a quotient by delta only when delta is a congruence of P
    cent = centralizer(P, delta, alpha_bar) if is_congruence(P, delta) else None
    check("delta-centralizer-fixed", "delta-centralizer",
          "delta < alpha-bar and (delta : alpha-bar) = alpha-bar",
          None if ok and cent == alpha_bar else (delta, alpha_bar, cent))

    lat = congruence_lattice(P)
    ab = is_abelian(P, theta_bar)
    rep = check_interval_modular_permuting(P, lat, zero_p, theta_bar, quotient_abelian=ab)
    check("interval-modular-permuting", "interval-modular",
          "theta-bar is abelian and I[0, theta-bar] is modular with permuting members",
          None if ab and rep.passed else (ab, rep.modular_witness, rep.permuting_witness))

    _, note = _m3_template_check([zero_p, pair.eta1, pair.eta2, eps, theta_bar], zero_p, theta_bar)
    check("m3-sublattice", "m3",
          "{0, eta1, eta2, eps, theta-bar} is the five-element modular diamond", note)

    transposes = [
        hi.meet(delta) == lo and hi.join(delta) == alpha_bar
        for lo, hi in ((eps, theta_bar), (zero_p, pair.eta1), (zero_p, pair.eta2))
    ]
    check("transposes-to-delta-interval", "transposes",
          "(eps, theta-bar), (0, eta1), (0, eta2) all transpose up to (delta, alpha-bar)",
          None if all(transposes) else transposes)

    if da.theta_minimal:
        interval = lat.interval(zero_p, theta_bar)
        max_chains_ok = all(
            length == 2 for length in _maximal_chain_lengths(lat, interval, zero_p, theta_bar)
        )
        covers_delta = [
            q for q in lat.elements if delta < q and not any(delta < r < q for r in lat.elements)
        ]
        delta_prec = covers_delta == [alpha_bar]
        srep = structure_report(lat)
        cmi = any(p == delta for p, _ in srep.completely_meet_irreducibles)
        check("height-and-meet-irreducibility", "height-two",
              "I[0, theta-bar] has height 2, delta is covered only by alpha-bar, "
              "and delta is completely meet-irreducible",
              None if max_chains_ok and delta_prec and cmi else (max_chains_ok, delta_prec, cmi))
    else:
        skip("height-and-meet-irreducibility", "height-two",
             "height-2 and meet-irreducibility facts for minimal theta", "theta is not minimal")

    d = da.certificate.operation.array().tolist()
    n = base.size
    witness = next(
        (
            (a, b, e)
            for blk in theta.blocks for a in blk for b in blk for e in blk
            if da.project(a, b) != da.project(d[(a * n + b) * n + e], e)
        ),
        None,
    )
    check("pair-shift-invariance", "pair-shift",
          "(a, b) and (d(a, b, e), e) fall in the same delta-class", witness)

    statement = (
        "ranges within an alpha-class form a directed family whose union (and maximum) "
        "is the whole derived class group"
    )
    if derived_ok:
        check("ranges-directed-union", "ranges-directed", statement, _ranges_witness(da))
    else:
        # the class groups of phi are defined only when the derived congruence check holds
        skip("ranges-directed-union", "ranges-directed", statement,
             "the derived congruence check failed")

    # the diagonal entry of x has index x (1 + n + .. + n^(k-1))
    idempotent = all(
        op.array()[x * sum(n**i for i in range(op.arity))] == x
        for op in base.operations for x in range(n)
    )
    statement = "idempotent algebra with full centralizer: class sizes are 1 or q"
    if idempotent and da.theta_minimal and alpha == Partition.one(n):
        sizes = sorted({len(blk) for blk in theta.blocks})
        ok = all(s in (1, max(sizes)) for s in sizes)
        check("idempotent-class-sizes", "idempotent-sizes", statement, None if ok else sizes)
    else:
        reason = (
            "not idempotent"
            if not idempotent
            else ("theta not minimal" if not da.theta_minimal else "(0:theta) != 1")
        )
        skip("idempotent-class-sizes", "idempotent-sizes", statement, reason)
    return Report("difference algebra theorems", tuple(items))


def _ranges_witness(da: DifferenceAlgebra) -> tuple | None:
    """An alpha-class whose ranges are not directed, or do not have the whole
    derived class group as union and maximum; None when there is none."""
    for blk in da.alpha.blocks:
        classes = sorted({da.theta.block_of(x) for x in blk})
        ranges = [set(range_of_class(da, c).elements) for c in classes]
        full = set(da.phi.block_of(da.zero_of(blk[0])))
        union = set().union(*ranges)
        directed = all(
            any(r1 | r2 <= r3 for r3 in ranges) for r1 in ranges for r2 in ranges
        )
        has_max = any(r == full for r in ranges)
        if union != full or not directed or not has_max:
            return (blk, union == full, directed, has_max)
    return None


def _vertical_closure_witness(dh) -> tuple | None:
    """A horizontal matrix whose vertical mirror is missing, or two stacked
    matrices whose vertical composite is missing; None when there is none."""
    dh_set = set(dh)
    for a, b, c, d in dh:
        if (b, a, d, c) not in dh_set:
            return (a, b, c, d)
    by_top: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    for m in dh:
        by_top.setdefault((m[0], m[2]), []).append(m)
    for a, b, c, d in dh:
        for _, r, _, s in by_top.get((b, d), ()):
            if (a, r, c, s) not in dh_set:
                return (a, b, c, d), (b, r, d, s)
    return None


def _transversal_witness(da: DifferenceAlgebra) -> tuple | None:
    """The first canonical-transversal fact that fails, with the transversal
    or the offending pair; None when all hold."""
    tset = frozenset(da.transversal)
    if len(tset) != len(da.alpha.blocks):
        return ("elements collide", da.transversal)
    if any(len(tset.intersection(blk)) != 1 for blk in da.phi.blocks):
        return ("not a transversal of phi", da.transversal)
    if not is_subuniverse(da.algebra, tset):
        return ("not a subuniverse", da.transversal)
    for i, (a, b) in enumerate(da.pair.pairs):
        if (da.nu(i) in tset) != (a == b):
            return ("preimage is not the diagonal", (a, b))
    return None


def _maximal_chain_lengths(lat, interval, lo, hi):
    """Lengths of maximal chains from lo to hi inside the interval."""
    interval_set = set(interval)

    def covers_in(p):
        out = []
        for q in interval:
            if p < q and not any(p < r < q for r in interval_set if r != q):
                out.append(q)
        return out

    stack = [(lo, 0)]
    while stack:
        p, length = stack.pop()
        if p == hi:
            yield length
            continue
        ups = covers_in(p)
        for q in ups:
            stack.append((q, length + 1))
