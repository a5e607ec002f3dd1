"""Weak difference terms: verification, bounded search, class groups, and
affine decomposition of polynomials on abelian classes.

A ternary operation d is a weak difference term for an algebra when it is
idempotent and, for every congruence pair delta <= theta with theta/delta
abelian, d(a, a, b) and d(b, a, a) are delta-congruent to b for every
(a, b) in theta.  Restricted to a class of an abelian congruence such a d is
a Maltsev operation, and (class, +, e) with x + y := d(x, e, y) is an
abelian group.

The condition is checked at principal congruences, in the reading of
Kearnes and Szendrei (The relationship between two commutators, IJAC 8,
1998): d(a, a, b) [theta, theta] b [theta, theta] d(b, a, a) for (a, b) in
theta, where [theta, theta] is the least delta with C(theta, theta; delta)
(Freese and McKenzie, Commutator Theory for Congruence Modular Varieties,
1987).  By monotonicity of C it is enough to take theta = Cg(a, b), so one
self-commutator per distinct principal congruence replaces a sweep of
Con(A)^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import core
from .core import (
    CapExceededError,
    FiniteAlgebra,
    ElementMap,
    Operation,
    _apply_combos,
    closure_in_power,
    generate_subuniverse,
    is_homomorphism,
    is_subuniverse,
    power,
)
from .congruences import (
    Partition,
    _pair_translations,
    _principal_congruences,
    congruence_lattice,
    principal_congruence,
)
from .centrality import diagonal_pair_congruence, is_abelian
from .report import CheckItem, Report

DEFAULT_WDT_SEARCH_CAP = 10**5


@dataclass(frozen=True)
class WdtCertificate:
    """Outcome of checking one candidate ternary table against one algebra.

    `checked` lists (scope label, [psi, psi], psi) for every distinct
    principal congruence psi of each scoped power examined; a true verdict
    means idempotence plus the defining congruence condition read at them
    (Kearnes and Szendrei, IJAC 8, 1998; [psi, psi] is the least delta with
    C(psi, psi; delta), Freese and McKenzie 1987).  `provenance` records
    whether the table came with a term witness ("term-derived") or was
    attested by the caller ("table-attested").
    """

    algebra: FiniteAlgebra
    operation: Operation  # the ternary table, named "d"
    scope: tuple[int, ...]
    checked: tuple[tuple[str, Partition, Partition], ...]
    verdict: bool
    failure: tuple | None = None
    provenance: str = "table-attested"

    @property
    def d(self) -> tuple[int, ...]:
        return self.operation.table

    def apply(self, x: int, y: int, z: int) -> int:
        n = self.algebra.size
        return int(self.operation.array()[(x * n + y) * n + z])


@core._memoized
def _self_commutator(algebra: FiniteAlgebra, psi: Partition) -> Partition:
    """[psi, psi], the least congruence delta with C(psi, psi; delta).
    C(psi, psi; delta) holds exactly when membership in delta is constant on
    every class of Delta(psi, psi), so the fixpoint starts from 0 and each
    round adds every pair of each Delta-class that meets delta, closing them
    by joining their principal congruences.  Memoized on the algebra."""
    n = algebra.size
    _, part = diagonal_pair_congruence(algebra, psi, psi)
    _, _, p0, p1, *_ = _pair_translations(algebra, psi)
    principal = _principal_congruences(algebra)[0]
    cls = np.array(part.index, dtype=np.int64)
    delta = Partition.zero(n)
    while True:
        didx = np.array(delta.index, dtype=np.int64)
        inside = didx[p0] == didx[p1]
        meets = np.zeros(len(part.blocks), dtype=bool)
        meets[cls[inside]] = True
        added = meets[cls] & ~inside
        if not added.any():
            return delta
        joined = {principal[c] for c in (p0[added] * n + p1[added]).tolist()}
        for q in sorted(joined, key=lambda q: -q.rank):
            if not q.leq(delta):
                delta = delta.join(q)


@core._memoized
def _principal_conditions(algebra: FiniteAlgebra):
    """The condition of `verify_wdt` and `search_wdt` as arrays over the
    ordered pairs (a, b), a != b, in lexicographic order: (commutators,
    cells, offset, target, labels, strict).  `commutators` lists
    ([psi, psi], psi) for each distinct principal psi, and `labels` their
    commutators' labels, flattened.  Pair p holds when the entries of d at
    cells[p], those of d(a, a, b) and d(b, a, a), have the label target[p]
    of b at offset[p] of `labels`, for psi = Cg(a, b); strict[p] marks
    [psi, psi] < psi.  Memoized on the algebra.

    [chi, chi] <= [psi, psi] <= psi for chi <= psi, so the principal
    congruences go finest first, and one that the commutators of the
    smaller ones already join to skips the fixpoint."""
    n = algebra.size
    table, distinct, _ = _principal_congruences(algebra)
    commutators = []
    for psi in distinct:
        lower = Partition.zero(n)
        for comm, chi in commutators:
            if chi.leq(psi) and not comm.leq(lower):
                lower = lower.join(comm)
        commutators.append((psi if lower == psi else _self_commutator(algebra, psi), psi))
    number = {psi: i for i, psi in enumerate(distinct)}
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    k = np.array([number[table[c]] for c in (a * n + b).tolist()], dtype=np.int64)
    labels = np.array([comm.index for comm, _ in commutators], dtype=np.int64).reshape(-1)
    strict = np.array([comm != psi for comm, psi in commutators], dtype=bool)
    cells = np.column_stack(((a * n + a) * n + b, (b * n + a) * n + a))
    offset = k * n
    return tuple(commutators), cells, offset, labels[offset + b], labels, strict[k]


def verify_wdt(
    algebra: FiniteAlgebra,
    d: Sequence[int],
    *,
    scope: Iterable[int] = (1,),
    provenance: str = "table-attested",
) -> WdtCertificate:
    """Check a candidate ternary table against every abelian congruence
    quotient of the scoped powers of the algebra.

    scope=(1,) checks the algebra itself; scope=(1, 2, 3) additionally checks
    its square and cube (with d lifted coordinatewise).  The variety-level
    property is not finitely checkable; the certificate records exactly what
    was examined.

    The check reads the condition at principal congruences: for every
    a != b, d(a, a, b) and d(b, a, a) are [psi, psi]-related to b for
    psi = Cg(a, b) (Kearnes and Szendrei, IJAC 8, 1998), [psi, psi] the least
    delta with C(psi, psi; delta) (Freese and McKenzie 1987).  Every pair is
    checked, since an attested table need not be a term.
    """
    n = algebra.size
    (op,) = FiniteAlgebra(n, [("d", 3, d)]).operations
    d = op.array()
    scope = tuple(sorted(set(int(k) for k in scope)))
    checked: list[tuple[str, Partition, Partition]] = []

    bad = np.flatnonzero(d[np.arange(n) * (n * n + n + 1)] != np.arange(n))
    if bad.size:
        return WdtCertificate(
            algebra, op, scope, tuple(checked), False, ("idempotence", int(bad[0])), provenance
        )

    for k in scope:
        alg_k = algebra if k == 1 else power(algebra, k)
        label = f"A^{k}" if k > 1 else "A"
        commutators, cells, offset, target, labels, _ = _principal_conditions(alg_k)
        checked.extend((label, comm, psi) for comm, psi in commutators)
        values = _lifted(d, n, k, cells)
        bad = np.flatnonzero((labels[offset[:, None] + values] != target[:, None]).any(axis=1))
        if bad.size:
            m, cell = alg_k.size, int(cells[bad[0], 0])
            comm, psi = commutators[offset[bad[0]] // m]
            return WdtCertificate(
                algebra,
                op,
                scope,
                tuple(checked),
                False,
                ("congruence-condition", label, comm, psi, (cell // m**2, cell % m)),
                provenance,
            )
    return WdtCertificate(algebra, op, scope, tuple(checked), True, None, provenance)


def _lifted(d: np.ndarray, n: int, k: int, cells: np.ndarray) -> np.ndarray:
    """The entries at `cells` of the ternary table d lifted coordinatewise
    to A^k, whose elements are the base-n numbers of their k coordinates as
    `power` numbers them: d_k(x, y, z) = sum_i d(x_i, y_i, z_i) n^(k-1-i)."""
    m = n**k
    x, y, z = cells // (m * m), cells // m % m, cells % m
    out = np.zeros_like(cells)
    for place in n ** np.arange(k - 1, -1, -1):
        out = out * n + d[(x // place % n * n + y // place % n) * n + z // place % n]
    return out


def certificate_from_operation(
    algebra: FiniteAlgebra, op_name: str, *, scope: Iterable[int] = (1,)
) -> WdtCertificate:
    """Verify a basic ternary operation of the algebra as its weak difference term."""
    op = algebra.operation(op_name)
    if op.arity != 3:
        raise ValueError(f"operation '{op_name}' is not ternary")
    return verify_wdt(algebra, op.array(), scope=scope, provenance=f"basic operation '{op_name}'")


def _row_hashes(rows: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """One int64 hash per row: its dot product with an odd salt, wrapping."""
    return rows @ salt


def search_wdt(
    algebra: FiniteAlgebra, *, cap: int = DEFAULT_WDT_SEARCH_CAP
) -> WdtCertificate | None:
    """Breadth-first search of the ternary term clone for a weak difference term.

    The clone is generated pointwise from the three projections; candidates
    are tested level by level (term depth), in lexicographic table order
    within each level, and the first passing table is returned with a
    term-derived certificate.  Returns None when the whole clone (within the
    cap) fails.

    Each batch of candidate tables is deduplicated by a 64-bit row hash
    (`_row_hashes`) and an exact check that every row equals the first row
    of its hash group; a batch where two different rows collide is
    deduplicated by sorting instead.  Neither cap depends on the order in
    which distinct rows are met, so the hash changes no result.
    """
    n = algebra.size
    w = n**3
    salt = core._salt(w)
    # a slice of the exact check holds two gathered copies of its rows
    step = max(1, core._CHUNK_CELLS // (2 * w))

    def distinct(batch: np.ndarray) -> np.ndarray:
        hashes = _row_hashes(batch, salt)
        order = np.argsort(hashes, kind="stable")
        sorted_hashes = hashes[order]
        first = np.ones(len(order), dtype=bool)
        np.not_equal(sorted_hashes[1:], sorted_hashes[:-1], out=first[1:])
        leads = order[first]
        lead_of = leads[np.cumsum(first) - 1]
        for lo in range(0, len(order), step):
            if not np.array_equal(batch[order[lo : lo + step]], batch[lead_of[lo : lo + step]]):
                rows = batch[np.lexsort(batch.T[::-1])]
                return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
        return batch[leads]

    idx = np.arange(w, dtype=np.int64)
    projections = np.stack([idx // (n * n), (idx // n) % n, idx % n]).astype(np.int64)

    # one gather checks idempotence, as the labels xs of 0, and the pairs
    # with [psi, psi] < psi; the others hold for every idempotent term d,
    # since d(a, a, b) psi d(a, a, a) = a psi b for (a, b) in psi
    _, pair_cells, pair_offset, pair_target, pair_labels, strict = _principal_conditions(algebra)
    xs = np.arange(n, dtype=np.int64)
    labels = np.concatenate((pair_labels, xs))
    cells = np.concatenate(((xs * n + xs) * n + xs, pair_cells[strict].ravel()))
    offset = np.concatenate((np.full(n, len(pair_labels)), np.repeat(pair_offset[strict], 2)))
    target = np.concatenate((xs, np.repeat(pair_target[strict], 2)))
    # a slice of the check holds about three int64 temporaries per cell
    check_step = max(1, core._CHUNK_CELLS // (3 * len(cells)))

    def first_pass(rows: np.ndarray) -> WdtCertificate | None:
        for lo in range(0, len(rows), check_step):
            ok = (labels[offset + rows[lo : lo + check_step, cells]] == target).all(axis=1)
            hit = np.flatnonzero(ok)
            if hit.size:
                return verify_wdt(algebra, rows[lo + hit[0]], provenance="term-derived")
        return None

    known = {row.tobytes() for row in projections}
    hit = first_pass(projections)
    if hit is not None:
        return hit

    all_rows = projections
    old_rows = np.empty((0, w), dtype=np.int64)
    frontier = projections
    ops = [(op.arity, op.array()) for op in algebra.operations]
    work_budget = max(10**8, cap * 10**5)
    work = 0
    while frontier.shape[0]:
        fresh_rows = []

        def absorb(batch: np.ndarray):
            nonlocal work
            if batch.size == 0:
                return
            work += batch.size
            if work > work_budget:
                raise CapExceededError("ternary clone work", work_budget)
            for row in distinct(batch):
                key = row.tobytes()
                if key in known:
                    continue
                known.add(key)
                fresh_rows.append(row)
                if len(known) > cap:
                    raise CapExceededError("ternary clone", cap)

        for k, tab in ops:
            if k == 1:
                absorb(tab[frontier])
                continue
            for pos in range(k):
                parts = [
                    old_rows if i < pos else (frontier if i == pos else all_rows)
                    for i in range(k)
                ]
                for out in _apply_combos(tab, n, parts, w):
                    absorb(out)
        if not fresh_rows:
            return None
        # the fresh rows are distinct, so a lexicographic sort orders the level
        fresh = np.array(fresh_rows, dtype=np.int64)
        fresh = fresh[np.lexsort(fresh.T[::-1])]
        hit = first_pass(fresh)
        if hit is not None:
            return hit
        old_rows = all_rows
        all_rows = np.concatenate([all_rows, fresh], axis=0)
        frontier = fresh
    return None


# ---------------------------------------------------------------------------
# Class groups and affine structure.
# ---------------------------------------------------------------------------


class ClassGroup:
    """The abelian group on a class of an abelian congruence:
    x + y = d(x, e, y), -x = d(e, x, e), zero e."""

    __slots__ = ("algebra", "theta", "zero", "elements", "_pos", "add_table", "neg_table")

    def __init__(self, algebra: FiniteAlgebra, theta: Partition, zero: int, d: Sequence[int]):
        n = algebra.size
        self.algebra = algebra
        self.theta = theta
        self.zero = int(zero)
        self.elements = theta.block_of(self.zero)
        self._pos = {x: i for i, x in enumerate(self.elements)}
        dd = tuple(d)
        self.add_table = tuple(
            tuple(dd[(x * n + self.zero) * n + y] for y in self.elements) for x in self.elements
        )
        self.neg_table = tuple(dd[(self.zero * n + x) * n + self.zero] for x in self.elements)
        self._assert_group(dd, n)

    def _assert_group(self, d: tuple[int, ...], n: int):
        C = self.elements
        for x in C:
            if self.add(x, self.zero) != x or self.add(self.zero, x) != x:
                raise ValueError(f"zero law fails at {x}")
            if self.add(x, self.neg(x)) != self.zero:
                raise ValueError(f"inverse law fails at {x}")
        for x in C:
            for y in C:
                if self.add(x, y) not in self._pos:
                    raise ValueError("class not closed under addition")
                if self.add(x, y) != self.add(y, x):
                    raise ValueError(f"commutativity fails at ({x}, {y})")
        for x in C:
            for y in C:
                for z in C:
                    if self.add(self.add(x, y), z) != self.add(x, self.add(y, z)):
                        raise ValueError(f"associativity fails at ({x}, {y}, {z})")
                    if d[(x * n + y) * n + z] != self.add(self.sub(x, y), z):
                        raise ValueError(f"d(x,y,z) != x - y + z at ({x}, {y}, {z})")

    def add(self, x: int, y: int) -> int:
        return self.add_table[self._pos[x]][self._pos[y]]

    def neg(self, x: int) -> int:
        return self.neg_table[self._pos[x]]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def scalar(self, k: int, x: int) -> int:
        out = self.zero
        for _ in range(k % self.exponent_bound()):
            out = self.add(out, x)
        return out

    def exponent_bound(self) -> int:
        return len(self.elements)

    def element_order(self, x: int) -> int:
        acc, k = x, 1
        while acc != self.zero:
            acc = self.add(acc, x)
            k += 1
        return k

    def __len__(self):
        return len(self.elements)


def class_group(
    algebra: FiniteAlgebra, certificate: WdtCertificate, theta: Partition, e: int
) -> ClassGroup:
    """Grp(theta, e) built from a verified weak difference term.  The
    certificate is checked on every call, before the memo lookup."""
    if not certificate.verdict or certificate.algebra != algebra:
        raise ValueError("need a valid certificate for this algebra")

    def build() -> ClassGroup:
        if not is_abelian(algebra, theta):
            raise ValueError("theta is not abelian")
        return ClassGroup(algebra, theta, e, certificate.operation.array().tolist())

    return core._memo(algebra, (ClassGroup, certificate.operation, theta, e), build)


@dataclass(frozen=True)
class AffineDecomposition:
    """f(a) = sum_i r_i(a_i) + f(e) on a product of classes, computed in the
    class group at e; r_i(x) = d(f(e_1,..,x,..,e_n), f(e), e)."""

    arity: int
    base_points: tuple[int, ...]
    target_base: int
    r_maps: tuple[dict, ...]
    constant: int


def affine_decompose(
    algebra: FiniteAlgebra,
    certificate: WdtCertificate,
    theta: Partition,
    f: Callable[..., int],
    arity: int,
    base_points: Sequence[int],
    e: int,
) -> AffineDecomposition:
    """Decompose a polynomial into unary group homomorphisms plus a constant.

    f must map the product of the theta-classes of `base_points` into the
    class of `e`; the decomposition identity and the homomorphism property
    of every r_i are asserted exhaustively over that product.
    """
    if len(base_points) != arity:
        raise ValueError("one base point per argument required")
    classes = [theta.block_of(p) for p in base_points]
    target = theta.block_of(e)
    for args in itertools.product(*classes):
        if f(*args) not in target:
            raise ValueError(f"f does not map the class product into the class of {e}: {args}")
    grp = class_group(algebra, certificate, theta, e)
    ev = tuple(base_points)
    const = f(*ev)
    r_maps = []
    for t in range(arity):
        rt = {}
        for x in classes[t]:
            args = list(ev)
            args[t] = x
            rt[x] = certificate.apply(f(*args), const, e)
        if rt[ev[t]] != e:
            raise ValueError("r_t does not send its base point to e")
        r_maps.append(rt)
    for args in itertools.product(*classes):
        acc = grp.zero
        for t in range(arity):
            acc = grp.add(acc, r_maps[t][args[t]])
        if grp.add(acc, const) != f(*args):
            raise ValueError(f"affine decomposition fails at {args}")
    for t in range(arity):
        src = class_group(algebra, certificate, theta, base_points[t])
        for x in classes[t]:
            for y in classes[t]:
                if r_maps[t][src.add(x, y)] != grp.add(r_maps[t][x], r_maps[t][y]):
                    raise ValueError(f"r_{t} is not a group homomorphism")
    return AffineDecomposition(arity, ev, e, tuple(r_maps), const)


def connecting_polynomial(
    algebra: FiniteAlgebra,
    theta: Partition,
    source: tuple[int, int],
    target: tuple[int, int],
    *,
    cap: int = 10**6,
) -> ElementMap:
    """A unary polynomial f with f(a) = a', f(b) = b' for (a, b), (a', b')
    in an abelian minimal congruence, a != b.  Existence is guaranteed by
    the preconditions, so a failed search reports a precondition violation."""
    a, b = source
    a2, b2 = target
    if a == b:
        raise ValueError("source pair must be distinct")
    for x, y in (source, target):
        if not theta.related(x, y):
            raise ValueError(f"pair ({x}, {y}) is not in theta")
    if not is_abelian(algebra, theta):
        raise ValueError("theta is not abelian")
    n = algebra.size
    seeds = [tuple(range(n))] + [(c,) * n for c in range(n)]

    def hit(rows: np.ndarray) -> int | None:
        mask = (rows[:, a] == a2) & (rows[:, b] == b2)
        found = np.flatnonzero(mask)
        return int(found[0]) if found.size else None

    members, witness = closure_in_power(
        algebra, n, seeds, cap=cap, cap_name="pol1", violation=hit
    )
    if witness is None:
        raise ValueError(
            f"no unary polynomial maps ({a}, {b}) to ({a2}, {b2}); "
            "a precondition (theta abelian minimal) must be violated"
        )
    return ElementMap(n, n, witness)


def transversal_automorphism(
    algebra: FiniteAlgebra,
    certificate: WdtCertificate,
    theta: Partition,
    d1: Iterable[int],
    d2: Iterable[int],
) -> ElementMap:
    """The automorphism x -> d(x, p1(x), p2(x)) carrying one subuniverse
    transversal of an abelian congruence onto another, where p_i retracts
    onto D_i along theta."""
    n = algebra.size
    d1 = frozenset(d1)
    d2 = frozenset(d2)
    for name, dset in (("D1", d1), ("D2", d2)):
        if not is_subuniverse(algebra, dset):
            raise ValueError(f"{name} is not a subuniverse")
        for blk in theta.blocks:
            if len(dset.intersection(blk)) != 1:
                raise ValueError(f"{name} is not a transversal for theta")
    if not is_abelian(algebra, theta):
        raise ValueError("theta is not abelian")
    pi1 = {x: next(iter(d1.intersection(theta.block_of(x)))) for x in range(n)}
    pi2 = {x: next(iter(d2.intersection(theta.block_of(x)))) for x in range(n)}
    sigma = ElementMap(n, n, [certificate.apply(x, pi1[x], pi2[x]) for x in range(n)])
    if not sigma.is_bijective():
        raise ValueError("transversal map is not bijective")
    if not is_homomorphism(algebra, algebra, sigma):
        raise ValueError("transversal map is not an endomorphism")
    if {sigma(x) for x in d1} != d2:
        raise ValueError("transversal map does not carry D1 onto D2")
    for x in range(n):
        if not theta.related(sigma(x), x):
            raise ValueError("transversal map moves an element out of its class")
    return sigma


# ---------------------------------------------------------------------------
# Law harness.
# ---------------------------------------------------------------------------


def _is_minimal_congruence(algebra: FiniteAlgebra, theta: Partition) -> bool:
    if theta.rank == 0:
        return False
    for blk in theta.blocks:
        for a, b in itertools.combinations(blk, 2):
            if principal_congruence(algebra, a, b) != theta:
                return False
    return True


def _class_layout(theta: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(members, sizes, starts): the elements sorted block by block, and
    block i as members[starts[i] : starts[i] + sizes[i]]."""
    label = np.array(theta.index, dtype=np.int64)
    sizes = np.bincount(label)
    return np.argsort(label, kind="stable"), sizes, np.cumsum(sizes) - sizes


def subuniverse_transversals(
    algebra: FiniteAlgebra, theta: Partition, *, cap: int = 4096
) -> list[frozenset[int]]:
    """All transversals of theta that are subuniverses, in the order of
    `itertools.product(*theta.blocks)`.  Every candidate is a column of one
    array, and `core._closed_columns` tests them all together."""
    total = 1
    for blk in theta.blocks:
        total *= len(blk)
        if total > cap:
            raise CapExceededError("transversal scan", cap)
    members, sizes, starts = _class_layout(theta)
    # candidate t takes element t // stride % size of each block: the
    # row-major order of the product
    stride = total // np.cumprod(sizes)
    picks = np.arange(total) // stride[:, None] % sizes[:, None]
    columns = members[starts[:, None] + picks]
    closed = core._closed_columns(algebra, columns)
    return [frozenset(columns[:, t].tolist()) for t in np.flatnonzero(closed).tolist()]


def _reflexive_closure(algebra: FiniteAlgebra, a: int, b: int) -> np.ndarray:
    """rho(a, b), the reflexive subuniverse of A^2 generated by (a, b), as
    its n x n boolean matrix: one closure."""
    n = algebra.size
    rho, _ = closure_in_power(
        algebra, 2, [(x, x) for x in range(n)] + [(a, b)], cap_name="reflexive closure"
    )
    rows = np.array(rho, dtype=np.int64)
    r = np.zeros((n, n), dtype=bool)
    r[rows[:, 0], rows[:, 1]] = True
    return r


def _reflexive_witness(algebra: FiniteAlgebra, thetas: Sequence[Partition]):
    """The first (theta, (a, b)), a != b, in the order of `thetas` and of
    `theta.pairs()`, whose rho(a, b) is not a congruence; None when every
    one is.

    rho(a, b) is {(p(a), p(b))} over the unary polynomials p.  The pairs of
    one strongly connected component of the pair graph of
    `_principal_congruences` map onto each other by composites of basic
    translations, so their rho are equal up to converse, which keeps
    symmetry and transitivity.  One closure per component therefore
    decides every pair of it, for every theta, and the first failing pair
    of a theta is the first pair of its first failing component.
    """
    n = algebra.size
    component = _principal_congruences(algebra)[2]
    verdicts: dict[int, bool] = {}
    for theta in thetas:
        label = np.array(theta.index, dtype=np.int64)
        a, b = np.nonzero((label[:, None] == label) & ~np.eye(n, dtype=bool))
        # theta.pairs() order: block by block, then lexicographic
        order = np.argsort(label[a], kind="stable")
        a, b = a[order], b[order]
        comps = component[a * n + b]
        order = np.argsort(comps, kind="stable")
        leads = order[np.r_[True, comps[order][1:] != comps[order][:-1]]]
        for i in np.sort(leads).tolist():
            c = int(comps[i])
            if c not in verdicts:
                r = _reflexive_closure(algebra, int(a[i]), int(b[i]))
                # symmetric and transitive: R == R^T and R R <= R
                verdicts[c] = bool((r == r.T).all() and not (np.matmul(r, r) & ~r).any())
            if not verdicts[c]:
                return theta, (int(a[i]), int(b[i]))
    return None


def _commutation_witness(
    algebra: FiniteAlgebra,
    d: np.ndarray,
    thetas: Sequence[Partition],
    rng: np.random.Generator,
    count: int,
):
    """The first sampled (theta, a, b, c) with d(f(a), f(b), f(c)) !=
    f(d(a, b, c)) for a basic operation f, or None.

    Per theta and operation of arity k, `count` cases are drawn in one
    batch: for each of the k coordinates a block of theta uniformly, then
    for each of a, b and c an element uniformly within that block.  Both
    sides are one gather over the batch; the witness is the first failing
    case in draw order, as tuples of ints.
    """
    n = algebra.size
    for theta in thetas:
        members, sizes, starts = _class_layout(theta)
        for op in algebra.operations:
            k, f = op.arity, op.array()
            blocks = rng.integers(len(sizes), size=(count, k))
            args = members[starts[blocks] + rng.integers(sizes[blocks], size=(3, count, k))]
            place = n ** np.arange(k - 1, -1, -1)
            fa, fb, fc = f[args @ place]
            lhs = d[(fa * n + fb) * n + fc]
            rhs = f[d[(args[0] * n + args[1]) * n + args[2]] @ place]
            bad = np.flatnonzero(lhs != rhs)
            if bad.size:
                return (theta, *(tuple(x[bad[0]].tolist()) for x in args))
    return None


def check_wdt_laws(
    algebra: FiniteAlgebra,
    certificate: WdtCertificate,
    *,
    seed: int = 0,
    sample_size: int = 1500,
) -> Report:
    """Consequences of having a weak difference term, checked executably:

    - reflexive-subuniverse: principal reflexive subuniverses of A^2 inside an
      abelian congruence are congruences (symmetric and transitive; Kearnes
      and Szendrei, IJAC 8, 1998), decided by one closure per strongly
      connected component of the pair graph (`_reflexive_witness`);
    - polynomial-commutation: d commutes with (sampled) polynomials on tuples
      drawn from classes of an abelian congruence; `sample_size // (number
      of operations)` cases per theta and operation, drawn in one batch from
      numpy's `default_rng(seed)` (`_commutation_witness`);
    - term-agreement: distinct passing ternary tables agree on abelian classes;
    - transversal-maximality: a subuniverse transversal of an abelian minimal
      congruence is a maximal proper subuniverse;
    - class-size-prime-power: for an abelian minimal congruence, one prime p
      has every class group of exponent p, hence class sizes p^k.
    """
    if not certificate.verdict:
        raise ValueError("need a valid certificate")
    n = algebra.size
    con = congruence_lattice(algebra).elements
    abelians = [t for t in con if t.rank > 0 and is_abelian(algebra, t)]
    minimal_abelians = [t for t in abelians if _is_minimal_congruence(algebra, t)]
    items = []

    witness = _reflexive_witness(algebra, abelians)
    items.append(
        CheckItem(
            id="reflexive-subuniverse",
            anchor="wdt/reflexive-subuniverse",
            statement="reflexive subuniverses inside an abelian congruence are congruences",
            passed=witness is None,
            witness=witness,
        )
    )

    count = sample_size // max(1, len(algebra.operations))
    rng = np.random.default_rng(seed)
    witness = _commutation_witness(algebra, certificate.operation.array(), abelians, rng, count)
    items.append(
        CheckItem(
            id="polynomial-commutation",
            anchor="wdt/polynomial-commutation",
            statement="d commutes with polynomials on abelian classes (sampled)",
            passed=witness is None,
            witness=witness,
        )
    )

    witness = None
    compared = False
    # a term-derived certificate is the deterministic clone search's own
    # first hit, so searching again could only find that same table
    own_hit = certificate.provenance == "term-derived"
    other = None
    if not own_hit:
        try:  # the first hit of a small clone search
            found = search_wdt(algebra, cap=3000)
            other = None if found is None else found.operation
        except CapExceededError:
            pass
    if other is not None and other != certificate.operation:
        compared = bool(abelians)
        differ = certificate.operation.array() != other.array()
        x, y, z = np.indices((n, n, n)).reshape(3, -1)
        for theta in abelians:
            label = np.array(theta.index)
            hit = np.flatnonzero(differ & (label[x] == label[y]) & (label[y] == label[z]))
            if hit.size:
                # the first block, then the first triple of that block
                i = hit[np.argmin(label[x[hit]])]
                witness = (theta, (int(x[i]), int(y[i]), int(z[i])))
                break
    if compared:
        note = ""
    elif own_hit:
        note = "skipped: certificate is the clone search's own first hit"
    else:
        note = "skipped: no passing table other than the certificate's to compare"
    items.append(
        CheckItem(
            id="term-agreement",
            anchor="wdt/term-agreement",
            statement="any two passing ternary tables agree on abelian classes",
            passed=witness is None if compared else None,
            witness=witness,
            note=note,
        )
    )

    witness = None
    checked_any = False
    for theta in minimal_abelians:
        try:
            transversals = subuniverse_transversals(algebra, theta)
        except CapExceededError:
            continue
        for s in transversals:
            checked_any = True
            for a in range(n):
                if a in s:
                    continue
                if generate_subuniverse(algebra, s | {a}) != frozenset(range(n)):
                    witness = (theta, sorted(s), a)
                    break
            if witness:
                break
        if witness:
            break
    items.append(
        CheckItem(
            id="transversal-maximality",
            anchor="wdt/transversal-maximality",
            statement="subuniverse transversals of abelian minimal congruences are maximal",
            passed=witness is None if checked_any else None,
            witness=witness,
            note="" if checked_any else "skipped: no subuniverse transversal exists",
        )
    )

    witness = None
    detail = {}
    for theta in minimal_abelians:
        orders = set()
        sizes = set()
        for blk in theta.blocks:
            sizes.add(len(blk))
            grp = class_group(algebra, certificate, theta, blk[0])
            for x in blk:
                if x != grp.zero:
                    orders.add(grp.element_order(x))
        primes = orders
        if len(primes) > 1:
            witness = (theta, sorted(primes))
            break
        if primes:
            p = primes.pop()
            if not _is_prime(p) or any(not _is_prime_power(s, p) for s in sizes):
                witness = (theta, p, sorted(sizes))
                break
            detail[theta] = (p, sorted(sizes))
    items.append(
        CheckItem(
            id="class-size-prime-power",
            anchor="wdt/class-size-prime-power",
            statement="abelian minimal congruences have exponent-p class groups of size p^k",
            passed=witness is None,
            witness=witness,
            note=str({str(k): v for k, v in detail.items()}) if detail else "",
        )
    )
    return Report("weak difference term laws", tuple(items))


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))


def _is_prime_power(s: int, p: int) -> bool:
    while s % p == 0:
        s //= p
    return s == 1
