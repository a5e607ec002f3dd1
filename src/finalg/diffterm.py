"""Weak difference terms: verification, bounded search, class groups, and
affine decomposition of polynomials on abelian classes.

A ternary operation d is a weak difference term for an algebra when it is
idempotent and, for every congruence pair delta <= theta with theta/delta
abelian, d(a, a, b) and d(b, a, a) are delta-congruent to b for every
(a, b) in theta.  Restricted to a class of an abelian congruence such a d is
a Maltsev operation, and (class, +, e) with x + y := d(x, e, y) is an
abelian group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    CapExceededError,
    FiniteAlgebra,
    ElementMap,
    _apply_combos,
    closure_in_power,
    generate_subuniverse,
    is_homomorphism,
    power,
)
from .congruences import Partition, congruence_lattice, principal_congruence
from .centrality import centralizes, is_abelian
from .report import CheckItem, Report

DEFAULT_WDT_SEARCH_CAP = 10**5


@dataclass(frozen=True)
class WdtCertificate:
    """Outcome of checking one candidate ternary table against one algebra.

    `checked` lists every (scope label, delta, theta) pair that was examined;
    a true verdict means idempotence plus the defining congruence condition
    on all of them.  `provenance` records whether the table came with a term
    witness ("term-derived") or was attested by the caller ("table-attested").
    """

    algebra: FiniteAlgebra
    d: tuple[int, ...]
    scope: tuple[int, ...]
    checked: tuple[tuple[str, Partition, Partition], ...]
    verdict: bool
    failure: tuple | None = None
    provenance: str = "table-attested"

    def apply(self, x: int, y: int, z: int) -> int:
        n = self.algebra.size
        return self.d[(x * n + y) * n + z]


def _abelian_quotient_pairs(algebra: FiniteAlgebra) -> list[tuple[Partition, Partition]]:
    """All (delta, theta) in Con(A)^2 with delta <= theta and theta/delta abelian."""
    cached = algebra._cache.get("abelian_pairs")
    if cached is not None:
        return cached
    con = congruence_lattice(algebra).elements
    out = [
        (delta, theta)
        for delta in con
        for theta in con
        if delta.leq(theta) and centralizes(algebra, theta, theta, delta).holds
    ]
    algebra._cache["abelian_pairs"] = out
    return out


def _lift_table_to_power(d: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """Coordinatewise lift of a ternary table on n elements to n^k elements."""
    if k == 1:
        return tuple(d)
    m = n**k
    darr = np.asarray(d, dtype=np.int64)
    xs = np.arange(m, dtype=np.int64)
    digits = [(xs // n ** (k - 1 - j)) % n for j in range(k)]
    out = np.zeros(m**3, dtype=np.int64)
    grids = np.indices((m, m, m)).reshape(3, -1)
    acc = np.zeros(grids.shape[1], dtype=np.int64)
    for j in range(k):
        dx = digits[j][grids[0]]
        dy = digits[j][grids[1]]
        dz = digits[j][grids[2]]
        acc = acc * n + darr[(dx * n + dy) * n + dz]
    out = acc
    return tuple(out.tolist())


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
    """
    n = algebra.size
    d = tuple(int(x) for x in d)
    if len(d) != n**3:
        raise ValueError(f"ternary table must have {n ** 3} entries, got {len(d)}")
    for v in d:
        if not 0 <= v < n:
            raise ValueError(f"table entry {v} out of range")
    scope = tuple(sorted(set(int(k) for k in scope)))
    checked: list[tuple[str, Partition, Partition]] = []

    for x in range(n):
        if d[(x * n + x) * n + x] != x:
            return WdtCertificate(
                algebra, d, scope, tuple(checked), False, ("idempotence", x), provenance
            )

    for k in scope:
        alg_k = algebra if k == 1 else power(algebra, k)
        d_k = d if k == 1 else _lift_table_to_power(d, n, k)
        m = alg_k.size
        label = f"A^{k}" if k > 1 else "A"
        for delta, theta in _abelian_quotient_pairs(alg_k):
            checked.append((label, delta, theta))
            didx = delta.index
            for blk in theta.blocks:
                for a in blk:
                    for b in blk:
                        left = d_k[(a * m + a) * m + b]
                        right = d_k[(b * m + a) * m + a]
                        if didx[left] != didx[b] or didx[right] != didx[b]:
                            return WdtCertificate(
                                algebra,
                                d,
                                scope,
                                tuple(checked),
                                False,
                                ("congruence-condition", label, delta, theta, (a, b)),
                                provenance,
                            )
    return WdtCertificate(algebra, d, scope, tuple(checked), True, None, provenance)


def certificate_from_operation(
    algebra: FiniteAlgebra, op_name: str, *, scope: Iterable[int] = (1,)
) -> WdtCertificate:
    """Verify a basic ternary operation of the algebra as its weak difference term."""
    op = algebra.operation(op_name)
    if op.arity != 3:
        raise ValueError(f"operation '{op_name}' is not ternary")
    return verify_wdt(algebra, op.table, scope=scope, provenance=f"basic operation '{op_name}'")


def search_wdt(
    algebra: FiniteAlgebra, *, cap: int = DEFAULT_WDT_SEARCH_CAP
) -> WdtCertificate | None:
    """Breadth-first search of the ternary term clone for a weak difference term.

    The clone is generated pointwise from the three projections; candidates
    are tested level by level (term depth), in lexicographic table order
    within each level, and the first passing table is returned with a
    term-derived certificate.  Returns None when the whole clone (within the
    cap) fails.
    """
    n = algebra.size
    w = n**3
    idx = np.arange(w, dtype=np.int64)
    projections = np.stack([idx // (n * n), (idx // n) % n, idx % n]).astype(np.int64)

    quotient_pairs = _abelian_quotient_pairs(algebra)
    xs = np.arange(n, dtype=np.int64)
    diag = (xs * n + xs) * n + xs

    def passes(row: np.ndarray) -> bool:
        if not np.array_equal(row[diag], xs):
            return False
        for delta, theta in quotient_pairs:
            didx = delta.index
            for blk in theta.blocks:
                for a in blk:
                    for b in blk:
                        if (
                            didx[row[(a * n + a) * n + b]] != didx[b]
                            or didx[row[(b * n + a) * n + a]] != didx[b]
                        ):
                            return False
        return True

    known = {row.tobytes() for row in projections}
    for row in projections:
        if passes(row):
            return verify_wdt(algebra, row.tolist(), provenance="term-derived")

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
            for row in np.unique(batch, axis=0):
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
        fresh = np.unique(np.array(fresh_rows, dtype=np.int64), axis=0)
        for row in fresh:
            if passes(row):
                return verify_wdt(algebra, row.tolist(), provenance="term-derived")
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
    """Grp(theta, e) built from a verified weak difference term."""
    if not certificate.verdict or certificate.algebra != algebra:
        raise ValueError("need a valid certificate for this algebra")
    key = ("class_group", certificate.d, theta, e)
    cached = algebra._cache.get(key)
    if cached is not None:
        return cached
    if not is_abelian(algebra, theta):
        raise ValueError("theta is not abelian")
    grp = ClassGroup(algebra, theta, e, certificate.d)
    algebra._cache[key] = grp
    return grp


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
        if generate_subuniverse(algebra, dset) != dset:
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


def subuniverse_transversals(
    algebra: FiniteAlgebra, theta: Partition, *, cap: int = 4096
) -> list[frozenset[int]]:
    """All transversals of theta that are subuniverses (combination scan)."""
    total = 1
    for blk in theta.blocks:
        total *= len(blk)
        if total > cap:
            raise CapExceededError("transversal scan", cap)
    out = []
    for combo in itertools.product(*theta.blocks):
        cand = frozenset(combo)
        if generate_subuniverse(algebra, cand) == cand:
            out.append(cand)
    return out


def check_wdt_laws(
    algebra: FiniteAlgebra,
    certificate: WdtCertificate,
    *,
    seed: int = 0,
    sample_size: int = 1500,
) -> Report:
    """Consequences of having a weak difference term, checked executably:

    - reflexive-subuniverse: principal reflexive subuniverses of A^2 inside an
      abelian congruence are congruences (symmetric and transitive);
    - polynomial-commutation: d commutes with (sampled) polynomials on tuples
      drawn from classes of an abelian congruence;
    - term-agreement: distinct passing ternary tables agree on abelian classes;
    - transversal-maximality: a subuniverse transversal of an abelian minimal
      congruence is a maximal proper subuniverse;
    - class-size-prime-power: for an abelian minimal congruence, one prime p
      has every class group of exponent p, hence class sizes p^k.
    """
    import random

    if not certificate.verdict:
        raise ValueError("need a valid certificate")
    rng = random.Random(seed)
    n = algebra.size
    con = congruence_lattice(algebra).elements
    abelians = [t for t in con if t.rank > 0 and is_abelian(algebra, t)]
    minimal_abelians = [t for t in abelians if _is_minimal_congruence(algebra, t)]
    items = []

    witness = None
    for theta in abelians:
        diag = [(x, x) for x in range(n)]
        for a, b in theta.pairs():
            if a == b:
                continue
            rho, _ = closure_in_power(algebra, 2, diag + [(a, b)], cap_name="reflexive closure")
            rho_set = set(rho)
            ok = all((v, u) in rho_set for u, v in rho_set)
            if ok:
                for u, v in rho_set:
                    for v2, w in rho_set:
                        if v2 == v and (u, w) not in rho_set:
                            ok = False
                            break
                    if not ok:
                        break
            if not ok:
                witness = (theta, (a, b))
                break
        if witness:
            break
    items.append(
        CheckItem(
            id="reflexive-subuniverse",
            anchor="wdt/reflexive-subuniverse",
            statement="reflexive subuniverses inside an abelian congruence are congruences",
            passed=witness is None,
            witness=witness,
        )
    )

    witness = None
    polys = []
    for op in algebra.operations:
        polys.append((op.arity, lambda args, t=op.array(), k=op.arity: int(t[_flat(args, n)])))
    d = certificate.d
    for theta in abelians:
        for arity, fn in polys:
            cases = []
            for _ in range(sample_size // max(1, len(polys))):
                blocks = [rng.choice(theta.blocks) for _ in range(arity)]
                triple = [
                    tuple(rng.choice(blk) for blk in blocks),
                    tuple(rng.choice(blk) for blk in blocks),
                    tuple(rng.choice(blk) for blk in blocks),
                ]
                cases.append(triple)
            for aa, bb, cc in cases:
                lhs = d[(fn(aa) * n + fn(bb)) * n + fn(cc)]
                rhs = fn(tuple(d[(aa[i] * n + bb[i]) * n + cc[i]] for i in range(arity)))
                if lhs != rhs:
                    witness = (theta, aa, bb, cc)
                    break
            if witness:
                break
        if witness:
            break
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
    other = _searched_table(algebra)
    if other is not None and other != certificate.d:
        for theta in abelians:
            for blk in theta.blocks:
                for x, y, z in itertools.product(blk, repeat=3):
                    compared = True
                    i = (x * n + y) * n + z
                    if certificate.d[i] != other[i]:
                        witness = (theta, (x, y, z))
                        break
                if witness:
                    break
            if witness:
                break
    items.append(
        CheckItem(
            id="term-agreement",
            anchor="wdt/term-agreement",
            statement="any two passing ternary tables agree on abelian classes",
            passed=witness is None if compared else None,
            witness=witness,
            note="" if compared else "skipped: no passing table other than the certificate's to compare",
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


def _flat(args: Sequence[int], n: int) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))


def _is_prime_power(s: int, p: int) -> bool:
    while s % p == 0:
        s //= p
    return s == 1


def _searched_table(algebra: FiniteAlgebra, *, cap: int = 3000) -> tuple | None:
    """The weak-difference-term table of a small clone search (its first
    hit), for the agreement law; None if the search finds none."""
    try:
        cert = search_wdt(algebra, cap=cap)
    except CapExceededError:
        return None
    return None if cert is None else cert.d
