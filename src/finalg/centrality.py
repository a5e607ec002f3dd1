"""Centrality: matrix sets, the term condition C(phi, theta; delta),
centralizers, abelianness, and the two-term condition.

A 2x2 matrix over the universe is stored as the 4-tuple (a1, a2, a3, a4)
whose columns are (a1, a2), (a3, a4) and whose rows are (a1, a3), (a2, a4).
The matrix set M(theta, phi) is the closure, under all operations applied
entrywise, of the seed set

    X(theta, phi) = {(c, d, c, d) : (c, d) in theta}
                  u {(a, a, b, b) : (a, b) in phi},

i.e. all matrices with two equal columns from theta or two equal rows from
phi.  C(phi, theta; delta) is the column condition on M(theta, phi): every
matrix has both columns in delta or neither.

The term condition is decided on one object.  Read as a relation on the
theta-pairs, M(theta, phi) has as its transitive closure the congruence
Delta of the pair algebra of theta generated by the diagonal pairs
((x, x), (y, y)) with (x, y) in phi.  The column condition survives the
chaining of matrices, so C(phi, theta; delta) holds exactly when membership
in delta is constant on every Delta-class (Freese and McKenzie, Commutator
Theory for Congruence Modular Varieties, 1987).  Delta is generated by the
congruence kernel of `congruences`, which works on the translations of the
pair algebra factored as t_a x t_b and never builds its tables.

With pi_delta the theta-pairs partitioned by delta-membership and core(pi_delta)
the largest congruence of the pair algebra A(theta) inside it, (delta : theta)
is {(x, y) : ((x, x), (y, y)) in core(pi_delta)}: C(phi, theta; delta) iff
Delta(theta, phi) lies in pi_delta, iff in core(pi_delta) (Delta is a
congruence), iff the diagonal pairs of phi, which generate Delta, do; and
x -> (x, x) is a homomorphism.  `centralizer` refines the classes of
Delta(theta, delta) to the core (Moore; Paige and Tarjan, SIAM J. Comput. 16,
1987) over the kernel's translation table, so it and the term condition
differ only in how a congruence of A(theta) is formed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import core
from .core import (
    DEFAULT_CLOSURE_CAP, CapExceededError, FiniteAlgebra, Quotient, closure_in_power, quotient
)
from .congruences import (
    Partition,
    _generate_congruence,
    _pair_translations,
    compose_relations,
    congruence_lattice,
    is_congruence,
    pull_partition,
    push_partition,
)
from .report import CheckItem, Report


class InconsistencyError(RuntimeError):
    """An internal check failed: a computed object lacks a property that the
    theory guarantees.  This is an implementation bug, not an input error."""


class Tolerance:
    """A reflexive symmetric compatible binary relation, as a pair set."""

    __slots__ = ("size", "pairs", "_hash")

    def __init__(self, size: int, pairs: Iterable[tuple[int, int]]):
        self.size = int(size)
        ps = set()
        for a, b in pairs:
            ps.add((int(a), int(b)))
            ps.add((int(b), int(a)))
        for x in range(self.size):
            ps.add((x, x))
        self.pairs = frozenset(ps)
        self._hash = hash((self.size, self.pairs))

    @classmethod
    def generated(cls, algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> "Tolerance":
        """Least tolerance of the algebra containing the given pairs."""
        seeds = set()
        for a, b in pairs:
            seeds.add((a, b))
            seeds.add((b, a))
        seeds.update((x, x) for x in range(algebra.size))
        members, _ = closure_in_power(algebra, 2, seeds, cap_name="tolerance")
        return cls(algebra.size, members)

    def related(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def pair_list(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Tolerance) and self.size == other.size and self.pairs == other.pairs

    def __hash__(self):
        return self._hash


def _pair_list(rel) -> list[tuple[int, int]]:
    if isinstance(rel, Partition):
        return sorted(rel.pairs())
    return rel.pair_list()


@dataclass(frozen=True)
class MatrixSet:
    """A set of 2x2 matrices over an algebra (role: X seed, generated M, or
    the horizontal-closure Dh of a delta congruence)."""

    algebra: FiniteAlgebra
    theta: object
    phi: object
    role: str
    matrices: tuple[tuple[int, int, int, int], ...]

    def __len__(self):
        return len(self.matrices)

    def __contains__(self, m):
        return tuple(m) in set(self.matrices)


def seed_matrices(algebra: FiniteAlgebra, theta, phi) -> list[tuple[int, int, int, int]]:
    """X(theta, phi): equal-column matrices from theta, equal-row from phi."""
    out = set()
    for c, d in _pair_list(theta):
        out.add((c, d, c, d))
    for a, b in _pair_list(phi):
        out.add((a, a, b, b))
    return sorted(out)


def generate_matrices(
    algebra: FiniteAlgebra, theta, phi, *, cap: int = DEFAULT_CLOSURE_CAP
) -> MatrixSet:
    """M(theta, phi): close X(theta, phi) under all operations entrywise.
    Raises `CapExceededError` when |M(theta, phi)| > cap, on a memo hit too."""

    def build() -> MatrixSet:
        members, _ = closure_in_power(
            algebra, 4, seed_matrices(algebra, theta, phi), cap=cap, cap_name="matrix set"
        )
        return MatrixSet(algebra, theta, phi, "M", tuple(members))

    ms = core._memo(algebra, (MatrixSet, theta, phi), build)
    if len(ms) > cap:
        raise CapExceededError("matrix set", cap)
    return ms


# ---------------------------------------------------------------------------
# The term condition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralityVerdict:
    """The outcome of C(phi, theta; delta).  A failing verdict's witness
    (a, b, c, d) names two theta-pairs (a, b) and (c, d) in one class of the
    diagonal congruence Delta, with (a, b) in delta and (c, d) not."""

    holds: bool
    witness: tuple[int, int, int, int] | None

    def __bool__(self):
        return self.holds


def generated_pair_congruence(
    base: FiniteAlgebra,
    theta: Partition,
    seed_pairs: Iterable[tuple[tuple[int, int], tuple[int, int]]],
):
    """Congruence of the pair algebra of theta generated by `seed_pairs`
    (pairs of theta-pairs), computed by the one congruence kernel of
    `congruences`, which works on the pair algebra's translations factored
    as t_a x t_b and never builds its tables.  Raises ValueError for a seed
    outside the pair algebra.

    Returns (pair_list, partition on pair indices), the pairs in
    lexicographic order.
    """
    pairs, roots = _generate_congruence(base, theta, seed_pairs)
    return pairs, Partition.from_labels(len(pairs), roots.tolist())


@core._memoized
def diagonal_pair_congruence(algebra: FiniteAlgebra, theta: Partition, phi: Partition):
    """Delta: the congruence of the pair algebra of theta generated by the
    diagonal pairs of phi, which is the transitive closure of M(theta, phi)
    read as a relation on theta-pairs.  Returns (pair_list, partition on
    pair indices), memoized on the algebra."""
    seeds = (((x, x), (y, y)) for x, y in phi.pairs() if x <= y)
    return generated_pair_congruence(algebra, theta, seeds)


@core._memoized
def centralizes(
    algebra: FiniteAlgebra, phi: Partition, theta: Partition, delta: Partition
) -> CentralityVerdict:
    """Decide C(phi, theta; delta).

    The verdict is read off Delta, the congruence of the pair algebra of
    theta generated by the diagonal pairs of phi: the term condition holds
    exactly when membership in delta is constant on every Delta-class.  A
    failing verdict's witness is the first class, in block order, that
    mixes a pair in delta with one outside it.  C(phi, 0; delta) holds
    without the kernel: every column of M(0, phi) is diagonal.
    """
    if theta.rank == 0 and theta.size == algebra.size:
        return CentralityVerdict(True, None)
    pairs, part = diagonal_pair_congruence(algebra, theta, phi)
    for blk in part.blocks:
        label0 = delta.related(*pairs[blk[0]])
        odd = next((i for i in blk[1:] if delta.related(*pairs[i]) != label0), None)
        if odd is not None:
            p, q = (pairs[blk[0]], pairs[odd]) if label0 else (pairs[odd], pairs[blk[0]])
            return CentralityVerdict(False, (p[0], p[1], q[0], q[1]))
    return CentralityVerdict(True, None)


def is_abelian(algebra: FiniteAlgebra, theta: Partition, delta: Partition | None = None) -> bool:
    """theta abelian (modulo delta): C(theta, theta; delta)."""
    if delta is None:
        delta = Partition.zero(algebra.size)
    elif not delta.leq(theta):
        raise ValueError("delta must lie below theta for the modulo form")
    return centralizes(algebra, theta, theta, delta).holds


def _refine(labels: np.ndarray, images, salt: np.ndarray | None) -> np.ndarray:
    """Moore's refinement of dense `labels` to the coarsest partition that
    the maps of `images()`, (offset, (s, k) image array) slices, respect; a
    round groups elements by their own and their images' labels, hashed by a
    wrapping dot product with `salt`, or exactly when salt is None."""
    count = labels.max() + 1
    while True:
        new = labels if salt is None else labels * salt[0]
        for lo, img in images():
            if salt is None:
                block = np.column_stack((new, labels[img].T))
                new = np.unique(block, axis=0, return_inverse=True)[1].reshape(-1)
            else:
                new = new + salt[1 + lo : 1 + lo + len(img)] @ labels[img]
        keys = core._distinct(new)
        if len(keys) <= count:
            return np.searchsorted(keys, new)
        labels, count = np.searchsorted(keys, new), len(keys)


@core._memoized
def centralizer(algebra: FiniteAlgebra, delta: Partition, theta: Partition) -> Partition:
    """(delta : theta): the largest congruence phi with C(phi, theta; delta),
    read off core(pi_delta) as the module docstring shows.  Raises
    ValueError when theta or delta is not a congruence."""
    if delta.rank and not is_congruence(algebra, delta):
        raise ValueError(f"{delta!r} is not a congruence of the algebra")
    n = algebra.size
    if theta.rank == 0 and theta.size == n:
        # C(phi, 0; delta) holds for every phi
        return Partition.one(n)
    pairs, pos, p0, p1, scaled, flat, rows0, rows1 = _pair_translations(algebra, theta)
    # the refinement runs on the classes of Delta(theta, delta), which lie
    # inside the core (Delta(theta, 0) is 0); the kernel's Delta is memoized
    # for `centralizes`, and refining its classes beats refining every pair
    if delta.rank:
        part = diagonal_pair_congruence(algebra, theta, delta)[1]
        cls = np.array(part.index, dtype=np.int64)
        reps = np.array([blk[0] for blk in part.blocks], dtype=np.int64)
    else:
        cls = reps = np.arange(len(pairs))
    # dense labels of pi_delta: 0 on delta, which holds the first pair (0, 0)
    didx = np.array(delta.index, dtype=np.int64)
    start = (didx[p0] != didx[p1]).astype(np.int64)
    if (start != start[reps][cls]).any():
        raise InconsistencyError("delta-membership varies on a class of Delta(theta, delta)")
    start, x0, x1 = start[reps], p0[reps], p1[reps]
    # a slice of the gather holds about six int64 temporaries per cell
    step = max(1, core._CHUNK_CELLS // (6 * len(reps)))

    def images():
        for lo in range(0, len(rows0), step):
            yield lo, cls[pos[scaled[rows0[lo : lo + step] + x0] + flat[rows1[lo : lo + step] + x1]]]

    # hash collisions only merge classes, so a result that is stable and
    # inside pi_delta is the core; any other is refined again exactly
    for salt in (core._salt(1 << len(rows0).bit_length()), None):
        labels = _refine(start, images, salt)
        order = np.argsort(labels)
        rep = order[np.searchsorted(labels[order], labels)]
        if (start == start[rep]).all() and all((labels[i] == labels[i[:, rep]]).all() for _, i in images()):
            break
    else:
        raise InconsistencyError("exact refinement is not stable inside pi_delta")
    return Partition.from_labels(n, labels[cls[pos[np.arange(n) * (n + 1)]]].tolist())


@dataclass(frozen=True)
class TwoTermVerdict:
    holds: bool
    witness: tuple[tuple[int, int, int, int], tuple[int, int, int, int]] | None

    def __bool__(self):
        return self.holds


@core._memoized
def two_term_condition(algebra: FiniteAlgebra, theta: Partition) -> TwoTermVerdict:
    """Two matrices of M(theta, theta) agreeing in three entries agree in all
    four.  The check runs during generation, so a failing congruence aborts
    at the first conflicting pair; a passing verdict is exhaustive over the
    fully generated matrix set.  M(0, 0) is the constant matrices, so
    theta = 0 passes without a closure."""
    if theta.rank == 0 and theta.size == algebra.size:
        return TwoTermVerdict(True, None)
    seen: dict[tuple[int, int, int], int] = {}
    conflict: list = []

    def check(rows: np.ndarray) -> int | None:
        for i, row in enumerate(map(tuple, rows.tolist())):
            head, last = row[:3], row[3]
            other = seen.setdefault(head, last)
            if other != last:
                conflict.append((head + (other,), row))
                return i
        return None

    _, witness = closure_in_power(
        algebra, 4, seed_matrices(algebra, theta, theta),
        cap_name="matrix set", violation=check,
    )
    if witness is not None:
        return TwoTermVerdict(False, conflict[0])
    return TwoTermVerdict(True, None)


# ---------------------------------------------------------------------------
# Law harness for the centralizer calculus.
# ---------------------------------------------------------------------------


def check_centrality_laws(
    algebra: FiniteAlgebra,
    *,
    certificate=None,
    max_cases: int = 4000,
    seed: int = 0,
) -> Report:
    """Executable checks of the quotient/perspectivity laws of centralizers.

    The two quotient laws run unconditionally.  The laws that assume a weak
    difference term run only when `certificate` (a verified WdtCertificate
    for this algebra) is supplied.  Case enumeration is exhaustive up to
    `max_cases` per law, after which cases are sampled with the given seed.
    """
    lattice = congruence_lattice(algebra)
    con = lattice.elements
    rng = random.Random(seed)
    items = []

    quotients: dict[Partition, Quotient] = {}

    def quotient_by(p: Partition) -> Quotient:
        """The quotient by p, built once per harness run so that its memo
        (congruence lattice, pair congruences, verdicts) is shared by every law."""
        if p not in quotients:
            quotients[p] = quotient(algebra, p, check=False)
        return quotients[p]

    def select(cases: list) -> list:
        if len(cases) <= max_cases:
            return cases
        return rng.sample(cases, max_cases)

    # (delta/delta' : theta/delta') = (delta : theta)/delta'
    cases = [
        (dp, d, t)
        for dp in con
        for d in con
        for t in con
        if dp.leq(d) and d.leq(t)
    ]
    witness = None
    for dp, d, t in select(cases):
        q = quotient_by(dp)
        proj = q.projection
        m = q.algebra.size
        lhs = centralizer(q.algebra, push_partition(d, proj, m), push_partition(t, proj, m))
        rhs = push_partition(centralizer(algebra, d, t), proj, m)
        if lhs != rhs:
            witness = (dp, d, t, lhs, rhs)
            break
    items.append(
        CheckItem(
            id="quotient-centralizer",
            anchor="centrality/quotient-law",
            statement="centralizers computed in a quotient match the pushed-down centralizer",
            passed=witness is None,
            witness=witness,
        )
    )

    # f^{-1}((lambda : mu)) = (f^{-1}(lambda) : f^{-1}(mu)) for natural maps f
    witness = None
    for dp in con:
        q = quotient_by(dp)
        proj = q.projection
        qcon = congruence_lattice(q.algebra).elements
        for lam in qcon:
            for mu in qcon:
                if not lam.leq(mu):
                    continue
                lhs = pull_partition(centralizer(q.algebra, lam, mu), proj, algebra.size)
                rhs = centralizer(
                    algebra,
                    pull_partition(lam, proj, algebra.size),
                    pull_partition(mu, proj, algebra.size),
                )
                if lhs != rhs:
                    witness = (dp, lam, mu, lhs, rhs)
                    break
            if witness:
                break
        if witness:
            break
    items.append(
        CheckItem(
            id="preimage-centralizer",
            anchor="centrality/preimage-law",
            statement="centralizers commute with preimages along natural surjections",
            passed=witness is None,
            witness=witness,
        )
    )

    if certificate is None or not certificate.verdict:
        for cid, anchor, stmt in [
            ("abelian-join-absorption", "centrality/join-absorption", "C(t,t;d) forces t v d = d o t o d with abelian quotient"),
            ("perspective-abelian-transfer", "centrality/perspectivity-abelian", "perspective intervals are abelian together"),
            ("perspective-centralizer-transfer", "centrality/perspectivity-centralizer", "perspective intervals have equal centralizers"),
        ]:
            items.append(
                CheckItem(
                    id=cid,
                    anchor=anchor,
                    statement=stmt,
                    passed=None,
                    note="skipped: no weak-difference-term certificate supplied",
                )
            )
        return Report("centrality laws", tuple(items))

    # C(theta, theta; delta) => theta v delta = delta o theta o delta and
    # (theta v delta)/delta abelian
    witness = None
    for theta in con:
        for delta in con:
            if not centralizes(algebra, theta, theta, delta).holds:
                continue
            joined = theta.join(delta)
            composed = set()
            for a, c in compose_relations(delta, theta):
                composed.update((a, e) for e in delta.block_of(c))
            if composed != set(joined.pairs()):
                witness = ("composition", theta, delta)
                break
            q = quotient_by(delta)
            up = push_partition(joined, q.projection, q.algebra.size)
            if not is_abelian(q.algebra, up):
                witness = ("abelian-quotient", theta, delta)
                break
        if witness:
            break
    items.append(
        CheckItem(
            id="abelian-join-absorption",
            anchor="centrality/join-absorption",
            statement="C(t,t;d) forces t v d = d o t o d with abelian quotient",
            passed=witness is None,
            witness=witness,
        )
    )

    # perspectivity transfers: enumerate (tau, delta) and set
    # sigma = tau ^ delta, eps = tau v delta
    wit_ab = None
    wit_cent = None
    for tau in con:
        for delta in con:
            sigma = tau.meet(delta)
            eps = tau.join(delta)
            qs = quotient_by(sigma)
            ab_low = is_abelian(qs.algebra, push_partition(tau, qs.projection, qs.algebra.size))
            qd = quotient_by(delta)
            ab_high = is_abelian(qd.algebra, push_partition(eps, qd.projection, qd.algebra.size))
            if ab_low != ab_high and wit_ab is None:
                wit_ab = (sigma, tau, delta, eps, ab_low, ab_high)
            is_cover = (
                delta != eps
                and delta in lattice._pos
                and eps in lattice._pos
                and (lattice.position(delta), lattice.position(eps)) in lattice.covers
            )
            if (ab_high or is_cover) and delta != eps and sigma != tau:
                if centralizer(algebra, delta, eps) != centralizer(algebra, sigma, tau):
                    if wit_cent is None:
                        wit_cent = (sigma, tau, delta, eps)
    items.append(
        CheckItem(
            id="perspective-abelian-transfer",
            anchor="centrality/perspectivity-abelian",
            statement="perspective intervals are abelian together",
            passed=wit_ab is None,
            witness=wit_ab,
        )
    )
    items.append(
        CheckItem(
            id="perspective-centralizer-transfer",
            anchor="centrality/perspectivity-centralizer",
            statement="perspective intervals have equal centralizers (abelian or covering case)",
            passed=wit_cent is None,
            witness=wit_cent,
        )
    )
    return Report("centrality laws", tuple(items))
