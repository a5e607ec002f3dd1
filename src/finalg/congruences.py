"""Partitions, congruences, and the congruence lattice of a finite algebra.

Partitions are stored normalized (blocks sorted by least element, elements
sorted inside each block) so they are hashable and can be compared in the
refinement order.  Their `index` is the restricted-growth label tuple of the
blocks; joins, meets and generated congruences build partitions straight
from such labels, and only the public constructor validates blocks.

Congruences are generated by one kernel, `_generate_congruence`: Freese's
worklist (R. Freese, Computing congruences efficiently, Algebra Universalis
59, 2008) on the pair algebra of a congruence theta, run a round at a time
in numpy.  A unary translation of the pair algebra is a product t_a x t_b of
two basic translations of the algebra (one basic operation, one free slot,
parameter tuples a and b related by theta coordinatewise, that is, with the
same tuple C of theta-classes), so the kernel keeps the deduplicated basic
translations once per algebra and, once per theta, the union of R_C x R_C as
pairs of row ids, R_C the row ids of the tuples in C; no table of the pair
algebra is built.  `congruence_generated` is the case theta = 0, whose pair
algebra, the diagonal, is a copy of the algebra; the pair algebras of the
term condition (`centrality.generated_pair_congruence`) are the others.

Principal congruences do not run the kernel.  `_principal_congruences`
finds every Cg(a, b) in one pass over the graph on unordered pairs whose
edges are the basic translations (the kernel's translations of theta = 0,
one gather for all pairs): by Mal'cev, Cg(a, b) is the equivalence closure
of the pairs {a, b} reaches, so it is read off the strongly connected
components in the sinks-first order of Tarjan's algorithm (R. Tarjan,
Depth-first search and linear graph algorithms, SIAM J. Comput. 1, 1972).
`principal_congruence` looks its answer up there, and the weak-difference-
term law harness reads each pair's component from the same pass.

Con(A) is the closure of 0 and the distinct principal congruences under
joining with a principal congruence.  Its order matrix, join and meet tables
and cover relation are built in numpy only when first read.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import core
from .core import CapExceededError, FiniteAlgebra

DEFAULT_LATTICE_CAP = 10**5


class UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


class Partition:
    """An equivalence relation on {0..n-1} in normalized block form."""

    __slots__ = ("size", "blocks", "index", "_hash")

    def __init__(self, size: int, blocks: Iterable[Iterable[int]]):
        size = int(size)
        seen = [False] * size
        norm = []
        for blk in blocks:
            blk = tuple(sorted(int(x) for x in blk))
            if not blk:
                continue
            for x in blk:
                if not 0 <= x < size:
                    raise ValueError(f"element {x} out of range")
                if seen[x]:
                    raise ValueError(f"element {x} appears in two blocks")
                seen[x] = True
            norm.append(blk)
        if not all(seen):
            missing = [x for x in range(size) if not seen[x]]
            raise ValueError(f"elements {missing} not covered")
        norm.sort(key=lambda blk: blk[0])
        self.size = size
        self.blocks = tuple(norm)
        index = [0] * size
        for i, blk in enumerate(norm):
            for x in blk:
                index[x] = i
        self.index = tuple(index)
        self._hash = hash((self.size, self.blocks))

    # -- constructors --------------------------------------------------

    @classmethod
    def _from_index(cls, n: int, rgs: tuple[int, ...]) -> "Partition":
        """Trusted constructor from a restricted-growth label tuple (label 0
        first, each new label one more than the largest before it), which is
        the `index` of the result: the blocks fall out in normal form in one
        pass, with no sort and no validation."""
        blocks: list[list[int]] = []
        for x, lab in enumerate(rgs):
            if lab == len(blocks):
                blocks.append([x])
            else:
                blocks[lab].append(x)
        self = cls.__new__(cls)
        self.size = n
        self.blocks = tuple(map(tuple, blocks))
        self.index = rgs
        self._hash = hash((n, self.blocks))
        return self

    @classmethod
    def zero(cls, n: int) -> "Partition":
        return cls._from_index(n, tuple(range(n)))

    @classmethod
    def one(cls, n: int) -> "Partition":
        return cls._from_index(n, (0,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        uf = UnionFind(n)
        for a, b in pairs:
            uf.union(a, b)
        return cls.from_labels(n, [uf.find(x) for x in range(n)])

    @classmethod
    def from_labels(cls, n: int, labels: Sequence) -> "Partition":
        """The partition whose blocks are the elements with equal labels;
        labels are any hashable values, one per element."""
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} elements")
        relabel: dict = {}
        return cls._from_index(n, tuple(relabel.setdefault(lab, len(relabel)) for lab in labels))

    # -- relation view ---------------------------------------------------

    def related(self, a: int, b: int) -> bool:
        return self.index[a] == self.index[b]

    def block_of(self, a: int) -> tuple[int, ...]:
        return self.blocks[self.index[a]]

    def pairs(self) -> Iterable[tuple[int, int]]:
        for blk in self.blocks:
            for a in blk:
                for b in blk:
                    yield (a, b)

    @property
    def rank(self) -> int:
        return self.size - len(self.blocks)

    # -- order and lattice operations -------------------------------------

    def leq(self, other: "Partition") -> bool:
        """Refinement order: every block of self lies inside a block of other,
        i.e. pairing the labels of self and other gives one pair per block
        of self."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return len(set(zip(self.index, other.index))) == len(self.blocks)

    def join(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise ValueError("size mismatch")
        # merge the blocks of self, by their labels, along the blocks of other
        index = self.index
        uf = UnionFind(len(self.blocks))
        for blk in other.blocks:
            first = index[blk[0]]
            for x in blk[1:]:
                uf.union(first, index[x])
        return Partition.from_labels(self.size, [uf.find(lab) for lab in index])

    def meet(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Partition.from_labels(self.size, list(zip(self.index, other.index)))

    def __or__(self, other):
        return self.join(other)

    def __and__(self, other):
        return self.meet(other)

    def __le__(self, other):
        return self.leq(other)

    def __lt__(self, other):
        return self != other and self.leq(other)

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.size == other.size
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = "|".join(",".join(str(x) for x in blk) for blk in self.blocks)
        return f"Partition({body})"


def compose_relations(p: Partition, q: Partition) -> frozenset[tuple[int, int]]:
    """Relation composition p o q = {(a, c) : exists b with a p b and b q c}."""
    out = set()
    for a in range(p.size):
        blk = p.block_of(a)
        for b in blk:
            out.update((a, c) for c in q.block_of(b))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Principal congruences and generated congruences.
# ---------------------------------------------------------------------------


@core._memoized
def _base_translations(algebra: FiniteAlgebra):
    """(table, keyed): the distinct unary basic translations of the algebra
    as the rows of one (t, n) table, and (params, weights, base, kind), which
    key every parameter tuple for `_memoized_pair_translations`.  Memoized.

    A basic translation fixes one argument slot of a basic operation and
    fills the others with a parameter tuple.  `params` lists the tuples of
    each (operation, slot) in lexicographic order, padded in front with 0.
    For labels with labels[0] = 0, labels[params] @ weights + base is
    (s + c) * t + r: the tuples of the (operation, slot) start at s, c codes
    the labels of the tuple in base n and r is the row id of its translation.
    kind is (k, k'): k[r] is 0 for a constant row, 1 for the identity and 2
    otherwise, and k' is k with 3 for 2, so that k[i] == k'[j] exactly when
    rows i and j are both constant or both the identity.
    """
    n = algebra.size
    blocks = [
        np.moveaxis(op.array().reshape((n,) * op.arity), slot, -1).reshape(-1, n)
        for op in algebra.operations
        for slot in range(op.arity)
    ]
    rows = np.concatenate(blocks) if blocks else np.empty((0, n), dtype=np.int64)
    keys = rows.view(np.dtype((np.void, rows.itemsize * n))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    table = rows[first]
    t = len(table)
    place = np.concatenate([np.arange(len(b)) for b in blocks]) if blocks else np.empty(0, dtype=np.int64)
    w = max([op.arity - 1 for op in algebra.operations] + [0])
    powers = n ** np.arange(w - 1, -1, -1, dtype=np.int64)
    kind = np.where((table == table[:, :1]).all(axis=1), 0, 2 - (table == np.arange(n)).all(axis=1))
    params = place[:, None] // powers % n
    base = (np.arange(len(rows)) - place) * t + inverse
    return table, (params, powers * t, base, (kind, np.where(kind == 2, 3, kind)))


def _pair_translations(algebra: FiniteAlgebra, theta: Partition | None):
    """The pair algebra of theta (a copy of the algebra when theta is None,
    i.e. 0) as the congruence kernel reads it.  Memoized on the algebra.

    Returns (pairs, pos, p0, p1, scaled, flat, rows0, rows1).  `pairs`
    lists the universe, p0 and p1 are its coordinate arrays and
    pos[x0 * n + x1] is the index of the pair (x0, x1), -1 off the universe.
    A translation of the pair algebra acts as (x0, x1) -> (t_i(x0), t_j(x1))
    for two base translations t_i, t_j of one (operation, slot) whose
    parameter tuples have the same tuple of theta-classes; the pairs (i, j)
    are found by class tuple, a slice at a time within `core._CHUNK_CELLS`,
    and sorted.  They are stored as the offsets rows0 = i * n and
    rows1 = j * n, one (P, 1) column each, into `flat`, the base
    translation table flattened, and `scaled` = flat * n, so that a
    translation sends (x0, x1) to pos[scaled[rows0 + x0] + flat[rows1 + x1]].
    Translations that never relate two distinct elements (both factors
    constant, or the identity twice) are dropped.  A theta of rank 0 shares
    the entry of None; a theta that is not a congruence raises ValueError.
    """
    if theta is not None and theta.rank == 0 and theta.size == algebra.size:
        theta = None
    return _memoized_pair_translations(algebra, theta)


@core._memoized
def _memoized_pair_translations(algebra: FiniteAlgebra, theta: Partition | None):
    n = algebra.size
    if theta is not None and not is_congruence(algebra, theta):
        raise ValueError(f"{theta!r} is not a congruence of the algebra")
    table, (params, weights, base, kind) = _base_translations(algebra)
    t = len(table)
    labels = np.arange(n) if theta is None else np.array(theta.index, dtype=np.int64)
    related = labels[:, None] == labels
    p0, p1 = related.nonzero()
    pairs = list(zip(p0.tolist(), p1.tolist()))
    pos = np.full(n * n, -1, dtype=np.int64)
    pos[related.ravel()] = np.arange(len(pairs), dtype=np.int64)
    keys = core._distinct(labels[params] @ weights + base)
    row = keys % t
    group = keys - row
    # key p pairs with the keys lo[p] .. hi[p] - 1 of its group: it owns the
    # cells end[p] - (hi[p] - lo[p]) .. end[p] - 1, and cell c pairs it with
    # key c - shift[p].  A slice of cells holds about six int64 temporaries.
    hi = keys.searchsorted(group + t)
    end = np.add.accumulate(hi - keys.searchsorted(group))
    shift = end - hi
    total = int(end[-1]) if len(end) else 0
    step = max(1, core._CHUNK_CELLS // 6)
    codes = np.empty(0, dtype=np.int64)
    for start in range(0, total, step):
        c = np.arange(start, min(total, start + step), dtype=np.int64)
        p = end.searchsorted(c, side="right")
        codes = core._distinct(np.concatenate((codes, row[p] * t + row[c - shift[p]])))
    i, j = np.divmod(codes, t)
    live = kind[0][i] != kind[1][j]
    flat = table.ravel()
    return pairs, pos, p0, p1, flat * n, flat, (i[live] * n)[:, None], (j[live] * n)[:, None]


def _generate_congruence(
    algebra: FiniteAlgebra,
    theta: Partition | None,
    seeds: Iterable[tuple[tuple[int, int], tuple[int, int]]],
):
    """The congruence generation kernel: the congruence of the pair algebra
    of theta (of the algebra itself when theta is None) generated by the
    seed pairs of universe elements, as (pairs, roots) with roots[i] the
    least index in the class of pairs[i].

    Freese's worklist (Computing congruences efficiently, Algebra Universalis
    59, 2008), a round at a time: union the pending pairs, relabel the
    roots, push every pair that merged through all translations of the pair
    algebra in one gather, and pend the distinct root pairs that differ.
    Pushing only the merging pairs suffices, since they connect every class.
    The gather is sliced over the translations within `core._CHUNK_CELLS`.
    """
    pairs, pos, p0, p1, scaled, flat, rows0, rows1 = _pair_translations(algebra, theta)
    n, m = algebra.size, len(pairs)
    # pending pairs (u, v) of universe indices travel as codes u * m + v
    pending = []
    for (a, b), (c, d) in seeds:
        if not all(0 <= x < n for x in (a, b, c, d)) or pos[a * n + b] < 0 or pos[c * n + d] < 0:
            raise ValueError(f"seed {((a, b), (c, d))} lies outside the pair algebra")
        pending.append(int(pos[a * n + b]) * m + int(pos[c * n + d]))
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    roots = np.arange(m, dtype=np.int64)
    # a slice of the gather holds about eight int64 temporaries per cell
    cells = max(1, core._CHUNK_CELLS // 8)
    while pending:
        us, vs = [], []
        for code in pending:
            u, v = divmod(code, m)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
                us.append(u)
                vs.append(v)
        if not us:
            break
        # every pending element was a root when it was pended
        touched = list(set(us).union(vs))
        relabel = np.arange(m, dtype=np.int64)
        relabel[touched] = [find(x) for x in touched]
        roots = relabel[roots]
        # one stacked gather: the first e columns are the u, the rest the v
        e = len(us)
        ends = np.array(us + vs, dtype=np.int64)
        x0, x1 = p0[ends], p1[ends]
        step = max(1, cells // (2 * e))
        found = np.empty(0, dtype=np.int64)
        for lo in range(0, len(rows0), step):
            img = roots[pos[scaled[rows0[lo : lo + step] + x0] + flat[rows1[lo : lo + step] + x1]]]
            iu, iv = img[:, :e], img[:, e:]
            differ = iu != iv
            codes = np.minimum(iu, iv)[differ] * m + np.maximum(iu, iv)[differ]
            found = core._distinct(np.concatenate((found, codes)))
        pending = found.tolist()
    return pairs, roots


def congruence_generated(algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence of `algebra` containing all the given pairs: the
    congruence kernel run on the pair algebra of 0, the diagonal, a copy of
    the algebra."""
    n = algebra.size
    seeds = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a}, {b}) out of range")
        seeds.append(((a, a), (b, b)))
    _, roots = _generate_congruence(algebra, None, seeds)
    return Partition.from_labels(n, roots.tolist())


def principal_congruence(algebra: FiniteAlgebra, a: int, b: int) -> Partition:
    """Cg(a, b): least congruence identifying a and b, read off the pair
    graph pass `_principal_congruences`, which is built once per algebra;
    Cg(a, a) is 0."""
    n = algebra.size
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"pair ({a}, {b}) out of range")
    return _principal_congruences(algebra)[0][a * n + b]


def _components_sinks_first(starts: list[int], succ: list[int]) -> tuple[list[int], int]:
    """Tarjan's strongly connected components (R. Tarjan, Depth-first search
    and linear graph algorithms, SIAM J. Comput. 1, 1972) of the graph whose
    node v has the successors succ[starts[v]:starts[v + 1]], with an explicit
    stack instead of recursion.  Returns (comp, count): comp[v] numbers v's
    component in the order Tarjan emits them, sinks first, so every edge
    leaves a component for one of the same or a smaller number."""
    m = len(starts) - 1
    order = [-1] * m
    low = [0] * m
    comp = [-1] * m
    stack: list[int] = []
    seen = count = 0
    for root in range(m):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, starts[root])]
        while work:
            v, i = work[-1]
            end = starts[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if order[w] < 0:
                    work[-1] = (v, i)
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, starts[w]))
                    break
                # w is still on the stack iff it has no component yet
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comp, count


@core._memoized
def _principal_congruences(
    algebra: FiniteAlgebra,
) -> tuple[list[Partition], list[Partition], np.ndarray]:
    """Every principal congruence from one pass over the pair graph, as
    (table, distinct, component): table[a * n + b] is Cg(a, b) (0 when
    a == b), `distinct` lists the distinct Cg(a, b) with a != b sorted by
    (rank, blocks), each one object shared by its table entries, and the
    read-only int64 array component[a * n + b] numbers the strongly
    connected component of the pair {a, b} (-1 when a == b).  Memoized on
    the algebra.

    The graph has a node per unordered pair {a, b} of distinct elements and
    an edge {a, b} -> {t(a), t(b)} for every basic translation t with
    t(a) != t(b); its edges come from one gather of (pairs x translations)
    over the kernel's `_pair_translations(algebra, None)`, sliced within
    `core._CHUNK_CELLS`.  By Mal'cev, Cg(a, b) is the equivalence closure of
    the pairs that {a, b} reaches, so mutually reachable pairs share it, and
    the Cg of a strongly connected component is its own pairs joined with
    the Cg of the components it has edges to.  Tarjan's order emits those
    first.  Each distinct successor congruence is joined at most once,
    coarsest first, and skipped when it already lies below.
    """
    n = algebra.size
    _, _, _, _, _, flat, rows, _ = _pair_translations(algebra, None)
    a, b = np.triu_indices(n, 1)
    m = len(a)
    node = np.full(n * n, -1, dtype=np.int64)
    node[a * n + b] = node[b * n + a] = np.arange(m, dtype=np.int64)
    src = np.arange(m, dtype=np.int64)
    # edges travel as codes src * m + dst; a slice holds about six int64
    # temporaries per cell.  Slices are deduplicated together once they hold
    # as many codes as the distinct ones so far, so each code is sorted a
    # bounded number of times.
    step = max(1, core._CHUNK_CELLS // max(1, 6 * m))
    codes = np.empty(0, dtype=np.int64)
    parts, held = [], 0
    for lo in range(0, len(rows), step):
        r = rows[lo : lo + step]
        dst = node[flat[r + a] * n + flat[r + b]]
        keep = (dst >= 0) & (dst != src)
        parts.append((src * m + dst)[keep])
        held += len(parts[-1])
        if held >= len(codes):
            codes = core._distinct(np.concatenate((codes, *parts)))
            parts, held = [], 0
    if parts:
        codes = core._distinct(np.concatenate((codes, *parts)))
    starts = np.searchsorted(codes, src * m).tolist() + [len(codes)]
    succ = (codes % m).tolist()
    comp, count = _components_sinks_first(starts, succ)
    members: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(comp):
        members[c].append(v)
    a, b = a.tolist(), b.tolist()
    # label[c] numbers component c's congruence among the distinct ones
    distinct: list[Partition] = []
    number: dict[Partition, int] = {}
    label: list[int] = []
    for c, nodes in enumerate(members):
        p = Partition.from_pairs(n, [(a[v], b[v]) for v in nodes])
        # the coarsest successors first, so that the finer ones are
        # usually below the join already
        successors = {label[comp[w]] for v in nodes for w in succ[starts[v] : starts[v + 1]] if comp[w] != c}
        for q in sorted((distinct[i] for i in successors), key=lambda q: -q.rank):
            if not q.leq(p):
                p = p.join(q)
        if p not in number:
            number[p] = len(distinct)
            distinct.append(p)
        label.append(number[p])
    zero = Partition.zero(n)
    table = [zero] * (n * n)
    for v in range(m):
        table[a[v] * n + b[v]] = table[b[v] * n + a[v]] = distinct[label[comp[v]]]
    component = np.full(n * n, -1, dtype=np.int64)
    component[node >= 0] = np.array(comp, dtype=np.int64)[node[node >= 0]]
    return table, sorted(distinct, key=lambda p: (p.rank, p.blocks)), core._frozen(component)


@dataclass(frozen=True)
class CoverPair:
    lower: Partition
    upper: Partition


class CongruenceLattice:
    """Con(A): all congruences, sorted by (rank, blocks), so that every
    element comes after all the elements strictly below it.

    The order matrix, the join and meet tables (lists of lists of element
    positions) and the cover relation (a frozenset of position pairs) are
    built in numpy on first use and then kept.
    """

    def __init__(self, algebra: FiniteAlgebra, elements: Sequence[Partition]):
        self.algebra = algebra
        self.elements = tuple(sorted(elements, key=lambda p: (p.rank, p.blocks)))
        self._pos = {p: i for i, p in enumerate(self.elements)}

    @functools.cached_property
    def _leq(self) -> np.ndarray:
        """leq[p, q] iff p <= q: the meet code idx[p] * n + idx[q] takes as
        many values as p has blocks exactly when each block of p lies in one
        block of q.  Sliced by rows of p within `core._CHUNK_CELLS`."""
        m, n = len(self.elements), self.algebra.size
        idx = np.array([p.index for p in self.elements], dtype=np.int64)
        nblocks = np.array([len(p.blocks) for p in self.elements], dtype=np.int64)
        leq = np.empty((m, m), dtype=bool)
        step = max(1, core._CHUNK_CELLS // max(1, 2 * m * n))
        for lo in range(0, m, step):
            codes = np.sort(idx[lo : lo + step, None, :] * n + idx[None, :, :], axis=-1)
            distinct = 1 + (codes[..., 1:] != codes[..., :-1]).sum(axis=-1)
            leq[lo : lo + step] = distinct == nblocks[lo : lo + step, None]
        return leq

    def _bound_table(self, leq: np.ndarray, pick) -> list[list[int]]:
        """For each (i, j) the position that `pick` chooses among the k with
        leq[i, k] and leq[j, k], sliced by rows within `core._CHUNK_CELLS`."""
        m = len(self.elements)
        out = np.empty((m, m), dtype=np.int64)
        step = max(1, core._CHUNK_CELLS // max(1, m * m))
        for lo in range(0, m, step):
            out[lo : lo + step] = pick(leq[lo : lo + step, None, :] & leq[None, :, :])
        return out.tolist()

    @functools.cached_property
    def leq_matrix(self) -> list[list[bool]]:
        return self._leq.tolist()

    @functools.cached_property
    def join_table(self) -> list[list[int]]:
        # the join is the upper bound of least rank, i.e. the first one
        return self._bound_table(self._leq, lambda up: up.argmax(axis=-1))

    @functools.cached_property
    def meet_table(self) -> list[list[int]]:
        # the meet is the lower bound of greatest rank, i.e. the last one
        last = len(self.elements) - 1
        return self._bound_table(self._leq.T, lambda down: last - down[..., ::-1].argmax(axis=-1))

    @functools.cached_property
    def covers(self) -> frozenset[tuple[int, int]]:
        """The pairs (i, j) with element i strictly below element j and
        nothing strictly between: the transitive reduction of the order."""
        strict = self._leq.copy()
        np.fill_diagonal(strict, False)
        f = strict.astype(np.float32)
        # float32 counts are safe here: a sum of 0/1 products is 0 only
        # when every product is
        lo, hi = np.nonzero(strict & ((f @ f) == 0))
        return frozenset(zip(lo.tolist(), hi.tolist()))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p: Partition):
        return p in self._pos

    def position(self, p: Partition) -> int:
        try:
            return self._pos[p]
        except KeyError:
            raise ValueError("partition is not a congruence in this lattice") from None

    @property
    def zero(self) -> Partition:
        return self.elements[0]

    @property
    def one(self) -> Partition:
        return self.elements[-1]

    def upper_covers(self, p: Partition) -> list[Partition]:
        i = self.position(p)
        return [self.elements[j] for (lo, j) in self.covers if lo == i]

    def lower_covers(self, p: Partition) -> list[Partition]:
        j = self.position(p)
        return [self.elements[i] for (i, hi) in self.covers if hi == j]

    def interval(self, lo: Partition, hi: Partition) -> list[Partition]:
        i, j = self.position(lo), self.position(hi)
        return [self.elements[k] for k in range(len(self.elements)) if self.leq_matrix[i][k] and self.leq_matrix[k][j]]

    def atoms(self) -> list[Partition]:
        return self.upper_covers(self.zero)


def congruence_lattice(
    algebra: FiniteAlgebra, *, cap: int = DEFAULT_LATTICE_CAP
) -> CongruenceLattice:
    """Con(A): 0 and the principal congruences, closed under joining with a
    principal congruence.  Every congruence is the join of the principal
    congruences of its pairs, so this reaches all of Con(A) with
    O(|Con(A)| * |principals|) joins.  Raises `CapExceededError` when
    |Con(A)| > cap, on a memo hit too."""

    def build() -> CongruenceLattice:
        principals = _principal_congruences(algebra)[1]
        elements: set[Partition] = {Partition.zero(algebra.size), *principals}
        if len(elements) > cap:
            raise CapExceededError("congruence lattice", cap)
        worklist = deque(elements)
        while worklist:
            p = worklist.popleft()
            for q in principals:
                j = p.join(q)
                if j not in elements:
                    elements.add(j)
                    worklist.append(j)
                    if len(elements) > cap:
                        raise CapExceededError("congruence lattice", cap)
        return CongruenceLattice(algebra, elements)

    lat = core._memo(algebra, (CongruenceLattice,), build)
    if len(lat) > cap:
        raise CapExceededError("congruence lattice", cap)
    return lat


def join(p: Partition, q: Partition) -> Partition:
    """Least common coarsening of two partitions."""
    return p.join(q)


@dataclass(frozen=True)
class StructureReport:
    covers: tuple[CoverPair, ...]
    completely_meet_irreducibles: tuple[tuple[Partition, Partition], ...]
    monolith: Partition | None
    is_si: bool


def structure_report(lattice: CongruenceLattice) -> StructureReport:
    """Covers, completely meet-irreducible elements, monolith, SI verdict.

    In a finite lattice an element is completely meet-irreducible iff it has a
    unique upper cover below everything strictly above it; in a finite
    lattice this is the same as meet-irreducible, which the tests check
    against the meet table of an independent lattice.
    """
    elements = lattice.elements
    m = len(elements)
    covers = tuple(
        CoverPair(elements[i], elements[j]) for (i, j) in sorted(lattice.covers)
    )
    cmi = []
    for i in range(m):
        if elements[i] == lattice.one:
            continue
        ups = [j for (lo, j) in lattice.covers if lo == i]
        if len(ups) != 1:
            continue
        plus = ups[0]
        if all(
            lattice.leq_matrix[plus][j]
            for j in range(m)
            if j != i and lattice.leq_matrix[i][j]
        ):
            cmi.append((elements[i], elements[plus]))
    atoms = lattice.atoms()
    monolith = atoms[0] if len(atoms) == 1 else None
    return StructureReport(
        covers=covers,
        completely_meet_irreducibles=tuple(cmi),
        monolith=monolith,
        is_si=monolith is not None,
    )


def check_perspectivity(
    lattice: CongruenceLattice,
    low: CoverPair | tuple[Partition, Partition],
    high: CoverPair | tuple[Partition, Partition],
) -> bool:
    """(alpha, beta) transposes up to (gamma, delta): beta ^ gamma = alpha and
    beta v gamma = delta.  Cover-ness is checked only for CoverPair arguments."""
    if isinstance(low, CoverPair):
        if (lattice.position(low.lower), lattice.position(low.upper)) not in lattice.covers:
            raise ValueError("low CoverPair is not a cover in this lattice")
        alpha, beta = low.lower, low.upper
    else:
        alpha, beta = low
    if isinstance(high, CoverPair):
        if (lattice.position(high.lower), lattice.position(high.upper)) not in lattice.covers:
            raise ValueError("high CoverPair is not a cover in this lattice")
        gamma, delta = high.lower, high.upper
    else:
        gamma, delta = high
    for p in (alpha, beta, gamma, delta):
        lattice.position(p)
    return beta.meet(gamma) == alpha and beta.join(gamma) == delta


@dataclass(frozen=True)
class IntervalReport:
    modular: bool
    permuting: bool
    precondition_verified: bool
    modular_witness: tuple | None
    permuting_witness: tuple | None

    @property
    def passed(self) -> bool:
        return self.modular and self.permuting


def check_interval_modular_permuting(
    algebra: FiniteAlgebra,
    lattice: CongruenceLattice,
    alpha: Partition,
    beta: Partition,
    *,
    quotient_abelian: bool = False,
) -> IntervalReport:
    """Check that I[alpha, beta] is modular and consists of pairwise permuting
    relations.  `quotient_abelian` records whether the caller verified the
    hypothesis (beta/alpha abelian); the checks run either way."""
    if not alpha.leq(beta):
        raise ValueError("alpha must lie below beta")
    interval = lattice.interval(alpha, beta)
    permuting = True
    perm_witness = None
    for p, q in itertools.combinations(interval, 2):
        if compose_relations(p, q) != compose_relations(q, p):
            permuting = False
            perm_witness = (p, q)
            break
    modular = True
    mod_witness = None
    for x, y, z in itertools.product(interval, repeat=3):
        if x.leq(z):
            lhs = x.join(y.meet(z))
            rhs = x.join(y).meet(z)
            if lhs != rhs:
                modular = False
                mod_witness = (x, y, z)
                break
    return IntervalReport(
        modular=modular,
        permuting=permuting,
        precondition_verified=quotient_abelian,
        modular_witness=mod_witness,
        permuting_witness=perm_witness,
    )


# -- helpers shared by later modules ----------------------------------------


def push_partition(theta: Partition, proj, m: int) -> Partition:
    """Image of a partition >= ker(proj) under a surjection proj: n -> m."""
    labels = [0] * m
    for x in range(theta.size):
        labels[proj(x)] = theta.index[x]
    return Partition.from_labels(m, labels)


def pull_partition(lam: Partition, proj, n: int) -> Partition:
    """Preimage f^{-1}(lam) of a partition on the target of proj: n -> m."""
    return Partition.from_labels(n, [lam.index[proj(x)] for x in range(n)])


def is_congruence(algebra: FiniteAlgebra, theta: Partition) -> bool:
    """Whether the partition theta is a congruence: every basic translation
    t preserves it (Mal'cev), i.e. t(x) ~ t(first element of x's block)."""
    table, _ = _base_translations(algebra)
    idx = np.array(theta.index, dtype=np.int64)
    first = np.array([blk[0] for blk in theta.blocks], dtype=np.int64)[idx]
    return theta.size == algebra.size and not (idx[table] != idx[table[:, first]]).any()
