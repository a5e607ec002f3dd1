"""Finite algebras presented by operation tables.

An algebra lives on the universe {0, .., n-1}.  Each operation is a finitary
map given by a flat row-major table (index of (a_1, .., a_k) is the base-n
number a_1 a_2 .. a_k).  Everything in this package consumes this one
representation; derived algebras (powers, subalgebras-as-universes, quotients)
are materialized back into the same form.

Operation tables, element maps and the other values here are immutable after
construction.  Each `FiniteAlgebra` also carries a private memo, `_cache`, a
plain dict that library functions fill lazily with derived results:
congruence lattices, matrix sets, term-condition verdicts, and the closure
engine's block tables and plans.  Filling it mutates the instance, without
any locking, so an algebra shared between threads needs the caller's own
synchronization.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_CLOSURE_CAP = 10**6

# Budget (in array cells) for one broadcasted operation application; larger
# combination grids are processed in chunks of roughly this size.
_CHUNK_CELLS = 4_000_000

# The closure applies an operation of arity k to blocks of b coordinates at
# once, through its table lifted to blocks, which has n^(b*k) cells; b is
# the largest block width whose lifted table stays within this many cells.
_BLOCK_TABLE_CELLS = 1 << 16

# Closure spaces of at most this many codes track membership in a dense
# boolean bitmap; larger spaces keep a sorted array of member codes.
_DENSE_CODES = 1 << 24


class CapExceededError(RuntimeError):
    """A generation process exceeded its hard cap."""

    def __init__(self, cap_name: str, cap: int):
        super().__init__(f"cap '{cap_name}' exceeded ({cap})")
        self.cap_name = cap_name
        self.cap = cap


class SignatureMismatchError(ValueError):
    """Two algebras were expected to have the same (name, arity) sequence."""


class Operation:
    """A named k-ary operation table on {0, .., n-1}."""

    __slots__ = ("name", "arity", "table", "_array")

    def __init__(self, name: str, arity: int, table: Sequence[int]):
        self.name = str(name)
        self.arity = int(arity)
        self.table = tuple(int(x) for x in table)
        self._array: np.ndarray | None = None

    def array(self) -> np.ndarray:
        if self._array is None:
            self._array = np.asarray(self.table, dtype=np.int64)
            self._array.setflags(write=False)
        return self._array

    def __eq__(self, other):
        return (
            isinstance(other, Operation)
            and self.name == other.name
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.name, self.arity, self.table))

    def __repr__(self):
        return f"Operation({self.name!r}, arity={self.arity})"


class FiniteAlgebra:
    """A finite algebra: universe size plus an ordered sequence of operations.

    Nullary operations are normalized to constant unary operations at
    construction.  Two algebras are *same-signature* iff their (name, arity)
    sequences match positionally.
    """

    __slots__ = ("size", "operations", "_ops_by_name", "_hash", "_cache")

    def __init__(self, size: int, operations: Iterable):
        size = int(size)
        if size < 1:
            raise ValueError(f"algebra size must be >= 1, got {size}")
        self.size = size
        ops = []
        for spec in operations:
            if isinstance(spec, Operation):
                name, arity, table = spec.name, spec.arity, spec.table
            else:
                name, arity, table = spec
            if arity == 0:
                # one table entry naming a constant; widen to a unary table
                (c,) = table
                name, arity, table = name, 1, [c] * size
            op = Operation(name, arity, table)
            if len(op.table) != size**op.arity:
                raise ValueError(
                    f"operation '{op.name}': table length {len(op.table)} != {size}^{op.arity}"
                )
            for entry in op.table:
                if not 0 <= entry < size:
                    raise ValueError(f"operation '{op.name}': entry {entry} out of range")
            ops.append(op)
        self.operations = tuple(ops)
        self._ops_by_name = {op.name: op for op in self.operations}
        if len(self._ops_by_name) != len(self.operations):
            raise ValueError("duplicate operation names")
        self._hash = hash((self.size, self.operations))
        self._cache: dict = {}

    # -- basic protocol ----------------------------------------------------

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.operations)

    def same_signature(self, other: "FiniteAlgebra") -> bool:
        return self.signature() == other.signature()

    def operation(self, name: str) -> Operation:
        try:
            return self._ops_by_name[name]
        except KeyError:
            raise KeyError(f"unknown operation '{name}'") from None

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.size == other.size
            and self.operations == other.operations
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        sig = ", ".join(f"{n}/{k}" for n, k in self.signature())
        return f"FiniteAlgebra(size={self.size}, ops=[{sig}])"

    def rename_operations(self, names: Sequence[str]) -> "FiniteAlgebra":
        """Same tables under new names (for aligning signatures)."""
        if len(names) != len(self.operations):
            raise ValueError("need one name per operation")
        return FiniteAlgebra(
            self.size, [(nm, op.arity, op.table) for nm, op in zip(names, self.operations)]
        )


class ElementMap:
    """A total map between universes {0..m-1} -> {0..n-1}."""

    __slots__ = ("source_size", "target_size", "images", "_hash")

    def __init__(self, source_size: int, target_size: int, images: Sequence[int]):
        self.source_size = int(source_size)
        self.target_size = int(target_size)
        self.images = tuple(int(x) for x in images)
        if len(self.images) != self.source_size:
            raise ValueError("one image per source element required")
        for y in self.images:
            if not 0 <= y < self.target_size:
                raise ValueError(f"image {y} out of range")
        self._hash = hash((self.source_size, self.target_size, self.images))

    @classmethod
    def identity(cls, n: int) -> "ElementMap":
        return cls(n, n, range(n))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, inner: "ElementMap") -> "ElementMap":
        """self after inner."""
        if inner.target_size != self.source_size:
            raise ValueError("composition size mismatch")
        return ElementMap(inner.source_size, self.target_size, [self.images[y] for y in inner.images])

    def is_bijective(self) -> bool:
        return self.source_size == self.target_size and len(set(self.images)) == self.source_size

    def inverse(self) -> "ElementMap":
        if not self.is_bijective():
            raise ValueError("map is not bijective")
        inv = [0] * self.source_size
        for x, y in enumerate(self.images):
            inv[y] = x
        return ElementMap(self.target_size, self.source_size, inv)

    def __eq__(self, other):
        return (
            isinstance(other, ElementMap)
            and self.source_size == other.source_size
            and self.target_size == other.target_size
            and self.images == other.images
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"ElementMap({self.images})"


def evaluate(algebra: FiniteAlgebra, op_name: str, args: Sequence[int]) -> int:
    """Apply a named basic operation to a tuple of elements."""
    op = algebra.operation(op_name)
    if len(args) != op.arity:
        raise ValueError(f"operation '{op_name}' expects {op.arity} arguments, got {len(args)}")
    idx = 0
    for a in args:
        a = int(a)
        if not 0 <= a < algebra.size:
            raise ValueError(f"element {a} out of range")
        idx = idx * algebra.size + a
    return op.table[idx]


# ---------------------------------------------------------------------------
# Closure in powers of an algebra.
#
# The one engine behind subuniverse generation, unary polynomial clones,
# matrix-set generation, and restricted polynomial closures: close a set of
# width-w tuples over {0..n-1} under all basic operations acting
# coordinatewise.
# ---------------------------------------------------------------------------


def _apply_combos(tab: np.ndarray, n: int, parts: list[np.ndarray], width: int) -> Iterable[np.ndarray]:
    """Yield op results over the full cartesian grid of the given row blocks.

    Each part is an (m_i, width) array; results are yielded as (m, width)
    chunks.  Grids larger than the chunk budget are split along axis 0.
    Arity at most 3; used by the row-mode clone search in `diffterm`.
    """
    k = len(parts)
    sizes = [p.shape[0] for p in parts]
    if any(s == 0 for s in sizes):
        return
    if k == 1:
        yield tab[parts[0]]
        return
    rest = 1
    for s in sizes[1:]:
        rest *= s
    step = max(1, _CHUNK_CELLS // max(1, rest * width))
    p0 = parts[0]
    for lo in range(0, sizes[0], step):
        x0 = p0[lo : lo + step]
        if k == 2:
            idx = x0[:, None, :] * n + parts[1][None, :, :]
        elif k == 3:
            idx = (x0[:, None, None, :] * n + parts[1][None, :, None, :]) * n + parts[2][
                None, None, :, :
            ]
        else:
            raise ValueError("_apply_combos supports arity <= 3")
        yield tab[idx.reshape(-1, width)]


def _pack(rows: np.ndarray, n: int) -> np.ndarray:
    codes = rows[:, 0].copy()
    for c in range(1, rows.shape[1]):
        codes *= n
        codes += rows[:, c]
    return codes


def _unpack(codes: np.ndarray, n: int, width: int) -> np.ndarray:
    out = np.empty((codes.shape[0], width), dtype=np.int64)
    rem = codes.copy()
    for c in range(width - 1, -1, -1):
        out[:, c] = rem % n
        rem //= n
    return out


def _block_widths(n: int, arity: int, width: int) -> tuple[int, ...]:
    """Split `width` coordinates into as few blocks as the block-table
    budget allows for an operation of this arity, balanced in width."""
    b = 1
    while b < width and n ** ((b + 1) * arity) <= _BLOCK_TABLE_CELLS:
        b += 1
    count = -(-width // b)
    q, r = divmod(width, count)
    return (q + 1,) * r + (q,) * (count - r)


def _block_table(algebra: FiniteAlgebra, index: int, b: int) -> np.ndarray:
    """Operation `index` lifted coordinatewise to blocks of b coordinates.

    A block code is the base-n number of its b coordinates; the table is
    indexed by the k argument block codes read as one base-n^b number, so
    b = 1 gives the operation table itself.
    """
    key = ("block_table", index, b)
    table = algebra._cache.get(key)
    if table is None:
        op = algebra.operations[index]
        if b == 1:
            table = op.array()
        else:
            # a block of b coordinates is a block of b - 1 followed by one more
            n, k = algebra.size, op.arity
            head = _block_table(algebra, index, b - 1).reshape((n ** (b - 1), 1) * k)
            table = (head * n + op.array().reshape((1, n) * k)).ravel()
            table.setflags(write=False)
        algebra._cache[key] = table
    return table


def _closure_plan(algebra: FiniteAlgebra, width: int) -> list:
    """Per operation: (arity, block widths, block tables) for width-w codes.

    Each block table is scaled by the place value of its block in a code,
    so a result code is the sum of one lookup per block.
    """
    key = ("closure_plan", width)
    plan = algebra._cache.get(key)
    if plan is None:
        plan = []
        n = algebra.size
        for i, op in enumerate(algebra.operations):
            widths = _block_widths(n, op.arity, width)
            tables = []
            shift = width
            for b in widths:
                shift -= b
                tables.append(_block_table(algebra, i, b) * n**shift)
            plan.append((op.arity, widths, tables))
        algebra._cache[key] = plan
    return plan


def _split_codes(codes: np.ndarray, n: int, widths: tuple[int, ...]) -> list[np.ndarray]:
    """Block codes of width-sum(widths) codes, most significant block first."""
    out = []
    shift = sum(widths)
    for b in widths:
        shift -= b
        out.append(codes // n**shift % n**b)
    return out


def _grid_batches(sizes: list[int], width: int):
    """Cut the row-major grid over `sizes` into batches within the chunk budget.

    Yields (prefix, slice): a batch fixes the leading axes to `prefix`, takes
    a slice of the next axis and all of the axes after it.  A unary grid is
    one batch.  Otherwise batches cut axis 0 only, unless a single index of
    axis 0 already spans more than the budget; then they cut the first axis
    whose trailing grid fits.
    """
    if len(sizes) == 1:
        yield (), slice(0, sizes[0])
        return
    j = 0
    tail = 1
    for s in sizes[1:]:
        tail *= s
    while tail * width > _CHUNK_CELLS and j < len(sizes) - 1:
        j += 1
        tail //= sizes[j]
    step = max(1, _CHUNK_CELLS // (tail * width))
    for prefix in itertools.product(*map(range, sizes[:j])):
        for lo in range(0, sizes[j], step):
            yield prefix, slice(lo, lo + step)


def _grid_codes(
    n: int,
    widths: tuple[int, ...],
    tables: list[np.ndarray],
    parts: list[list[np.ndarray]],
    prefix: tuple[int, ...],
    sl: slice,
) -> np.ndarray:
    """Result codes of one operation over one batch of its argument grid.

    `parts[i][t]` holds block t of the codes of argument position i; each
    block of the result is one lookup in its (place-value scaled) table.
    """
    k = len(parts)
    j = len(prefix)
    code = None
    for t, (b, tab) in enumerate(zip(widths, tables)):
        radix = n**b
        offset = 0
        for i, r in enumerate(prefix):
            offset = offset * radix + int(parts[i][t][r])
        scale = radix ** (k - 1 - j)
        idx = parts[j][t][sl] * scale + offset * radix * scale
        for i in range(j + 1, k):
            scale //= radix
            idx = idx[..., None] + parts[i][t] * scale
        if code is None:
            code = tab.take(idx)
        else:
            code += tab.take(idx)
    return code.ravel()


class _DenseMembers:
    """Closure membership as a boolean bitmap over the whole code space."""

    def __init__(self, space: int, codes: np.ndarray):
        self.seen = np.zeros(space, dtype=bool)
        self.seen[codes] = True

    def fresh(self, codes: np.ndarray) -> np.ndarray:
        return np.unique(codes[~self.seen.take(codes)])

    def add(self, codes: np.ndarray) -> None:
        self.seen[codes] = True


class _SortedMembers:
    """Closure membership as a sorted code array, for spaces too large for
    a bitmap."""

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    def fresh(self, codes: np.ndarray) -> np.ndarray:
        codes = np.unique(codes)
        known = self.codes.take(np.searchsorted(self.codes, codes), mode="clip") == codes
        return codes[~known]

    def add(self, codes: np.ndarray) -> None:
        self.codes = np.sort(np.concatenate([self.codes, codes]))


def closure_in_power(
    algebra: FiniteAlgebra,
    width: int,
    seeds: Iterable[Sequence[int]],
    *,
    cap: int = DEFAULT_CLOSURE_CAP,
    cap_name: str = "closure",
    violation: Callable[[np.ndarray], int | None] | None = None,
) -> tuple[list[tuple[int, ...]], tuple[int, ...] | None]:
    """Close `seeds` under the operations of `algebra` acting coordinatewise.

    Returns (sorted list of member tuples, violation witness or None).  When
    `violation` is given it is applied to the new rows of every chunk, in
    sorted order; if it reports a row the closure aborts immediately and
    that row is returned as the witness (chunks are scanned in a fixed
    order, so the witness is deterministic).  Requires n^width to fit in an
    int64 code.

    Rows are handled as their base-n codes throughout.  Each round applies
    every operation semi-naively (at least one argument from the newest
    rows) over the grid of argument codes, one chunk at a time.
    """
    n = algebra.size
    if width * np.log2(max(n, 2)) > 62:
        raise ValueError(f"closure space {n}^{width} too wide to encode")
    seed_rows = sorted({tuple(int(x) for x in s) for s in seeds})
    if not seed_rows:
        return [], None
    for row in seed_rows:
        if len(row) != width:
            raise ValueError(f"seed width {len(row)} != {width}")

    seed_array = np.array(seed_rows, dtype=np.int64)
    if violation is not None:
        hit = violation(seed_array)
        if hit is not None:
            return [tuple(r) for r in seed_rows], tuple(int(x) for x in seed_array[hit])

    start = _pack(seed_array, n)  # sorted, as the seed rows are
    space = n**width
    members = _DenseMembers(space, start) if space <= _DENSE_CODES else _SortedMembers(start)
    plan = _closure_plan(algebra, width)
    layouts = {widths for _k, widths, _tables in plan}
    roles = {"old": start[:0], "frontier": start, "all": start}

    def finish(codes, witness=None):
        return [tuple(r) for r in _unpack(codes, n, width).tolist()], witness

    while roles["frontier"].size:
        fresh: list[np.ndarray] = []
        total = roles["all"].size
        split = {
            (role, widths): _split_codes(codes, n, widths)
            for role, codes in roles.items()
            for widths in layouts
        }
        for k, widths, tables in plan:
            for pos in range(k):
                names = ["old" if i < pos else "frontier" if i == pos else "all" for i in range(k)]
                sizes = [roles[r].size for r in names]
                if 0 in sizes:
                    continue
                parts = [split[r, widths] for r in names]
                for prefix, sl in _grid_batches(sizes, width):
                    out = _grid_codes(n, widths, tables, parts, prefix, sl)
                    # Witnesses are defined over chunks: for arity >= 4 one
                    # per choice of the leading k - 2 arguments.  Without a
                    # violation check the chunking does not matter.
                    seg = out.size
                    if violation is not None and k >= 4 and len(prefix) <= k - 3:
                        seg = sizes[-2] * sizes[-1]
                    for lo in range(0, out.size, seg):
                        new = members.fresh(out[lo : lo + seg])
                        if new.size == 0:
                            continue
                        if violation is not None:
                            rows = _unpack(new, n, width)
                            hit = violation(rows)
                            if hit is not None:
                                codes = np.sort(np.concatenate([roles["all"], *fresh, new]))
                                return finish(codes, tuple(int(x) for x in rows[hit]))
                        members.add(new)
                        fresh.append(new)
                        total += new.size
                        if total > cap:
                            raise CapExceededError(cap_name, cap)

        if not fresh:
            break
        new = np.sort(np.concatenate(fresh))
        old = roles["all"]
        roles = {"old": old, "frontier": new, "all": np.sort(np.concatenate([old, new]))}

    return finish(roles["all"])


# ---------------------------------------------------------------------------
# Generic constructions.
# ---------------------------------------------------------------------------


def generate_subuniverse(
    algebra: FiniteAlgebra, seed: Iterable[int], *, cap: int = DEFAULT_CLOSURE_CAP
) -> frozenset[int]:
    """Least subset of the universe containing `seed` and closed under all ops."""
    seed = sorted({int(x) for x in seed})
    for a in seed:
        if not 0 <= a < algebra.size:
            raise ValueError(f"element {a} out of range")
    if not seed:
        return frozenset()
    members, _ = closure_in_power(
        algebra, 1, [(a,) for a in seed], cap=cap, cap_name="subuniverse"
    )
    return frozenset(t[0] for t in members)


def is_subuniverse(algebra: FiniteAlgebra, subset: Iterable[int]) -> bool:
    sub = frozenset(int(x) for x in subset)
    return generate_subuniverse(algebra, sub) == sub


class DirectProduct:
    """A x B with the fixed pair encoding (a, b) -> a*|B| + b."""

    __slots__ = ("algebra", "left_size", "right_size")

    def __init__(self, algebra: FiniteAlgebra, left_size: int, right_size: int):
        self.algebra = algebra
        self.left_size = left_size
        self.right_size = right_size

    def encode(self, a: int, b: int) -> int:
        return a * self.right_size + b

    def decode(self, x: int) -> tuple[int, int]:
        return divmod(x, self.right_size)


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> DirectProduct:
    """Direct product of two same-signature algebras, coordinatewise tables."""
    if not a.same_signature(b):
        raise SignatureMismatchError(f"signatures differ: {a.signature()} vs {b.signature()}")
    n = a.size * b.size
    ops = []
    for op_a, op_b in zip(a.operations, b.operations):
        k = op_a.arity
        ta, tb = op_a.array(), op_b.array()
        # all argument tuples over the product, in row-major order
        grids = np.indices((n,) * k).reshape(k, -1)
        left = grids // b.size
        right = grids % b.size
        ia = np.zeros(left.shape[1], dtype=np.int64)
        ib = np.zeros(right.shape[1], dtype=np.int64)
        for j in range(k):
            ia = ia * a.size + left[j]
            ib = ib * b.size + right[j]
        table = ta[ia] * b.size + tb[ib]
        ops.append((op_a.name, k, table.tolist()))
    return DirectProduct(FiniteAlgebra(n, ops), a.size, b.size)


def power(a: FiniteAlgebra, k: int) -> DirectProduct | FiniteAlgebra:
    """A^k via iterated `product` (row-major tuple encoding)."""
    if k < 1:
        raise ValueError("power expects k >= 1")
    cur = a
    for _ in range(k - 1):
        cur = product(cur, a).algebra
    return cur


class Quotient:
    """A/theta with the projection map; blocks indexed by least representative."""

    __slots__ = ("algebra", "projection", "block_representatives")

    def __init__(self, algebra: FiniteAlgebra, projection: ElementMap, reps: tuple[int, ...]):
        self.algebra = algebra
        self.projection = projection
        self.block_representatives = reps


def quotient(algebra: FiniteAlgebra, theta, *, check: bool = True) -> Quotient:
    """Quotient algebra modulo a congruence `theta` (a Partition).

    With check=True the partition is verified to be compatible with every
    operation table; an incompatible partition raises ValueError.
    """
    n = algebra.size
    if theta.size != n:
        raise ValueError("partition size mismatch")
    labels = np.asarray(theta.index, dtype=np.int64)
    m = len(theta.blocks)
    ops = []
    for op in algebra.operations:
        k = op.arity
        tab = op.array()
        grids = np.indices((m,) * k).reshape(k, -1)
        reps = np.array([blk[0] for blk in theta.blocks], dtype=np.int64)
        idx = np.zeros(grids.shape[1], dtype=np.int64)
        for j in range(k):
            idx = idx * n + reps[grids[j]]
        table = labels[tab[idx]]
        ops.append((op.name, k, table.tolist()))
        if check:
            # compatibility: result block must not depend on representatives
            full = np.indices((n,) * k).reshape(k, -1)
            fidx = np.zeros(full.shape[1], dtype=np.int64)
            bidx = np.zeros(full.shape[1], dtype=np.int64)
            for j in range(k):
                fidx = fidx * n + full[j]
                bidx = bidx * m + labels[full[j]]
            if not np.array_equal(labels[tab[fidx]], np.asarray(table)[bidx]):
                raise ValueError(f"partition is not a congruence (operation '{op.name}')")
    proj = ElementMap(n, m, labels.tolist())
    reps = tuple(blk[0] for blk in theta.blocks)
    return Quotient(FiniteAlgebra(m, ops), proj, reps)


class UnaryPolynomialSet:
    """All unary polynomial functions of an algebra.

    Contains the identity and all constants and is closed under
    x -> op(g_1(x), .., g_k(x)).  `provenance` optionally records, per
    function, how it was first produced.
    """

    __slots__ = ("algebra", "functions", "provenance")

    def __init__(self, algebra: FiniteAlgebra, functions: Iterable[ElementMap], provenance=None):
        self.algebra = algebra
        self.functions = frozenset(functions)
        self.provenance = dict(provenance or {})

    def __len__(self):
        return len(self.functions)

    def __iter__(self):
        return iter(sorted(self.functions))

    def __contains__(self, f: ElementMap):
        return f in self.functions


def unary_polynomials(
    algebra: FiniteAlgebra, *, cap: int = DEFAULT_CLOSURE_CAP
) -> UnaryPolynomialSet:
    """The unary polynomial clone Pol_1, as explicit function tables."""
    n = algebra.size
    seeds = [tuple(range(n))] + [(c,) * n for c in range(n)]
    members, _ = closure_in_power(algebra, n, seeds, cap=cap, cap_name="pol1")
    fns = [ElementMap(n, n, row) for row in members]
    return UnaryPolynomialSet(algebra, fns)


# ---------------------------------------------------------------------------
# Isomorphism search.
# ---------------------------------------------------------------------------


def _iso_invariants(algebra: FiniteAlgebra):
    """Cheap isomorphism invariants: per-element vectors (unary in-degrees,
    diagonal-fixed flags, 1-generated subuniverse size), the count of elements
    fixed by every diagonal, and the multiset of 1-generated subuniverse
    sizes."""
    n = algebra.size
    per_element = []
    idem = 0
    for x in range(n):
        vec = []
        all_fixed = True
        for op in algebra.operations:
            tab = op.array()
            if op.arity == 1:
                vec.append(int(np.sum(tab == x)))
            diag = x
            for _ in range(op.arity - 1):
                diag = diag * n + x
            fixed = op.table[diag] == x
            all_fixed = all_fixed and fixed
            vec.append(1 if fixed else 0)
        vec.append(len(generate_subuniverse(algebra, [x])))
        per_element.append(tuple(vec))
        if all_fixed:
            idem += 1
    return per_element, idem, tuple(sorted(v[-1] for v in per_element))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> ElementMap | None:
    """Search for an isomorphism a -> b; None certifies there is none.

    Backtracking assigns images in ascending element order with ascending
    candidates, so the first solution found is the lexicographically least
    one.  Pruning uses per-element invariant vectors, the idempotent count,
    and the multiset of 1-generated subuniverse sizes.
    """
    if a.signature() != b.signature():
        return None
    if a.size != b.size:
        return None
    inv_a, idem_a, subs_a = _iso_invariants(a)
    inv_b, idem_b, subs_b = _iso_invariants(b)
    if idem_a != idem_b or subs_a != subs_b:
        return None
    if sorted(inv_a) != sorted(inv_b):
        return None

    n = a.size
    ops = [(op_a.table, op_b.table, op_a.arity) for op_a, op_b in zip(a.operations, b.operations)]
    images = [-1] * n
    used = [False] * n

    def consistent(upto: int) -> bool:
        # check all op instances whose arguments are assigned and <= upto
        for tab_a, tab_b, k in ops:
            for args in itertools.product(range(upto + 1), repeat=k):
                ia = 0
                ib = 0
                for x in args:
                    ia = ia * n + x
                    ib = ib * n + images[x]
                res = tab_a[ia]
                if res <= upto:
                    if images[res] != tab_b[ib]:
                        return False
                elif used[tab_b[ib]] and images[res] != tab_b[ib]:
                    return False
        return True

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in range(n):
            if used[y] or inv_a[x] != inv_b[y]:
                continue
            images[x] = y
            used[y] = True
            if consistent(x) and extend(x + 1):
                return True
            images[x] = -1
            used[y] = False
        return False

    if not extend(0):
        return None
    h = ElementMap(n, n, images)
    return h


def is_homomorphism(a: FiniteAlgebra, b: FiniteAlgebra, h: ElementMap) -> bool:
    """Exhaustively check h(op(x..)) == op(h(x)..) for all ops and tuples."""
    if not a.same_signature(b):
        return False
    n = a.size
    for op_a, op_b in zip(a.operations, b.operations):
        k = op_a.arity
        for args in itertools.product(range(n), repeat=k):
            lhs = h(evaluate(a, op_a.name, args))
            rhs = evaluate(b, op_b.name, tuple(h(x) for x in args))
            if lhs != rhs:
                return False
    return True
