"""Finite algebras presented by operation tables.

An algebra lives on the universe {0, .., n-1}.  Each operation is a finitary
map given by a flat row-major table (index of (a_1, .., a_k) is the base-n
number a_1 a_2 .. a_k), stored as one read-only int64 array; `.table` is a
tuple view of it, built on first use, for callers outside the library.
Everything in this package consumes this one representation.  Derived
algebras are materialized back into the same form by one row-major grid
gather, `_apply_combos`: `_materialize` builds every subalgebra of a product
on its row indices (products, powers, pair algebras, traces) from the
results that `_restricted_results` places, which also checks a relation for
closure without building it; `_row_quotient` gathers at one row per block
of a partition of such a subset (`quotient` is its width-1 case, the
difference algebra its pair case), and `is_homomorphism` checks a map.

Operation tables, element maps and the other values here are immutable after
construction.  Each `FiniteAlgebra` also carries a private memo, `_cache`, of
derived results (congruence lattices, matrix sets, term-condition verdicts,
the closure engine's block tables and plans), written only by `_memo` and
read by it and by the hit path of `_memoized`.  A key is a tuple: the
function that computes the result, or the class of a result whose public
function validates or caps first, followed by the arguments the result
depends on.  Filling it mutates the instance, without any locking, so an
algebra shared between threads needs the caller's own synchronization.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import zlib
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


def _memo(algebra: FiniteAlgebra, key: tuple, build: Callable[[], object]):
    """The result memoized on `algebra` under `key`, built by `build()` and
    stored on the first request; a build that raises stores nothing."""
    cache = algebra._cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _memoized(fn):
    """Memoize `fn(algebra, *args)` on the algebra, keyed by `fn` and the
    arguments, keyword arguments bound to their positions; the wrapper
    keeps `fn`'s name and module.  A hit is one lookup in the memo; only a
    miss goes through `_memo`."""
    bind = inspect.signature(fn).bind

    @functools.wraps(fn)
    def memoized(algebra, *args, **kwargs):
        if kwargs:
            algebra, *args = bind(algebra, *args, **kwargs).args
        key = (fn, *args)
        try:
            return algebra._cache[key]
        except KeyError:
            pass
        # outside the handler, so that an error of the build is not chained
        # to the failed lookup
        return _memo(algebra, key, lambda: fn(algebra, *args))

    return memoized


class CapExceededError(RuntimeError):
    """A generation process exceeded its hard cap."""

    def __init__(self, cap_name: str, cap: int):
        super().__init__(f"cap '{cap_name}' exceeded ({cap})")
        self.cap_name = cap_name
        self.cap = cap


class SignatureMismatchError(ValueError):
    """Two algebras were expected to have the same (name, arity) sequence."""


class Operation:
    """A named k-ary operation table on {0, .., n-1}: one read-only int64
    array, `array()`, kept as given when it is one and copied otherwise;
    entries that are not integers raise ValueError.  `.table` is the same
    table as a tuple of Python ints, built on first use."""

    __slots__ = ("name", "arity", "_array", "_table", "_hash")

    def __init__(self, name: str, arity: int, table):
        self.name = str(name)
        self.arity = int(arity)
        array = np.asarray(table)
        # numpy reads a bool among ints as an int, so a sequence is checked for one
        if array.ndim != 1 or (array.size and array.dtype.kind not in "iu") or (
            array is not table and bool in set(map(type, table))
        ):
            raise ValueError(f"operation '{self.name}': table entries must be integers")
        kept = array is not table or not array.flags.writeable  # no caller can write to it
        if array.dtype != np.int64 or not (kept and array.flags.c_contiguous):
            array = array.astype(np.int64)
        self._array = _frozen(array)
        self._table: tuple[int, ...] | None = None
        # a checksum of the bytes in place: a copy of a large table can exhaust memory
        self._hash = hash((self.name, self.arity, zlib.crc32(array)))

    @property
    def table(self) -> tuple[int, ...]:
        if self._table is None:
            self._table = tuple(self._array.tolist())
        return self._table

    def array(self) -> np.ndarray:
        return self._array

    def __eq__(self, other):
        return (
            isinstance(other, Operation)
            and self.name == other.name
            and self.arity == other.arity
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return self._hash

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
            op = spec if isinstance(spec, Operation) else Operation(*spec)
            table = op.array()
            if len(table) != size**op.arity:
                raise ValueError(
                    f"operation '{op.name}': table length {len(table)} != {size}^{op.arity}"
                )
            if table.view(np.uint64).max() >= size:  # a negative entry wraps above any size
                entry = table[(table < 0) | (table >= size)][0]
                raise ValueError(f"operation '{op.name}': entry {entry} out of range")
            if op.arity == 0:
                # one table entry naming a constant; widen to a unary table
                op = Operation(op.name, 1, _frozen(np.repeat(table, size)))
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
            self.size, [(nm, op.arity, op.array()) for nm, op in zip(names, self.operations)]
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
    return int(op.array()[idx])


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
    chunks in row-major grid order, for every arity.  Grids larger than the
    chunk budget are split along axis 0.  The one table gather: used by
    `_restricted_results` (and so `_materialize` and `_row_quotient`),
    `is_homomorphism`, the subuniverse test `_closed_columns` and the
    row-mode clone search in `diffterm`.
    """
    k = len(parts)
    sizes = [p.shape[0] for p in parts]
    if any(s == 0 for s in sizes):
        return
    rest = 1
    for s in sizes[1:]:
        rest *= s
    step = max(1, _CHUNK_CELLS // max(1, rest * width))
    for lo in range(0, sizes[0], step):
        idx = parts[0][lo : lo + step].reshape((-1,) + (1,) * (k - 1) + (width,))
        for i in range(1, k):
            idx = idx * n + parts[i].reshape((1,) * i + (-1,) + (1,) * (k - 1 - i) + (width,))
        yield tab[idx.reshape(-1, width)]


def _restricted_results(factors: Sequence[FiniteAlgebra], rows, at=None):
    """The results of every operation over the row-major grid of `rows` (or
    of the rows at the indices `at`), as row indices, one slice at a time.

    `rows` are the sorted, distinct rows of a subset S of A_1 x .. x A_w,
    where the factors share one signature.  Yields (operation index, row
    indices, None) per slice while the results stay in S.  At the first
    result outside S, in operation order and then in row-major grid order,
    yields (operation index, None, (op name, argument rows, result row)) and
    stops.  A slice fixes a range of the first argument within the chunk
    budget; each distinct factor gathers it once on its own columns, and
    the results are placed by `searchsorted` on mixed-radix row codes, or
    read as indices when S is the whole product.
    """
    sizes = [f.size for f in factors]
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(factors))
    place = np.array([math.prod(sizes[j + 1 :]) for j in range(len(sizes))], dtype=np.int64)
    codes = rows @ place
    full = len(codes) == math.prod(sizes)
    columns: dict[FiniteAlgebra, list[int]] = {}
    for j, factor in enumerate(factors):
        columns.setdefault(factor, []).append(j)
    grid = rows if at is None else rows.take(at, axis=0)
    m = grid.shape[0]
    for i, op in enumerate(factors[0].operations):
        k = op.arity
        step = max(1, _CHUNK_CELLS // max(1, m ** (k - 1) * len(factors)))
        for lo in range(0, m, step):
            code = None
            for factor, cols in columns.items():
                parts = [grid[lo : lo + step]] + [grid] * (k - 1)
                if len(columns) > 1:
                    parts = [p[:, cols] for p in parts]
                out = list(_apply_combos(factor.operations[i].array(), factor.size, parts, len(cols)))
                out = out[0] if len(out) == 1 else np.concatenate(out)
                # a single coordinate is its own code
                term = out.ravel() if len(sizes) == 1 else out @ place[cols]
                code = term if code is None else code + term
            if full:
                yield i, code, None
                continue
            pos = np.searchsorted(codes, code)
            miss = codes.take(pos, mode="clip") != code
            if miss.any():
                hit = int(np.argmax(miss))
                args = np.unravel_index(lo * m ** (k - 1) + hit, (m,) * k)
                result = tuple(int(code[hit]) // p % s for p, s in zip(place.tolist(), sizes))
                yield i, None, (op.name, tuple(tuple(grid[r].tolist()) for r in args), result)
                return
            yield i, pos, None


def _materialize(
    factors: Sequence[FiniteAlgebra], rows
) -> tuple[FiniteAlgebra | None, tuple | None]:
    """The subset S of A_1 x .. x A_w given by its sorted, distinct rows,
    as an algebra on row indices, or the first operation result outside S.

    Returns (algebra, None) when S is closed under every operation acting
    coordinatewise, and otherwise (None, (op name, argument rows, result
    row)), as `_restricted_results` finds it.
    """
    # each table is filled in place, slice by slice, so no second copy of it is held
    tables = [np.empty(len(rows) ** op.arity, dtype=np.int64) for op in factors[0].operations]
    filled = [0] * len(tables)
    for i, pos, witness in _restricted_results(factors, rows):
        if witness is not None:
            return None, witness
        tables[i][filled[i] : filled[i] + len(pos)] = pos
        filled[i] += len(pos)
    ops = [(op.name, op.arity, _frozen(t)) for op, t in zip(factors[0].operations, tables)]
    return FiniteAlgebra(len(rows), ops), None


def _frozen(array: np.ndarray) -> np.ndarray:
    """`array`, made read-only, so that `Operation` keeps it without a copy."""
    array.setflags(write=False)
    return array


def _pack(rows: np.ndarray, n: int) -> np.ndarray:
    codes = rows[:, 0].copy()
    for c in range(1, rows.shape[1]):
        codes *= n
        codes += rows[:, c]
    return codes


@functools.lru_cache(maxsize=64)
def _salt(size: int) -> np.ndarray:
    """Fixed odd int64 salts, read-only, to hash rows by a wrapping dot product."""
    return _frozen(
        np.random.default_rng(0).integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64) | 1
    )


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


@_memoized
def _block_table(algebra: FiniteAlgebra, index: int, b: int) -> np.ndarray:
    """Operation `index` lifted coordinatewise to blocks of b coordinates.

    A block code is the base-n number of its b coordinates; the table is
    indexed by the k argument block codes read as one base-n^b number, so
    b = 1 gives the operation table itself.
    """
    op = algebra.operations[index]
    if b == 1:
        return op.array()
    # a block of b coordinates is a block of b - 1 followed by one more
    n, k = algebra.size, op.arity
    head = _block_table(algebra, index, b - 1).reshape((n ** (b - 1), 1) * k)
    return _frozen((head * n + op.array().reshape((1, n) * k)).ravel())


@_memoized
def _closure_plan(algebra: FiniteAlgebra, width: int) -> list:
    """Per operation: (arity, block widths, block tables) for width-w codes.

    Each block table is scaled by the place value of its block in a code,
    so a result code is the sum of one lookup per block.
    """
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


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, sorted.  A sort and a mask: on
    int64 this is several times faster than `np.unique` at numpy 2.4, which
    also imports `numpy.ma` on its first call."""
    codes = codes.copy()
    codes.sort()
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


class _DenseMembers:
    """Closure membership as a boolean bitmap over the whole code space."""

    def __init__(self, space: int, codes: np.ndarray):
        self.seen = np.zeros(space, dtype=bool)
        self.seen[codes] = True

    def fresh(self, codes: np.ndarray) -> np.ndarray:
        return _distinct(codes[~self.seen.take(codes)])

    def add(self, codes: np.ndarray) -> None:
        self.seen[codes] = True


class _SortedMembers:
    """Closure membership as a sorted code array, for spaces too large for
    a bitmap."""

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    def fresh(self, codes: np.ndarray) -> np.ndarray:
        codes = _distinct(codes)
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


def _constants(algebra: FiniteAlgebra) -> list[int]:
    """The distinct constants of the algebra, sorted: the values of its unary
    operations with a constant table, which is how construction keeps its
    nullary operations."""
    tables = [op.array() for op in algebra.operations if op.arity == 1]
    return sorted({int(t[0]) for t in tables if (t == t[0]).all()})


def _elements(algebra: FiniteAlgebra, subset: Iterable[int]) -> list[int]:
    """The distinct elements of `subset`, sorted; ValueError on one outside
    the universe."""
    elements = sorted({int(x) for x in subset})
    for a in elements:
        if not 0 <= a < algebra.size:
            raise ValueError(f"element {a} out of range")
    return elements


def generate_subuniverse(
    algebra: FiniteAlgebra, seed: Iterable[int], *, cap: int = DEFAULT_CLOSURE_CAP
) -> frozenset[int]:
    """Least subset of the universe containing `seed` and closed under all
    ops; from an empty seed, the subuniverse generated by the constants."""
    seed = _elements(algebra, seed)
    if not seed:
        seed = _constants(algebra)
        if not seed:
            return frozenset()
    members, _ = closure_in_power(
        algebra, 1, [(a,) for a in seed], cap=cap, cap_name="subuniverse"
    )
    return frozenset(t[0] for t in members)


def _closed_columns(algebra: FiniteAlgebra, columns: np.ndarray) -> np.ndarray:
    """Whether each column of the (r, T) element array `columns`, r >= 1, is
    closed under every operation, as a boolean array of length T.

    Each operation of arity k is applied to the r^k argument tuples of every
    column at once, by one `_apply_combos` gather over the columns as its
    width, and its results are looked up in a (T, n) membership table.  The
    gather takes as many columns at a time as keep r^(k-1) of them within
    `_CHUNK_CELLS`, and slices the first argument within it.
    """
    n = algebra.size
    r, t = columns.shape
    member = np.zeros((t, n), dtype=bool)
    member[np.arange(t), columns] = True
    member = member.ravel()
    closed = np.ones(t, dtype=bool)
    for op in algebra.operations:
        step = max(1, _CHUNK_CELLS // r ** (op.arity - 1))
        for lo in range(0, t, step):
            part = columns[:, lo : lo + step]
            shift = np.arange(lo, lo + part.shape[1], dtype=np.int64) * n
            for out in _apply_combos(op.array(), n, [part] * op.arity, part.shape[1]):
                closed[lo : lo + step] &= member[out + shift].all(axis=0)
    return closed


def is_subuniverse(algebra: FiniteAlgebra, subset: Iterable[int]) -> bool:
    """Whether `subset` is closed under every operation: one gather per
    operation over its argument tuples, without closing it.  The empty set
    is a subuniverse iff the algebra has no constants."""
    sub = _elements(algebra, subset)
    if not sub:
        return not _constants(algebra)
    return bool(_closed_columns(algebra, np.array(sub, dtype=np.int64)[:, None])[0])


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
    rows = np.indices((a.size, b.size)).reshape(2, -1).T
    return DirectProduct(_materialize([a, b], rows)[0], a.size, b.size)


@_memoized
def power(a: FiniteAlgebra, k: int) -> FiniteAlgebra:
    """A^k, materialized on its tuples in row-major order; memoized on A."""
    if k < 1:
        raise ValueError("power expects k >= 1")
    rows = np.indices((a.size,) * k).reshape(k, -1).T
    return _materialize([a] * k, rows)[0]


class Quotient:
    """A/theta with the projection map; blocks indexed by least representative."""

    __slots__ = ("algebra", "projection", "block_representatives")

    def __init__(self, algebra: FiniteAlgebra, projection: ElementMap, reps: tuple[int, ...]):
        self.algebra = algebra
        self.projection = projection
        self.block_representatives = reps


def _row_quotient(factors: Sequence[FiniteAlgebra], rows, theta, *, check: bool):
    """The subset S of A_1 x .. x A_w given by its sorted, distinct rows,
    modulo a partition `theta` of the row indices: the results at the least
    row of each block, read as labels, so no table of S is built.  check=True
    streams every result and compares labels.  Returns (quotient, None), or
    (None, (op name, left)) for the first operation whose results leave S
    (left True; these come first) or do not factor through theta."""
    m = len(rows)
    if theta.size != m:
        raise ValueError("partition size mismatch")
    labels = np.asarray(theta.index, dtype=np.int64)
    reps = tuple(blk[0] for blk in theta.blocks)
    ops = [(op.name, op.arity, []) for op in factors[0].operations]
    for i, pos, witness in _restricted_results(factors, rows, reps):
        if witness is not None:
            return None, (witness[0], True)
        ops[i][2].append(labels[pos])
    ops = [(name, k, _frozen(t[0] if len(t) == 1 else np.concatenate(t))) for name, k, t in ops]
    q = Quotient(FiniteAlgebra(len(reps), ops), ElementMap(m, len(reps), theta.index), reps)
    failed = None
    done = [0] * len(ops)
    for i, pos, witness in _restricted_results(factors, rows) if check else ():
        if witness is not None:
            return None, (witness[0], True)
        op = q.algebra.operations[i]
        # a slice holds the grid rows of a range of first arguments
        per = m ** (op.arity - 1)
        first = labels[done[i] // per : (done[i] + len(pos)) // per, None]
        expected = _apply_combos(op.array(), len(reps), [first] + [labels[:, None]] * (op.arity - 1), 1)
        if failed is None and not np.array_equal(labels[pos], np.concatenate(list(expected)).ravel()):
            failed = op.name
        done[i] += len(pos)
    return (q, None) if failed is None else (None, (failed, False))


def quotient(algebra: FiniteAlgebra, theta, *, check: bool = True) -> Quotient:
    """Quotient algebra modulo a congruence `theta` (a Partition), by
    `_row_quotient`; with check=True a partition that is not compatible
    with every operation raises ValueError naming the first one."""
    q, failure = _row_quotient([algebra], np.arange(algebra.size)[:, None], theta, check=check)
    if failure is not None:
        raise ValueError(f"partition is not a congruence (operation '{failure[0]}')")
    return q


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
# Homomorphism search.
# ---------------------------------------------------------------------------


def _homomorphisms(
    a: FiniteAlgebra, b: FiniteAlgebra, allowed: np.ndarray, *, injective: bool = False
) -> Iterable[tuple[int, ...]]:
    """Every homomorphism h: a -> b of one signature with h(x) in the
    allowed images of x (row x of the boolean matrix `allowed`), and
    injective if asked, as image tuples in lexicographic order.

    Elements with one allowed image are assigned first.  Each step then
    branches on the least element whose image is not yet forced and tries
    its allowed images in ascending order.  After every assignment, each
    operation instance whose arguments all have images, one of them new,
    forces the image of its result (a mask over the argument tuples picks
    the instances, one gather per arity), and a conflict ends the branch.  The assigned elements are thus always the subuniverse generated
    by the branch points and the singly allowed elements, so the branching
    runs over the images of a greedy generating set only, and every element
    below a branch point already has its image: maps come out in
    lexicographic order.
    """
    na, nb = a.size, b.size
    by_arity: dict[int, tuple[list, list]] = {}
    for op_a, op_b in zip(a.operations, b.operations):
        ta, tb = by_arity.setdefault(op_a.arity, ([], []))
        ta.append(op_a.array())
        tb.append(op_b.array())
    # per arity: every argument tuple of a (row i is the i-th row-major
    # tuple), place values of b, and one table per algebra with a column
    # per operation
    plan = [
        (
            np.indices((na,) * k).reshape(k, -1).T,
            nb ** np.arange(k - 1, -1, -1),
            np.stack(ta, 1),
            np.stack(tb, 1),
        )
        for k, (ta, tb) in sorted(by_arity.items())
    ]

    owner = np.zeros(nb, dtype=np.int64)  # scratch: which element took each image

    def settle(images: np.ndarray, used: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> bool:
        """Assign xs -> ys and all that they force; False on a conflict."""
        while xs.size:
            current = images[xs]
            known = current >= 0
            if (current[known] != ys[known]).any():
                return False
            xs, ys = xs[~known], ys[~known]
            if not xs.size:
                break
            if not allowed[xs, ys].all():
                return False
            if injective:
                if used[ys].any():
                    return False
                used[ys] = True
                owner[ys] = xs
                if (owner[ys] != xs).any():  # two elements forced onto one image
                    return False
            images[xs] = ys
            if (images[xs] != ys).any():  # two images forced on one element
                return False
            assigned = images >= 0
            new = np.zeros(na, dtype=bool)
            new[xs] = True
            out_x, out_y = [xs[:0]], [ys[:0]]
            for args, place, ta, tb in plan:
                hit = assigned[args].all(1) & new[args].any(1)
                out_x.append(ta[hit].ravel())
                out_y.append(tb[images[args[hit]] @ place].ravel())
            xs, ys = np.concatenate(out_x), np.concatenate(out_y)
        return True

    def branch(images: np.ndarray, used: np.ndarray):
        free = np.flatnonzero(images < 0)
        if not free.size:
            yield tuple(images.tolist())
            return
        x = free[:1]
        for y in np.flatnonzero(allowed[x[0]]):
            trial, trial_used = images.copy(), used.copy()
            if settle(trial, trial_used, x, np.array([y])):
                yield from branch(trial, trial_used)

    images = np.full(na, -1, dtype=np.int64)
    used = np.zeros(nb, dtype=bool)
    single = np.flatnonzero(allowed.sum(axis=1) == 1)
    if settle(images, used, single, allowed[single].argmax(axis=1)):
        yield from branch(images, used)


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> ElementMap | None:
    """The lexicographically least isomorphism a -> b, or None when there
    is none.

    The first map of the homomorphism search with every image allowed and
    injectivity required; a bijective homomorphism of finite algebras is an
    isomorphism.  The search yields maps in lexicographic order of their
    images, so the first one is the least.
    """
    if a.signature() != b.signature() or a.size != b.size:
        return None
    allowed = np.ones((a.size, b.size), dtype=bool)
    images = next(_homomorphisms(a, b, allowed, injective=True), None)
    return None if images is None else ElementMap(a.size, b.size, images)


def is_homomorphism(a: FiniteAlgebra, b: FiniteAlgebra, h: ElementMap) -> bool:
    """Exhaustively check h(op(x..)) == op(h(x)..) for all ops and tuples:
    op_b over the grid of images, gathered once per operation, against the
    images of op_a's table."""
    if not a.same_signature(b):
        return False
    if h.source_size != a.size or h.target_size != b.size:
        raise ValueError("map sizes do not match the algebras")
    images = np.asarray(h.images, dtype=np.int64)
    for op_a, op_b in zip(a.operations, b.operations):
        lhs = images[op_a.array()]
        lo = 0
        for chunk in _apply_combos(op_b.array(), b.size, [images[:, None]] * op_a.arity, 1):
            if not np.array_equal(chunk.ravel(), lhs[lo : lo + chunk.shape[0]]):
                return False
            lo += chunk.shape[0]
    return True
