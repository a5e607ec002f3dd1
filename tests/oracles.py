"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: set partitions are enumerated
directly, congruences are filtered by exhaustive compatibility checks, and
matrix sets are closed by full-grid fixpoint iteration.  None of it shares
code with the library's incremental engines.  The one exception to
"naive" is `reference_closure`, the former closure engine, kept verbatim as
the reference that `closure_in_power` must match member for member and
witness for witness.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from finalg import CapExceededError, FiniteAlgebra, Partition


def all_partitions(n: int):
    """Every partition of {0..n-1}, as tuples of sorted blocks."""

    def rec(x: int, blocks: list[list[int]]):
        if x == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(x)
            yield from rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(x + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def compatible(algebra: FiniteAlgebra, blocks) -> bool:
    """Is a partition compatible with every operation table?"""
    n = algebra.size
    index = {}
    for i, blk in enumerate(blocks):
        for x in blk:
            index[x] = i
    for op in algebra.operations:
        for args in itertools.product(range(n), repeat=op.arity):
            for pos in range(op.arity):
                for alt in blocks[index[args[pos]]]:
                    other = list(args)
                    other[pos] = alt
                    i1 = 0
                    i2 = 0
                    for a, b in zip(args, other):
                        i1 = i1 * n + a
                        i2 = i2 * n + b
                    if index[op.table[i1]] != index[op.table[i2]]:
                        return False
    return True


def brute_congruences(algebra: FiniteAlgebra) -> list[Partition]:
    return [
        Partition(algebra.size, blocks)
        for blocks in all_partitions(algebra.size)
        if compatible(algebra, blocks)
    ]


def brute_principal(algebra: FiniteAlgebra, a: int, b: int) -> Partition:
    """Smallest congruence containing (a, b): congruences containing a pair
    are meet-closed, so take the meet of them all."""
    congs = [c for c in brute_congruences(algebra) if c.related(a, b)]
    out = congs[0]
    for c in congs[1:]:
        out = out.meet(c)
    return out


def naive_matrix_closure(algebra: FiniteAlgebra, seeds) -> frozenset:
    """Full-grid fixpoint closure of 4-tuples under entrywise operations."""
    n = algebra.size
    rows = np.array(sorted(set(seeds)), dtype=np.int64)
    while True:
        batches = [rows]
        for op in algebra.operations:
            tab = op.array()
            k = op.arity
            if k == 1:
                batches.append(tab[rows])
            elif k == 2:
                idx = rows[:, None, :] * n + rows[None, :, :]
                batches.append(tab[idx.reshape(-1, 4)])
            elif k == 3:
                idx = (rows[:, None, None, :] * n + rows[None, :, None, :]) * n + rows[
                    None, None, :, :
                ]
                batches.append(tab[idx.reshape(-1, 4)])
            else:
                for combo in itertools.product(range(rows.shape[0]), repeat=k):
                    pick = 0
                    for c in combo:
                        pick = pick * n + rows[c]
                    batches.append(tab[pick].reshape(1, 4))
        merged = np.unique(np.concatenate(batches, axis=0), axis=0)
        if merged.shape[0] == rows.shape[0]:
            return frozenset(map(tuple, merged.tolist()))
        rows = merged


def seed_matrices(theta_pairs, phi_pairs):
    out = set()
    for c, d in theta_pairs:
        out.add((c, d, c, d))
    for a, b in phi_pairs:
        out.add((a, a, b, b))
    return out


def brute_centralizes(algebra: FiniteAlgebra, phi: Partition, theta: Partition, delta: Partition) -> bool:
    """Row condition on M(phi, theta) and column condition on M(theta, phi),
    both by naive closure; they must agree."""
    m1 = naive_matrix_closure(
        algebra, seed_matrices(phi.pairs(), theta.pairs())
    )
    rows_ok = all(
        delta.related(a1, a3) == delta.related(a2, a4) for a1, a2, a3, a4 in m1
    )
    m2 = naive_matrix_closure(
        algebra, seed_matrices(theta.pairs(), phi.pairs())
    )
    cols_ok = all(
        delta.related(a1, a2) == delta.related(a3, a4) for a1, a2, a3, a4 in m2
    )
    assert rows_ok == cols_ok, "oracle conditions disagree"
    return rows_ok


def brute_centralizer(algebra: FiniteAlgebra, delta: Partition, theta: Partition) -> Partition:
    """Largest congruence centralizing theta modulo delta, over the full
    brute-force congruence list."""
    best = Partition.zero(algebra.size)
    for cand in brute_congruences(algebra):
        if brute_centralizes(algebra, cand, theta, delta) and best.leq(cand):
            best = cand
    return best


def brute_pol1(algebra: FiniteAlgebra) -> frozenset:
    """All unary polynomials as image tuples, by naive fixpoint."""
    n = algebra.size
    fns = {tuple(range(n))} | {(c,) * n for c in range(n)}
    while True:
        fresh = set()
        for op in algebra.operations:
            for args in itertools.product(sorted(fns), repeat=op.arity):
                img = []
                for x in range(n):
                    idx = 0
                    for g in args:
                        idx = idx * n + g[x]
                    img.append(op.table[idx])
                fresh.add(tuple(img))
        if fresh <= fns:
            return frozenset(fns)
        fns |= fresh


# ---------------------------------------------------------------------------
# Reference closure: the chunked sort-based engine that `closure_in_power`
# replaced, kept as it was (apart from building its operation list directly)
# so differential tests can require identical members and witnesses.
# ---------------------------------------------------------------------------

_CHUNK_CELLS = 4_000_000


def _apply_combos(tab: np.ndarray, n: int, parts: list[np.ndarray], width: int) -> Iterable[np.ndarray]:
    """Yield op results over the full cartesian grid of the given row blocks.

    Each part is an (m_i, width) array; results are yielded as (m, width)
    chunks.  Grids larger than the chunk budget are split along axis 0.
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
            raise ValueError("use _apply_combos_generic for arity > 3")
        yield tab[idx.reshape(-1, width)]


def _apply_combos_generic(
    tab: np.ndarray, n: int, parts: list[np.ndarray], width: int
) -> Iterable[np.ndarray]:
    """Arity >= 4 fallback: iterate rows of the leading positions in Python."""
    if any(p.shape[0] == 0 for p in parts):
        return
    head, tail = parts[:-2], parts[-2:]
    for rows in itertools.product(*[range(p.shape[0]) for p in head]):
        idx = None
        for p, r in zip(head, rows):
            row = p[r]
            idx = row.copy() if idx is None else idx * n + row
        grid = (idx[None, None, :] * n + tail[0][:, None, :]) * n + tail[1][None, :, :]
        yield tab[grid.reshape(-1, width)]


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


def reference_closure(
    algebra: FiniteAlgebra,
    width: int,
    seeds: Iterable[Sequence[int]],
    *,
    cap: int = 10**6,
    cap_name: str = "closure",
    violation: Callable[[np.ndarray], int | None] | None = None,
) -> tuple[list[tuple[int, ...]], tuple[int, ...] | None]:
    """Close `seeds` under the operations of `algebra` acting coordinatewise.

    Returns (sorted list of member tuples, violation witness or None).  When
    `violation` is given it is applied to every chunk of generated rows; if it
    reports a row the closure aborts immediately and that row is returned as
    the witness (chunks are scanned in a fixed order, so the witness is
    deterministic).  Requires n^width to fit in an int64 code.
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

    frontier = np.array(seed_rows, dtype=np.int64)
    if violation is not None:
        hit = violation(frontier)
        if hit is not None:
            return [tuple(r) for r in seed_rows], tuple(int(x) for x in frontier[hit])

    known_codes = np.unique(_pack(frontier, n))
    all_rows = _unpack(known_codes, n, width)
    frontier = all_rows
    old_rows = np.empty((0, width), dtype=np.int64)
    ops = [(op.name, op.arity, op.array()) for op in algebra.operations]

    def finish(witness=None):
        members = [tuple(int(x) for x in r) for r in _unpack(known_codes, n, width)]
        return members, witness

    while frontier.shape[0]:
        fresh_codes: list[np.ndarray] = []
        round_codes = known_codes
        for _name, k, tab in ops:
            if k == 1:
                chunks = _apply_combos(tab, n, [frontier], width)
            else:
                def chunks_gen():
                    for pos in range(k):
                        parts = [
                            old_rows if i < pos else (frontier if i == pos else all_rows)
                            for i in range(k)
                        ]
                        applier = _apply_combos if k <= 3 else _apply_combos_generic
                        yield from applier(tab, n, parts, width)

                chunks = chunks_gen()
            for out in chunks:
                if out.size == 0:
                    continue
                codes = np.unique(_pack(out, n))
                mask = ~np.isin(codes, round_codes, assume_unique=False)
                codes = codes[mask]
                if codes.size == 0:
                    continue
                if violation is not None:
                    rows = _unpack(codes, n, width)
                    hit = violation(rows)
                    if hit is not None:
                        wit = tuple(int(x) for x in rows[hit])
                        known_codes = np.unique(np.concatenate([round_codes, codes]))
                        return finish(wit)
                fresh_codes.append(codes)
                round_codes = np.unique(np.concatenate([round_codes, codes]))
                if round_codes.size > cap:
                    raise CapExceededError(cap_name, cap)

        if not fresh_codes:
            break
        new_codes = np.setdiff1d(np.concatenate(fresh_codes), known_codes)
        known_codes = round_codes
        frontier = _unpack(new_codes, n, width)
        old_rows = all_rows
        all_rows = _unpack(known_codes, n, width)

    return finish()
