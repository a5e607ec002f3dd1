"""Brute-force reference answers for the random-sweep workload.

Nothing here calls finalg.  Con(A) is every set partition compatible with
every table; a principal congruence is the meet of the congruences holding
the pair; C(phi, theta; delta) is read off the full matrix algebra M(phi,
theta), closed by exhaustive iteration over a precomputed table of each
operation acting on 2x2 matrices.  Partitions are written as restricted
growth strings: element x gets the index of its block, blocks numbered by
their least element.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import random_algebras


def all_partitions(n: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix: list[int], blocks: int):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for b in range(blocks + 1):
            rec(prefix + [b], max(blocks, b + 1))

    rec([], 0)
    return out


def canonical(labels) -> tuple[int, ...]:
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def meet(p, q) -> tuple[int, ...]:
    return canonical(zip(p, q))


def join(p, q) -> tuple[int, ...]:
    parent = list(range(len(p)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for rel in (p, q):
        first: dict = {}
        for x, lab in enumerate(rel):
            parent[find(x)] = find(first.setdefault(lab, x))
    return canonical(find(x) for x in range(len(p)))


def leq(p, q) -> bool:
    """p refines q: each block of p lies in one block of q."""
    return len(set(zip(p, q))) == len(set(p))


class Algebra:
    """Operation tables, with nullary operations widened to constants, and
    each operation tabulated on 2x2 matrices coded base n."""

    def __init__(self, n: int, ops):
        self.n = n
        self.ops = []
        for _name, arity, table in ops:
            if arity == 0:
                arity, table = 1, list(table) * n
            self.ops.append((arity, np.asarray(table, dtype=np.int64)))
        codes = np.arange(n**4, dtype=np.int64)
        self.digits = np.stack([(codes // n ** (3 - i)) % n for i in range(4)], axis=1)
        self.matrix_ops = []
        for arity, table in self.ops:
            image = 0
            for i in range(4):
                col = self.digits[:, i]
                if arity == 1:
                    entry = table[col]
                else:
                    entry = table[col[:, None] * n + col[None, :]]
                image = image * n + entry
            self.matrix_ops.append((arity, image))

    def compatible(self, labels) -> bool:
        lab = np.asarray(labels)
        same = lab[:, None] == lab[None, :]
        for arity, table in self.ops:
            images = lab[table.reshape((self.n,) * arity)]
            if arity == 1:
                if not np.all((images[:, None] == images[None, :]) | ~same):
                    return False
            else:
                rows = np.all(images[:, None, :] == images[None, :, :], axis=2)
                cols = np.all(images.T[:, None, :] == images.T[None, :, :], axis=2)
                if not (np.all(rows | ~same) and np.all(cols | ~same)):
                    return False
        return True

    def matrices(self, phi, theta) -> np.ndarray:
        """M(phi, theta): matrices [[a, a], [b, b]] with a phi b and
        [[c, d], [c, d]] with c theta d, closed under the operations.
        Returns the members as rows (top-left, top-right, bottom-left,
        bottom-right)."""
        n = self.n
        seeds = [
            ((a * n + a) * n + b) * n + b
            for a in range(n)
            for b in range(n)
            if phi[a] == phi[b]
        ] + [
            ((c * n + d) * n + c) * n + d
            for c in range(n)
            for d in range(n)
            if theta[c] == theta[d]
        ]
        member = np.zeros(n**4, dtype=bool)
        frontier = np.unique(np.asarray(seeds, dtype=np.int64))
        member[frontier] = True
        while frontier.size:
            everyone = np.flatnonzero(member)
            images = []
            for arity, table in self.matrix_ops:
                if arity == 1:
                    images.append(table[frontier])
                else:
                    images.append(table[np.ix_(frontier, everyone)].ravel())
                    images.append(table[np.ix_(everyone, frontier)].ravel())
            fresh = np.zeros(n**4, dtype=bool)
            for found in images:
                fresh[found] = True
            fresh &= ~member
            frontier = np.flatnonzero(fresh)
            member |= fresh
        return self.digits[member]


def rows_condition(mats: np.ndarray, delta) -> bool:
    """C holds modulo delta iff no matrix has one row inside delta and the
    other outside."""
    d = np.asarray(delta)
    return bool(np.all((d[mats[:, 0]] == d[mats[:, 1]]) == (d[mats[:, 2]] == d[mats[:, 3]])))


def analyse(n: int, ops) -> dict:
    alg = Algebra(n, ops)
    con = [p for p in all_partitions(n) if alg.compatible(p)]
    zero = tuple(range(n))
    principal = {}
    for a in range(n):
        for b in range(a + 1, n):
            out = None
            for p in con:
                if p[a] == p[b]:
                    out = p if out is None else meet(out, p)
            principal[f"{a},{b}"] = out
    centralizer = []
    abelian_pairs = []
    # Coarsest first: a congruence below one that centralizes theta also
    # does (M(psi, theta) lies inside M(phi, theta) when psi <= phi), so it
    # cannot change the join and is not checked.
    descending = sorted(con, key=lambda p: max(p))
    for theta in con:
        passing = []
        for phi in descending:
            if not any(leq(phi, top) for top in passing) and rows_condition(
                alg.matrices(phi, theta), zero
            ):
                passing.append(phi)
        best = zero
        for phi in passing:
            best = join(best, phi)
        if not rows_condition(alg.matrices(best, theta), zero):
            raise AssertionError(f"centralizing congruences not join-closed: {best}")
        centralizer.append([theta, best])
        square = alg.matrices(theta, theta)
        abelian_pairs += [
            [delta, theta] for delta in con if leq(delta, theta) and rows_condition(square, delta)
        ]
    return {
        "con": con,
        "principal": principal,
        "centralizer": centralizer,
        "abelian_pairs": abelian_pairs,
    }


def answer_file(seed: int, count: int, cache_dir: Path) -> Path:
    """The JSON file of reference answers for the first `count` algebras of
    `seed`, computed on first use and kept in `cache_dir`."""
    path = cache_dir / f"oracle-seed{seed}-count{count}.json"
    if not path.exists():
        out = [analyse(n, ops) for n, ops in random_algebras(seed, count)]
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(out))
        tmp.replace(path)
    return path
