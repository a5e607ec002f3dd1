"""Seeded inputs for the random-sweep workload.

The distribution is the one `finalg laws --size-max 5` sweeps: a universe
of 2 to 5 elements and one or two operations, each of arity 0, 1 or 2, with
uniformly random tables.  Sampling is stratified: every block of 72 algebras
holds each (size, arities) shape in exact proportion to its probability, so
runs under different seeds do the same mix of work and differ only in the
tables.  This module imports nothing from finalg, because the oracle uses it
too.
"""

from __future__ import annotations

import random

SIZES = (2, 3, 4, 5)


def _shapes() -> list[tuple[int, tuple[int, ...]]]:
    # One operation (probability 1/2 x 1/3 per arity) weighs three times as
    # much as one two-operation signature (1/2 x 1/9).
    out = []
    for n in SIZES:
        for a in range(3):
            out += [(n, (a,))] * 3
        for a in range(3):
            for b in range(3):
                out.append((n, (a, b)))
    return out


STRATUM = len(_shapes())


def sweep_size(smoke: bool) -> int:
    """Algebras per run: three strata, about 20 s of work at the time the
    benchmark was written."""
    return 12 if smoke else 3 * STRATUM


def random_algebras(seed: int, count: int) -> list[tuple[int, list[tuple[str, int, list[int]]]]]:
    """`count` algebras as (size, [(name, arity, flat table), ...])."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        shapes = _shapes()
        rng.shuffle(shapes)
        for n, arities in shapes:
            ops = [
                (f"f{i}", k, [rng.randrange(n) for _ in range(n**k)])
                for i, k in enumerate(arities)
            ]
            out.append((n, ops))
    return out[:count]
