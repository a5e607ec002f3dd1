"""The centralizer (delta : theta), read off the largest congruence of the
pair algebra of theta inside the partition of the theta-pairs by
delta-membership, against the term condition's route (the diagonal
congruence Delta) and against brute force; at the default slice budget, at
a budget of 16 cells, and with two salts that force the exact regrouping:
an all-zero one, under which every row hash collides, and one that reads
only an element's own label, under which refinement stops at once, inside
the partition by delta-membership but not stable."""

import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import (
    FiniteAlgebra,
    Partition,
    centralizer,
    centralizes,
    congruence_lattice,
    core,
    is_congruence,
    run_command,
    serialize_algebra,
)

from oracles import all_partitions, brute_centralizer

BUDGETS = (core._CHUNK_CELLS, 16)

# Con(A) of an algebra of constants has every partition: at n = 6, 203
# elements; larger lattices are checked on a drawn sample of this many
CON_SAMPLE = 8

# the sliced and collision runs regroup one translation at a time, so they
# are compared on a drawn sample of this many (delta, theta) pairs
PAIR_SAMPLE = 4


@st.composite
def algebras(draw):
    """(n, ops): n 2-6, one or two operations of arity 0-3; the tables are
    sometimes forced to respect a drawn partition, so that Con(A) is not
    just {0, 1}."""
    n = draw(st.integers(2, 6))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    canon = [labels.index(labels[x]) for x in range(n)]
    respect = draw(st.booleans())
    ops = []
    for i, k in enumerate(arities):
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        if respect:
            out = []
            for idx, args in enumerate(itertools.product(range(n), repeat=k)):
                rep = 0
                for a in args:
                    rep = rep * n + canon[a]
                want = table[rep]
                out.append(table[idx] if labels[table[idx]] == labels[want] else canon[want])
            table = out
        ops.append((f"f{i}", k, table))
    return n, ops


def _zero_salt(size):
    return np.zeros(size, dtype=np.int64)


def _own_label_salt(size):
    salt = np.zeros(size, dtype=np.int64)
    salt[0] = 1
    return salt


def _centralizers(n, ops, pairs, budget, salt):
    """Every centralizer of `pairs`, on a fresh algebra (the memo is per
    algebra), at the given slice budget and salt."""
    algebra = FiniteAlgebra(n, ops)
    with mock.patch.object(core, "_CHUNK_CELLS", budget), mock.patch.object(core, "_salt", salt):
        return [centralizer(algebra, delta, theta) for delta, theta in pairs]


def _z4():
    return 4, [("add", 2, [(x + y) % 4 for x, y in itertools.product(range(4), repeat=2)])]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras(), data=st.data())
def test_centralizer_is_the_largest_centralizing_congruence(case, data):
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    con = list(congruence_lattice(algebra).elements)
    if len(con) > CON_SAMPLE:
        con = data.draw(st.lists(st.sampled_from(con), min_size=1, max_size=CON_SAMPLE, unique=True))
    pairs = list(itertools.product(con, repeat=2))
    results = _centralizers(n, ops, pairs, core._CHUNK_CELLS, core._salt)
    picks = range(len(pairs))
    if len(pairs) > PAIR_SAMPLE:
        picks = data.draw(st.lists(st.sampled_from(picks), min_size=1, max_size=PAIR_SAMPLE, unique=True))
    sample = [pairs[i] for i in picks]
    for budget, salt in itertools.product(BUDGETS, (core._salt, _zero_salt, _own_label_salt)):
        assert _centralizers(n, ops, sample, budget, salt) == [results[i] for i in picks]
    for (delta, theta), cent in zip(pairs, results):
        for phi in con:
            assert centralizes(algebra, phi, theta, delta).holds == phi.leq(cent)
    # brute force closes full matrix grids, of n^(4 * arity) cells
    if n <= 4 and n ** (4 * max(k for _, k, _ in ops)) <= 10**5:
        delta, theta = data.draw(st.sampled_from(pairs))
        assert centralizer(algebra, delta, theta) == brute_centralizer(algebra, delta, theta)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=algebras(), pick=st.integers(0, 10**6))
@example(case=_z4(), pick=1)
def test_non_congruences_are_rejected(case, pick):
    """A partition that is not a congruence raises ValueError as theta of the
    library calls, and exits 2 as theta or delta of the CLI commands."""
    n, ops = case
    algebra = FiniteAlgebra(n, ops)
    others = [
        p for p in (Partition(n, blocks) for blocks in all_partitions(n)) if not is_congruence(algebra, p)
    ]
    if not others:
        return
    bad = others[pick % len(others)]
    zero, one = Partition.zero(n), Partition.one(n)
    for call in (
        lambda: centralizer(algebra, zero, bad),
        lambda: centralizer(algebra, bad, one),
        lambda: centralizes(algebra, one, bad, zero),
    ):
        with pytest.raises(ValueError):
            call()
    spec = "|".join(",".join(map(str, blk)) for blk in bad.blocks)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.alg"
        path.write_text(serialize_algebra(algebra))
        for argv in (
            ["centralizer", "--in", str(path), "--delta", "zero", "--theta", spec],
            ["centralizer", "--in", str(path), "--delta", spec, "--theta", "full"],
            ["abelian", "--in", str(path), "--theta", spec],
            ["abelian", "--in", str(path), "--theta", "full", "--delta", spec],
        ):
            code, text = run_command(argv)
            assert code == 2 and "is not a congruence" in text.splitlines()[-1]
