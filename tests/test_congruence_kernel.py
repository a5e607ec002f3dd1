"""The one congruence kernel against the per-pair worklist on operation
tables: `congruence_generated` on the algebra, and `generated_pair_congruence`
on a materialized pair algebra, and the pair translations it reads against
their construction from the tables, at the default slice budget and at a
budget of a few cells, which slices every gather and every expansion."""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from finalg import FiniteAlgebra, Partition, congruence_generated, core
from finalg.centrality import generated_pair_congruence
from finalg.congruences import _pair_translations

from oracles import (
    brute_congruences,
    reference_generated,
    reference_pair_algebra,
    reference_pair_translations,
)


@st.composite
def cases(draw):
    """(n, ops, seeds, theta seeds, pair seeds); ops as (arity, flat table).
    Tables may be forced to respect a drawn partition, so that Con(A) is not
    just {0, 1}; theta is the congruence generated by the theta seeds."""
    n = draw(st.integers(2, 6))
    arities = draw(st.lists(st.integers(0, 4 if n <= 3 else 3), min_size=1, max_size=2))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    canon = [labels.index(labels[x]) for x in range(n)]
    respect = draw(st.booleans())
    ops = []
    for k in arities:
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
        ops.append((k, table))
    element = st.integers(0, n - 1)
    pair = st.tuples(element, element)
    seeds = draw(st.lists(pair, min_size=1, max_size=3))
    theta_seeds = draw(st.lists(pair, max_size=2))
    picks = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=3))
    return n, ops, seeds, theta_seeds, picks


def _affine_quaternary():
    table = [(x - y + z + w) % 3 for x, y, z, w in itertools.product(range(3), repeat=4)]
    return 3, [(4, table)], [(0, 1)], [(0, 2)], [(1, 5)]


def _algebra(n, ops):
    return FiniteAlgebra(n, [(f"f{i}", k, table) for i, (k, table) in enumerate(ops)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), tiny=st.booleans())
@example(case=(4, [], [(0, 1), (2, 3)], [(1, 2)], [(0, 3), (1, 4)]), tiny=False)
@example(case=(4, [], [(0, 1), (2, 3)], [(1, 2)], [(0, 3), (1, 4)]), tiny=True)
@example(case=(3, [(0, [2])], [(0, 1)], [(1, 2)], [(0, 4)]), tiny=False)
@example(case=(3, [(0, [2])], [(0, 1)], [(1, 2)], [(0, 4)]), tiny=True)
@example(case=_affine_quaternary(), tiny=False)
@example(case=_affine_quaternary(), tiny=True)
def test_kernel_matches_per_pair_worklist(case, tiny):
    n, ops, seeds, theta_seeds, picks = case
    expected = reference_generated(n, ops, seeds)
    theta_blocks = reference_generated(n, ops, theta_seeds)
    theta = Partition(n, theta_blocks)
    pairs, pair_ops = reference_pair_algebra(n, ops, theta_blocks)
    pair_seeds = [(pairs[i % len(pairs)], pairs[j % len(pairs)]) for i, j in picks]
    index = {p: i for i, p in enumerate(pairs)}
    expected_pairs = reference_generated(
        len(pairs), pair_ops, [(index[p], index[q]) for p, q in pair_seeds]
    )
    # a budget of 16 cells cuts every gather and enumeration into slices
    budget = 16 if tiny else core._CHUNK_CELLS
    # a fresh algebra for each budget: the kernel memoizes its translations
    with mock.patch.object(core, "_CHUNK_CELLS", budget):
        got = congruence_generated(_algebra(n, ops), seeds)
        got_pairs, got_part = generated_pair_congruence(_algebra(n, ops), theta, pair_seeds)
    assert got.blocks == expected
    assert got_pairs == pairs
    assert got_part.blocks == expected_pairs


@pytest.mark.parametrize("budget", [None, 16])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
@example(case=(4, [], [(0, 1)], [], [(0, 0)]))
@example(case=(3, [(0, [2]), (1, [1, 1, 0])], [(0, 1)], [], [(0, 0)]))
@example(case=_affine_quaternary())
def test_pair_translations_match_reference(case, budget):
    """Every theta, the rank-0 partition and None alike, gets the
    translations built from the tables, with the pairs of row ids strictly
    increasing and the universe in lexicographic order."""
    n, ops = case[:2]
    algebra = _algebra(n, ops)
    thetas = [None, Partition.zero(n)] + brute_congruences(algebra)
    with mock.patch.object(core, "_CHUNK_CELLS", budget or core._CHUNK_CELLS):
        for theta in thetas:
            blocks = [[x] for x in range(n)] if theta is None else theta.blocks
            # a fresh algebra for each theta and budget: the translations are memoized
            pairs, pos, p0, p1, scaled, flat, rows0, rows1 = _pair_translations(_algebra(n, ops), theta)
            universe = sorted((a, b) for blk in blocks for a in blk for b in blk)
            assert pairs == universe
            assert p0.tolist() == [a for a, _ in universe] and p1.tolist() == [b for _, b in universe]
            assert [i for i in range(n * n) if pos[i] >= 0] == [a * n + b for a, b in universe]
            assert (pos[p0 * n + p1] == range(len(pairs))).all()
            assert (scaled == flat * n).all()
            table = flat.reshape(-1, n)
            i, j = rows0[:, 0] // n, rows1[:, 0] // n
            codes = i * len(table) + j
            assert (codes[1:] > codes[:-1]).all()
            got = {(tuple(table[a].tolist()), tuple(table[b].tolist())) for a, b in zip(i, j)}
            assert got == reference_pair_translations(n, ops, blocks)


def test_seeds_outside_the_universe_are_rejected():
    """A seed pair that is not theta-related would otherwise index the pair
    table at -1, the last pair, and merge the wrong classes silently."""
    algebra = _algebra(3, [])
    theta = Partition(3, [[0, 1], [2]])
    with pytest.raises(ValueError, match="outside the pair algebra"):
        generated_pair_congruence(algebra, theta, [((0, 2), (0, 0))])
    with pytest.raises(ValueError, match="out of range"):
        congruence_generated(algebra, [(0, 3)])
