"""The per-algebra memo that every derived result goes through: equal
arguments return the one memoized object, different arguments get their own
entries, validation runs before the lookup, and the memo belongs to its
algebra."""

import dataclasses
from unittest import mock

import pytest

from finalg import (
    Partition,
    centralizer,
    centralizes,
    certificate_from_operation,
    class_group,
    congruence_lattice,
    core,
    diffterm,
    fixtures,
    generate_matrices,
    verify_wdt,
)
from finalg.centrality import diagonal_pair_congruence
from finalg.congruences import _pair_translations

THETA = Partition(4, [[0, 2], [1, 3]])


def _calls(theta):
    """One call per memoized public function that takes arguments besides
    the algebra, on z4 with theta."""
    zero, one = Partition.zero(4), Partition.one(4)
    return [
        lambda a: centralizer(a, zero, theta),
        lambda a: centralizes(a, theta, theta, zero),
        lambda a: diagonal_pair_congruence(a, theta, one),
        lambda a: generate_matrices(a, theta, theta),
        lambda a: class_group(a, certificate_from_operation(a, "p"), theta, 0),
    ]


def test_equal_arguments_return_the_memoized_object():
    algebra = fixtures.z4()
    for call in _calls(THETA) + [congruence_lattice]:
        first = call(algebra)
        size = len(algebra._cache)
        assert call(algebra) is first
        assert len(algebra._cache) == size


def test_different_arguments_do_not_share_an_entry():
    algebra = fixtures.z4()
    zero, one = Partition.zero(4), Partition.one(4)
    for with_theta, with_one in zip(_calls(THETA), _calls(one)):
        assert with_theta(algebra) is not with_one(algebra)
    # the key is the undecorated function and the arguments, keywords
    # bound to their positions
    assert centralizer(algebra, delta=zero, theta=THETA) is centralizer(algebra, zero, THETA)
    assert (centralizer.__wrapped__, zero, THETA) in algebra._cache
    assert (centralizer.__wrapped__, zero, one) in algebra._cache


def test_rank_zero_theta_shares_the_entry_of_none():
    algebra = fixtures.z4()
    first = _pair_translations(algebra, Partition.zero(4))
    size = len(algebra._cache)
    assert _pair_translations(algebra, None) is first
    assert len(algebra._cache) == size


def test_verify_wdt_keeps_the_powers_between_calls():
    """A^k is memoized on A, so a second scoped call reads the condition
    table of A^2 from the memo of A^2 and builds nothing there."""
    algebra = fixtures.z4()
    d = algebra.operation("p").table
    assert core.power(algebra, 2) is core.power(algebra, 2)
    first = verify_wdt(algebra, d, scope=(1, 2))
    square = core.power(algebra, 2)
    entry = square._cache[(diffterm._principal_conditions.__wrapped__,)]
    built = []
    memo = core._memo

    def spy(alg, key, build):
        built.append((alg, key))
        return memo(alg, key, build)

    with mock.patch.object(core, "_memo", spy):
        second = verify_wdt(algebra, d, scope=(1, 2))
    assert not [key for alg, key in built if alg is square]
    assert square._cache[(diffterm._principal_conditions.__wrapped__,)] is entry
    assert (second.verdict, second.checked) == (first.verdict, first.checked)


def test_class_group_checks_the_certificate_before_the_lookup():
    algebra = fixtures.z4()
    valid = certificate_from_operation(algebra, "p")
    assert len(class_group(algebra, valid, THETA, 0)) == 2
    invalid = dataclasses.replace(valid, verdict=False)
    assert invalid.d == valid.d
    with pytest.raises(ValueError, match="valid certificate"):
        class_group(algebra, invalid, THETA, 0)


def test_the_memo_belongs_to_its_algebra():
    algebra = fixtures.z4()
    for call in _calls(THETA) + [congruence_lattice]:
        call(algebra)
    assert algebra._cache
    fresh = fixtures.z4()
    assert fresh == algebra and fresh._cache == {}
    assert congruence_lattice(fresh) is not congruence_lattice(algebra)
