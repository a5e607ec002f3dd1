"""Operation tables are read-only int64 arrays: equal tables compare equal
and hash alike whatever they were built from, a caller's array is copied,
and the library itself never reads the tuple view `.table`."""

import numpy as np
import pytest

from finalg import FiniteAlgebra, Operation, run_command, serialize_algebra
from finalg.generator import config_to_dict


def test_operations_from_any_integer_table_are_equal():
    values = [2, 0, 1, 1]
    writable = np.array(values, dtype=np.int64)
    frozen = np.array(values, dtype=np.int64)
    frozen.setflags(write=False)
    tables = [list(values), tuple(values), np.array(values, dtype=np.int32), writable, frozen]
    ops = [Operation("f", 2, t) for t in tables]
    assert all(op == ops[0] and hash(op) == hash(ops[0]) for op in ops)
    assert ops[-1].array() is frozen
    writable[0] = 0
    assert ops[3].table == (2, 0, 1, 1) and ops[3] == ops[0]
    table = ops[0].table
    assert type(table) is tuple and all(type(x) is int for x in table)
    assert not ops[0].array().flags.writeable
    with pytest.raises(ValueError):
        ops[0].array()[0] = 1
    assert Operation("f", 2, [2, 0, 1, 0]) != ops[0] and Operation("g", 2, values) != ops[0]


def test_an_operation_spec_is_kept_as_it_is():
    op = Operation("f", 1, [1, 0])
    algebra = FiniteAlgebra(2, [op])
    assert algebra.operation("f") is op
    with pytest.raises(ValueError, match="entry 2 out of range"):
        FiniteAlgebra(2, [Operation("f", 1, [1, 2])])


@pytest.mark.parametrize("table", [[0, 1.5], [True, False], [0, True], ["0", "1"], [[0], [1]]])
def test_non_integer_tables_are_refused(table):
    with pytest.raises(ValueError, match="must be integers"):
        FiniteAlgebra(2, [("f", 1, table)])


COMMANDS = [
    ["diffalg", "--theta", "mu", "--d", "d"],
    ["ranges", "--theta", "mu", "--d", "d"],
    ["freese", "--theta", "mu", "--d", "d"],
    ["similar", "--in2", None, "--d", "d", "--d2", "d"],
    ["bridge", "--d", "d"],
    ["wdt-verify", "--d", "d", "--scope", "A,A2"],
    ["verify-claims"],
    ["laws"],
]


def test_the_library_never_reads_the_tuple_view(tmp_path, monkeypatch, gen2):
    text = serialize_algebra(
        gen2.algebra,
        labels={"mu": gen2.mu, "alpha": gen2.alpha},
        generator=config_to_dict(gen2.config),
    )
    path = tmp_path / "gen2.alg"
    path.write_text(text)

    def refuse(op):
        raise AssertionError(f"read of {op!r}.table")

    monkeypatch.setattr(Operation, "table", property(refuse))
    for argv in COMMANDS:
        command, *rest = argv
        rest = [str(path) if a is None else a for a in rest]
        code, report = run_command([command, "--in", str(path), *rest])
        assert code == 0, (argv, report)
