import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finalg import (
    Partition,
    parse_algebra,
    run_command,
    serialize_algebra,
    serialize_report,
)
from finalg import cli
from finalg.centrality import InconsistencyError
from finalg.documents import DocumentError, parse_partition_argument
from finalg.generator import config_to_dict
from finalg.report import CheckItem, Report

ROOT = Path(__file__).resolve().parent.parent


def test_roundtrip_fixtures(z2, z4, s2, two_sq):
    for alg in (z2, z4, s2, two_sq):
        text = serialize_algebra(alg)
        parsed, labels, gen = parse_algebra(text)
        assert parsed == alg and labels == {} and gen is None
        assert serialize_algebra(parsed) == text


def test_roundtrip_with_labels(z4, z4_theta):
    text = serialize_algebra(z4, labels={"theta": z4_theta})
    parsed, labels, _ = parse_algebra(text)
    assert labels == {"theta": z4_theta}
    assert serialize_algebra(parsed, labels=labels) == text


def test_roundtrip_generated(gen2):
    text = serialize_algebra(
        gen2.algebra,
        labels={"mu": gen2.mu, "alpha": gen2.alpha},
        generator=config_to_dict(gen2.config),
    )
    parsed, labels, genmeta = parse_algebra(text)
    assert parsed == gen2.algebra
    assert labels["mu"] == gen2.mu and labels["alpha"] == gen2.alpha
    assert serialize_algebra(parsed, labels=labels, generator=genmeta) == text


def test_parse_errors():
    with pytest.raises(DocumentError):
        parse_algebra("not json")
    with pytest.raises(DocumentError):
        parse_algebra(json.dumps({"size": 2}))
    doc = {"size": 2, "operations": [{"name": "f", "arity": 1, "table": [0, 2]}]}
    with pytest.raises(DocumentError, match="out of range"):
        parse_algebra(json.dumps(doc))
    doc = {"size": 2, "operations": [{"name": "f", "arity": 2, "table": [0, 1]}]}
    with pytest.raises(DocumentError, match="table length"):
        parse_algebra(json.dumps(doc))


@pytest.mark.parametrize("entry", [1.9, True, "2"], ids=["float", "bool", "string"])
def test_non_integer_entries_are_rejected(tmp_path, entry):
    """A float, a bool or a string entry is refused at the document
    boundary, not truncated or read as an int; the CLI exits 2."""
    doc = {"size": 3, "operations": [{"name": "f", "arity": 1, "table": [0, entry, 2]}]}
    with pytest.raises(DocumentError, match="must be integers"):
        parse_algebra(json.dumps(doc))
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    code, text = run_command(["con", "--in", str(path)])
    assert code == 2 and "must be integers" in text, text


def test_nullary_normalized_in_documents():
    doc = {"size": 3, "operations": [{"name": "c", "arity": 0, "table": [1]}]}
    alg, _, _ = parse_algebra(json.dumps(doc))
    assert alg.operation("c").arity == 1
    assert alg.operation("c").table == (1, 1, 1)


def test_partition_argument_forms(z4, z4_theta):
    labels = {"theta": z4_theta}
    assert parse_partition_argument("theta", 4, labels) == z4_theta
    assert parse_partition_argument("zero", 4, {}) == Partition.zero(4)
    assert parse_partition_argument("full", 4, {}) == Partition.one(4)
    assert parse_partition_argument("[[0,2],[1,3]]", 4, {}) == z4_theta
    assert parse_partition_argument("0,2|1,3", 4, {}) == z4_theta
    with pytest.raises(DocumentError):
        parse_partition_argument("0,2|1", 4, {})


def test_cli_inspection_commands(tmp_path, z4, z4_theta, gen2):
    from finalg.generator import config_to_dict

    z4_path = tmp_path / "z4.alg"
    z4_path.write_text(serialize_algebra(z4, labels={"theta": z4_theta}))
    gen_path = tmp_path / "gen2.alg"
    gen_path.write_text(
        serialize_algebra(
            gen2.algebra,
            labels={"mu": gen2.mu, "alpha": gen2.alpha},
            generator=config_to_dict(gen2.config),
        )
    )
    code, text = run_command(
        ["diffalg", "--in", str(z4_path), "--theta", "theta", "--d", "p", "--phi", "full"]
    )
    assert code == 0 and "diagonal-congruence" in text
    code, text = run_command(["ranges", "--in", str(gen_path), "--theta", "mu", "--d", "d"])
    assert code == 0 and text.count("item range-") == 3
    code, text = run_command(
        ["arrow", "--in", str(gen_path), "--theta", "mu", "--d", "d", "--rep", "0"]
    )
    assert code == 0 and "arrow-0" in text
    code, text = run_command(
        ["freese", "--in", str(z4_path), "--theta", "theta", "--d", "p", "--transversal", "0,1"]
    )
    assert code == 0 and "hom-set ring" in text
    code, text = run_command(["field", "--q", "4"])
    assert code == 0 and "GF(4)" in text
    code, text = run_command(["field", "--q", "6"])
    assert code == 2
    code, text = run_command(["wdt-search", "--in", str(z4_path)])
    assert code == 0 and "found table" in text
    code, text = run_command(["centralizer", "--in", str(z4_path), "--delta", "zero", "--theta", "0,2|1,3"])
    assert code == 0 and "0,1,2,3" in text


def test_report_serialization_empty():
    text = serialize_report(Report("empty"))
    assert text.splitlines() == ["# finalg report", "title: empty", "summary: pass 0 fail 0 skip 0"]


def test_report_serialization_shape():
    rep = Report(
        "demo",
        (
            CheckItem("a", "x/a", "first", True),
            CheckItem("b", "x/b", "second", False, witness=(1, 2)),
            CheckItem("c", "x/c", "third", None, note="skipped: why"),
        ),
    )
    text = serialize_report(rep, command="finalg demo")
    lines = text.splitlines()
    assert lines[0] == "# finalg report"
    assert lines[1] == "command: finalg demo"
    assert "item a pass anchor=x/a" in lines
    assert "item b fail anchor=x/b" in lines
    assert "  witness: (1, 2)" in lines
    assert "item c skip anchor=x/c" in lines
    assert lines[-1] == "summary: pass 1 fail 1 skip 1"


def test_cli_exit_codes(tmp_path, z4, s2, z4_theta):
    z4_path = tmp_path / "z4.alg"
    z4_path.write_text(serialize_algebra(z4, labels={"theta": z4_theta}))
    s2_path = tmp_path / "s2.alg"
    s2_path.write_text(serialize_algebra(s2))

    code, text = run_command(["con", "--in", str(z4_path)])
    assert code == 0 and "3 congruences" in text

    code, text = run_command(["abelian", "--in", str(s2_path), "--theta", "full"])
    assert code == 1 and "witness" in text

    code, text = run_command(["abelian", "--in", str(z4_path), "--theta", "theta"])
    assert code == 0

    code, _ = run_command(["abelian", "--in", str(tmp_path / "missing.alg"), "--theta", "full"])
    assert code == 2

    code, text = run_command(["wdt-verify", "--in", str(z4_path), "--d", "p"])
    assert code == 0

    code, text = run_command(["similar", "--in", str(z4_path), "--in2", str(s2_path)])
    assert code == 1  # different signatures: a verified negative

    code, text = run_command(["bridge", "--in", str(z4_path), "--d", "p"])
    assert code == 0


def test_cli_freese_rejects_a_transversal_outside_the_algebra(tmp_path, gen1):
    path = tmp_path / "gen1.alg"
    path.write_text(serialize_algebra(gen1.algebra, labels={"mu": gen1.mu}))
    argv = ["freese", "--in", str(path), "--theta", "mu", "--d", "d"]
    assert run_command(argv + ["--transversal", "0,2"])[0] == 0
    for value in ("0,2,99", "-1,0,2"):
        code, text = run_command(argv + [f"--transversal={value}"])
        assert code == 2 and "out of range" in text, text

def test_cli_similar_verdicts(tmp_path, z4, z2, cert_z4):
    from finalg import diff_of

    z4_path = tmp_path / "z4.alg"
    z4_path.write_text(serialize_algebra(z4))
    z2p = z2.rename_operations(["p"])
    z2_path = tmp_path / "z2p.alg"
    z2_path.write_text(serialize_algebra(z2p))
    code, text = run_command(
        ["similar", "--in", str(z4_path), "--in2", str(z2_path), "--d", "p", "--d2", "p"]
    )
    assert code == 0 and "item similar pass" in text
    # an algebra against its own difference algebra, through documents
    dz4_path = tmp_path / "dz4.alg"
    dz4_path.write_text(serialize_algebra(diff_of(z4, cert_z4).algebra))
    code, text = run_command(
        ["similar", "--in", str(z4_path), "--in2", str(dz4_path), "--d", "p", "--d2", "p"]
    )
    assert code == 0 and "witness" in text


def test_cli_generate_verify_roundtrip(tmp_path):
    cfg = {"field": {"p": 2, "k": 1}, "dims": [2, 1], "subspaces": [[[[1, 0]]], []]}
    cfg_path = tmp_path / "gen2.cfg"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "gen2.alg"
    code, _ = run_command(["generate", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    first = out_path.read_text()
    code, _ = run_command(["generate", "--config", str(cfg_path), "--out", str(out_path)])
    assert out_path.read_text() == first  # byte-stable artifact
    code, text = run_command(["verify-claims", "--in", str(out_path)])
    assert code == 0, text


def test_cli_reports_deterministic(tmp_path):
    code1, text1 = run_command(["laws", "--seed", "3", "--count", "4"])
    code2, text2 = run_command(["laws", "--seed", "3", "--count", "4"])
    assert code1 == code2 == 0
    assert text1 == text2


def test_cli_usage_error():
    code, _ = run_command(["no-such-command"])
    assert code == 2
    code, _ = run_command(["con"])  # missing --in
    assert code == 2


def test_cli_internal_error_exit_code(tmp_path, z4, monkeypatch):
    """An InconsistencyError from a stage is an internal error: exit 3, with
    an `internal-error:` line, distinct from the usage and input errors."""

    def broken(*args, **kwargs):
        raise InconsistencyError("centralizer sweep produced a non-centralizing join")

    monkeypatch.setattr(cli, "centralizer", broken)
    z4_path = tmp_path / "z4.alg"
    z4_path.write_text(serialize_algebra(z4))
    code, text = run_command(["centralizer", "--in", str(z4_path), "--delta", "zero", "--theta", "full"])
    assert code == 3
    assert text.splitlines()[-1] == "internal-error: centralizer sweep produced a non-centralizing join"


def test_cli_memory_error_exit_code(tmp_path, z4, monkeypatch):
    """A MemoryError from a stage is a resource error: exit 4, with a
    `resource-error:` line, not the exit 1 of a verified negative."""

    z4_path = tmp_path / "z4.alg"
    z4_path.write_text(serialize_algebra(z4))
    argv = ["centralizer", "--in", str(z4_path), "--delta", "zero", "--theta", "full"]
    for message, last in [
        ("Unable to allocate 1.44 GiB", "resource-error: out of memory: Unable to allocate 1.44 GiB"),
        ("", "resource-error: out of memory"),
    ]:

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "centralizer", exhausted)
        code, text = run_command(argv)
        assert code == 4
        assert text.splitlines()[-1] == last


def test_cli_parser_is_reused_across_commands(tmp_path, z4, s2, z4_theta):
    """One process, one parser: a sequence of different subcommands, parse
    errors and optional arguments given then omitted gives the texts and
    exit codes of the same calls each made with a freshly built parser."""
    z4_path = tmp_path / "z4.alg"
    z4_path.write_text(serialize_algebra(z4, labels={"theta": z4_theta}))
    s2_path = tmp_path / "s2.alg"
    s2_path.write_text(serialize_algebra(s2))
    calls = [
        ["con", "--in", str(z4_path)],
        ["abelian", "--in", str(s2_path), "--theta", "full", "--delta", "zero"],
        ["abelian", "--in", str(s2_path), "--theta", "full"],
        ["no-such-command"],
        ["centralizer", "--in", str(z4_path), "--delta", "zero", "--theta", "theta"],
        ["con"],
        ["wdt-verify", "--in", str(z4_path), "--d", "p", "--scope", "A,A2"],
        ["wdt-verify", "--in", str(z4_path), "--d", "p"],
        ["field", "--p", "3"],
        ["con", "--in", str(z4_path), "--cap", "10"],
        ["con", "--in", str(z4_path)],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_command(argv))
    cli._build_parser.cache_clear()
    in_sequence = [run_command(argv) for argv in calls]
    assert in_sequence == fresh
    assert [code for code, _ in fresh] == [0, 1, 1, 2, 0, 2, 0, 0, 0, 0, 0]
    assert cli._build_parser() is cli._build_parser()


def test_cli_cap_is_enforced_or_rejected(tmp_path, z4, z4_theta):
    """`con --cap` bounds the congruence lattice; commands with no cap to
    apply do not accept the option."""
    z4_path = tmp_path / "z4.alg"
    z4_path.write_text(serialize_algebra(z4, labels={"theta": z4_theta}))
    code, text = run_command(["con", "--in", str(z4_path), "--cap", "1"])
    assert code == 2
    assert "error: cap 'congruence lattice' exceeded (1)" in text
    for argv in (
        ["centralizer", "--delta", "zero", "--theta", "theta"],
        ["abelian", "--theta", "theta"],
        ["wdt-verify", "--d", "p"],
    ):
        assert run_command(argv + ["--in", str(z4_path), "--cap", "5"]) == (2, "")
        assert run_command(argv + ["--in", str(z4_path)])[0] == 0


def test_commands_do_not_import_numpy_ma(tmp_path, gen1, gen3):
    """`np.unique` without a `return_*` argument imports `numpy.ma` on its
    first call, 12-18 ms once per process; no command on these paths, and
    no hash-collision fallback of the clone search, calls it."""
    paths = {}
    for label, gen in (("gen1", gen1), ("gen3", gen3)):
        paths[label] = tmp_path / f"{label}.alg"
        paths[label].write_text(
            serialize_algebra(gen.algebra, labels={"mu": gen.mu, "alpha": gen.alpha},
                              generator=config_to_dict(gen.config)),
            encoding="utf-8",
        )
    g1, g3 = str(paths["gen1"]), str(paths["gen3"])
    commands = [
        ["diffalg", "--in", g1, "--theta", "mu", "--d", "d"],
        ["freese", "--in", g1, "--theta", "mu", "--d", "d"],
        ["verify-claims", "--in", g1],
        ["laws", "--in", g1],
        ["wdt-search", "--in", g3],
    ]
    script = f"""
import sys
import numpy as np
from finalg import diffterm, parse_algebra, run_command, search_wdt
for argv in {commands!r}:
    assert run_command(argv)[0] == 0, argv
diffterm._row_hashes = lambda rows, salt: np.zeros(len(rows), dtype=np.int64)
assert search_wdt(parse_algebra(open({g3!r}).read())[0]) is not None
assert "numpy.ma" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
