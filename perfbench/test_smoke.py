"""The benchmark's own test: tiny versions of every workload, traced and
untraced, with every verdict checked, plus the oracle on algebras whose
answers are known by hand.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "60", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = _run(tmp_path, "random-sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_z4():
    # x + 1 and x - y on Z4: Con is the chain 0 < {0,2 | 1,3} < 1, and the
    # algebra is affine, so everything centralizes everything.
    ops = [
        ("s", 1, [(x + 1) % 4 for x in range(4)]),
        ("m", 2, [(x - y) % 4 for x in range(4) for y in range(4)]),
    ]
    ref = oracle.analyse(4, ops)
    zero, half, full = (0, 1, 2, 3), (0, 1, 0, 1), (0, 0, 0, 0)
    assert sorted(ref["con"]) == [full, half, zero]
    assert ref["principal"]["0,2"] == half and ref["principal"]["0,1"] == full
    assert all(cent == full for _theta, cent in ref["centralizer"])
    assert [zero, full] in ref["abelian_pairs"]


def test_oracle_semilattice():
    # The two-element meet semilattice: simple and not abelian, so
    # (0 : 1) = 0 while (0 : 0) = 1.
    ref = oracle.analyse(2, [("meet", 2, [0, 0, 0, 1])])
    zero, full = (0, 1), (0, 0)
    assert ref["con"] == [full, zero]
    assert ref["centralizer"] == [[full, zero], [zero, full]]
    assert [zero, full] not in ref["abelian_pairs"]
    assert [zero, zero] in ref["abelian_pairs"]
