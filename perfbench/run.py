"""The finalg benchmark.

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 40 --trace 0

Runs one workload in a fresh single-threaded worker process, as a closed
loop: each task starts when the previous one has returned.  With --trace 0
it prints the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs
the workload once untraced and once with every public finalg function
wrapped in a span, and prints the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it give the same figures for reading, with the software
and machine they were measured on.  --smoke runs tiny versions of the
workloads, for the benchmark's own test.  perfbench/README.md describes the
workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import os

# Before numpy is imported here (by the oracle) or in a worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
from inputs import sweep_size  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-pipeline", "law-harness", "random-sweep")
SETUP_REPS = 5
# Every run ends within 180 s; this leaves room to stop a stuck worker.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float, oracle_path: Path | None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(args.workdir),
    ]
    if oracle_path is not None:
        cmd += ["--oracle", str(oracle_path)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within the run budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten tasks beyond it: (value,
    percentile, tasks beyond).  With ten tasks or fewer, the maximum."""
    ordered = sorted(values)
    if len(ordered) > 10:
        return ordered[-11], 100 * (len(ordered) - 10) / len(ordered), 10
    return ordered[-1], 100.0, 0


def end_to_end(record: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    ms = [s * 1000 for s in record["task_s"]]
    tail_ms, pct, beyond = tail(ms)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setup_rss_mb": statistics.median(s["setup_rss_mb"] for s in setups),
        "wall_s": record["wall_s"],
        "task_p50_ms": statistics.median(ms),
        "task_tail_ms": tail_ms,
    }
    notes = [
        f"setup_s and setup_rss_mb are medians over {len(setups)} set-ups in fresh processes",
        f"task_tail_ms is p{pct:.1f} of {len(ms)} tasks, {beyond} beyond it",
        f"peak_rss_mb {record['peak_rss_mb']:.6g} MB (whole run; not bounded, see README)",
    ]
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny workloads, for the smoke test")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "finalg" / "__init__.py").is_file():
        raise BenchError(f"no finalg sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    args.workdir = HERE / ".work"
    args.workdir.mkdir(exist_ok=True)

    oracle_path = None
    if args.workload == "random-sweep":
        oracle_path = oracle.answer_file(args.seed, sweep_size(args.smoke), HERE / ".cache")

    setups = []
    if not args.trace and not args.smoke:
        for _ in range(SETUP_REPS - 1):
            setups.append(run_worker(args, "setup", deadline, oracle_path))
    record = run_worker(args, "trace" if args.trace else "run", deadline, oracle_path)
    setups.append(record)

    if args.trace:
        layers = record["layers"]
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in wanted}
        notes = [
            f"{record['wrapped_functions']} functions wrapped; "
            f"{record['traced_tasks']} tasks traced; spans in {record['trace_file']}"
        ]
    else:
        values, notes = end_to_end(record, setups)

    attempted = len(record["task_s"]) + record.get("traced_tasks", 0)
    failed = len(record["failures"])
    for problem in record["failures"][:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} tasks attempted, "
        f"{failed} failed; failed_frac {failed / attempted:.4f} ratio"
    )
    for m in wanted:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(
        f"python {platform.python_version()}, numpy {record['numpy']}, "
        f"nproc {os.cpu_count()}, loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
