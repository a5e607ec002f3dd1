"""One fresh process of the benchmark: set up, run one workload's tasks in a
closed loop, check every verdict against its reference, and print one JSON
record on stdout.  `run.py` starts it; see there for the arguments.

Every task builds fresh algebra objects, so the per-algebra memo of finalg
starts cold in each task, as it does for each CLI invocation.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import finalg  # noqa: E402
import numpy  # noqa: E402
from finalg import CapExceededError, FiniteAlgebra, Partition  # noqa: E402

from inputs import random_algebras, sweep_size  # noqa: E402
from tracer import Tracer  # noqa: E402

# finalg functions are looked up as `finalg.name` at each call, so that the
# tracer's rebinding of the package namespace sees the benchmark's calls.

# The eleven commands of the CLI pipeline, on a document whose labels are
# `mu` (the monolith) and `alpha` (its centralizer) and whose ternary basic
# operation `d` is a weak difference term.
PIPELINE = {
    "con": [],
    "centralizer": ["--delta", "zero", "--theta", "mu"],
    "abelian": ["--theta", "mu"],
    "wdt-verify": ["--d", "d", "--scope", "A"],
    "diffalg": ["--theta", "mu", "--d", "d"],
    "ranges": ["--theta", "mu", "--d", "d"],
    "arrow": ["--theta", "mu", "--d", "d"],
    "freese": ["--theta", "mu", "--d", "d"],
    "similar": ["--in2", None, "--d", "d", "--d2", "d"],
    "bridge": ["--d", "d"],
    "verify-claims": [],
}
# gen2 runs only the commands below the difference-algebra stage: its
# `diffalg` alone takes 30-35 s and the rest about 8 s more, which does not
# fit one run of the benchmark.
GEN2_COMMANDS = ("con", "centralizer", "abelian", "wdt-verify")
LAW_ROUNDS = 6
SWEEP_WDT_CAP = 600


def _fmt(p: Partition) -> str:
    return "|".join(",".join(str(x) for x in blk) for blk in p.blocks)


def _statements(text: str) -> dict[str, str]:
    """Report item id -> statement line."""
    out = {}
    item = None
    for line in text.splitlines():
        if line.startswith("item "):
            item = line.split()[1]
        elif line.startswith("  statement: ") and item is not None:
            out[item] = line[len("  statement: "):]
    return out


def _summary_ok(code: int, text: str) -> str | None:
    summary = [line for line in text.splitlines() if line.startswith("summary: ")]
    if code != 0:
        return f"exit code {code}"
    if len(summary) != 1:
        return "no summary line"
    words = summary[0].split()
    if int(words[2]) < 1 or words[4] != "0":
        return summary[0]
    return None


# -- documents ----------------------------------------------------------------


class Document:
    """A generated algebra written as a CLI document, with the answers its
    generator configuration fixes: the monolith is `mu`, the centralizer of
    the monolith is `alpha`, Con(A) = {0, mu, alpha, 1} (three elements when
    alpha is the full relation, i.e. one class), and the division ring of
    the monolith has the order q of the configuration's field."""

    def __init__(self, label: str, workdir: Path):
        gen = getattr(finalg.generator, f"fixture_{label}")()
        self.label = label
        self.path = workdir / f"{label}.alg"
        self.path.write_text(
            finalg.serialize_algebra(
                gen.algebra,
                labels={"mu": gen.mu, "alpha": gen.alpha},
                generator=finalg.config_to_dict(gen.config),
            ),
            encoding="utf-8",
        )
        n = gen.algebra.size
        self.zero = _fmt(Partition.zero(n))
        self.mu = _fmt(gen.mu)
        self.alpha = _fmt(gen.alpha)
        self.con_size = 3 if len(gen.config.dims) == 1 else 4
        self.q = gen.config.field.q

    def check(self, command: str, code: int, text: str) -> str | None:
        bad = _summary_ok(code, text)
        if bad:
            return bad
        says = _statements(text)
        expected = {
            "con": [
                ("lattice", f"{self.con_size} congruences;"),
                ("monolith", f"monolith {self.mu}; subdirectly irreducible"),
            ],
            "centralizer": [("centralizer", f"({self.zero} : {self.mu}) = {self.alpha}")],
            "freese": [("freese-ring", f"matches the division ring of size {self.q};")],
            "similar": [("similar", "D(left) has")],
        }.get(command, [])
        for item, fragment in expected:
            if fragment not in says.get(item, ""):
                return f"item {item}: expected {fragment!r}, got {says.get(item)!r}"
        return None


def cli_tasks(seed: int, smoke: bool, workdir: Path):
    labels = ["gen1"] if smoke else ["gen1", "gen3", "gen2"]
    docs = [Document(label, workdir) for label in labels]
    tasks = []
    for doc in docs:
        for command, extra in PIPELINE.items():
            if doc.label == "gen2" and command not in GEN2_COMMANDS:
                continue
            argv = [command, "--in", str(doc.path)]
            argv += [str(doc.path) if a is None else a for a in extra]
            check = functools.partial(doc.check, command)
            tasks.append((f"{doc.label}:{command}", _command_task(argv, check)))
    random.Random(seed).shuffle(tasks)
    return tasks


def _command_task(argv: list[str], check):
    def run():
        code, text = finalg.run_command(argv)
        return lambda: check(code, text)

    return run


def law_tasks(seed: int, smoke: bool, workdir: Path):
    labels = ["gen1"] if smoke else ["gen1", "gen3"]
    docs = [Document(label, workdir) for label in labels]
    rng = random.Random(seed)
    tasks = []
    for doc in docs:
        for _ in range(1 if smoke else LAW_ROUNDS):
            law_seed = rng.randrange(10**6)
            argv = ["laws", "--in", str(doc.path), "--seed", str(law_seed)]
            tasks.append((f"{doc.label}:laws:{law_seed}", _command_task(argv, _summary_ok)))
    rng.shuffle(tasks)
    return tasks


# -- random sweep ---------------------------------------------------------------


def sweep_tasks(seed: int, smoke: bool, oracle_path: Path):
    algebras = random_algebras(seed, sweep_size(smoke))
    answers = []

    def reference(i: int) -> dict:
        if not answers:
            answers.extend(json.loads(oracle_path.read_text()))
        return answers[i]

    return [
        (f"random:{i}", _sweep_task(n, ops, lambda i=i: reference(i)))
        for i, (n, ops) in enumerate(algebras)
    ]


def _sweep_task(n: int, ops, reference):
    def run():
        # Results are kept as plain tuples (restricted growth strings), so no
        # algebra and no memo outlives its task.
        algebra = FiniteAlgebra(n, ops)
        zero = Partition.zero(n)
        lattice = finalg.congruence_lattice(algebra).elements
        con = [theta.index for theta in lattice]
        principal = {
            (a, b): finalg.principal_congruence(algebra, a, b).index
            for a in range(n)
            for b in range(a + 1, n)
        }
        cents = [(theta.index, finalg.centralizer(algebra, zero, theta).index) for theta in lattice]
        try:
            cert = finalg.search_wdt(algebra, cap=SWEEP_WDT_CAP)
        except CapExceededError:
            cert = None
        d = cert.d if cert is not None and cert.verdict else None
        abelian = []
        if d is not None:
            abelian = [
                (
                    theta.index,
                    finalg.is_abelian(algebra, theta),
                    finalg.two_term_condition(algebra, theta).holds,
                )
                for theta in lattice
            ]
        return lambda: _check_sweep(n, reference(), con, principal, cents, d, abelian)

    return run


def _check_sweep(n, ref, con, principal, cents, d, abelian) -> str | None:
    if sorted(con) != sorted(tuple(p) for p in ref["con"]):
        return "Con(A) differs from the oracle"
    for (a, b), part in principal.items():
        if list(part) != ref["principal"][f"{a},{b}"]:
            return f"Cg({a}, {b}) differs from the oracle"
    want = {tuple(theta): tuple(c) for theta, c in ref["centralizer"]}
    for theta, cent in cents:
        if cent != want[theta]:
            return f"(0 : {theta}) differs from the oracle"
    abelian_pairs = {(tuple(delta), tuple(theta)) for delta, theta in ref["abelian_pairs"]}
    if d is not None:
        if any(d[(x * n + x) * n + x] != x for x in range(n)):
            return "found term is not idempotent"
        for delta, theta in abelian_pairs:
            for a in range(n):
                for b in range(n):
                    if theta[a] == theta[b] and not (
                        delta[d[(a * n + a) * n + b]] == delta[b] == delta[d[(b * n + a) * n + a]]
                    ):
                        return "found term is not a weak difference term"
    zero = tuple(range(n))
    for theta, abel, two_term in abelian:
        if abel != ((zero, theta) in abelian_pairs):
            return f"is_abelian({theta}) differs from the oracle"
        if two_term != abel:
            return f"two_term_condition({theta}) differs from is_abelian"
    return None


# -- the loop -------------------------------------------------------------------


def set_up(args, workdir: Path):
    if args.workload == "cli-pipeline":
        return cli_tasks(args.seed, args.smoke, workdir)
    if args.workload == "law-harness":
        return law_tasks(args.seed, args.smoke, workdir)
    return sweep_tasks(args.seed, args.smoke, Path(args.oracle))


def run_pass(tasks, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run tasks one after another until they are done or `seconds` have
    passed; then check every verdict.  The clock covers only the tasks."""
    clock = time.perf_counter
    times, checks = [], []
    start = clock()
    for name, task in tasks:
        if clock() - start >= seconds:
            break
        if tracer is not None:
            tracer.begin_task(name)
        t0 = clock()
        try:
            check = task()
        except Exception:  # a task that raises is a failed task
            check = _raised(traceback.format_exc())
        times.append(clock() - t0)
        checks.append((name, check))
    end = clock()
    peak_rss_mb = _peak_rss_mb()
    failures = []
    for name, check in checks:
        problem = check()
        if problem:
            failures.append(f"{name}: {problem}")
    return {
        "task_s": times,
        "wall_s": end - start,
        "window": (start, end),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }


def _peak_rss_mb() -> float:
    # VmHWM, not ru_maxrss: the latter also counts the parent's memory at
    # the time this process was spawned.
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _raised(text: str):
    return lambda: text


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--oracle", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    workdir = Path(args.workdir)
    tasks = set_up(args, workdir)
    record = {"setup_s": time.perf_counter() - _T0, "setup_rss_mb": _peak_rss_mb()}
    if args.mode != "setup":
        plain = run_pass(tasks, args.seconds)
        record.update(
            task_s=plain["task_s"],
            wall_s=plain["wall_s"],
            failures=plain["failures"],
            peak_rss_mb=plain["peak_rss_mb"],
            numpy=numpy.__version__,
        )
    if args.mode == "trace":
        tracer = Tracer(finalg)
        record["wrapped_functions"] = tracer.install()
        tasks = set_up(args, workdir)
        traced = run_pass(tasks, args.seconds, tracer)
        layers = tracer.layer_metrics(traced["window"])
        layers["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
        record["layers"] = layers
        record["failures"] += traced["failures"]
        record["traced_tasks"] = len(traced["task_s"])
        trace_path = workdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
