"""Span tracing of finalg from outside the package.

`Tracer.install` wraps every public function defined in every finalg
module, found at run time so that renamed or new functions are covered, and
rebinds each wrapped name in every finalg module namespace, so that calls
from one module into another are seen too.  Each call records a span (id,
parent id, task, module.function, start, end) in memory; a few functions
also feed work counters.  Layer metrics are keyed by module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import time
from collections import Counter, defaultdict
from pathlib import Path

# Work counters fed from the results of particular functions.  A function
# that is renamed or removed stops feeding its counter; its time still
# counts towards its module.


def _closure(counts, result):
    counts["core.closure_calls"] += 1
    counts["core.closure_rows"] += len(result[0])


def _matrices(counts, result):
    counts["centrality.matrix_rows"] += len(result)


def _lattice(counts, result):
    counts["congruences.lattice_elems"] += len(result.elements)


def _verify_wdt(counts, result):
    counts["diffterm.verify_pairs"] += len(result.checked)


def _search_wdt(counts, result):
    counts["diffterm.search_decided"] += 1


def _theorems(counts, result):
    counts["diffalg.theorem_items"] += len(result.items)


RESULT_HOOKS = {
    "core.closure_in_power": _closure,
    "centrality.generate_matrices": _matrices,
    "congruences.congruence_lattice": _lattice,
    "diffterm.verify_wdt": _verify_wdt,
    "diffterm.search_wdt": _search_wdt,
    "diffalg.verify_diffalg_theorems": _theorems,
}

CALL_COUNTERS = {
    "centrality.generated_pair_congruence": "centrality.pair_congruence_calls",
    "centrality.centralizes": "centrality.centralizes_calls",
    "congruences.congruence_generated": "congruences.generated_calls",
    "diffterm.search_wdt": "diffterm.search_calls",
}

PAIR_CONGRUENCE = "centrality.generated_pair_congruence"
CENTRALIZES = "centrality.centralizes"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: Counter = Counter()
        self.task = "setup"
        self._seen_centralizes: set = set()
        self._stack = [0]
        self._ids = itertools.count(1)
        self._last_cap = None

    def begin_task(self, task: str) -> None:
        """Spans from here on belong to `task`; repeats of `centralizes`
        are counted within one task."""
        self.task = task
        self._seen_centralizes.clear()

    def install(self) -> int:
        """Wrap and rebind, for the rest of the process; returns the number
        of functions wrapped."""
        cap_error = self.package.CapExceededError
        wrappers = {}
        for module in self.modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[fn] = self._wrap(fn, f"{short}.{name}", cap_error)
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
        return len(wrappers)

    def _wrap(self, fn, qualname: str, cap_error):
        spans = self.spans
        stack = self._stack
        ids = self._ids
        counts = self.counts
        hook = RESULT_HOOKS.get(qualname)
        counter = CALL_COUNTERS.get(qualname)
        module = qualname.split(".", 1)[0]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if qualname == CENTRALIZES:
                tracer._note_centralizes(args, kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except cap_error as exc:
                if exc is not tracer._last_cap:
                    tracer._last_cap = exc
                    counts[f"{module}.cap_exceeded"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.task, qualname, start, end))
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def _note_centralizes(self, args, kwargs) -> None:
        try:
            key = (args, tuple(sorted(kwargs.items())))
            repeat = key in self._seen_centralizes
            self._seen_centralizes.add(key)
        except TypeError:
            return
        if repeat:
            self.counts["centrality.centralizes_repeats"] += 1

    def layer_metrics(self, window: tuple[float, float]) -> dict[str, float]:
        """Self time per module over all spans, the work counters, and the
        share of `window` (start, end) covered by top-level spans."""
        child_time: dict[int, float] = defaultdict(float)
        names = {}
        for sid, parent, _task, name, start, end in self.spans:
            child_time[parent] += end - start
            names[sid] = (name, parent)
        self_time: dict[str, float] = defaultdict(float)
        pair_s = 0.0
        covered = 0.0
        for sid, parent, _task, name, start, end in self.spans:
            self_time[name.split(".", 1)[0]] += end - start - child_time[sid]
            if parent == 0 and start >= window[0]:
                covered += end - start
            if name == PAIR_CONGRUENCE and not self._inside(parent, names, PAIR_CONGRUENCE):
                pair_s += end - start
        out = {f"{module}.self_s": secs for module, secs in self_time.items()}
        out.update(self.counts)
        out["centrality.pair_congruence_s"] = pair_s
        calls = self.counts["centrality.centralizes_calls"]
        out["centrality.centralizes_repeat_frac"] = (
            self.counts["centrality.centralizes_repeats"] / calls if calls else 0.0
        )
        searches = self.counts["diffterm.search_calls"]
        out["diffterm.search_decided_frac"] = (
            self.counts["diffterm.search_decided"] / searches if searches else 0.0
        )
        out["span_coverage_frac"] = covered / (window[1] - window[0])
        return out

    @staticmethod
    def _inside(parent: int, names: dict, target: str) -> bool:
        while parent:
            name, parent_of = names[parent]
            if name == target:
                return True
            parent = parent_of
        return False

    def write(self, path: Path) -> None:
        """The spans as JSON lines, times in seconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, task, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "task": task,
                            "name": name,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                        }
                    )
                    + "\n"
                )
