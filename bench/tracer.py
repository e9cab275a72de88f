"""Run one `superstab` CLI invocation with its layers traced.

    python3 bench/tracer.py time OUT.json CLI-ARGS...
    python3 bench/tracer.py memory OUT.json CLI-ARGS...

`time` wraps the public functions of each module where their callers look
them up, records one span per call (name, parent span, start, end) and
counters, then calls `superstab.cli.main(CLI-ARGS)`.  After the CLI
returns, it turns the spans into per-name totals and self times and
writes them, with the import time of `superstab.cli`, to OUT.json.

`memory` instead measures the tracemalloc peak inside each closure call,
a pass of its own because tracemalloc slows every allocation.

The CLI's stdout and exit code pass through unchanged, so the benchmark
checks traced outputs exactly like untraced ones.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter


def _choice_scan(counts: Counter, args: tuple, result: object) -> None:
    counts["model.choice_edges_scanned"] += len(args[1])


def _closure(counts: Counter, args: tuple, result: object) -> None:
    forbidden, trace = result
    counts["superstable.rounds"] += len(trace.rounds)
    counts["superstable.trace_pairs"] += sum(
        len(r.proposed) + len(r.held) + len(r.forbidden) for r in trace.rounds
    )
    counts["superstable.forbidden_edges"] += len(forbidden)


def _critical(counts: Counter, args: tuple, result: object) -> None:
    counts["superstable.critical"] += len(result)


def _subset(counts: Counter, args: tuple, result: object) -> None:
    counts["hardness.subsets_tried"] += 1


def _witness(counts: Counter, args: tuple, result: object) -> None:
    counts["hardness.witnesses"] += result is not None


# (module where the caller looks the function up, attribute, span name, counter)
TARGETS = [
    ("superstab.cli", "parse_instance", "model.parse_instance", None),
    ("superstab.model", "make_instance", "model.make_instance", None),
    ("superstab.hardness", "induced_instance", "model.induced_instance", _subset),
    ("superstab.superstable", "induced_instance", "model.induced_instance", None),
    ("superstab.superstable", "all_doctor_choices", "model.choice_scan", _choice_scan),
    ("superstab.superstable", "all_hospital_choices", "model.choice_scan", _choice_scan),
    ("superstab.cli", "closure", "superstable.closure", _closure),
    ("superstab.superstable", "closure", "superstable.closure", _closure),
    ("superstab.superstable", "extract_matching", "superstable.extract_matching", None),
    ("superstab.superstable", "critical_hospitals", "superstable.critical_hospitals", _critical),
    ("superstab.cli", "solve_two_side_deletion", "hardness.solve_two_side", _witness),
    ("superstab.cli", "oracle_min_hospital_deletion", "oracle.min_hospital_deletion", None),
]


class Spans:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            parent = self.open[-1] if self.open else -1
            span = [name, parent, 0.0, 0.0]
            self.spans.append(span)
            self.open.append(len(self.spans) - 1)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def totals(self) -> dict[str, list]:
        """name -> [total seconds, self seconds, calls]; self time is a
        span's duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            rec = out.setdefault(name, [0.0, 0.0, 0])
            rec[0] += t1 - t0
            rec[1] += t1 - t0 - c
            rec[2] += 1
        return out


def _measure_closure_memory(modules: dict) -> list[int]:
    """Wrap closure so that each call runs under tracemalloc; the returned
    one-element list holds the highest peak seen."""
    peak = [0]

    def wrap(fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    for module in ("superstab.cli", "superstab.superstable"):
        setattr(modules[module], "closure", wrap(getattr(modules[module], "closure")))
    return peak


def main(argv: list[str]) -> int:
    mode, out_path, cli_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("superstab.cli")
    import_s = time.perf_counter() - t0
    modules = {name: importlib.import_module(name) for name, *_ in TARGETS}

    if mode == "memory":
        peak = _measure_closure_memory(modules)
        rc = cli.main(cli_args)
        result = {"closure_peak_bytes": peak[0]}
    else:
        spans = Spans()
        for module, attr, name, count in TARGETS:
            setattr(modules[module], attr, spans.wrap(getattr(modules[module], attr), name, count))
        rc = spans.wrap(cli.main, "cli.main")(cli_args)
        result = {"import_s": import_s, "spans": spans.totals(), "counts": dict(spans.counts)}
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
