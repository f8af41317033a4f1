"""Spans around the program's public calls, recorded from outside the program.

Run as a script, this module is one traced CLI stage::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json COMMAND [ARGS...]

It imports ``threadknit.cli``, replaces every function listed in ``LAYERS``
wherever a loaded threadknit module refers to it, runs the stage in process, and writes the spans and counts to ``SPANS.json`` when the
stage ends.  Spans are kept in memory until then.  Only batch-level calls
are wrapped; per-status helpers such as ``score_text`` are covered by the
span of the batch call that makes them, so tracing adds a few microseconds
per batch rather than per status.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time

# module -> public function -> the per-layer metric its self time adds to
LAYERS = {
    "ingest": {
        "parse_fixture": "ingest.parse_s",
        "write_fixture": "ingest.write_s",
        "load_config": "ingest.config_s",
    },
    "graph": {"build_graph": "graph.build_s", "export_dot": "graph.dot_s"},
    "components": {
        "component_summary": "components.count_s",
        "summarize_subject": "components.summarize_s",
        "write_subject_table_csv": "components.table_io_s",
        "write_subject_table_json": "components.table_io_s",
        "read_subject_table_csv": "components.table_io_s",
    },
    "sentiment": {
        "batch_alpha": "sentiment.score_s",
        "bundled_lexicon": "sentiment.lexicon_load_s",
        "load_lexicon": "sentiment.lexicon_load_s",
    },
    "stats": {
        "correlation_report": "stats.correlate_s",
        "compare_correlations": "stats.compare_s",
    },
    "pipeline": {
        "run_pipeline": "pipeline.self_s",
        "analyze_subject": "pipeline.self_s",
        "iteration_files": "pipeline.self_s",
        "select_groups": "pipeline.self_s",
        "correlate_tables": "pipeline.self_s",
        "compare_groups": "pipeline.self_s",
        "bundled_tables": "pipeline.self_s",
        "render_tables": "pipeline.render_s",
        "render_reports": "pipeline.render_s",
        "write_scatter_csv": "pipeline.render_s",
        "write_correlations_csv": "pipeline.render_s",
        "write_correlations_json": "pipeline.render_s",
        "read_correlations_json": "pipeline.render_s",
        "write_comparisons_csv": "pipeline.render_s",
        "write_comparisons_json": "pipeline.render_s",
        "export_graphs": "pipeline.export_s",
        "final_iteration_graph": "pipeline.export_s",
    },
    "synth": {
        "default_plan": "synth.generate_s",
        "synth_batch": "synth.generate_s",
        "write_fixture_tree": "synth.generate_s",
    },
}
STAGE_SPAN = "cli.main"
SPAN_METRICS = {
    STAGE_SPAN: "cli.dispatch_s",
    **{
        f"{module}.{name}": metric
        for module, functions in LAYERS.items()
        for name, metric in functions.items()
    },
}


def _count_parse(counts, args, result):
    counts["ingest.files"] += 1
    counts["ingest.statuses"] += len(result.statuses)
    counts["ingest.bytes"] += os.path.getsize(args[0])


def _count_graph(counts, args, result):
    counts["graph.nodes"] += len(result.nodes)
    counts["graph.edges"] += len(result.edges)
    for kind, number in Counter(edge.kind for edge in result.edges).items():
        counts[f"graph.edges.{kind}"] += number


def _count_components(counts, args, result):
    counts["components.strong"] += result.strong_count
    counts["components.weak"] += result.weak_count


def _count_scored(counts, args, result):
    counts["sentiment.statuses"] += len(args[0].statuses)


# counts taken from the arguments and return value of a traced call
COUNTERS = {
    "ingest.parse_fixture": _count_parse,
    "graph.build_graph": _count_graph,
    "components.component_summary": _count_components,
    "sentiment.batch_alpha": _count_scored,
}


class Tracer:
    """In-memory spans: id, name, wall-clock start and end, the CPU seconds
    its thread spent inside it, the thread, and the id of the parent span.

    A span opened on a worker thread with nothing open on that thread gets
    the innermost span open on the main thread as its parent, which is the
    call that handed the work out.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            record = {"id": len(self.spans), "name": name, "parent": parent, "thread": threading.get_ident()}
            self.spans.append(record)
        stack.append(record["id"])
        record["start"], cpu = perf_counter(), thread_time()
        try:
            yield
        finally:
            record["cpu"] = thread_time() - cpu
            record["end"] = perf_counter()
            stack.pop()

    def wrap(self, name: str, function):
        counter = COUNTERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if counter is not None:
                with self._lock:
                    counter(self.counts, args, result)
            return result

        return traced


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every function in LAYERS wherever a loaded threadknit module
    holds it, so calls through imported names are traced too.  Returns the
    listed functions that the program no longer has."""
    missing = []
    for module_name, functions in LAYERS.items():
        try:
            module = importlib.import_module(f"threadknit.{module_name}")
        except ModuleNotFoundError:
            module = None
        for function_name in functions:
            original = getattr(module, function_name, None)
            if not callable(original):
                missing.append(f"{module_name}.{function_name}")
                continue
            traced = tracer.wrap(f"{module_name}.{function_name}", original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "threadknit" or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, traced)
    return missing


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's CPU time minus the CPU time of its children on the same
    thread.

    Time is taken per thread so that spans on threads that interleave under
    the interpreter lock add up to the work done rather than counting the
    lock waits of each; a child on another thread is the thread's own time,
    not a part of its parent's.
    """
    covered: dict[int, float] = defaultdict(float)
    threads = {span["id"]: span["thread"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None and threads[parent] == span["thread"]:
            covered[parent] += span["cpu"]
    return {span["id"]: span["cpu"] - covered[span["id"]] for span in spans}


def wall_total(spans: list[dict], name: str) -> float:
    return sum(span["end"] - span["start"] for span in spans if span["name"] == name)


def cpu_total(spans: list[dict], name: str) -> float:
    return sum(span["cpu"] for span in spans if span["name"] == name)


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Self time per metric of SPAN_METRICS; unlisted span names count
    under their own name."""
    totals: dict[str, float] = defaultdict(float)
    names = {span["id"]: span["name"] for span in spans}
    for span_id, seconds in self_times(spans).items():
        totals[SPAN_METRICS.get(names[span_id], names[span_id])] += seconds
    return dict(totals)


def main(argv: list[str]) -> int:
    spans_path, *stage_args = argv
    # the import is outside every span; run.py times it over a bare
    # interpreter as cli.import_s
    import threadknit.cli as cli

    tracer = Tracer()
    missing = instrument(tracer)
    try:
        with tracer.span(STAGE_SPAN):
            code = cli.main(stage_args)
    finally:
        # one dumps and one write: json.dump's many small writes cost more
        # than the spans of a 2,400-file analyze take to record
        payload = json.dumps({"spans": tracer.spans, "counts": tracer.counts, "missing": missing})
        with open(spans_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
