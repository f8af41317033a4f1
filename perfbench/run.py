#!/usr/bin/env python3
"""threadknit benchmark: every CLI stage end to end, checked against ground truth.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each stage runs as its own ``python -m threadknit.cli`` process in
a closed loop: a stage starts only after the previous one has exited, so at
most one stage process (plus any workers it starts) runs at a time.  Inputs
are made from ``--seed``, and every stage's outputs are checked against
ground truth on every run.

``--trace 0`` repeats whole passes (synth, analyze, then correlate, compare
and export several times each) for ``--seconds`` and prints the end-to-end
metrics as medians.  ``--trace 1`` runs one pass with each stage under
``perfbench/tracing.py``, which times the program's public calls from
outside, and prints the per-layer metrics.  The last line of standard output
is the JSON result; the lines before it give each metric's spread and sample
count and the run's facts.  A fuller record, spans included, goes to
``.perfbench_out/``; scratch files live in ``.perfbench_work/`` while a run
lasts.

The workloads, the metric names and their units are those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import checks
import paperfixtures
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAM = SRC / "threadknit" / "cli.py"
LEXICON = SRC / "threadknit" / "data" / "lexicon.tsv"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"

BUDGET_SECONDS = 165  # a run must end within 180 s, whatever the program does
PAPER_ITERATIONS = 2  # even, so planted counts that alternate land on .5 ties
SHORT_REPEATS = 3  # correlate and compare, per pass
IMPORT_REPEATS = 5


def read_spec() -> dict:
    """BENCHMARK.json, the one list of the workloads and of the metrics with
    their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def config_text(groups, iterations: int, seed: int) -> str:
    lines = [
        "[run]",
        "fixtures = fixtures",
        "output = out",
        "per_iteration_count = 950",
        f"iterations = {iterations}",
        f"seed = {seed}",
        "[groups]",
    ]
    lines += [f"{kind} = {', '.join(subjects)}" for kind, subjects in groups]
    return "\n".join(lines) + "\n"


class PaperWorkload:
    """Fixtures from perfbench's generator; synth writes a side tree of the
    same config that analyze does not read, so synth_s exists here too."""

    jobs = 1
    setup_repeats = 3
    export_repeats = 2
    synth_feeds_analyze = False

    def __init__(self, work: Path, seed: int, env: dict):
        self.work, self.seed = work, seed
        self.synth_root = work / "synth"
        self.config = "paper.ini"
        self.synth_argv = ["synth", "--config", self.config, "--out", "synth"]
        self.synth_files = PAPER_ITERATIONS * sum(len(s) for _, s in paperfixtures.GROUPS)

    def setup(self) -> None:
        (self.work / self.config).write_text(
            config_text(paperfixtures.GROUPS, PAPER_ITERATIONS, self.seed), encoding="utf-8"
        )
        generator = paperfixtures.PaperGenerator(paperfixtures.read_lexicon(LEXICON))
        truth = generator.write_tree(self.work / "fixtures", self.seed, PAPER_ITERATIONS)
        self.kinds = [kind for kind, _ in paperfixtures.GROUPS]
        self.statuses = truth.statuses
        self.tables = {kind: [] for kind in self.kinds}
        self.graphs = {kind: [] for kind in self.kinds}
        for subject in truth.subjects:
            self.tables[subject.kind].append(
                checks.ExpectedRow(subject.subject, subject.strong_count, subject.weak_count, subject.alpha)
            )
            self.graphs[subject.kind].append(
                checks.ExpectedGraph(
                    paperfixtures.subject_slug(subject.subject), subject.final_nodes, subject.final_edges
                )
            )

    def clear(self) -> None:
        shutil.rmtree(self.work / "fixtures", ignore_errors=True)


class SynthDefaultWorkload:
    """``threadknit synth --seed`` output is the analyzed tree; ground truth
    is the ``default_plan`` targets, read in a fresh interpreter."""

    jobs = 2
    setup_repeats = 9
    export_repeats = 3
    synth_feeds_analyze = True
    iterations = 100

    def __init__(self, work: Path, seed: int, env: dict):
        self.work, self.seed, self.env = work, seed, env
        self.synth_root = work / "fixtures"
        self.config = "synth.ini"
        self.synth_argv = ["synth", "--config", self.config, "--seed", str(seed)]
        self.synth_files = self.iterations * sum(len(s) for _, s in paperfixtures.GROUPS)

    def setup(self) -> None:
        (self.work / self.config).write_text(
            config_text(paperfixtures.GROUPS, self.iterations, 0), encoding="utf-8"
        )
        done = subprocess.run(
            [sys.executable, str(HERE / "plantruth.py"), self.config, str(self.seed)],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"plantruth exited {done.returncode}: {done.stderr.strip()[-500:]}")
        plan = json.loads(done.stdout)
        self.kinds = list(dict.fromkeys(row["kind"] for row in plan["subjects"]))
        self.statuses = plan["iterations"] * sum(row["statuses"] for row in plan["subjects"])
        self.tables = {kind: [] for kind in self.kinds}
        self.graphs = {kind: [] for kind in self.kinds}
        for row in plan["subjects"]:
            self.tables[row["kind"]].append(
                checks.ExpectedRow(row["subject"], row["strong"], row["weak"], row["alpha"], row["jitter"])
            )
            self.graphs[row["kind"]].append(checks.ExpectedGraph(row["slug"], row["nodes"], row["edges"]))

    def clear(self) -> None:
        pass


WORKLOAD_TYPES = {"paper": PaperWorkload, "synth-default": SynthDefaultWorkload}


class Bench:
    """Runs stage processes, checks their outputs and keeps the samples."""

    def __init__(self, workload, env: dict, deadline: float):
        self.workload = workload
        self.work = workload.work
        self.out = workload.work / "out"
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.peak_rss_mb = 0.0
        self.synth_digest = None

    def stage(self, label: str, argv: list[str], spans: Path | None = None) -> float | None:
        """One stage process; its wall time, or None if it failed."""
        for stale in self._outputs(label):
            if stale.is_dir():
                shutil.rmtree(stale)
            elif stale.exists():
                stale.unlink()
        if spans is None:
            command = [sys.executable, "-m", "threadknit.cli", *argv]
        else:
            command = [sys.executable, str(HERE / "tracing.py"), str(spans), *argv]
        self.attempted += 1
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            return self._fail(f"{label}: no time left in the run")
        stderr_path = self.work / "stderr.txt"
        with open(stderr_path, "wb") as stderr:
            started = perf_counter()
            process = subprocess.Popen(
                command, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr
            )
            killer = threading.Timer(remaining, process.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                process.kill()
                process.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if process.returncode != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-400:]
            return self._fail(f"{label} exited {process.returncode}: {tail}")
        try:
            problems = self._check(label)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as err:
            problems = [f"malformed output: {err!r}"]
        if problems:
            return self._fail(f"{label}: " + "; ".join(problems[:5]))
        self.walls[label].append(wall)
        return wall

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        return None

    def _outputs(self, label: str) -> list[Path]:
        if label == "synth":
            return [self.workload.synth_root]
        return {
            "analyze": [self.out / "tables", self.out / "scatter"],
            "correlate": [self.out / "correlations.json", self.out / "correlations.csv"],
            "compare": [self.out / "comparisons.json", self.out / "comparisons.csv"],
            "export": [self.out / "graphs"],
        }[label]

    def _check(self, label: str) -> list[str]:
        wl = self.workload
        if label == "synth":
            count, digest = checks.tree_digest(wl.synth_root)
            if count != wl.synth_files:
                return [f"wrote {count} files, expected {wl.synth_files}"]
            if self.synth_digest not in (None, digest):
                return ["same config and seed gave different fixture bytes"]
            self.synth_digest = digest
            return []
        if label == "analyze":
            return checks.check_tables(self.out, wl.tables)
        if label == "correlate":
            return checks.check_correlations(self.out, wl.kinds)
        if label == "compare":
            return checks.check_comparisons(self.out)
        return checks.check_graphs(self.out, wl.graphs)

    def argv(self, label: str) -> list[str]:
        wl = self.workload
        if label == "synth":
            return wl.synth_argv
        if label == "analyze":
            return ["analyze", "--config", wl.config, "--jobs", str(wl.jobs)]
        return [label, "--config", wl.config]

    def timed_pass(self) -> float | None:
        """synth, analyze, then the short stages repeated; the pass's
        pipeline time, or None once a stage has failed."""
        total = 0.0
        repeats = {"synth": 1, "analyze": 1, "correlate": SHORT_REPEATS, "compare": SHORT_REPEATS}
        repeats["export"] = self.workload.export_repeats
        for label, count in repeats.items():
            walls = [self.stage(label, self.argv(label)) for _ in range(count)]
            if None in walls:
                return None
            if label != "synth" or self.workload.synth_feeds_analyze:
                total += statistics.median(walls)
        return total

    def traced_pass(self, spans_dir: Path) -> dict[str, dict] | None:
        traces = {}
        for label in ("synth", "analyze", "correlate", "compare", "export"):
            spans = spans_dir / f"{label}.json"
            wall = self.stage(label, self.argv(label), spans=spans)
            if wall is None:
                return None
            traces[label] = json.loads(spans.read_text(encoding="utf-8"))
            traces[label]["wall"] = wall
        return traces


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return f"median of n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, spread {(q3 - q1) / median:.1%}"


def timed_metrics(bench: Bench, setup_times: list[float], pass_totals: list[float]) -> tuple[dict, dict]:
    walls = bench.walls
    values = {"setup_s": setup_times, "pipeline_s": pass_totals}
    for label in ("synth", "correlate", "compare", "export"):
        values[f"{label}_s"] = walls[label]
    values["analyze_statuses_per_s"] = [bench.workload.statuses / wall for wall in walls["analyze"]]
    metrics = {name: statistics.median(samples) for name, samples in values.items() if samples}
    metrics["peak_rss_mb"] = bench.peak_rss_mb
    notes = {name: summary(samples) for name, samples in values.items()}
    notes["peak_rss_mb"] = f"highest ru_maxrss of {bench.attempted} stage processes"
    return metrics, notes


def import_seconds(env: dict) -> float:
    """Median time to import threadknit.cli over a bare interpreter."""

    def clock(code: str) -> float:
        started = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return perf_counter() - started

    bare = [clock("pass") for _ in range(IMPORT_REPEATS)]
    loaded = [clock("import threadknit.cli") for _ in range(IMPORT_REPEATS)]
    return statistics.median(loaded) - statistics.median(bare)


def layer_metrics(
    traces: dict[str, dict], jobs: int, overhead_ratio: float, import_s: float, per_layer: list[dict]
) -> dict:
    """Per-layer metrics from one traced pass."""
    times: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    for trace in traces.values():
        for name, seconds in tracing.layer_times(trace["spans"]).items():
            times[name] += seconds
        counts.update(trace["counts"])
    analyze = traces["analyze"]
    run_s = tracing.wall_total(analyze["spans"], "pipeline.run_pipeline")
    serial_s = tracing.cpu_total(analyze["spans"], "pipeline.analyze_subject")
    attributed = sum(tracing.self_times(analyze["spans"]).values())
    derived = {
        "ingest.us_per_status": 1e6 * times["ingest.parse_s"] / max(counts["ingest.statuses"], 1),
        "sentiment.us_per_status": 1e6 * times["sentiment.score_s"] / max(counts["sentiment.statuses"], 1),
        "pipeline.run_s": run_s,
        "pipeline.subject_serial_s": serial_s,
        "pipeline.parallel_efficiency": serial_s / (jobs * run_s) if run_s else 0.0,
        "cli.import_s": import_s,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_share": (analyze["wall"] - attributed) / analyze["wall"],
    }
    metrics = {}
    for spec in per_layer:
        name, unit = spec["name"], spec["unit"]
        if name in derived:
            metrics[name] = derived[name]
        elif unit in ("count", "bytes"):
            metrics[name] = counts[name]
        else:
            metrics[name] = times.get(name, 0.0)
    return metrics


def measure(bench: Bench, seconds: int, setup_times: list[float]) -> tuple[dict, dict]:
    """Whole passes until --seconds is reached; end-to-end metrics."""
    pass_totals = []
    started = perf_counter()
    while True:
        total = bench.timed_pass()
        if total is None:
            return {}, {}
        pass_totals.append(total)
        elapsed = perf_counter() - started
        mean_pass = elapsed / len(pass_totals)
        # stop at the pass boundary nearest to --seconds
        if elapsed + mean_pass / 2 >= seconds or perf_counter() + mean_pass > bench.deadline:
            return timed_metrics(bench, setup_times, pass_totals)


def trace(bench: Bench, seconds: int, per_layer: list[dict]) -> tuple[dict, dict, dict | None]:
    """One traced pass, then untraced and traced analyze in turn for
    --seconds to price the tracing; per-layer metrics and the spans."""
    spans_dir = bench.work / "spans"
    spans_dir.mkdir()
    traces = bench.traced_pass(spans_dir)
    if traces is None:
        return {}, {}, None
    plain, traced = [], [traces["analyze"]["wall"]]
    started = perf_counter()
    argv = bench.argv("analyze")
    while len(plain) < 2 or perf_counter() - started < seconds:
        plain.append(bench.stage("analyze", argv))
        traced.append(bench.stage("analyze", argv, spans=spans_dir / "overhead.json"))
        if None in plain + traced:
            return {}, {}, None
        if perf_counter() + 15 > bench.deadline:
            break
    ratio = statistics.median(traced) / statistics.median(plain)
    metrics = layer_metrics(traces, bench.workload.jobs, ratio, import_seconds(bench.env), per_layer)
    notes = {"trace.overhead_ratio": f"median traced over untraced analyze, {len(plain)} pairs"}
    missing = sorted({name for trace in traces.values() for name in trace["missing"]})
    if missing:
        notes["missing"] = "functions no longer in the program: " + ", ".join(missing)
    return metrics, notes, {label: trace["spans"] for label, trace in traces.items()}


def src_line_count() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))


def run(args, spec: dict) -> int:
    # a terminated run still stops the stage process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = perf_counter()
    deadline = started + BUDGET_SECONDS
    if not PROGRAM.is_file():
        print(f"error: {PROGRAM.relative_to(ROOT)} not found; run from a threadknit checkout", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workload = WORKLOAD_TYPES[args.workload](work, args.seed, env)
    bench = Bench(workload, env, deadline)

    # byte-compile the program once so no timed stage pays for it
    subprocess.run([sys.executable, "-c", "import threadknit.cli"], env=env, timeout=60)

    setup_times = []
    try:
        for _ in range(1 if args.trace else workload.setup_repeats):
            workload.clear()
            setup_started = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - setup_started)
    except (RuntimeError, ValueError, KeyError, OSError, subprocess.TimeoutExpired) as err:
        bench.attempted += 1
        bench._fail(f"setup: {err}")

    metrics, notes, spans = {}, {}, None
    if not bench.failed and not args.trace:
        metrics, notes = measure(bench, args.seconds, setup_times)
    elif not bench.failed:
        metrics, notes, spans = trace(bench, args.seconds, spec["per_layer"])

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "statuses": getattr(workload, "statuses", 0),
        "src_lines": src_line_count(),
        "error_rate": bench.failed / max(bench.attempted, 1),
        "elapsed_s": perf_counter() - started,
    }
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": bench.failed == 0 and len(metrics) == len(units),
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"facts": facts, "notes": notes, "problems": bench.problems, "result": result, "spans": spans}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems[:20]:
        print(f"FAILED {problem}")
    for name, value in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value['value']:.6g} {value['unit']}{note}")
    if "missing" in notes:
        print(notes["missing"])
    print(f"error_rate = {facts['error_rate']:.6g}  ({bench.failed} of {bench.attempted} stage runs failed)")
    print("facts " + json.dumps(facts))
    print(json.dumps(result))
    return 0


def main() -> int:
    spec = read_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
