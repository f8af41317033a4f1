from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import threadknit

from conftest import CLI_GROUPS
from test_cli import CONFIG

SUBMODULES = (
    "components", "config", "errors", "ingest", "pipeline", "records", "sentiment",
    "stats", "synth", "tables",
)

EXPORTED = (
    "ComparisonReport", "ComponentSummary", "ConfigError",
    "CorrelationReport", "DataError", "DegeneracyError", "FixtureError",
    "Lexicon", "LexiconError", "QuerySpec", "RunConfig", "Status",
    "SubjectSummary", "SynthError", "SynthSpec", "ThreadknitError",
    "analyze_groups", "analyze_subject", "beta_ratio",
    "bundled_lexicon", "bundled_tables", "canonical_pairs", "clean_text", "compare_correlations",
    "compare_groups", "component_counts",
    "correlate_tables", "correlation_report", "correlation_significance",
    "export_dot", "export_graphs", "fisher_z", "indep_groups_z_test", "infer_group_n",
    "load_config", "load_lexicon", "normal_cdf", "normal_quantile", "normalize_handle",
    "pearson_r", "read_correlations", "read_iteration", "read_tables",
    "round_half_away", "score_text", "subject_slug", "summarize_subject", "t_cdf",
    "write_fixture_fields", "write_fixture_tree", "zou_interval",
)

# the object view: not exported, and kept only where perfbench/ imports it from
PERFBENCH_ONLY = {
    "Edge": "graph",
    "ConversationGraph": "graph",
    "build_graph": "graph",
    "IterationBatch": "ingest",
    "parse_fixture": "ingest",
    "component_summary": "components",
    "batch_alpha": "sentiment",
}


def test_all_lists_the_exported_names_and_submodules():
    assert threadknit.__all__ == sorted(EXPORTED + SUBMODULES)
    assert len(threadknit.__all__) == 61
    assert set(threadknit.__all__) <= set(dir(threadknit))


@pytest.mark.parametrize("name", PERFBENCH_ONLY)
def test_object_view_is_kept_only_for_perfbench(name):
    assert name not in threadknit.__all__ and "graph" not in threadknit.__all__
    with pytest.raises(AttributeError):
        getattr(threadknit, name)
    module = import_module(f"threadknit.{PERFBENCH_ONLY[name]}")
    assert getattr(module, name).__module__ == module.__name__


def test_every_exported_name_is_its_submodules_object():
    for name in threadknit.__all__:
        value = getattr(threadknit, name)
        if name in SUBMODULES:
            assert isinstance(value, ModuleType)
            assert value is import_module(f"threadknit.{name}")
        else:
            assert value.__module__.startswith("threadknit.")
            assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from threadknit import *", namespace)
    assert set(threadknit.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        threadknit.no_such_name


@pytest.mark.parametrize("module", ["synth", "components", "cli", "pipeline", "config", "tables"])
def test_module_does_not_load_the_graph_module(module):
    """Only the object view kept for perfbench needs graph; synth,
    components, cli, config, tables and pipeline, which renders DOT, reach
    the row, the counts and export_dot without it."""
    code = f"import sys, threadknit.{module}; print('threadknit.graph' in sys.modules)"
    src = Path(threadknit.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout.strip() == "False", done.stderr


def test_perfbench_plan_truth_reads_the_config(tmp_path):
    """perfbench/plantruth.py imports load_config and subject_slug from
    threadknit.ingest and calls dataclasses.replace on the config: the
    synth-default workload's setup fails unless that still works."""
    (tmp_path / "run.ini").write_text(CONFIG, encoding="utf-8")
    src = Path(threadknit.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(src.parent / "perfbench" / "plantruth.py"), "run.ini", "5"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    truth = json.loads(done.stdout)
    assert truth["iterations"] == 3
    subjects = [(kind, name) for kind, names in CLI_GROUPS for name in names]
    assert [(row["kind"], row["subject"]) for row in truth["subjects"]] == subjects


def _relative_imports(path: Path) -> set[str]:
    """The sibling modules a module imports, inside functions too, but not
    in ``if TYPE_CHECKING:`` blocks."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    type_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and "TYPE_CHECKING" in ast.unparse(block.test)
        for statement in block.body
        for node in ast.walk(statement)
    }
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and id(node) not in type_only:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported.update(name.split(".")[0] for name in names)
    return imported


def test_modules_import_one_another_without_a_cycle():
    package = Path(threadknit.__file__).resolve().parent
    graph = {
        path.stem: _relative_imports(path)
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }
    # depth-first search; a module met again while still on the path closes a cycle
    done: set[str] = set()

    def cycle_from(module: str, path: list[str]) -> list[str] | None:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done or module not in graph:
            return None
        for imported in sorted(graph[module]):
            if (found := cycle_from(imported, path + [module])) is not None:
                return found
        done.add(module)
        return None

    for module in graph:
        cycle = cycle_from(module, [])
        assert cycle is None, "import cycle: " + " -> ".join(cycle)


@pytest.mark.parametrize("module", ["records", "stats", "sentiment", "components"])
def test_leaf_modules_import_no_sibling_but_errors(module):
    package = Path(threadknit.__file__).resolve().parent
    assert _relative_imports(package / f"{module}.py") <= {"errors"}
