from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import threadknit

SUBMODULES = (
    "components", "errors", "graph", "ingest", "pipeline", "records", "sentiment", "stats", "synth",
)

EXPORTED = (
    "ComparisonReport", "ComponentSummary", "ConfigError", "ConversationGraph",
    "CorrelationReport", "DataError", "DegeneracyError", "Edge", "FixtureError",
    "IterationBatch", "Lexicon", "LexiconError", "QuerySpec", "RunConfig", "Status",
    "SubjectSummary", "SynthError", "SynthSpec", "ThreadknitError", "aggregate_alpha",
    "analyze_groups", "analyze_subject", "batch_alpha", "beta_ratio", "build_graph",
    "bundled_lexicon", "bundled_tables", "canonical_pairs", "clean_text", "compare_correlations",
    "compare_groups", "component_counts",
    "component_summary", "correlate_tables", "correlation_report", "correlation_significance",
    "export_dot", "export_graphs", "fisher_z", "indep_groups_z_test", "infer_group_n",
    "load_config", "load_lexicon", "normal_cdf", "normal_quantile", "normalize_handle",
    "parse_fixture", "pearson_r", "read_correlations", "read_iteration", "read_tables",
    "round_half_away", "score_text", "subject_slug", "summarize_subject", "t_cdf",
    "write_fixture_fields", "write_fixture_tree", "zou_interval",
)


def test_all_lists_the_exported_names_and_submodules():
    assert threadknit.__all__ == sorted(EXPORTED + SUBMODULES)
    assert set(threadknit.__all__) <= set(dir(threadknit))


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


@pytest.mark.parametrize("module", ["synth", "components", "cli"])
def test_module_does_not_load_the_graph_module(module):
    """Only build_graph and export_dot need graph; synth, components and cli
    reach the row and the counts without it."""
    code = f"import sys, threadknit.{module}; print('threadknit.graph' in sys.modules)"
    src = Path(threadknit.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout.strip() == "False", done.stderr
