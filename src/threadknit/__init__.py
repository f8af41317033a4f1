"""Conversation-network structure versus lexicon sentiment.

The library reads per-iteration status batches of grouped subjects, builds
directed interaction graphs, counts strongly and weakly connected
components, scores text sentiment against a valence lexicon, and
correlates the weak/strong component ratio (beta) with mean sentiment
(alpha) within and across groups.

The names below are imported from their submodules on first use (PEP 562),
so importing one submodule, such as the CLI, does not import the rest.
"""

from importlib import import_module

# submodule -> the names it exports
_EXPORTS = {
    "components": "ComponentSummary SubjectSummary beta_ratio component_counts round_half_away "
    "summarize_subject",
    "errors": "ConfigError DataError DegeneracyError FixtureError LexiconError SynthError "
    "ThreadknitError",
    "config": "RunConfig load_config subject_slug",
    "ingest": "QuerySpec Status normalize_handle write_fixture_fields",
    "pipeline": "analyze_groups analyze_subject export_dot export_graphs read_iteration",
    "records": "",
    "sentiment": "Lexicon bundled_lexicon clean_text load_lexicon score_text",
    "stats": "ComparisonReport CorrelationReport compare_correlations correlation_report "
    "correlation_significance fisher_z indep_groups_z_test infer_group_n normal_cdf "
    "normal_quantile pearson_r t_cdf zou_interval",
    "synth": "SynthSpec write_fixture_tree",
    "tables": "bundled_tables canonical_pairs compare_groups correlate_tables read_correlations "
    "read_tables",
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

# the submodules are public names too
__all__ = sorted([*_ORIGIN, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
