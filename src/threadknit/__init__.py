"""Conversation-network structure versus lexicon sentiment.

The library samples grouped search queries into per-iteration status
batches, builds directed interaction graphs, counts strongly and weakly
connected components, scores text sentiment against a valence lexicon, and
correlates the weak/strong component ratio (beta) with mean sentiment
(alpha) within and across groups.
"""

from .components import (
    ComponentSummary,
    SubjectSummary,
    beta_ratio,
    component_summary,
    round_half_away,
    strong_components,
    summarize_subject,
    weak_components,
)
from .errors import (
    AuthError,
    ConfigError,
    DataError,
    DegeneracyError,
    FixtureError,
    LexiconError,
    NetworkError,
    RateLimitError,
    SearchClientError,
    SynthError,
    ThreadknitError,
)
from .graph import ConversationGraph, Edge, build_graph, export_dot, export_json
from .ingest import (
    Geocode,
    IterationBatch,
    QuerySpec,
    RunConfig,
    SearchClient,
    Status,
    build_query,
    fetch_iteration,
    load_config,
    normalize_handle,
    parse_fixture,
    subject_slug,
    write_fixture,
)
from .pipeline import (
    GroupResult,
    analyze_subject,
    bundled_tables,
    canonical_pairs,
    compare_groups,
    correlate_tables,
    export_graphs,
    iteration_digest,
    render_reports,
    run_pipeline,
)
from .sentiment import (
    Lexicon,
    aggregate_alpha,
    batch_alpha,
    bundled_lexicon,
    clean_text,
    load_lexicon,
    score_text,
)
from .stats import (
    ComparisonReport,
    CorrelationReport,
    compare_correlations,
    correlation_report,
    correlation_significance,
    fisher_z,
    indep_groups_z_test,
    infer_group_n,
    normal_cdf,
    normal_quantile,
    pearson_r,
    t_cdf,
    zou_interval,
)
from .synth import SynthSpec, synth_batch, synth_corpus, synth_graph, write_fixture_tree

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
