"""Print the planted targets of ``threadknit synth`` for a config, as JSON.

    PYTHONPATH=src python3 perfbench/plantruth.py CONFIG SEED

For every subject of ``default_plan``: the planted strong and weak counts,
the sentiment target with its stated tolerance, statuses per iteration, and
the node and edge counts of each iteration's graph (every iteration of a
subject realizes the same plan).
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

from threadknit.ingest import load_config, subject_slug
from threadknit.synth import default_plan


def main(config_path: str, seed: str) -> int:
    config = replace(load_config(config_path), seed=int(seed))
    truth = []
    for plan in default_plan(config):
        spec = plan.synth_spec
        sizes = spec.weak_component_sizes
        truth.append(
            {
                "kind": plan.query_spec.kind,
                "subject": plan.query_spec.subject,
                "slug": subject_slug(plan.query_spec.subject),
                "strong": spec.strong_count,
                "weak": spec.weak_count,
                "alpha": spec.target_mean,
                "jitter": spec.jitter,
                "statuses": spec.corpus_size,
                "nodes": spec.node_count,
                # a cycle per multi-node strong component, a chain between
                # the strong components of each weak component
                "edges": sum(s for group in sizes for s in group if s > 1)
                + sum(len(group) - 1 for group in sizes),
            }
        )
    json.dump({"iterations": config.iterations, "subjects": truth}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
