"""Command-line interface.

Stages mirror the library: ``synth`` writes a fixture tree, ``analyze``
turns fixtures into per-group subject tables, ``correlate`` turns tables
into correlation reports, ``compare`` turns reports into the pairwise
comparison matrix, and ``export`` renders per-subject graphs as DOT.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric degeneracy (including any arithmetic failure in the statistics).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, DataError, DegeneracyError, ThreadknitError
from .ingest import RunConfig, load_config, parse_bool
from .pipeline import (
    CORRELATIONS,
    SUBJECT_TABLE,
    bundled_tables,
    compare_groups,
    correlate_tables,
    export_graphs,
    render_comparisons,
    render_correlations,
    render_tables,
    resolve_lexicon,
    run_pipeline,
    select_groups,
)
from .records import read_records
from .synth import write_fixture_tree


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as ConfigError so the
    process can exit with code 1 instead of argparse's 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(f"{self.prog}: {message}")


def _bool_flag(value: str) -> bool:
    try:
        return parse_bool(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="threadknit", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.required = True

    synth = commands.add_parser("synth", help="generate a synthetic fixture tree")
    synth.add_argument("--config", required=True, type=Path)
    synth.add_argument("--out", type=Path, help="fixture root (default: config fixtures)")
    synth.add_argument("--seed", type=int, help="override the configured seed")
    synth.set_defaults(func=_cmd_synth)

    analyze = commands.add_parser("analyze", help="build subject tables from fixtures")
    analyze.add_argument("--config", required=True, type=Path)
    analyze.add_argument("--out", type=Path, help="output root (default: config output)")
    analyze.add_argument("--group", action="append", help="restrict to this group (repeatable)")
    analyze.add_argument("--include-isolates", type=_bool_flag, metavar="BOOL")
    analyze.add_argument("--jobs", type=int, default=1, help="concurrent subject analyses")
    analyze.set_defaults(func=_cmd_analyze)

    correlate = commands.add_parser("correlate", help="correlate beta against alpha per group")
    correlate.add_argument("--config", type=Path)
    correlate.add_argument("--out", type=Path)
    correlate.add_argument("--group", action="append")
    correlate.add_argument(
        "--bundled", action="store_true", help="use the packaged reference tables"
    )
    correlate.set_defaults(func=_cmd_correlate)

    compare = commands.add_parser("compare", help="pairwise z tests and intervals")
    compare.add_argument("--config", type=Path)
    compare.add_argument("--out", type=Path)
    compare.add_argument("--n-override", type=int, metavar="N")
    compare.add_argument("--confidence", type=float)
    compare.set_defaults(func=_cmd_compare)

    export = commands.add_parser("export", help="write final-iteration graphs as DOT")
    export.add_argument("--config", required=True, type=Path)
    export.add_argument("--out", type=Path)
    export.add_argument("--group", action="append")
    export.set_defaults(func=_cmd_export)

    return parser


def _load(args) -> RunConfig:
    config = load_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None:
        config = replace(config, seed=seed)
    isolates = getattr(args, "include_isolates", None)
    if isolates is not None:
        config = replace(config, include_isolates=isolates)
    return config


def _cmd_synth(args) -> int:
    config = _load(args)
    root = args.out if args.out is not None else config.fixtures_dir
    files = write_fixture_tree(config, resolve_lexicon(config), root=root)
    print(f"wrote {len(files)} fixture files under {root}")
    return 0


def _cmd_analyze(args) -> int:
    config = _load(args)
    out_dir = args.out if args.out is not None else config.output_dir
    results = run_pipeline(
        config, only_groups=args.group, jobs=args.jobs
    )
    written = render_tables(results, out_dir)
    for result in results:
        print(f"{result.kind}: {len(result.subjects)} subjects")
    print(f"wrote {len(written)} table files under {out_dir}")
    return 0


def _cmd_correlate(args) -> int:
    out_dir = args.out if args.out is not None else Path("out")
    if args.bundled:
        tables = select_groups(bundled_tables(), args.group)
    else:
        if args.config is None:
            raise ConfigError("correlate needs --config (or --bundled)")
        config = _load(args)
        out_dir = args.out if args.out is not None else config.output_dir
        tables = []
        for kind, _ in select_groups(config.groups, args.group):
            table_path = Path(out_dir) / "tables" / f"{kind}.csv"
            if not table_path.is_file():
                raise DataError(f"missing subject table {table_path}; run analyze first")
            tables.append((kind, read_records(SUBJECT_TABLE, table_path)))
    reports = [result.correlation for result in correlate_tables(tables)]
    render_correlations(reports, out_dir)
    for rep in reports:
        print(
            f"{rep.group}: n={rep.n} r={rep.r:.6f} t={rep.t_stat:.6f} "
            f"p={rep.p_value:.6f}"
        )
    return 0


def _cmd_compare(args) -> int:
    confidence = args.confidence
    out_dir = args.out if args.out is not None else Path("out")
    if args.config is not None:
        config = _load(args)
        out_dir = args.out if args.out is not None else config.output_dir
        if confidence is None:
            confidence = config.confidence
    if confidence is None:
        confidence = 0.95
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be strictly between 0 and 1, got {confidence}")
    source = Path(out_dir) / "correlations.json"
    if not source.is_file():
        raise DataError(f"missing {source}; run correlate first")
    comparisons = compare_groups(
        read_records(CORRELATIONS, source), n_override=args.n_override, confidence=confidence
    )
    render_comparisons(comparisons, out_dir)
    for rep in comparisons:
        print(
            f"{rep.group_a} vs {rep.group_b}: z={rep.z_score:.6f} "
            f"p={rep.p_value:.6g} interval=[{rep.zou_low:.6f}, {rep.zou_high:.6f}]"
        )
    return 0


def _cmd_export(args) -> int:
    config = _load(args)
    out_dir = args.out if args.out is not None else config.output_dir
    files = export_graphs(config, only_groups=args.group, out_dir=out_dir)
    print(f"wrote {len(files)} graph files under {Path(out_dir) / 'graphs'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DegeneracyError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ThreadknitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
