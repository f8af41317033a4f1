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
from pathlib import Path

# each stage imports its own modules when it runs, so that a short stage
# does not load the fixture reader, the scorer or the statistics it never calls
from .config import RunConfig, load_config, nonempty_path, plain_number
from .errors import ConfigError, DegeneracyError, ThreadknitError


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as ConfigError so the
    process can exit with code 1 instead of argparse's 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(f"{self.prog}: {message}")


def _number(kind: type):
    """An argparse type for plain number text, read as a config file's
    numbers are; named after ``kind``, as argparse's messages name a type."""

    def read(text: str):
        return plain_number(kind, text)

    read.__name__ = kind.__name__
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="threadknit", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.required = True

    synth = commands.add_parser("synth", help="generate a synthetic fixture tree")
    synth.add_argument("--config", required=True, type=Path)
    synth.add_argument("--out", help="fixture root (default: config fixtures)")
    synth.add_argument("--seed", type=_number(int), help="override the configured seed")
    synth.set_defaults(func=_cmd_synth)

    analyze = commands.add_parser("analyze", help="build subject tables from fixtures")
    analyze.add_argument("--config", required=True, type=Path)
    analyze.add_argument("--out", help="output root (default: config output)")
    analyze.add_argument("--jobs", type=_number(int), default=1, help="concurrent subject analyses")
    analyze.set_defaults(func=_cmd_analyze)

    correlate = commands.add_parser("correlate", help="correlate beta against alpha per group")
    source = correlate.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path)
    correlate.add_argument("--out")
    source.add_argument("--bundled", action="store_true", help="use the packaged reference tables")
    correlate.set_defaults(func=_cmd_correlate)

    compare = commands.add_parser("compare", help="pairwise z tests and intervals")
    compare.add_argument("--config", type=Path)
    compare.add_argument("--out")
    compare.add_argument("--n-override", type=_number(int), metavar="N")
    compare.add_argument("--confidence", type=_number(float))
    compare.set_defaults(func=_cmd_compare)

    export = commands.add_parser("export", help="write final-iteration graphs as DOT")
    export.add_argument("--config", required=True, type=Path)
    export.add_argument("--out")
    export.set_defaults(func=_cmd_export)

    return parser


def _load(args, **flags) -> RunConfig:
    """The configured run with the flags given on the command line applied:
    RunConfig checks each flag as it checks the config key it replaces."""
    from dataclasses import replace

    config = load_config(args.config)
    return replace(config, **{field: value for field, value in flags.items() if value is not None})


def _bare_out_dir(args) -> Path:
    """--out of a stage run without --config; ``out`` by default."""
    return nonempty_path("out" if args.out is None else args.out, "output directory")


def _cmd_synth(args) -> int:
    from .synth import write_fixture_tree

    config = _load(args, seed=args.seed, fixtures_dir=args.out)
    files = write_fixture_tree(config)
    print(f"wrote {len(files)} fixture files under {config.fixtures_dir}")
    return 0


def _cmd_analyze(args) -> int:
    from .pipeline import analyze_groups
    from .tables import render_tables

    config = _load(args, output_dir=args.out)
    tables = analyze_groups(config, jobs=args.jobs)
    written = render_tables(tables, config.output_dir)
    for kind, rows in tables:
        print(f"{kind}: {len(rows)} subjects")
    print(f"wrote {len(written)} table files under {config.output_dir}")
    return 0


def _cmd_correlate(args) -> int:
    from .tables import bundled_tables, correlate_tables, read_tables, render_correlations

    if args.bundled:
        out_dir, tables = _bare_out_dir(args), bundled_tables()
    else:
        config = _load(args, output_dir=args.out)
        out_dir, tables = config.output_dir, read_tables(config)
    reports = correlate_tables(tables)
    render_correlations(reports, out_dir)
    for rep in reports:
        print(
            f"{rep.group}: n={rep.n} r={rep.r:.6f} t={rep.t_stat:.6f} "
            f"p={rep.p_value:.6f}"
        )
    return 0


def _cmd_compare(args) -> int:
    from .tables import compare_groups, read_correlations, render_comparisons

    if args.config is not None:
        config = _load(args, output_dir=args.out, confidence=args.confidence)
        out_dir, confidence = config.output_dir, config.confidence
        reports = read_correlations(out_dir, config)
    else:
        out_dir = _bare_out_dir(args)
        confidence = RunConfig.confidence if args.confidence is None else args.confidence
        reports = read_correlations(out_dir)
    try:
        comparisons = compare_groups(reports, n_override=args.n_override, confidence=confidence)
    except DegeneracyError as err:
        raise DegeneracyError(f"comparing {out_dir / 'correlations.csv'}: {err}") from err
    render_comparisons(comparisons, out_dir)
    for rep in comparisons:
        print(
            f"{rep.group_a} vs {rep.group_b}: z={rep.z_score:.6f} "
            f"p={rep.p_value:.6g} interval=[{rep.zou_low:.6f}, {rep.zou_high:.6f}]"
        )
    return 0


def _cmd_export(args) -> int:
    from .pipeline import export_graphs

    config = _load(args, output_dir=args.out)
    files = export_graphs(config)
    print(f"wrote {len(files)} graph files under {config.output_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        code, error = 1, err
    except (DegeneracyError, ArithmeticError) as err:
        code, error = 3, err
    except (ThreadknitError, OSError) as err:
        code, error = 2, err
    # one line, also where the message quotes a line break read from a file
    print("error:", str(error).replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
