"""Exception hierarchy shared across the package.

Three broad families map onto the CLI exit codes: configuration problems
(exit 1), data problems (exit 2), and numeric degeneracy (exit 3).
"""

from __future__ import annotations


class ThreadknitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ThreadknitError):
    """Bad or missing configuration: unknown keys, invalid values, absent files."""


class DataError(ThreadknitError):
    """Input data is malformed or missing."""


class FixtureError(DataError):
    """A fixture file violates the expected line-oriented record format."""


class LexiconError(DataError):
    """A lexicon file violates the token/valence table format."""


class DegeneracyError(ThreadknitError, ValueError):
    """A quantity is undefined for the given input (zero variance, empty
    graph, too few samples).  Subclasses ValueError so callers treating
    these as plain bad-argument errors still catch them."""


class SynthError(ThreadknitError):
    """A synthetic-data request cannot be satisfied (e.g. unreachable
    sentiment target for the available lexicon)."""
