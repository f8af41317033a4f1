from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from threadknit.components import (
    ComponentSummary,
    SubjectSummary,
    beta_ratio,
    component_counts,
    round_half_away,
    summarize_subject,
)
from threadknit.errors import DataError, DegeneracyError
from threadknit.tables import SUBJECT_TABLE
from threadknit.records import read_records, write_csv, write_json

from oracles import closure_component_counts


def summary_of(node_count, pairs):
    """What analyze takes from a row of ``node_count`` nodes and these edges."""
    return ComponentSummary(*component_counts(node_count, pairs))


digraphs = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max(n - 1, 0)),
                st.integers(min_value=0, max_value=max(n - 1, 0)),
            ),
            max_size=25,
        )
        if n
        else st.just([]),
    )
)


class TestComponents:
    def test_single_directed_edge(self):
        assert summary_of(2, [(0, 1)]) == ComponentSummary(2, 1)

    def test_two_cycle_is_one_strong_component(self):
        assert summary_of(2, [(0, 1), (1, 0)]) == ComponentSummary(1, 1)

    def test_empty_graph(self):
        assert summary_of(0, []) == ComponentSummary(0, 0)

    def test_isolated_nodes_count_in_both(self):
        assert summary_of(3, []) == ComponentSummary(3, 3)

    def test_long_cycle_with_tail(self):
        # 0 -> 1 -> 2 -> 0 plus 2 -> 3
        assert summary_of(4, [(0, 1), (1, 2), (2, 0), (2, 3)]) == ComponentSummary(2, 1)

    def test_deep_chain_does_not_recurse(self):
        n = 5000
        assert summary_of(n, [(i, i + 1) for i in range(n - 1)]) == ComponentSummary(n, 1)

    @pytest.mark.parametrize(
        "n, pairs, expected",
        [
            # 2 -> 0 crosses into {0, 1} after that component is finished: a
            # finished node that still lowered a lowlink would merge {2, 3} into it
            (4, [(0, 1), (1, 0), (2, 0), (2, 3), (3, 2)], (2, 1)),
            # a self-loop joins no two weak components
            (3, [(0, 0), (1, 1), (1, 2)], (3, 2)),
            (5, [(0, 1), (1, 2), (2, 0), (3, 1), (3, 4), (4, 3), (4, 4)], (2, 1)),
        ],
        ids=["cross-edge", "self-loops", "cross-edge-into-cycle"],
    )
    def test_small_cases_match_the_closure_oracle(self, n, pairs, expected):
        assert component_counts(n, pairs) == expected
        assert closure_component_counts(range(n), pairs) == expected

    def test_long_cycle_is_one_component(self):
        n = 5000
        assert component_counts(n, [(i, (i + 1) % n) for i in range(n)]) == (1, 1)

    def test_long_cycle_with_long_tail(self):
        # the tail hangs off the cycle and ends far from it: 5,000 singletons
        n = 5000
        cycle = [(i, (i + 1) % n) for i in range(n)]
        tail = [(n - 1 + i, n + i) for i in range(n)]
        assert component_counts(2 * n, cycle + tail) == (n + 1, 1)

    @given(digraphs)
    def test_strong_count_at_least_weak_count(self, case):
        n, pairs = case
        summary = summary_of(n, pairs)
        assert summary.strong_count >= summary.weak_count

    @given(
        digraphs,
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_adding_an_edge_never_increases_either_count(self, case, a, b):
        n, pairs = case
        if n == 0:
            return
        before = summary_of(n, pairs)
        after = summary_of(n, pairs + [(a % n, b % n)])
        assert after.strong_count <= before.strong_count
        assert after.weak_count <= before.weak_count

    @given(digraphs)
    def test_int_counts_match_the_closure_oracle(self, case):
        n, pairs = case
        assert component_counts(n, pairs) == closure_component_counts(range(n), pairs)

    @pytest.mark.parametrize("seed", range(4))
    def test_int_counts_match_networkx_on_large_graphs(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        n = rng.randint(500, 2000)
        # around one edge per node leaves many strong components of several
        # nodes, and many weak ones
        edge_count = int(n * rng.uniform(0.8, 1.4))
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)]
        graph = nx.MultiDiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(pairs)
        expected = (
            nx.number_strongly_connected_components(graph),
            nx.number_weakly_connected_components(graph),
        )
        assert component_counts(n, pairs) == expected
        assert n > expected[0] > expected[1] > 1

    def test_impossible_summary_rejected(self):
        with pytest.raises(ValueError):
            ComponentSummary(strong_count=1, weak_count=2)
        with pytest.raises(ValueError):
            ComponentSummary(strong_count=3, weak_count=0)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, 0),
            (0.5, 1),
            (1.5, 2),
            (2.5, 3),
            (-0.5, -1),
            (-2.5, -3),
            (507.4, 507),
            (507.5, 508),
            (Fraction(1, 3), 0),
            (Fraction(2, 3), 1),
            (Fraction(-7, 2), -4),
        ],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected

    def test_tie_rule_applied_to_exact_rational(self):
        # 0.4999999999999999 is just under one half; 0.49999999999999994
        # rounds to 0.5 as a float but is below it as a rational
        assert round_half_away(Fraction(4999999999999999, 10**16)) == 0
        assert round_half_away(0.49999999999999994) == 0

    @given(st.fractions(min_value=-1000, max_value=1000))
    def test_error_at_most_half(self, q):
        rounded = round_half_away(q)
        assert abs(Fraction(rounded) - q) <= Fraction(1, 2)


class TestBetaRatio:
    def test_weak_over_strong_orientation(self):
        assert beta_ratio(strong_count=2, weak_count=1) == 0.5

    def test_reference_values(self):
        assert beta_ratio(336, 245) == pytest.approx(0.7291666667, rel=1e-9)
        assert beta_ratio(507, 118) == pytest.approx(0.2327416174, rel=1e-9)

    def test_zero_strong_count_undefined(self):
        with pytest.raises(DegeneracyError):
            beta_ratio(0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            beta_ratio(-1, 0)


class TestSummarize:
    def test_single_iteration_passthrough(self):
        summary = summarize_subject("Christianity", [(336, 245, -0.0065)])
        assert summary == SubjectSummary(
            "Christianity", 336, 245, pytest.approx(0.7291666667, rel=1e-9), -0.0065
        )

    def test_counts_rounded_before_division(self):
        # means: strong 10.5 -> 11, weak 3.5 -> 4; beta uses the rounded ints
        summary = summarize_subject("x", [(10, 3, 0.0), (11, 4, 1.0)])
        assert (summary.strong_count, summary.weak_count) == (11, 4)
        assert summary.beta == 4 / 11
        assert summary.alpha == 0.5

    @pytest.mark.parametrize(
        "counts, mean",
        [([336, 338, 334], 336), ([507, 508], 508), ([1, 2], 2)],
        ids=["336", "507.5", "1.5"],
    )
    def test_count_means_rounded_half_away(self, counts, mean):
        summary = summarize_subject("x", [(count, count, 0.0) for count in counts])
        assert (summary.strong_count, summary.weak_count) == (mean, mean)

    def test_alpha_is_the_mean_of_the_iteration_alphas(self):
        def alpha(alphas):
            return summarize_subject("x", [(1, 1, alpha) for alpha in alphas]).alpha

        assert alpha([0.1, 0.2, 0.3]) == pytest.approx(0.2, abs=1e-15)
        assert alpha([1.5]) == 1.5
        with pytest.raises(DegeneracyError):
            summarize_subject("x", [])

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=40))
    def test_alpha_bounded_by_extremes(self, alphas):
        summary = summarize_subject("x", [(1, 1, alpha) for alpha in alphas])
        assert min(alphas) - 1e-9 <= summary.alpha <= max(alphas) + 1e-9

    def test_alpha_mean_unrounded(self):
        summary = summarize_subject("x", [(2, 1, 0.1), (2, 1, 0.2), (2, 1, 0.4)])
        assert summary.alpha == pytest.approx(0.7 / 3, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DegeneracyError):
            summarize_subject("x", [])

    @pytest.mark.parametrize(
        "counts", [[(4, 1), (0, 0), (0, 0)], [(0, 0), (0, 0)]], ids=["weak-rounds-to-0", "all-empty"]
    )
    def test_no_weak_component_after_rounding_rejected(self, counts):
        with pytest.raises(DegeneracyError, match="subject 'x'.* 0 weak"):
            summarize_subject("x", [(*pair, 0.0) for pair in counts])


class TestTables:
    def rows(self):
        return [
            SubjectSummary("Christianity", 336, 245, 245 / 336, -0.0065),
            SubjectSummary("San José", 295, 68, 68 / 295, 0.1347),
        ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(SUBJECT_TABLE, self.rows(), path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "subject,strong_count,weak_count,ratio_beta,sentiment_alpha"
        assert read_records(SUBJECT_TABLE, path) == self.rows()

    def test_json_shape(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(SUBJECT_TABLE, self.rows(), path)
        text = path.read_text(encoding="utf-8")
        assert '"ratio_beta"' in text and '"San José"' in text

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected columns"):
            read_records(SUBJECT_TABLE, path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "subject,strong_count,weak_count,ratio_beta,sentiment_alpha\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="no rows"):
            read_records(SUBJECT_TABLE, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_records(SUBJECT_TABLE, tmp_path / "none.csv")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,10,4,nan,0.25", "non-finite"),
            ("A,10,4,0.4,nan", "non-finite"),
            ("A,10,4,inf,0.25", "non-finite"),
            ("A,10,4,0.4,-inf", "non-finite"),
            ("A,4,10,2.5,0.25", "impossible counts"),
            ("A,10,-1,-0.1,0.25", "impossible counts"),
            ("A,10,0,0.0,0.25", "zero together"),
            # numbers write_csv cannot have written name their field, not int()'s advice
            ("A,6e0,4,0.4,0.25", "field 'strong_count' must be int, got '6e0'"),
            # int() and float() read these too, but write_csv never writes them
            ("A,10,4,0.4,1_000", "field 'sentiment_alpha' must be float, got '1_000'"),
            ("A,\u0661\u0660,4,0.4,0.25", "field 'strong_count' must be int, got '\u0661\u0660'"),
            ("A, 10 ,4,0.4,0.25", "field 'strong_count' must be int, got ' 10 '"),
            ("A,10,010,1.0,0.25", "field 'weak_count' must be int, got '010'"),
            ("A,10,1,0.10,0.25", r"field 'ratio_beta' must be float, got '0\.10'"),
            (
                "A,10," + "1" * 5001 + ",0.4,0.25",
                rf"field 'weak_count' must be int, got '{'1' * 40}'\.\.\.$",
            ),
        ],
    )
    def test_non_finite_values_and_impossible_counts_rejected(self, tmp_path, row, message):
        path = tmp_path / "t.csv"
        path.write_text(
            "subject,strong_count,weak_count,ratio_beta,sentiment_alpha\nB,5,2,0.4,0.1\n"
            + row + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=f"t.csv:3: .*{message}") as raised:
            read_records(SUBJECT_TABLE, path)
        assert "set_int_max_str_digits" not in str(raised.value)
