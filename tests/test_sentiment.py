from __future__ import annotations

import math
import re
from math import fsum

import pytest
from hypothesis import given, strategies as st

import threadknit.sentiment as sentiment_module
from threadknit.errors import DegeneracyError, LexiconError
from threadknit.sentiment import (
    Lexicon,
    bundled_lexicon,
    clean_text,
    load_lexicon,
    mean_score,
    parse_lexicon,
    score_text,
)

from conftest import HAND_SCORED_TEXTS
from oracles import reference_clean_text, reference_score_text

# Pieces that stress the tokeniser: both apostrophes, underscores, '@',
# URLs, characters whose lowercase or alphanumeric status is unusual
# (dotted capital I, sharp s, Arabic-Indic digit, superscript two, Roman
# numeral twelve) and combining marks.
TRICKY_PIECES = [
    "\u2019", "'", "_", "@", "#", " ", "\t", "\n", ".", "-",
    "http://", "https://", "www.", "HTTPS://x.co/a", "wWw.b.c",
    "İ", "ß", "٣", "²", "Ⅻ", "\u0301", "\u0307", "\u20dd",
    "don't", "rock’n’roll", "o'", "'s", "@user_1", "good", "bad", "love",
]
tricky_text = st.lists(
    st.one_of(st.sampled_from(TRICKY_PIECES), st.characters()), max_size=40
).map("".join)
bundled_tokens = st.sampled_from(sorted(bundled_lexicon().entries))


class TestCleanText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Hello World", "hello world"),
            ("check https://t.co/abc out", "check out"),
            ("see www.example.com/page now", "see now"),
            ("@user thanks!", "thanks"),
            ("#Christmas morning", "christmas morning"),
            ("it's fine", "it's fine"),
            ("it’s fine", "it's fine"),
            ("'quoted' words", "quoted words"),
            ("rock 'n' roll", "rock n roll"),
            ("a   b\t\nc", "a b c"),
            ("C'mon, don't stop", "c'mon don't stop"),
            ("100% effort!!!", "100 effort"),
            ("", ""),
            ("   ", ""),
            ("@only_mention", ""),
            ("https://only.example/url", ""),
            ("naïve café", "naïve café"),
        ],
    )
    def test_examples(self, raw, expected):
        assert clean_text(raw) == expected

    @given(tricky_text)
    def test_matches_the_per_character_oracle(self, raw):
        assert clean_text(raw) == reference_clean_text(raw)

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @given(st.text(max_size=200))
    def test_output_shape(self, raw):
        out = clean_text(raw)
        assert out == out.strip()
        assert "  " not in out
        assert out == out.lower()
        assert "\n" not in out and "\t" not in out

    def test_mention_mid_sentence(self):
        assert clean_text("hey @a @b: meet @c_d9 later") == "hey meet later"

    def test_hashtag_keeps_the_tag_word(self):
        assert clean_text("#go #TeamRed #123") == "go teamred 123"


class TestScoreText:
    @pytest.mark.parametrize("raw,expected", HAND_SCORED_TEXTS)
    def test_hand_scored(self, mini_lexicon, raw, expected):
        assert score_text(raw, mini_lexicon) == expected

    def test_sum_not_mean(self, mini_lexicon):
        assert score_text("good good good filler", mini_lexicon) == 3.0

    def test_unknown_tokens_are_zero(self, mini_lexicon):
        assert score_text("xyzzy plugh", mini_lexicon) == 0.0

    @given(st.lists(st.one_of(tricky_text, bundled_tokens), max_size=8).map(" ".join))
    def test_matches_the_per_character_oracle(self, lexicon, raw):
        assert score_text(raw, lexicon) == reference_score_text(raw, lexicon.entries)

    @given(st.lists(st.sampled_from(sorted(HAND_SCORED_TEXTS)), max_size=6))
    def test_concatenation_adds(self, mini_lexicon, scored):
        texts = [raw for raw, _ in scored]
        joined = " . ".join(texts)
        total = sum(score_text(t, mini_lexicon) for t in texts)
        assert score_text(joined, mini_lexicon) == pytest.approx(total, abs=1e-12)

    def test_scaled_lexicon_scales_scores(self, mini_lexicon):
        doubled = Lexicon(
            name="x2", entries={k: 2 * v for k, v in mini_lexicon.entries.items()}
        )
        for raw, expected in HAND_SCORED_TEXTS:
            assert score_text(raw, doubled) == 2 * expected


class TestMeanScore:
    def test_mean_over_statuses(self, mini_lexicon):
        texts = [raw for raw, _ in HAND_SCORED_TEXTS]
        alpha = mean_score(texts, mini_lexicon, "Subject", 0)
        assert alpha == pytest.approx(0.4, abs=1e-12)

    def test_single_status(self, mini_lexicon):
        assert mean_score(["great"], mini_lexicon, "Subject", 0) == 2.0

    def test_empty_batch_rejected(self, mini_lexicon):
        with pytest.raises(DegeneracyError, match="Subject"):
            mean_score([], mini_lexicon, "Subject", 0)

    def test_mean_score_is_the_mean_text_score(self, mini_lexicon):
        texts = [raw for raw, _ in HAND_SCORED_TEXTS]
        expected = fsum(score_text(text, mini_lexicon) for text in texts) / len(texts)
        assert mean_score(texts, mini_lexicon, "s", 0) == expected
        assert mean_score(iter(texts), mini_lexicon, "s", 0) == expected
        with pytest.raises(DegeneracyError, match="subject 's' iteration 3: .*empty batch"):
            mean_score([], mini_lexicon, "s", 3)


class TestLexiconParsing:
    def test_parse_basic(self):
        lex = parse_lexicon("# comment\nabandon\t-2\n\nzest\t2\n", name="t")
        assert lex.valence("abandon") == -2.0
        assert lex.valence("zest") == 2.0
        assert lex.valence("missing") == 0.0
        assert len(lex) == 2

    def test_duplicate_token_rejected(self):
        with pytest.raises(LexiconError, match="duplicate"):
            parse_lexicon("joy\t2\njoy\t1\n")

    @pytest.mark.parametrize(
        "line",
        [
            "joy", "joy\ttwo", "\t2", "joy\tnan", "joy\tinf", "Joy Ride\t2",
            "\ufeffjoy\t2", "joy!\t2", "x-ray\t1",
        ],
    )
    def test_malformed_line_rejected(self, line):
        with pytest.raises(LexiconError, match=r"^lexicon:1: "):
            parse_lexicon(line + "\n")

    @pytest.mark.parametrize(
        "separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    )
    def test_lines_split_on_newline_only(self, separator):
        lex = parse_lexicon(f"# notes{separator}more notes\ngood\t1.0\n", name="lex.tsv")
        assert lex.entries == {"good": 1.0}
        with pytest.raises(LexiconError, match=r"^lex\.tsv:3: bad token 'x-ray'"):
            parse_lexicon(f"# notes{separator}more\ngood\t1.0\nx-ray\t1\n", name="lex.tsv")

    @pytest.mark.parametrize("valence", ["1_0", "\u0661", "1\u0660", "\uff11", "\u00b2"])
    def test_valence_is_ascii_number_text(self, valence):
        with pytest.raises(LexiconError, match=f"^lex:2: bad valence {re.escape(repr(valence))}$"):
            parse_lexicon(f"calm\t0.5\ngood\t{valence}\n", name="lex")

    @pytest.mark.parametrize("valence", ["nan", " inf", "-Infinity"])
    def test_non_finite_valence_keeps_its_message(self, valence):
        with pytest.raises(LexiconError, match="^lex:1: non-finite valence for 'good'$"):
            parse_lexicon(f"good\t{valence}\n", name="lex")

    def test_valence_may_carry_whitespace(self):
        assert parse_lexicon("good\t 2 \n").entries == {"good": 2.0}

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("calm\t0.5\nstorm\t-1\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.valence("storm") == -1.0

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(LexiconError):
            load_lexicon(tmp_path / "absent.tsv")

    def test_empty_lexicon_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("# nothing\n")

    def test_each_entry_checked_once(self, monkeypatch):
        checked = []
        check = sentiment_module._check_entry
        monkeypatch.setattr(
            sentiment_module, "_check_entry", lambda *args: checked.append(args) or check(*args)
        )
        lex = parse_lexicon("calm\t0.5\nstorm\t-1\n", name="t")
        assert checked == [("t:1", "calm", 0.5), ("t:2", "storm", -1.0)]
        assert lex == Lexicon(name="t", entries={"calm": 0.5, "storm": -1.0})

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({}, "lexicon 'lib' is empty"),
            ({"calm": 0.5, "x-ray": 1.0}, "lexicon 'lib': bad token 'x-ray'"),
            ({"joy": math.nan}, "lexicon 'lib': non-finite valence for 'joy'"),
        ],
    )
    def test_library_lexicon_is_checked(self, entries, message):
        with pytest.raises(LexiconError, match=f"^{re.escape(message)}"):
            Lexicon(name="lib", entries=entries)


class TestBundledLexicon:
    def test_size_and_balance(self, lexicon):
        assert len(lexicon) > 2000
        negative = sum(1 for v in lexicon.entries.values() if v < 0)
        assert negative > len(lexicon) / 2

    def test_tokens_survive_cleaning(self, lexicon):
        for token in lexicon.entries:
            assert clean_text(token) == token

    def test_valences_are_finite_half_steps(self, lexicon):
        for token, valence in lexicon.entries.items():
            assert math.isfinite(valence)
            assert abs(valence) <= 3.0
            assert (2 * valence) == int(2 * valence)
            assert valence != 0.0

    def test_spot_checks(self, lexicon):
        assert lexicon.valence("love") > 0
        assert lexicon.valence("hate") < 0
        assert lexicon.valence("the") == 0.0

    def test_cached_instance(self, lexicon):
        from threadknit.sentiment import bundled_lexicon

        assert bundled_lexicon() is lexicon or bundled_lexicon() == lexicon
