"""analyzer: language detection, distributions, entropy, verdicts."""

from __future__ import annotations

import logging
import math
import random
from datetime import timedelta

import pytest

from archivelab.analyzer import (
    CONSISTENT,
    DEFACED,
    bias_report,
    detect_violations,
    distribution,
    language_of,
    shannon_entropy,
)
from archivelab.http_core import HttpRequest
from archivelab.origin import handle
from archivelab.replay import CompositeMemento, ReplayMode, reconstruct_composite
from conftest import START, build_defacement_store, make_record

URI = "https://a.example/"


class TestLanguageOf:
    def test_origin_arabic_page(self, twitter_site):
        from dataclasses import replace

        response = handle(HttpRequest("GET", "https://twitter.com/?lang=ar"), twitter_site)
        record = replace(
            make_record(URI, START, lang=None, body=response.body),
            response_headers=response.headers,
        )
        assert language_of(record) == "ar"

    def test_empty_body_no_header_unknown(self):
        record = make_record(URI, START, lang=None, body=b"")
        assert language_of(record) is None

    def test_header_wins_with_warning_on_mismatch(self, caplog):
        record = make_record(
            URI, START, lang="fr", body=b'<html lang="kn"><body>x</body></html>'
        )
        with caplog.at_level(logging.WARNING):
            assert language_of(record) == "fr"
        assert any("disagrees" in message for message in caplog.messages)

    def test_body_fallback_without_header(self):
        record = make_record(URI, START, lang=None, body=b'<html lang="ur"><p>x</p></html>')
        assert language_of(record) == "ur"


class TestDistribution:
    def test_counts_by_primary_subtag(self, new_store):
        with new_store() as store:
            store.append(make_record(URI, START, lang="en-US"))
            store.append(make_record(URI, START + timedelta(seconds=1), lang="en"))
            store.append(make_record(URI, START + timedelta(seconds=2), lang="kn"))
            dist = distribution(store, URI)
        assert dist.counts == {"en": 2, "kn": 1}
        assert dist.total == 3
        assert dist.modal() == "en"

    def test_empty_store(self, new_store):
        with new_store() as store:
            dist = distribution(store, URI)
        assert dist.total == 0 and dist.counts == {}

    def test_totals_match_lookup(self, twitter_site, tmp_path):
        store, root_uri, _ = build_defacement_store(twitter_site, tmp_path / "scenario")
        with store:
            dist = distribution(store, root_uri)
            assert dist.total == len(store.lookup(root_uri))
        assert sum(dist.counts.values()) == dist.total


class TestEntropy:
    def test_single_class_is_zero(self):
        assert shannon_entropy({"en": 40}) == 0.0
        assert shannon_entropy({}) == 0.0

    def test_matches_direct_formula_on_random_counts(self):
        rng = random.Random(1789)
        for _ in range(200):
            counts = {
                f"t{i}": rng.randrange(0, 30)
                for i in range(rng.randrange(1, 6))
            }
            total = sum(counts.values())
            expected = (
                -sum(
                    (c / total) * math.log2(c / total)
                    for c in counts.values()
                    if c > 0
                )
                if total
                else 0.0
            )
            assert math.isclose(shannon_entropy(counts), expected, abs_tol=1e-12)

    def test_uniform_two_class_is_one_bit(self):
        assert math.isclose(shannon_entropy({"a": 7, "b": 7}), 1.0)


class TestDetectViolations:
    def _composite(self, root_lang, part_langs, missing=0):
        root = make_record(URI, START, lang=root_lang)
        parts = []
        for i, lang in enumerate(part_langs):
            parts.append(
                (f"https://a.example/f/{i}", make_record(f"https://a.example/f/{i}", START, lang=lang))
            )
        for i in range(missing):
            parts.append((f"https://a.example/gone/{i}", None))
        return CompositeMemento(root, tuple(parts))

    def test_mixed_three_language_composite(self):
        report = detect_violations(self._composite("pt", ["ur", "en"]))
        assert report.verdict == DEFACED
        assert report.languages_present == frozenset({"pt", "ur", "en"})
        assert len(report.violating_parts) == 2

    def test_all_same_language_consistent(self):
        report = detect_violations(self._composite("en", ["en", "en"]))
        assert report.verdict == CONSISTENT
        assert report.violating_parts == ()

    def test_unknown_part_excluded_from_distinctness(self):
        report = detect_violations(self._composite("en", [None]))
        assert report.verdict == CONSISTENT
        assert len(report.unresolved_parts) == 1

    def test_missing_part_counts_as_unresolved(self):
        report = detect_violations(self._composite("en", ["en"], missing=1))
        assert report.verdict == CONSISTENT
        assert report.unresolved_parts == ("https://a.example/gone/0",)

    def test_verdict_iff_two_known_languages(self):
        assert detect_violations(self._composite("en", ["kn"])).verdict == DEFACED
        assert detect_violations(self._composite(None, ["kn", "kn"])).verdict == CONSISTENT
        assert detect_violations(self._composite(None, ["kn", "ur"])).verdict == DEFACED

    def test_permutation_invariant(self):
        rng = random.Random(33)
        langs = ["ur", "en", "pt", None]
        for _ in range(20):
            shuffled = langs[:]
            rng.shuffle(shuffled)
            base = detect_violations(self._composite("pt", langs))
            perm = detect_violations(self._composite("pt", shuffled))
            assert base.verdict == perm.verdict
            assert base.languages_present == perm.languages_present
            assert len(base.violating_parts) == len(perm.violating_parts)

    def test_end_to_end_defacement_scenario(self, twitter_site, tmp_path):
        store, root_uri, target = build_defacement_store(twitter_site, tmp_path / "scenario")
        with store:
            composite = reconstruct_composite(store, root_uri, target, ReplayMode.baseline())
        report = detect_violations(composite)
        assert report.verdict == DEFACED
        assert report.root_language == "pt"


class TestBiasReport:
    @pytest.fixture
    def report(self, new_store):
        """bias_report over two fresh archives of URI with the given languages."""

        def make(langs_a, langs_b, *labels):
            with new_store() as store_a, new_store() as store_b:
                for store, langs in ((store_a, langs_a), (store_b, langs_b)):
                    for i, lang in enumerate(langs):
                        store.append(make_record(URI, START + timedelta(seconds=i), lang=lang))
                return bias_report(store_a, store_b, URI, *labels)

        return make

    def test_identical_stores_zero_entropy_difference(self, report):
        payload = report(["en", "kn", "en"], ["en", "kn", "en"], "left", "right").to_json()
        assert payload["entropy_difference_bits"] == 0.0

    def test_biased_vs_fixed_entropy_ordering(self, report):
        payload = report(["en", "kn", "kn", "ur"], ["en", "en", "en"], "biased", "fixed").to_json()
        assert payload["fixed"]["entropy_bits"] == 0.0
        assert payload["biased"]["entropy_bits"] > 0.0

    def test_text_output_lists_fractions(self, report):
        text = report(["en", "kn"], ["en"]).to_text()
        assert URI in text
        assert "entropy" in text and "50.00%" in text
