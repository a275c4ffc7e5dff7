"""Tests for web page generation and classification round-trip."""

import random

import pytest

from repro.campus.webpages import PageCategory, render_root_page
from repro.webclassify.classifier import (
    MINIMAL_CONTENT_BYTES,
    PageClassifier,
)
from repro.webclassify.signatures import signature_database
from tests.campus_reference import matching_signature


class TestRenderRootPage:
    def test_all_categories_render(self):
        rng = random.Random(1)
        for category in PageCategory:
            page = render_root_page(category, rng, host_id=7)
            assert isinstance(page, str) and page

    def test_custom_pages_vary(self):
        rng = random.Random(2)
        pages = {render_root_page(PageCategory.CUSTOM, rng, i) for i in range(20)}
        assert len(pages) > 10

    def test_minimal_pages_are_small(self):
        rng = random.Random(3)
        for _ in range(10):
            page = render_root_page(PageCategory.MINIMAL, rng, 1)
            assert len(page.encode()) < MINIMAL_CONTENT_BYTES


class TestSignatureDatabase:
    def test_substantial_database(self):
        # The paper used 185 signature strings; ours is the same order.
        assert sum(len(s.strings) for s in signature_database()) >= 100

    def test_signatures_validate(self):
        for signature in signature_database():
            assert signature.strings
            assert 1 <= signature.min_matches <= len(signature.strings)

    def test_config_before_default(self):
        """Embedded-device pages often contain server boilerplate;
        config signatures must be consulted first."""
        kinds = [s.category for s in signature_database()]
        first_default = kinds.index(PageCategory.DEFAULT)
        last_config = max(
            i for i, k in enumerate(kinds) if k is PageCategory.CONFIG_STATUS
        )
        assert last_config < first_default


class TestClassifierRoundTrip:
    @pytest.mark.parametrize("category", list(PageCategory))
    def test_recovers_generated_category(self, category):
        rng = random.Random(5)
        classifier = PageClassifier()
        hits = 0
        trials = 30
        for i in range(trials):
            page = render_root_page(category, rng, host_id=i)
            if classifier.classify(page) is category:
                hits += 1
        assert hits / trials >= 0.95, f"{category}: {hits}/{trials}"

    def test_empty_page_rejected(self):
        with pytest.raises(ValueError):
            PageClassifier().classify("")

    def test_tiny_page_is_minimal(self):
        assert PageClassifier().classify("<html>x</html>") is PageCategory.MINIMAL

    def test_unmatched_large_page_is_custom(self):
        page = "<html><body>" + "the quarterly seminar archive " * 20 + "</body></html>"
        assert PageClassifier().classify(page) is PageCategory.CUSTOM

    def test_matching_signature_diagnostic(self):
        classifier = PageClassifier()
        page = "<html><h1>It works!</h1>" + "x" * 120 + "</html>"
        signature = matching_signature(classifier, page)
        assert signature is not None
        assert signature.category is PageCategory.DEFAULT

    def test_case_insensitive(self):
        page = "<HTML><H1>IT WORKS!</H1>" + "x" * 120 + "</HTML>"
        assert PageClassifier().classify(page) is PageCategory.DEFAULT
