"""crawler: link extraction, frontier behavior, and crawl invariants."""

from __future__ import annotations

from collections import Counter
from datetime import timedelta

import pytest

from archivelab import crawler
from archivelab.analyzer import language_of
from archivelab.cookiejar import CookieJar, JarPolicy
from archivelab.crawler import (
    CrawlPolicy,
    Frontier,
    _fetch_one,
    crawl,
    extract_fragment_refs,
    extract_links,
    scripted_crawl,
)
from archivelab.http_core import Headers, HttpResponse, canonicalize
from archivelab.origin import SiteConfig, fetch_fn, handle
from archivelab.store import VariantConfig
from conftest import START

ROOT = canonicalize("https://twitter.com/")


def _root_page(site):
    from archivelab.http_core import HttpRequest

    return handle(HttpRequest("GET", "https://twitter.com/"), site)


class TestExtractLinks:
    def test_alternates_in_document_order_kn_last(self, twitter_site):
        body = _root_page(twitter_site).body
        links = extract_links(body, ROOT)
        alternates = [u for u in links if u.query_values("lang")]
        assert len(alternates) == 47
        assert [u.query_values("lang")[0] for u in alternates] == list(
            twitter_site.languages
        )
        assert str(alternates[-1]) == "https://twitter.com/?lang=kn"
        # x-default precedes the language links
        assert links[0] == ROOT

    def test_fragments_and_siblings_found(self, twitter_site):
        body = _root_page(twitter_site).body
        links = [str(u) for u in extract_links(body, ROOT)]
        assert "https://twitter.com/fragment/0/0" in links
        assert "https://twitter.com/timeline/1" in links
        fragments = [str(u) for u in extract_fragment_refs(body, ROOT)]
        assert fragments == [
            "https://twitter.com/fragment/0/0",
            "https://twitter.com/fragment/0/1",
        ]

    def test_no_links(self):
        assert extract_links(b"<html><body>plain</body></html>", ROOT) == []

    def test_duplicates_preserved_and_relative_resolved(self):
        body = (
            b'<a href="/a">one</a><a href="/a">two</a>'
            b'<a href="b/c">rel</a><a href="http://bad host/">skip</a>'
            b'<link rel="alternate" href="/alt"><link rel="stylesheet" href="/css">'
        )
        links = [str(u) for u in extract_links(body, canonicalize("https://twitter.com/x/"))]
        assert links == [
            "https://twitter.com/a",
            "https://twitter.com/a",
            "https://twitter.com/x/b/c",
            "https://twitter.com/alt",
        ]


class TestFrontier:
    def test_fifo_dedup(self):
        frontier = Frontier()
        a, b = canonicalize("https://x.example/a"), canonicalize("https://x.example/b")
        assert frontier.add(a) and frontier.add(b)
        assert not frontier.add(a)
        assert frontier.pop() == a and frontier.pop() == b
        assert not frontier

    def test_exempt_uri_requeues(self):
        frontier = Frontier(exempt={ROOT})
        assert frontier.add(ROOT)
        assert frontier.add(ROOT)
        assert len(frontier) == 2


class TestCrawl:
    def test_empty_seeds(self, twitter_fetch):
        assert crawl([], twitter_fetch, CrawlPolicy(), START) == []

    def test_deterministic_record_lists(self, twitter_fetch):
        policy = CrawlPolicy(max_pages=40, revisit_root_every=5)
        first = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        second = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        assert first == second

    def test_timestamps_step_with_fetch_index(self, twitter_fetch):
        policy = CrawlPolicy(max_pages=5, clock_step=timedelta(seconds=7))
        records = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        assert [r.datetime for r in records] == [
            START + i * timedelta(seconds=7) for i in range(5)
        ]

    def test_fetch_failure_becomes_status_zero(self, twitter_site):
        boom = canonicalize("https://twitter.com/timeline/1")

        def flaky(request):
            if canonicalize(request.uri) == boom:
                raise ConnectionError("synthetic outage")
            return handle(request, twitter_site)

        records = crawl(["https://twitter.com/"], flaky, CrawlPolicy(max_pages=60), START)
        failed = [r for r in records if r.uri == boom]
        assert len(failed) == 1
        assert failed[0].response_status == 0
        assert failed[0].body == b""

    def test_non_exempt_uris_never_refetched(self, twitter_fetch):
        policy = CrawlPolicy(max_pages=80, revisit_root_every=4)
        records = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        counts = Counter(str(r.uri) for r in records)
        for uri, count in counts.items():
            if uri != str(ROOT):
                assert count == 1, uri

    def test_zero_ttl_jar_never_sends_cookies(self, twitter_fetch):
        policy = CrawlPolicy(
            jar_policy=JarPolicy(max_ttl=timedelta(0)), max_pages=60, revisit_root_every=5
        )
        records = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        assert all("cookie" not in r.request_headers for r in records)

    def test_sticky_cookie_carries_to_next_request(self, twitter_fetch):
        policy = CrawlPolicy(jar_policy=JarPolicy(max_ttl=None), max_pages=10)
        records = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        # dequeue order: root, root (x-default), then ?lang=fr, then ?lang=en ...
        lang_positions = [
            i for i, r in enumerate(records) if r.uri.query_values("lang")
        ]
        first_lang = lang_positions[0]
        visited = records[first_lang].uri.query_values("lang")[0]
        after = records[first_lang + 1]
        assert after.request_headers.get("cookie") == f"lang={visited}"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CrawlPolicy(max_pages=0)
        with pytest.raises(ValueError):
            CrawlPolicy(clock_step=timedelta(0))


def _reference_crawl(seed, fetch, policy, start):
    """The crawl loop with no memo: every 200 page is scanned afresh."""
    jar = CookieJar(policy.jar_policy)
    root = canonicalize(seed)
    revisit = policy.revisit_root_every or 0
    frontier = Frontier(exempt={root} if revisit else ())
    frontier.add(root)
    records = []
    while frontier and len(records) < policy.max_pages:
        now = start + len(records) * policy.clock_step
        jar.prune(now)
        uri = frontier.pop()
        record = _fetch_one(fetch, uri, jar, now, VariantConfig())
        records.append(record)
        if record.response_status == 200:
            for link in extract_links(record.body, uri):
                frontier.add(link)
        if revisit and len(records) % revisit == 0:
            frontier.add(root)
    return records


class TestCrawlMemo:
    @pytest.mark.parametrize("revisit", [None, 3, 5], ids=["no-revisit", "revisit-3", "revisit-5"])
    @pytest.mark.parametrize(
        "max_ttl", [None, timedelta(0), timedelta(seconds=30)], ids=["ttl-none", "ttl-0", "ttl-30s"]
    )
    def test_records_equal_unmemoized_reference(self, max_ttl, revisit):
        # 15 timeline pages give 750 distinct URIs, so even without root
        # revisits the crawl runs to max_pages
        site = SiteConfig(host="twitter.com", page_count=15)
        policy = CrawlPolicy(
            jar_policy=JarPolicy(max_ttl=max_ttl), max_pages=700, revisit_root_every=revisit
        )
        seed = "https://twitter.com/"
        expected = _reference_crawl(seed, fetch_fn(site), policy, START)
        assert len(expected) == 700
        assert crawl([seed], fetch_fn(site), policy, START) == expected

    def test_identical_body_resolves_against_each_pages_own_base(self):
        body = b'<a href="../b/">b</a><a href="leaf">leaf</a>'

        def fetch(request):
            if request.uri.endswith("/leaf"):
                return HttpResponse(200, Headers(), b"no links")
            return HttpResponse(200, Headers(), body)

        records = crawl(["https://x.example/a/"], fetch, CrawlPolicy(max_pages=10), START)
        assert [str(r.uri) for r in records] == [
            "https://x.example/a/",
            "https://x.example/b/",
            "https://x.example/a/leaf",
            "https://x.example/b/leaf",
        ]

    def test_each_distinct_page_scanned_once(self, twitter_fetch, monkeypatch):
        scanned = Counter()

        def counting(body, base, *args):
            scanned[(base, body)] += 1
            return extract_links(body, base, *args)

        monkeypatch.setattr(crawler, "extract_links", counting)
        policy = CrawlPolicy(
            jar_policy=JarPolicy(max_ttl=None), max_pages=300, revisit_root_every=5
        )
        records = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        pages = [(r.uri, r.body) for r in records if r.response_status == 200]
        assert set(scanned.values()) == {1}
        assert set(scanned) == set(pages)
        assert len(scanned) < len(pages)  # root revisits repeat bodies


class TestBiasMechanism:
    def test_faithful_crawl_biases_roots_toward_last_listed_language(self, twitter_fetch):
        policy = CrawlPolicy(
            jar_policy=JarPolicy(max_ttl=None), max_pages=110, revisit_root_every=5
        )
        records = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        root_langs = [language_of(r) for r in records if r.uri == ROOT]
        non_default = Counter(t for t in root_langs if t != "en")
        assert non_default  # at least one non-default root capture
        assert non_default.most_common(1)[0][0] == "kn"
        # ignoring the seed capture itself, "kn" is the modal root language
        assert Counter(root_langs[1:]).most_common(1)[0][0] == "kn"

    def test_zero_ttl_crawl_keeps_roots_in_default_language(self, twitter_site, twitter_fetch):
        policy = CrawlPolicy(
            jar_policy=JarPolicy(max_ttl=timedelta(0)), max_pages=110, revisit_root_every=5
        )
        records = crawl(["https://twitter.com/"], twitter_fetch, policy, START)
        root_langs = {language_of(r) for r in records if r.uri == ROOT}
        assert root_langs == {"en"}
        # cross-check: with no cookie in play, negotiation alone predicts this
        from archivelab.http_core import HttpRequest
        from archivelab.origin import negotiate_language

        assert negotiate_language(HttpRequest("GET", "https://twitter.com/"), twitter_site) == "en"


def test_scripted_crawl_follows_schedule_and_jar():
    from archivelab.origin import SiteConfig, fetch_fn

    site = SiteConfig(host="twitter.com")
    schedule = ["https://twitter.com/?lang=pt", "https://twitter.com/"]
    records = scripted_crawl(schedule, fetch_fn(site), JarPolicy(max_ttl=None), START)
    assert [str(r.uri) for r in records] == [
        "https://twitter.com/?lang=pt",
        "https://twitter.com/",
    ]
    assert language_of(records[1]) == "pt"
    assert records[1].request_headers.get("cookie") == "lang=pt"
