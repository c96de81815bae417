"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria with a stated runtime budget enforce it with a wall-clock assert.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager
from datetime import timedelta

from archivelab.analyzer import (
    CONSISTENT,
    DEFACED,
    detect_violations,
    distribution,
    language_of,
    shannon_entropy,
)
from archivelab.cookiejar import CookieJar, JarPolicy, import_netscape
from archivelab.crawler import CrawlPolicy, crawl, scripted_crawl
from archivelab.demo import scenario_schedule
from archivelab.http_core import Headers, HttpRequest, canonicalize, parse_set_cookie
from archivelab.origin import SiteConfig, fetch_fn, handle
from archivelab.replay import (
    FALLBACK_NOT_FOUND,
    ReplayMode,
    RequestContext,
    reconstruct_composite,
    select_memento,
)
from archivelab.store import ArchiveStore, VariantConfig, variant_matches
from conftest import START, make_record

SITE = SiteConfig(host="twitter.com")
FETCH = fetch_fn(SITE)
ROOT = "https://twitter.com/"
CFG = VariantConfig()


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    begin = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - begin
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"\nACCEPTANCE {number}: FAIL - {description} "
              f"(took {elapsed:.2f}s, budget {budget_seconds:.0f}s)")
        raise AssertionError(f"criterion {number} exceeded runtime budget")
    print(f"\nACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_language_negotiation_conformance():
    """The four recorded exchanges render ar, en, ur, ar; the jar after the
    first exports exactly the expected Netscape line. Budget 1s."""
    with criterion(1, "language negotiation exchanges + cookie-file line", 1.0):
        jar = CookieJar(JarPolicy(max_ttl=None))

        # 1: ?lang=ar with a cookie-capturing jar
        first = handle(HttpRequest("GET", f"{ROOT}?lang=ar"), SITE)
        assert b'<html lang="ar"' in first.body
        uri = canonicalize(f"{ROOT}?lang=ar")
        for raw in first.headers.get_all("set-cookie"):
            cookie = parse_set_cookie(raw, uri, START)
            assert cookie is not None
            jar.store(cookie, START)
        exported = jar.export_netscape().splitlines()
        assert exported[1] == "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tar"
        domain, _, path, _, _, name, value = exported[1].split("\t")
        assert (domain, path, name, value) == ("twitter.com", "/", "lang", "ar")

        # 2: bare request, no state
        second = handle(HttpRequest("GET", ROOT), SITE)
        assert b'<html lang="en"' in second.body

        # 3: Accept-Language only
        third = handle(
            HttpRequest("GET", ROOT, Headers([("accept-language", "ur")])), SITE
        )
        assert b'<html lang="ur"' in third.body

        # 4: replaying the saved jar
        pairs = jar.cookies_for(canonicalize(ROOT), START)
        fourth = handle(
            HttpRequest(
                "GET", ROOT, Headers([("cookie", "; ".join(f"{n}={v}" for n, v in pairs))])
            ),
            SITE,
        )
        assert b'<html lang="ar"' in fourth.body


def test_criterion_2_bias_reproduction():
    """Faithful crawl: some non-default root captures exist and their modal
    language is the last-listed alternate ("kn"). Budget 5s."""
    with criterion(2, "faithful crawl reproduces last-language bias", 5.0):
        policy = CrawlPolicy(
            jar_policy=JarPolicy(max_ttl=None), max_pages=120, revisit_root_every=5
        )
        records = crawl([ROOT], FETCH, policy, START)
        assert len(records) >= 100
        root_langs = [
            language_of(r) for r in records if r.uri == canonicalize(ROOT)
        ]
        non_default = Counter(
            lang for lang in root_langs if lang not in (None, SITE.default_language)
        )
        assert non_default, "expected at least one non-default root capture"
        modal_tag = non_default.most_common(1)[0][0]
        assert modal_tag == SITE.languages[-1] == "kn"


def test_criterion_3_fix_efficacy():
    """Zero-TTL crawl: every root capture is default-language; entropy 0. Budget 5s."""
    with criterion(3, "zero-TTL crawl removes the bias entirely", 5.0):
        policy = CrawlPolicy(
            jar_policy=JarPolicy(max_ttl=timedelta(0)), max_pages=120, revisit_root_every=5
        )
        records = crawl([ROOT], FETCH, policy, START)
        store = ArchiveStore.in_memory(CFG)
        for record in records:
            store.append(record)
        dist = distribution(store, ROOT)
        assert dist.total > 0
        assert dist.counts == {SITE.default_language: dist.total}
        assert shannon_entropy(dist.counts) == 0.0


def test_criterion_4_violation_round_trip():
    """Scripted scenario: baseline composite is defaced with >= 2 languages;
    variant-aware replay with the root language cookie is consistent. Budget 2s."""
    with criterion(4, "defacement appears in baseline, repaired variant-aware", 2.0):
        records = scripted_crawl(
            scenario_schedule(SITE, "pt", ["ur", "en"]),
            FETCH,
            JarPolicy(max_ttl=None),
            START,
            variant_config=CFG,
        )
        store = ArchiveStore.in_memory(CFG)
        for record in records:
            store.append(record)
        target = records[1].datetime  # the root capture

        baseline = reconstruct_composite(store, ROOT, target, ReplayMode.baseline())
        baseline_report = detect_violations(baseline)
        assert len(baseline_report.languages_present) >= 2
        assert baseline_report.verdict == DEFACED

        variant = reconstruct_composite(
            store,
            ROOT,
            target,
            ReplayMode.variant_aware(),  # fallback=nearest_any
            RequestContext.with_cookies([("lang", baseline_report.root_language)]),
        )
        variant_report = detect_violations(variant)
        assert variant_report.verdict == CONSISTENT
        assert len(variant_report.violating_parts) == 0


def _random_selection_case(rng: random.Random):
    store = ArchiveStore.in_memory(CFG)
    uris = [f"https://s{k}.example/" for k in range(2)]
    for _ in range(rng.randrange(0, 12)):
        store.append(
            make_record(
                rng.choice(uris),
                START + timedelta(seconds=rng.randrange(-300, 300)),
                lang=rng.choice(["en", "kn", "ur"]),
                request_cookie=rng.choice([None, "lang=kn", "lang=en", "lang=ur; _s=1"]),
                vary=rng.choice([None, None, None, "Cookie", "*"]),
            )
        )
    uri = rng.choice(uris)
    target = START + timedelta(seconds=rng.randrange(-320, 320))
    ctx = RequestContext(
        Headers([("cookie", rng.choice(["lang=kn", "lang=en", "lang=ur", "_s=2"]))])
        if rng.random() < 0.85
        else Headers()
    )
    return store, uri, target, ctx


def _oracle_select(store, uri, target, mode, ctx):
    candidates = [r for r in store.iter_records() if str(r.uri) == str(uri)]
    if mode.kind == "variant_aware":
        matching = [
            r for r in candidates if variant_matches(r.variant_key, ctx.headers, CFG)
        ]
        if matching:
            candidates = matching
        elif mode.fallback == FALLBACK_NOT_FOUND:
            return None
    if not candidates:
        return None
    return min(candidates, key=lambda r: (abs(r.datetime - target), r.datetime, r.id))


def test_criterion_5_selection_oracle():
    """1,000 random cases: baseline equals the argmin-|dt| oracle, variant
    equals restrict-then-argmin. Zero mismatches tolerated."""
    with criterion(5, "selection equals brute-force oracle on 1,000 cases"):
        rng = random.Random(20190401)
        mismatches = 0
        for _ in range(1000):
            store, uri, target, ctx = _random_selection_case(rng)
            for mode in (
                ReplayMode.baseline(),
                ReplayMode.variant_aware(),
                ReplayMode.variant_aware(FALLBACK_NOT_FOUND),
            ):
                got = select_memento(store, uri, target, mode, ctx, CFG)
                expected = _oracle_select(store, uri, target, mode, ctx)
                got_id = None if got is None else got.id
                expected_id = None if expected is None else expected.id
                if got_id != expected_id:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_6_store_integrity(tmp_path):
    """200 random archives: write/reopen is observationally identical and
    index lookup equals a linear scan."""
    with criterion(6, "store round-trip identity + lookup oracle on 200 archives"):
        rng = random.Random(20190601)
        for case in range(200):
            directory = tmp_path / f"arch{case}"
            with ArchiveStore.create(directory, CFG) as store:
                for _ in range(rng.randrange(1, 7)):
                    store.append(
                        make_record(
                            f"https://s{rng.randrange(3)}.example/p{rng.randrange(2)}",
                            START + timedelta(seconds=rng.randrange(0, 500)),
                            lang=rng.choice(["en", "kn", "ur", None]),
                            body=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80))),
                            request_cookie=rng.choice([None, "lang=kn", "lang=ur; _s=1"]),
                        )
                    )
                original_records = list(store.iter_records())
                original_lookup = {u: store.lookup(u) for u in store.uris()}
            with ArchiveStore.open(directory) as reopened:
                assert list(reopened.iter_records()) == original_records
                assert {u: reopened.lookup(u) for u in reopened.uris()} == original_lookup
                assert reopened.verify() == []
                for uri in reopened.uris():
                    expected = sorted(
                        (r.datetime, r.id)
                        for r in reopened.iter_records()
                        if str(r.uri) == uri
                    )
                    assert [(e.datetime, e.id) for e in reopened.lookup(uri)] == expected


def _random_jar(rng: random.Random) -> CookieJar:
    from datetime import datetime, timezone

    from archivelab.http_core import Cookie

    jar = CookieJar()
    letters = "abcdefghijklmnopqrstuvwxyz0123456789"
    for _ in range(rng.randrange(0, 8)):
        expiry = (
            None
            if rng.random() < 0.4
            else datetime.fromtimestamp(rng.randrange(1_800_000_000, 2_400_000_000), timezone.utc)
        )
        jar.store(
            Cookie(
                name="".join(rng.choice(letters) for _ in range(rng.randrange(1, 8))),
                value="".join(rng.choice(letters) for _ in range(rng.randrange(0, 10))),
                domain=rng.choice(["twitter.com", "example.com"]),
                host_only=rng.random() < 0.5,
                path=rng.choice(["/", "/a", "/a/b"]),
                expires_at=expiry,
                created_at=START,
                secure=rng.random() < 0.25,
            ),
            START,
        )
    return jar


def test_criterion_7_cookie_file_exactness():
    """Netscape import/export is the identity on 200 random jars (session
    expiry encoded as 0) and the known session-cookie line round-trips
    byte-exactly."""
    with criterion(7, "cookie-file format exactness"):
        line = "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tar"
        reimported = import_netscape("# Netscape HTTP Cookie File\n" + line + "\n")
        assert reimported.export_netscape().splitlines()[1:] == [line]

        rng = random.Random(20190701)
        for _ in range(200):
            jar = _random_jar(rng)
            exported = jar.export_netscape()
            round_tripped = import_netscape(exported)
            assert round_tripped.export_netscape() == exported
            original = {
                (c.name, c.domain, c.path): (c.host_only, c.secure, c.value, c.expires_at)
                for c in jar.entries()
            }
            loaded = {
                (c.name, c.domain, c.path): (c.host_only, c.secure, c.value, c.expires_at)
                for c in round_tripped.entries()
            }
            assert loaded == original
