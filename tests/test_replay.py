"""replay: memento selection, composite reconstruction, HTTP service."""

from __future__ import annotations

import http.client
import random
import threading
from datetime import timedelta

from archivelab.http_core import Headers
from archivelab.replay import (
    FALLBACK_NOT_FOUND,
    ReplayMode,
    RequestContext,
    make_replay_server,
    reconstruct_composite,
    select_memento,
)
from archivelab.store import ArchiveStore, VariantConfig, variant_matches
from conftest import START, build_defacement_store, make_record

CFG = VariantConfig()
URI = "https://a.example/"


def brute_force_select(store, uri, target, mode, ctx, cfg):
    """Independent oracle: linear scan over every record in the store."""
    candidates = [r for r in store.iter_records() if str(r.uri) == str(uri)]
    if mode.kind == "variant_aware":
        matching = [
            r for r in candidates if variant_matches(r.variant_key, ctx.headers, cfg)
        ]
        if matching:
            candidates = matching
        elif mode.fallback == FALLBACK_NOT_FOUND:
            return None
    if not candidates:
        return None
    return min(candidates, key=lambda r: (abs(r.datetime - target), r.datetime, r.id))


def _two_variant_store():
    """kn capture 10s before target, en capture 30s after."""
    store = ArchiveStore.in_memory(CFG)
    store.append(
        make_record(URI, START - timedelta(seconds=10), lang="kn", request_cookie="lang=kn")
    )
    store.append(
        make_record(URI, START + timedelta(seconds=30), lang="en", request_cookie="lang=en")
    )
    return store


class TestSelectMemento:
    def test_baseline_picks_nearest(self):
        store = _two_variant_store()
        record = select_memento(store, URI, START, ReplayMode.baseline())
        assert record.datetime == START - timedelta(seconds=10)  # the kn capture

    def test_variant_restricts_then_nearest(self):
        store = _two_variant_store()
        record = select_memento(
            store,
            URI,
            START,
            ReplayMode.variant_aware(),
            RequestContext.with_cookies([("lang", "en")]),
        )
        assert record.datetime == START + timedelta(seconds=30)

    def test_empty_store_not_found(self):
        assert select_memento(ArchiveStore.in_memory(), URI, START, ReplayMode.baseline()) is None

    def test_tie_breaks_toward_earlier_then_smaller_id(self):
        store = ArchiveStore.in_memory(CFG)
        before = store.append(make_record(URI, START - timedelta(seconds=5)))
        store.append(make_record(URI, START + timedelta(seconds=5)))
        chosen = select_memento(store, URI, START, ReplayMode.baseline())
        assert chosen.id == before
        same_time = ArchiveStore.in_memory(CFG)
        first = same_time.append(make_record(URI, START))
        same_time.append(make_record(URI, START))
        assert select_memento(same_time, URI, START, ReplayMode.baseline()).id == first

    def test_fallback_not_found(self):
        store = _two_variant_store()
        record = select_memento(
            store,
            URI,
            START,
            ReplayMode.variant_aware(FALLBACK_NOT_FOUND),
            RequestContext.with_cookies([("lang", "ur")]),
        )
        assert record is None

    def test_fallback_nearest_any_degrades_to_baseline(self):
        store = _two_variant_store()
        record = select_memento(
            store,
            URI,
            START,
            ReplayMode.variant_aware(),
            RequestContext.with_cookies([("lang", "ur")]),
        )
        assert record.datetime == START - timedelta(seconds=10)

    def test_baseline_ignores_context(self):
        rng = random.Random(3)
        store = _two_variant_store()
        expected = select_memento(store, URI, START, ReplayMode.baseline())
        for _ in range(25):
            ctx = RequestContext.with_cookies([("lang", rng.choice(["en", "kn", "ur"]))])
            assert select_memento(store, URI, START, ReplayMode.baseline(), ctx) == expected


def _random_case(rng: random.Random):
    store = ArchiveStore.in_memory(CFG)
    uris = [f"https://s{k}.example/" for k in range(2)]
    for _ in range(rng.randrange(0, 10)):
        cookie = rng.choice([None, "lang=kn", "lang=en", "lang=ur; _sess=x"])
        vary = rng.choice([None, None, "Cookie", "*"])
        store.append(
            make_record(
                rng.choice(uris),
                START + timedelta(seconds=rng.randrange(-120, 120)),
                lang=rng.choice(["en", "kn", "ur"]),
                request_cookie=cookie,
                vary=vary,
            )
        )
    uri = rng.choice(uris)
    target = START + timedelta(seconds=rng.randrange(-150, 150))
    ctx = RequestContext(
        Headers([("cookie", rng.choice(["lang=kn", "lang=en", "lang=ur", "_sess=y"]))])
        if rng.random() < 0.8
        else Headers()
    )
    mode = rng.choice(
        [
            ReplayMode.baseline(),
            ReplayMode.variant_aware(),
            ReplayMode.variant_aware(FALLBACK_NOT_FOUND),
        ]
    )
    return store, uri, target, mode, ctx


LARGE_URIS = ("https://big.example/", "https://big.example/fragment/0/0")
# Keys without a Vary header are empty under this store config.
LARGE_STORE_CFG = VariantConfig(implied_vary=())
LARGE_QUERY_CFGS = (
    LARGE_STORE_CFG,
    CFG,
    VariantConfig(content_cookie_names=frozenset({"lang", "_sess"})),
)


def _large_batch(rng: random.Random, count: int, span_s: int) -> list:
    """Captures of two URIs over `span_s` seconds; several share a second.
    Empty keys match every request, so they are the rarest kind."""
    return [
        make_record(
            rng.choice(LARGE_URIS),
            START + timedelta(seconds=rng.randrange(span_s)),
            lang=rng.choice(["en", "kn", "ur"]),
            request_cookie=rng.choice([None, "lang=kn", "lang=en", "lang=ur; _sess=x"]),
            accept_language=rng.choice([None, "kn", "en"]),
            vary=rng.choices([None, "Cookie", "*", "Cookie, Accept-Language"], [1, 3, 4, 3])[0],
            cfg=LARGE_STORE_CFG,
        )
        for _ in range(count)
    ]


def _large_query(rng: random.Random, span_s: int):
    pairs = [("host", "big.example")]
    if rng.random() < 0.8:
        cookie = rng.choice(["lang=kn", "lang=en", "lang=ur; _sess=x", "_sess=y"])
        pairs.append(("cookie", cookie))
    if rng.random() < 0.5:
        pairs.append(("accept-language", rng.choice(["kn", "en"])))
    offset = timedelta(
        seconds=rng.randrange(-60, span_s + 60), microseconds=rng.choice([0, 500_000])
    )
    return (
        rng.choice(LARGE_URIS),
        START + offset,
        RequestContext(Headers(pairs)),
        rng.choice(LARGE_QUERY_CFGS),
    )


class TestSelectionOracle:
    def test_matches_brute_force_on_random_cases(self):
        rng = random.Random(4242)
        for _ in range(300):
            store, uri, target, mode, ctx = _random_case(rng)
            got = select_memento(store, uri, target, mode, ctx, CFG)
            expected = brute_force_select(store, uri, target, mode, ctx, CFG)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.id == expected.id

    def test_matches_brute_force_on_large_stores(self, tmp_path, monkeypatch):
        # Thousands of captures per URI, in memory and reopened from disk, with
        # appends after the reopen. Durability is not under test here.
        monkeypatch.setattr("archivelab.store.os.fsync", lambda fd: None)
        rng = random.Random(9091)
        span_s = 1500
        memory = ArchiveStore.in_memory(LARGE_STORE_CFG)
        with ArchiveStore.create(tmp_path / "large", LARGE_STORE_CFG) as disk:
            for record in _large_batch(rng, 4000, span_s):
                memory.append(record)
                disk.append(record)
        with ArchiveStore.open(tmp_path / "large") as reopened:
            for record in _large_batch(rng, 300, span_s):
                memory.append(record)
                reopened.append(record)
            assert list(reopened.iter_records()) == list(memory.iter_records())
            assert min(len(memory.lookup(uri)) for uri in LARGE_URIS) >= 2000
            modes = (
                ReplayMode.baseline(),
                ReplayMode.variant_aware(),
                ReplayMode.variant_aware(FALLBACK_NOT_FOUND),
            )
            matched_dimensions = set()
            for _ in range(30):
                uri, target, ctx, cfg = _large_query(rng, span_s)
                for mode in modes:
                    expected = brute_force_select(memory, uri, target, mode, ctx, cfg)
                    for store in (memory, reopened):
                        got = select_memento(store, uri, target, mode, ctx, cfg)
                        assert (got is None) == (expected is None)
                        if got is not None:
                            assert got.id == expected.id
                    if mode.fallback == FALLBACK_NOT_FOUND and expected is not None:
                        matched_dimensions.add(tuple(d for d, _ in expected.variant_key.pairs))
            # every kind of key was a match at least once: empty, Vary: *,
            # Cookie alone, and Cookie with Accept-Language
            assert {(), ("cookie",), ("accept-language", "cookie")} <= matched_dimensions
            assert any("host" in dims for dims in matched_dimensions)

    def test_variant_results_always_match_context(self):
        rng = random.Random(515)
        for _ in range(200):
            store, uri, target, _, ctx = _random_case(rng)
            record = select_memento(
                store, uri, target, ReplayMode.variant_aware(FALLBACK_NOT_FOUND), ctx, CFG
            )
            if record is not None:
                assert variant_matches(record.variant_key, ctx.headers, CFG)


class TestComposite:
    def test_baseline_reconstruction_is_defaced(self, twitter_site):
        store, root_uri, target = build_defacement_store(twitter_site)
        composite = reconstruct_composite(store, root_uri, target, ReplayMode.baseline())
        assert composite is not None
        langs = {composite.root.response_headers.get("content-language")} | {
            rec.response_headers.get("content-language")
            for _, rec in composite.parts
            if rec is not None
        }
        assert langs == {"pt", "ur", "en"}
        # parts were selected for the root's capture datetime
        assert composite.root.datetime == target

    def test_variant_reconstruction_is_consistent(self, twitter_site):
        store, root_uri, target = build_defacement_store(twitter_site)
        composite = reconstruct_composite(
            store,
            root_uri,
            target,
            ReplayMode.variant_aware(),
            RequestContext.with_cookies([("lang", "pt")]),
        )
        languages = {
            rec.response_headers.get("content-language")
            for _, rec in composite.parts
            if rec is not None
        }
        assert languages == {"pt"}
        assert all(rec is not None for _, rec in composite.parts)

    def test_single_language_store_stays_single(self, twitter_site):
        from archivelab.cookiejar import JarPolicy
        from archivelab.crawler import scripted_crawl
        from archivelab.origin import fetch_fn

        records = scripted_crawl(
            ["https://twitter.com/", "https://twitter.com/fragment/0/0",
             "https://twitter.com/fragment/0/1"],
            fetch_fn(twitter_site),
            JarPolicy(),
            START,
        )
        store = ArchiveStore.in_memory(CFG)
        for record in records:
            store.append(record)
        composite = reconstruct_composite(
            store, "https://twitter.com/", START, ReplayMode.baseline()
        )
        langs = {
            rec.response_headers.get("content-language")
            for _, rec in composite.parts
            if rec is not None
        } | {composite.root.response_headers.get("content-language")}
        assert langs == {"en"}

    def test_missing_parts_recorded_not_fetched(self):
        store = ArchiveStore.in_memory(CFG)
        body = b'<html lang="en"><iframe class="fragment" src="https://a.example/gone"></iframe></html>'
        store.append(make_record(URI, START, body=body))
        composite = reconstruct_composite(store, URI, START, ReplayMode.baseline())
        assert composite.parts == (("https://a.example/gone", None),)

    def test_root_not_found_propagates(self):
        assert (
            reconstruct_composite(
                ArchiveStore.in_memory(), URI, START, ReplayMode.baseline()
            )
            is None
        )

    def test_composite_closure_all_parts_from_store(self, twitter_site):
        store, root_uri, target = build_defacement_store(twitter_site)
        composite = reconstruct_composite(store, root_uri, target, ReplayMode.baseline())
        stored_ids = {r.id for r in store.iter_records()}
        for _, rec in composite.parts:
            if rec is not None:
                assert rec.id in stored_ids


class TestHttpService:
    def _serve(self, store, mode):
        server = make_replay_server(store, mode, 0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        return server, server.server_address[1]

    def _get(self, port, path, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        conn.close()
        return response, body

    def test_serves_nearest_capture_with_memento_headers(self):
        store = _two_variant_store()
        server, port = self._serve(store, ReplayMode.baseline())
        try:
            ts = (START + timedelta(seconds=2)).strftime("%Y%m%d%H%M%S")
            response, body = self._get(port, f"/web/{ts}/{URI}")
            expected = select_memento(store, URI, START + timedelta(seconds=2), ReplayMode.baseline())
            assert response.status == 200
            assert body == expected.body
            assert response.headers["Memento-Datetime"].endswith("GMT")
            assert response.headers["Content-Language"] == "kn"
            assert "cookie" in response.headers["X-Archive-Variant"]
        finally:
            server.shutdown()
            server.server_close()

    def test_variant_mode_honors_request_cookie(self):
        store = _two_variant_store()
        server, port = self._serve(store, ReplayMode.variant_aware())
        try:
            ts = START.strftime("%Y%m%d%H%M%S")
            response, _ = self._get(port, f"/web/{ts}/{URI}", {"Cookie": "lang=en"})
            assert response.headers["Content-Language"] == "en"
            assert "X-Archive-Fallback" not in response.headers
            response, _ = self._get(port, f"/web/{ts}/{URI}", {"Cookie": "lang=ur"})
            assert response.headers["X-Archive-Fallback"] == "variant-mismatch"
        finally:
            server.shutdown()
            server.server_close()

    def test_request_cookie_file_provides_default_context(self):
        from archivelab.cookiejar import import_netscape

        store = _two_variant_store()
        jar = import_netscape(
            "# Netscape HTTP Cookie File\na.example\tFALSE\t/\tFALSE\t0\tlang\ten\n"
        )
        server = make_replay_server(store, ReplayMode.variant_aware(), 0, base_jar=jar)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            port = server.server_address[1]
            ts = START.strftime("%Y%m%d%H%M%S")
            response, _ = self._get(port, f"/web/{ts}/{URI}")
            assert response.headers["Content-Language"] == "en"  # from the file
            response, _ = self._get(port, f"/web/{ts}/{URI}", {"Cookie": "lang=kn"})
            assert response.headers["Content-Language"] == "kn"  # request wins
        finally:
            server.shutdown()
            server.server_close()

    def test_malformed_timestamp_400(self):
        server, port = self._serve(_two_variant_store(), ReplayMode.baseline())
        try:
            response, _ = self._get(port, "/web/2019/https://a.example/")
            assert response.status == 400
            response, _ = self._get(port, "/web/20191399000000/https://a.example/")
            assert response.status == 400
            response, _ = self._get(port, f"/web/{START.strftime('%Y%m%d%H%M%S')}/notauri")
            assert response.status == 400
        finally:
            server.shutdown()
            server.server_close()

    def test_failed_fetch_capture_is_504_not_200(self):
        store = ArchiveStore.in_memory(CFG)
        store.append(make_record(URI, START, lang=None, status=0))
        server, port = self._serve(store, ReplayMode.baseline())
        try:
            response, body = self._get(port, f"/web/{START.strftime('%Y%m%d%H%M%S')}/{URI}")
            assert response.status == 504
            assert response.headers["X-Archive-Error"] == "capture-fetch-failed"
            assert body == b""
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_uri_404(self):
        server, port = self._serve(_two_variant_store(), ReplayMode.baseline())
        try:
            ts = START.strftime("%Y%m%d%H%M%S")
            response, _ = self._get(port, f"/web/{ts}/https://missing.example/")
            assert response.status == 404
            response, _ = self._get(port, "/elsewhere")
            assert response.status == 404
        finally:
            server.shutdown()
            server.server_close()
