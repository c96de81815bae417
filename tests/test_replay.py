"""replay: memento selection, composite reconstruction, HTTP service."""

from __future__ import annotations

import http.client
import random
import threading
from dataclasses import replace
from datetime import timedelta

import pytest

from archivelab.cookiejar import import_netscape
from archivelab.http_core import Headers, canonicalize
from archivelab import replay
from archivelab import store as store_module
from archivelab.replay import (
    FALLBACK_NEAREST_ANY,
    FALLBACK_NOT_FOUND,
    ReplayMode,
    make_replay_server,
    reconstruct_composite,
    replay_headers,
    select_memento,
)
from archivelab.store import ArchiveStore, VariantConfig
from conftest import (
    START,
    brute_force_select,
    build_defacement_store,
    make_record,
    reproduces,
)

CFG = VariantConfig()
URI = "https://a.example/"


def _two_variant_store(new_store):
    """kn capture 10s before target, en capture 30s after."""
    store = new_store(CFG)
    store.append(
        make_record(URI, START - timedelta(seconds=10), lang="kn", request_cookie="lang=kn")
    )
    store.append(
        make_record(URI, START + timedelta(seconds=30), lang="en", request_cookie="lang=en")
    )
    return store


class TestSelectMemento:
    def test_baseline_picks_nearest(self, new_store):
        with _two_variant_store(new_store) as store:
            selection = select_memento(store, URI, START, ReplayMode.baseline())
        assert selection.record.datetime == START - timedelta(seconds=10)  # the kn capture
        assert selection.fallback is None

    def test_variant_restricts_then_nearest(self, new_store):
        with _two_variant_store(new_store) as store:
            selection = select_memento(
                store,
                URI,
                START,
                ReplayMode.variant_aware(),
                Headers([("cookie", "lang=en")]),
            )
        assert selection.record.datetime == START + timedelta(seconds=30)
        assert selection.fallback is None

    def test_empty_store_not_found(self, new_store):
        with new_store() as store:
            assert select_memento(store, URI, START, ReplayMode.baseline()) is None

    def test_tie_breaks_toward_earlier_then_smaller_id(self, new_store):
        with new_store(CFG) as store:
            before = store.append(make_record(URI, START - timedelta(seconds=5)))
            store.append(make_record(URI, START + timedelta(seconds=5)))
            chosen = select_memento(store, URI, START, ReplayMode.baseline()).record
        assert chosen.id == before
        with new_store(CFG) as same_time:
            first = same_time.append(make_record(URI, START))
            same_time.append(make_record(URI, START))
            assert select_memento(same_time, URI, START, ReplayMode.baseline()).record.id == first

    def test_fallback_not_found(self, new_store):
        with _two_variant_store(new_store) as store:
            record = select_memento(
                store,
                URI,
                START,
                ReplayMode.variant_aware(FALLBACK_NOT_FOUND),
                Headers([("cookie", "lang=ur")]),
            )
        assert record is None

    def test_fallback_nearest_any_degrades_to_baseline(self, new_store):
        with _two_variant_store(new_store) as store:
            selection = select_memento(
                store,
                URI,
                START,
                ReplayMode.variant_aware(),
                Headers([("cookie", "lang=ur")]),
            )
        assert selection.record.datetime == START - timedelta(seconds=10)
        assert selection.fallback == FALLBACK_NEAREST_ANY

    def test_selection_compares_under_the_store_config(self, tmp_path):
        cfg = VariantConfig(content_cookie_names=frozenset({"lang", "_sess"}))
        with ArchiveStore.create(tmp_path / "a", cfg) as store:
            store.append(make_record(URI, START, request_cookie="lang=kn; _sess=1", cfg=cfg))
        mode = ReplayMode.variant_aware(FALLBACK_NOT_FOUND)
        with ArchiveStore.open(tmp_path / "a") as store:  # config read from meta.json
            both = Headers([("cookie", "_sess=1; lang=kn; other=x")])
            assert select_memento(store, URI, START, mode, both) is not None
            assert select_memento(store, URI, START, mode, Headers([("cookie", "lang=kn")])) is None

    def test_baseline_ignores_context(self, new_store):
        rng = random.Random(3)
        with _two_variant_store(new_store) as store:
            expected = select_memento(store, URI, START, ReplayMode.baseline())
            for _ in range(25):
                headers = Headers([("cookie", "lang=" + rng.choice(["en", "kn", "ur"]))])
                assert select_memento(store, URI, START, ReplayMode.baseline(), headers) == expected


def _random_case(rng: random.Random, store: ArchiveStore):
    """Fill the empty `store` with a random case; returns its query."""
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
    headers = (
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
    return uri, target, mode, headers


LARGE_URIS = ("https://big.example/", "https://big.example/fragment/0/0")
# Keys without a Vary header are empty under this store config.
LARGE_STORE_CFG = VariantConfig(implied_vary=())


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
    return rng.choice(LARGE_URIS), START + offset, Headers(pairs)


class TestSelectionOracle:
    def test_matches_brute_force_on_random_cases(self, new_store, no_fsync):
        rng = random.Random(4242)
        for _ in range(300):
            with new_store(CFG) as store:
                uri, target, mode, headers = _random_case(rng, store)
                got = select_memento(store, uri, target, mode, headers)
                records = list(store.iter_records())
            assert got == brute_force_select(records, uri, target, mode, headers, CFG)

    def test_matches_brute_force_on_large_stores(self, tmp_path, no_fsync):
        # Thousands of captures per URI, reopened from disk, with appends after
        # the reopen.
        rng = random.Random(9091)
        span_s = 1500
        with ArchiveStore.create(tmp_path / "large", LARGE_STORE_CFG) as disk:
            appended = [
                replace(record, id=disk.append(record))
                for record in _large_batch(rng, 4000, span_s)
            ]
        with ArchiveStore.open(tmp_path / "large") as reopened:
            appended += [
                replace(record, id=reopened.append(record))
                for record in _large_batch(rng, 300, span_s)
            ]
            assert list(reopened.iter_records()) == appended
            assert min(len(reopened.lookup(uri)) for uri in LARGE_URIS) >= 2000
            modes = (
                ReplayMode.baseline(),
                ReplayMode.variant_aware(),
                ReplayMode.variant_aware(FALLBACK_NOT_FOUND),
            )
            matched_dimensions = set()
            for _ in range(30):
                uri, target, headers = _large_query(rng, span_s)
                for mode in modes:
                    expected = brute_force_select(
                        appended, uri, target, mode, headers, LARGE_STORE_CFG
                    )
                    assert select_memento(reopened, uri, target, mode, headers) == expected
                    if mode.fallback == FALLBACK_NOT_FOUND and expected is not None:
                        pairs = expected.record.variant_key.pairs
                        matched_dimensions.add(tuple(d for d, _ in pairs))
            # every kind of key was a match at least once: empty, Vary: *,
            # Cookie alone, and Cookie with Accept-Language
            assert {(), ("cookie",), ("accept-language", "cookie")} <= matched_dimensions
            assert any("host" in dims for dims in matched_dimensions)
            # every URI above holds empty keys, which match every request, so
            # the fallback rung needs a URI whose captures are all keyed
            keyed = "https://big.example/keyed"
            for _ in range(1000):
                record = make_record(
                    keyed,
                    START + timedelta(seconds=rng.randrange(span_s)),
                    request_cookie=rng.choice(["lang=kn", "lang=en"]),
                    vary="Cookie",
                    cfg=LARGE_STORE_CFG,
                )
                appended.append(replace(record, id=reopened.append(record)))
            fallbacks = set()
            for _ in range(30):
                _, target, headers = _large_query(rng, span_s)
                for mode in modes:
                    expected = brute_force_select(
                        appended, keyed, target, mode, headers, LARGE_STORE_CFG
                    )
                    assert select_memento(reopened, keyed, target, mode, headers) == expected
                    if mode.kind == "variant_aware" and expected is not None:
                        fallbacks.add(expected.fallback)
            assert fallbacks == {None, FALLBACK_NEAREST_ANY}

    def test_variant_results_always_match_context(self, new_store, no_fsync):
        rng = random.Random(515)
        for _ in range(200):
            with new_store(CFG) as store:
                uri, target, _, headers = _random_case(rng, store)
                selection = select_memento(
                    store, uri, target, ReplayMode.variant_aware(FALLBACK_NOT_FOUND), headers
                )
            if selection is not None:
                assert selection.fallback is None
                assert reproduces(selection.record.variant_key, headers, CFG)


@pytest.mark.parametrize(
    "cookie, fallback", [("lang=en", None), ("lang=ur", "variant-mismatch")],
    ids=["matched", "fallback"],
)
def test_respond_derives_the_request_variant_once(new_store, monkeypatch, cookie, fallback):
    # One cookie dimension: selection derives the request's value once, and
    # the fallback header is read off the selection, not derived again.
    calls = []
    real_variant_value = store_module.variant_value

    def counting_variant_value(*args):
        calls.append(args)
        return real_variant_value(*args)

    with _two_variant_store(new_store) as store:
        monkeypatch.setattr(store_module, "variant_value", counting_variant_value)
        response = replay._respond(
            store, ReplayMode.variant_aware(), None, f"/web/{START:%Y%m%d%H%M%S}/{URI}",
            Headers([("cookie", cookie)]),
        )
    assert response.status == 200
    assert response.headers.get("x-archive-fallback") == fallback
    assert len(calls) == 1


class TestComposite:
    def test_baseline_reconstruction_is_defaced(self, twitter_site, tmp_path):
        store, root_uri, target = build_defacement_store(twitter_site, tmp_path / "scenario")
        with store:
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

    def test_variant_reconstruction_is_consistent(self, twitter_site, tmp_path):
        store, root_uri, target = build_defacement_store(twitter_site, tmp_path / "scenario")
        with store:
            composite = reconstruct_composite(
                store,
                root_uri,
                target,
                ReplayMode.variant_aware(),
                Headers([("cookie", "lang=pt")]),
            )
        languages = {
            rec.response_headers.get("content-language")
            for _, rec in composite.parts
            if rec is not None
        }
        assert languages == {"pt"}
        assert all(rec is not None for _, rec in composite.parts)

    def test_single_language_store_stays_single(self, twitter_site, new_store):
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
        with new_store(CFG) as store:
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

    def test_missing_parts_recorded_not_fetched(self, new_store):
        body = b'<html lang="en"><iframe class="fragment" src="https://a.example/gone"></iframe></html>'
        with new_store(CFG) as store:
            store.append(make_record(URI, START, body=body))
            composite = reconstruct_composite(store, URI, START, ReplayMode.baseline())
        assert composite.parts == (("https://a.example/gone", None),)

    def test_root_not_found_propagates(self, new_store):
        with new_store() as store:
            assert reconstruct_composite(store, URI, START, ReplayMode.baseline()) is None

    def test_composite_closure_all_parts_from_store(self, twitter_site, tmp_path):
        store, root_uri, target = build_defacement_store(twitter_site, tmp_path / "scenario")
        with store:
            composite = reconstruct_composite(store, root_uri, target, ReplayMode.baseline())
            stored_ids = {r.id for r in store.iter_records()}
        for _, rec in composite.parts:
            if rec is not None:
                assert rec.id in stored_ids


def test_replay_headers_keeps_secure_cookie_off_http():
    jar = import_netscape("a.example\tFALSE\t/\tTRUE\t0\tlang\tkn\n")
    request = Headers([("accept-language", "en")])
    https = replay_headers(request, canonicalize("https://a.example/"), START, jar)
    assert list(https) == [("accept-language", "en"), ("cookie", "lang=kn")]
    assert replay_headers(request, canonicalize("http://a.example/"), START, jar) is request


class TestHttpService:
    @pytest.fixture
    def store(self, new_store):
        with _two_variant_store(new_store) as store:
            yield store

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

    def test_serves_nearest_capture_with_memento_headers(self, store):
        server, port = self._serve(store, ReplayMode.baseline())
        try:
            ts = (START + timedelta(seconds=2)).strftime("%Y%m%d%H%M%S")
            response, body = self._get(port, f"/web/{ts}/{URI}")
            expected = select_memento(
                store, URI, START + timedelta(seconds=2), ReplayMode.baseline()
            ).record
            assert response.status == 200
            assert body == expected.body
            assert response.headers["Memento-Datetime"].endswith("GMT")
            assert response.headers["Content-Language"] == "kn"
            assert "cookie" in response.headers["X-Archive-Variant"]
        finally:
            server.shutdown()
            server.server_close()

    def test_variant_mode_honors_request_cookie(self, store):
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

    def test_request_cookie_file_provides_default_context(self, store):
        from archivelab.cookiejar import import_netscape

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

    def test_each_listener_has_its_own_handler_class(self, store, new_store):
        with new_store(CFG) as other:
            other.append(make_record(URI, START, lang="ur", request_cookie="lang=ur"))
            stores = [store, other]
            servers = [self._serve(s, ReplayMode.baseline())[0] for s in stores]
            try:
                handlers = [server.RequestHandlerClass for server in servers]
                assert handlers[0] is not handlers[1]
                assert {handler.protocol_version for handler in handlers} == {"HTTP/1.0"}
                path = f"/web/{START:%Y%m%d%H%M%S}/{URI}"
                for server, lang in zip(servers, ["kn", "ur"]):
                    response, _ = self._get(server.server_address[1], path)
                    assert response.headers["Content-Language"] == lang
            finally:
                for server in servers:
                    server.shutdown()
                    server.server_close()

    def test_malformed_timestamp_400(self, store):
        server, port = self._serve(store, ReplayMode.baseline())
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

    def test_failed_fetch_capture_is_504_not_200(self, new_store):
        with new_store(CFG) as store:
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

    def test_unknown_uri_404(self, store):
        server, port = self._serve(store, ReplayMode.baseline())
        try:
            ts = START.strftime("%Y%m%d%H%M%S")
            response, _ = self._get(port, f"/web/{ts}/https://missing.example/")
            assert response.status == 404
            response, _ = self._get(port, "/elsewhere")
            assert response.status == 404
        finally:
            server.shutdown()
            server.server_close()
