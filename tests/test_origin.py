"""origin: language negotiation, page rendering, and the TCP listener."""

from __future__ import annotations

import http.client
import json
import random
import threading

import pytest

from archivelab.http_core import Headers, HttpRequest
from archivelab.origin import (
    DEFAULT_LANGUAGES,
    SiteConfig,
    alternate_links,
    handle,
    load_site_config,
    make_origin_server,
    negotiate_language,
)


def _get(uri: str, headers=()) -> HttpRequest:
    return HttpRequest("GET", uri, Headers(list(headers)))


def test_default_language_list_shape():
    assert len(DEFAULT_LANGUAGES) == 47
    assert DEFAULT_LANGUAGES[-1] == "kn"
    assert len(set(DEFAULT_LANGUAGES)) == 47


class TestNegotiation:
    def test_query_parameter(self, twitter_site):
        assert negotiate_language(_get("https://twitter.com/?lang=ar"), twitter_site) == "ar"

    def test_default_without_signals(self, twitter_site):
        assert negotiate_language(_get("https://twitter.com/"), twitter_site) == "en"

    def test_accept_language(self, twitter_site):
        request = _get("https://twitter.com/", [("accept-language", "ur")])
        assert negotiate_language(request, twitter_site) == "ur"

    def test_cookie(self, twitter_site):
        request = _get("https://twitter.com/", [("cookie", "lang=ar")])
        assert negotiate_language(request, twitter_site) == "ar"

    def test_query_beats_cookie(self, twitter_site):
        request = _get("https://twitter.com/?lang=fr", [("cookie", "lang=ar")])
        assert negotiate_language(request, twitter_site) == "fr"

    def test_cookie_beats_accept_language(self, twitter_site):
        # the cookie forces the session language even with Accept-Language set
        request = _get(
            "https://twitter.com/",
            [("cookie", "lang=ar"), ("accept-language", "ur")],
        )
        assert negotiate_language(request, twitter_site) == "ar"

    def test_unsupported_values_fall_through(self, twitter_site):
        request = _get(
            "https://twitter.com/?lang=xx",
            [("cookie", "lang=yy"), ("accept-language", "zz-ZZ, ur;q=0.5")],
        )
        assert negotiate_language(request, twitter_site) == "ur"

    def test_accept_language_primary_subtag_match(self, twitter_site):
        request = _get("https://twitter.com/", [("accept-language", "fr-CA")])
        assert negotiate_language(request, twitter_site) == "fr"

    def test_accept_language_respects_q_order(self, twitter_site):
        request = _get("https://twitter.com/", [("accept-language", "kn;q=0.2, ur;q=0.9")])
        assert negotiate_language(request, twitter_site) == "ur"


class TestHandle:
    def test_lang_query_sets_sticky_cookie(self, twitter_site):
        response = handle(_get("https://twitter.com/?lang=fr"), twitter_site)
        assert response.headers.get_all("set-cookie") == ["lang=fr; Path=/"]
        assert b'<html lang="fr"' in response.body

    def test_no_cookie_without_lang_query(self, twitter_site):
        response = handle(_get("https://twitter.com/", [("cookie", "lang=ar")]), twitter_site)
        assert response.headers.get_all("set-cookie") == []
        assert b'<html lang="ar"' in response.body

    def test_unsupported_lang_query_sets_nothing(self, twitter_site):
        response = handle(_get("https://twitter.com/?lang=xx"), twitter_site)
        assert response.headers.get_all("set-cookie") == []
        assert b'<html lang="en"' in response.body

    def test_deterministic_bytes(self, twitter_site):
        request = _get("https://twitter.com/?lang=kn")
        assert handle(request, twitter_site).body == handle(request, twitter_site).body

    def test_unknown_path_is_404_without_cookie(self, twitter_site):
        response = handle(_get("https://twitter.com/unknown"), twitter_site)
        assert response.status == 404
        assert response.headers.get_all("set-cookie") == []

    def test_wrong_host_is_404(self, twitter_site):
        assert handle(_get("https://example.com/"), twitter_site).status == 404

    def test_content_language_always_matches_body(self, twitter_site):
        paths = ["/", "/timeline/1", "/fragment/0/0", "/?lang=kn", "/fragment/1/1?lang=ur"]
        for path in paths:
            response = handle(_get(f"https://twitter.com{path}"), twitter_site)
            lang = response.headers.get("content-language")
            assert f'<html lang="{lang}"'.encode() in response.body

    def test_vary_emitted_only_when_configured(self):
        silent = SiteConfig(host="twitter.com")
        loud = SiteConfig(host="twitter.com", emit_vary=True)
        request = _get("https://twitter.com/")
        assert handle(request, silent).headers.get("vary") is None
        assert handle(request, loud).headers.get("vary") == "Cookie, Accept-Language"

    def test_fragments_negotiate_independently(self, twitter_site):
        request = _get("https://twitter.com/fragment/0/1", [("cookie", "lang=ur")])
        response = handle(request, twitter_site)
        assert response.headers.get("content-language") == "ur"


class TestAlternateLinks:
    def test_default_config_48_links_kn_last(self, twitter_site):
        page = twitter_site.page_for("/")
        links = alternate_links(page, twitter_site)
        assert len(links) == 48
        assert links[0] == "https://twitter.com/"  # x-default first
        assert links[-1] == "https://twitter.com/?lang=kn"

    def test_single_language_gives_two_links(self):
        site = SiteConfig(host="twitter.com", languages=("fr",))
        links = alternate_links(site.page_for("/"), site)
        assert links == ["https://twitter.com/", "https://twitter.com/?lang=fr"]

    def test_order_follows_config_for_random_shuffles(self):
        rng = random.Random(42)
        tags = list(DEFAULT_LANGUAGES)
        for _ in range(20):
            rng.shuffle(tags)
            site = SiteConfig(host="twitter.com", languages=tuple(tags))
            links = alternate_links(site.page_for("/"), site)
            assert [l.rpartition("=")[2] for l in links[1:]] == tags

    def test_fragments_have_no_alternates(self, twitter_site):
        with pytest.raises(ValueError):
            alternate_links(twitter_site.page_for("/fragment/0/0"), twitter_site)


def test_site_config_json_round_trip(tmp_path):
    path = tmp_path / "site.json"
    path.write_text(
        json.dumps(
            {
                "host": "Twitter.COM",
                "languages": ["fr", "kn"],
                "default_language": "EN",
                "emit_vary": True,
                "page_count": 2,
                "resources_per_page": 1,
            }
        ),
        encoding="utf-8",
    )
    site = load_site_config(path)
    assert site.host == "twitter.com"
    assert site.languages == ("fr", "kn")
    assert site.default_language == "en"
    assert site.emit_vary is True

    path.write_text(json.dumps({"hosst": "typo.example"}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_site_config(path)


def test_site_config_validation():
    with pytest.raises(ValueError):
        SiteConfig(languages=())
    with pytest.raises(ValueError):
        SiteConfig(page_count=0)


class TestTcpListener:
    def test_parity_with_in_process_handler(self, twitter_site):
        server = make_origin_server(twitter_site, 0)
        port = server.server_address[1]
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request(
                "GET", "/?lang=ar", headers={"Host": "twitter.com", "Accept-Language": "ur"}
            )
            raw = conn.getresponse()
            body = raw.read()
            expected = handle(
                _get("https://twitter.com/?lang=ar", [("accept-language", "ur")]),
                twitter_site,
            )
            assert raw.status == expected.status
            assert body == expected.body
            assert raw.headers["Set-Cookie"] == "lang=ar; Path=/"
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
