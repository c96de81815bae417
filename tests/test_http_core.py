"""http_core: parsers and canonicalization."""

from __future__ import annotations

import random
import re
from datetime import datetime, timedelta, timezone

import pytest

from archivelab.http_core import (
    Headers,
    HttpRequest,
    HttpResponse,
    UriError,
    canonicalize,
    format_cookie_header,
    parse_accept_language,
    parse_cookie_date,
    parse_cookie_header,
    parse_set_cookie,
    parse_timestamp14,
    vary_spec,
)

UTC = timezone.utc
NOW = datetime(2019, 6, 1, 10, 30, 0, tzinfo=UTC)
TWITTER_LANG_AR = canonicalize("https://twitter.com/?lang=ar")


# --- independent oracle: cookie expiry per the RFC precedence rule ----------


def _expiry_oracle(header_value: str, now: datetime) -> datetime | None:
    """Reference expiry: Max-Age (seconds from now) beats Expires; dates via
    strptime rather than the parser's regex path."""
    max_age = None
    expires = None
    for segment in header_value.split(";")[1:]:
        key, _, value = segment.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key == "max-age" and re.fullmatch(r"-?\d+", value):
            max_age = int(value)
        elif key == "expires":
            try:
                expires = datetime.strptime(
                    value, "%a, %d %b %Y %H:%M:%S GMT"
                ).replace(tzinfo=UTC)
            except ValueError:
                pass
    if max_age is not None:
        return now + timedelta(seconds=max_age)
    return expires


class TestParseSetCookie:
    def test_sticky_lang_cookie(self):
        cookie = parse_set_cookie("lang=ar; Path=/", TWITTER_LANG_AR, NOW)
        assert cookie is not None
        assert (cookie.name, cookie.value) == ("lang", "ar")
        assert cookie.domain == "twitter.com"
        assert cookie.host_only is True
        assert cookie.path == "/"
        assert cookie.expires_at is None  # session cookie

    def test_empty_input_rejected(self):
        assert parse_set_cookie("", TWITTER_LANG_AR, NOW) is None

    @pytest.mark.parametrize("raw", ["=value", "   =v; Path=/", "noequals", ";"])
    def test_nameless_or_pairless_rejected(self, raw):
        assert parse_set_cookie(raw, TWITTER_LANG_AR, NOW) is None

    def test_max_age_beats_expires(self):
        raw = "sid=x; Max-Age=5; Expires=Thu, 01 Jan 2037 00:00:00 GMT"
        cookie = parse_set_cookie(raw, TWITTER_LANG_AR, NOW)
        assert cookie.expires_at == NOW + timedelta(seconds=5)
        assert cookie.expires_at == _expiry_oracle(raw, NOW)

    @pytest.mark.parametrize(
        "raw",
        [
            "a=1; Expires=Sun, 06 Nov 1994 08:49:37 GMT",  # past date clamps to now
            "a=1; Max-Age=60",
            "a=1; Max-Age=0",
            "a=1",
            "a=1; Expires=Wed, 21 Oct 2037 07:28:00 GMT",
        ],
    )
    def test_expiry_matches_oracle(self, raw):
        cookie = parse_set_cookie(raw, TWITTER_LANG_AR, NOW)
        expected = _expiry_oracle(raw, NOW)
        if expected is not None and expected < NOW:
            expected = NOW  # parser clamps so expiry never precedes creation
        assert cookie.expires_at == expected

    def test_attribute_names_case_insensitive(self):
        cookie = parse_set_cookie(
            "a=1; dOmAiN=.Example.COM; PATH=/sub; SECURE; HttpOnly",
            canonicalize("https://www.example.com/"),
            NOW,
        )
        assert cookie.domain == "example.com"
        assert cookie.host_only is False
        assert cookie.path == "/sub"
        assert cookie.secure and cookie.http_only

    @pytest.mark.parametrize(
        "request_uri, domain",
        [
            ("https://timeline.example/", "evil.com"),
            ("https://timeline.example/", "line.example"),  # suffix, not at a dot
            ("https://timeline.example/", "sub.timeline.example"),
            ("https://10.0.0.1/", "0.0.1"),  # IP addresses match only exactly
        ],
    )
    def test_domain_not_matching_request_host_rejected(self, request_uri, domain):
        # RFC 6265 section 5.3 step 6: ignore the cookie entirely
        assert parse_set_cookie(f"lang=kn; Domain={domain}", canonicalize(request_uri), NOW) is None

    def test_parent_domain_from_subdomain_accepted(self):
        uri = canonicalize("https://mobile.twitter.com/")
        cookie = parse_set_cookie("lang=kn; Domain=.twitter.com", uri, NOW)
        assert (cookie.domain, cookie.host_only) == ("twitter.com", False)
        same = parse_set_cookie("lang=kn; Domain=MOBILE.twitter.com", uri, NOW)
        assert (same.domain, same.host_only) == ("mobile.twitter.com", False)

    def test_default_path_is_request_directory(self):
        uri = canonicalize("https://example.com/a/b/page")
        assert parse_set_cookie("k=v", uri, NOW).path == "/a/b"
        root = canonicalize("https://example.com/")
        assert parse_set_cookie("k=v", root, NOW).path == "/"

    def test_unparseable_expires_means_session(self):
        for shape in (
            "Sun, 32 Nov 2037 08:49:37 GMT",
            "Sun, 06 Nov 2037 GMT",
            "garbage",
        ):
            cookie = parse_set_cookie(f"a=1; Expires={shape}", TWITTER_LANG_AR, NOW)
            assert cookie.expires_at is None

    def test_lenient_expires_keeps_cookie_persistent(self):
        cookie = parse_set_cookie(
            "a=1; Expires=Wednesday, 21-Oct-37 07:28:00 GMT", TWITTER_LANG_AR, NOW
        )
        assert cookie.expires_at == datetime(2037, 10, 21, 7, 28, 0, tzinfo=UTC)

    def test_invalid_max_age_ignored(self):
        cookie = parse_set_cookie("a=1; Max-Age=soon", TWITTER_LANG_AR, NOW)
        assert cookie.expires_at is None

    def test_never_produces_invalid_cookie(self):
        rng = random.Random(1214)
        alphabet = "ab=;/ Pathxm-Age0123DomainExpires"
        for _ in range(300):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            cookie = parse_set_cookie(raw, TWITTER_LANG_AR, NOW)
            if cookie is not None:
                assert cookie.name
                assert cookie.path.startswith("/")
                assert cookie.domain


def test_parse_cookie_date_valid():
    assert parse_cookie_date("Sun, 06 Nov 1994 08:49:37 GMT") == datetime(
        1994, 11, 6, 8, 49, 37, tzinfo=UTC
    )
    assert parse_cookie_date("Xxx, 99 Nov 1994 08:49:37 GMT") is None


@pytest.mark.parametrize(
    "value, expected",
    [
        # RFC 6265 section 5.1.1: any delimiters, any token order
        ("Wed, 21 Oct 2015 07:28:00 GMT", (2015, 10, 21, 7, 28, 0)),
        ("Wed, 21-Oct-2015 07:28:00 GMT", (2015, 10, 21, 7, 28, 0)),
        ("Wednesday, 21-Oct-15 07:28:00 GMT", (2015, 10, 21, 7, 28, 0)),
        ("Wed Oct 21 07:28:00 2015", (2015, 10, 21, 7, 28, 0)),
        ("21 Oct 2015 07:28:00 GMT", (2015, 10, 21, 7, 28, 0)),
        ("Wed, 21 OCTOBER 2015 7:8:9 GMT", (2015, 10, 21, 7, 8, 9)),
        ("1 Jan 70 00:00:00", (1970, 1, 1, 0, 0, 0)),
        ("1 Jan 69 00:00:00", (2069, 1, 1, 0, 0, 0)),
        ("31 Dec 1601 23:59:59 GMT", (1601, 12, 31, 23, 59, 59)),
        # rejected: a part missing or out of bounds, or no such day
        ("Wed, 21 Oct 2015 GMT", None),
        ("Wed, 21 2015 07:28:00 GMT", None),
        ("Wed, 32 Oct 2015 07:28:00 GMT", None),
        ("Wed, 0 Oct 2015 07:28:00 GMT", None),
        ("Wed, 21 Oct 1600 07:28:00 GMT", None),
        ("Wed, 21 Oct 2015 24:00:00 GMT", None),
        ("Wed, 21 Oct 2015 07:60:00 GMT", None),
        ("Wed, 21 Oct 2015 07:28:60 GMT", None),
        ("Mon, 30 Feb 2015 07:28:00 GMT", None),
        ("", None),
    ],
)
def test_parse_cookie_date_table(value, expected):
    parsed = parse_cookie_date(value)
    assert parsed == (None if expected is None else datetime(*expected, tzinfo=UTC))


class TestCookieHeader:
    def test_round_trip_pairs(self):
        rng = random.Random(7)
        letters = "abcdefghijklmnopqrstuvwxyz0123456789_"
        for _ in range(200):
            pairs = [
                (
                    "".join(rng.choice(letters) for _ in range(rng.randrange(1, 8))),
                    "".join(rng.choice(letters) for _ in range(rng.randrange(0, 10))),
                )
                for _ in range(rng.randrange(0, 5))
            ]
            assert parse_cookie_header(format_cookie_header(pairs)) == pairs

    def test_split_tolerates_junk(self):
        assert parse_cookie_header("lang=kn; _sess=abc; bare; =x") == [
            ("lang", "kn"),
            ("_sess", "abc"),
        ]


class TestParseVary:
    def test_merge_and_normalize(self):
        resp = HttpResponse(200, Headers([("vary", "Cookie, Accept-Language")]))
        assert vary_spec(resp.headers).fields == ("cookie", "accept-language")

    def test_absent_is_empty(self):
        assert vary_spec(HttpResponse(200).headers).is_empty

    def test_star_dominates_across_headers(self):
        resp = HttpResponse(200, Headers([("vary", "cookie"), ("vary", "*")]))
        spec = vary_spec(resp.headers)
        assert spec.is_all and spec.fields == ()

    def test_dedup_preserves_first_occurrence_order(self):
        resp = HttpResponse(
            200, Headers([("vary", "B, a"), ("vary", "b, C , a")])
        )
        assert vary_spec(resp.headers).fields == ("b", "a", "c")

    def test_no_duplicates_no_uppercase(self):
        resp = HttpResponse(200, Headers([("vary", "X-One, x-one, X-Two")]))
        fields = vary_spec(resp.headers).fields
        assert len(fields) == len(set(fields))
        assert all(f == f.lower() for f in fields)


class TestCanonicalize:
    def test_case_and_default_port(self):
        uri = canonicalize("HTTPS://Twitter.com:443/?lang=fr")
        assert uri.scheme == "https"
        assert uri.host == "twitter.com"
        assert uri.port is None
        assert uri.query == (("lang", "fr"),)

    def test_query_sorted(self):
        assert canonicalize("https://twitter.com/?b=2&a=1").query == (
            ("a", "1"),
            ("b", "2"),
        )

    def test_lang_parameter_preserved(self):
        assert canonicalize("https://twitter.com/?lang=kn").query_values("lang") == ["kn"]

    def test_fragment_dropped_and_dot_segments(self):
        uri = canonicalize("http://h.example/a/./b/../c#frag")
        assert str(uri) == "http://h.example/a/c"

    def test_non_default_port_kept(self):
        assert canonicalize("http://h.example:8080/").port == 8080

    @pytest.mark.parametrize(
        "bad,position",
        [
            ("nota uri", 0),
            ("mailto:x@y", 7),
            ("https://", 8),
            ("http://host:port/", 12),
            ("http://ho st/", 7),
        ],
    )
    def test_malformed_reports_position(self, bad, position):
        with pytest.raises(UriError) as excinfo:
            canonicalize(bad)
        assert excinfo.value.position == position

    def test_idempotent_on_random_uris(self):
        rng = random.Random(20190101)
        for _ in range(1000):
            uri = _random_uri(rng)
            first = canonicalize(uri)
            assert canonicalize(str(first)) == first


def _random_uri(rng: random.Random) -> str:
    scheme = rng.choice(["http", "https", "HTTP", "HttPs"])
    labels = ["example", "Archive", "site%d" % rng.randrange(10), "Mirror"]
    host = ".".join(rng.sample(labels, rng.randrange(1, 3)) + ["org"])
    port = rng.choice(["", ":80", ":443", ":8080", ":65535"])
    segments = rng.choices(["a", "B", "..", ".", "", "x y", "p%20q", "idx.html"], k=rng.randrange(0, 5))
    path = "/" + "/".join(segments) if segments else ""
    keys = ["lang", "b", "A", "z20"]
    query_pairs = ["%s=%s" % (rng.choice(keys), rng.choice(["", "1", "ar", "x y"])) for _ in range(rng.randrange(0, 4))]
    query = "?" + "&".join(query_pairs) if query_pairs else ""
    fragment = rng.choice(["", "#top", "#a?b"])
    return f"{scheme}://{host}{port}{path}{query}{fragment}"


class TestAcceptLanguage:
    def test_single_tag(self):
        assert parse_accept_language("ur") == [("ur", 1.0)]

    def test_empty(self):
        assert parse_accept_language("") == []

    def test_q_ordering(self):
        assert parse_accept_language("fr;q=0.8, kn") == [("kn", 1.0), ("fr", 0.8)]

    def test_sort_matches_stable_oracle(self):
        rng = random.Random(99)
        tags = ["en", "fr", "kn", "ur", "pt-br", "zh-Hant", "de"]
        for _ in range(200):
            entries = [
                (rng.choice(tags), round(rng.choice([0.1, 0.5, 0.8, 1.0]), 3))
                for _ in range(rng.randrange(0, 6))
            ]
            header = ", ".join(f"{t};q={q}" for t, q in entries)
            # oracle: explicit stable sort on (-q, arrival index)
            expected = [
                (t.lower(), q)
                for _, (t, q) in sorted(
                    enumerate(entries), key=lambda pair: (-pair[1][1], pair[0])
                )
            ]
            assert parse_accept_language(header) == expected

    def test_malformed_entries_skipped(self):
        assert parse_accept_language("fr;q=abc, kn, 123bad!, de;q=2.0") == [("kn", 1.0)]

    def test_missing_q_defaults_to_one(self):
        assert parse_accept_language("en-US, fr;q=0.9") == [("en-us", 1.0), ("fr", 0.9)]


class TestMessageTypes:
    def test_header_names_lowercased_and_order_kept(self):
        headers = Headers([("Set-Cookie", "a=1"), ("SET-COOKIE", "b=2")])
        assert headers.get_all("set-cookie") == ["a=1", "b=2"]

    def test_request_requires_absolute_uri(self):
        with pytest.raises(ValueError):
            HttpRequest("GET", "/relative")

    @pytest.mark.parametrize("status", [99, 600, -1])
    def test_response_status_range(self, status):
        with pytest.raises(ValueError):
            HttpResponse(status)

    def test_headers_immutable(self):
        headers = Headers([("a", "1")])
        with pytest.raises(AttributeError):
            headers.anything = 1


def test_parse_timestamp14():
    assert parse_timestamp14("20190101120000") == datetime(2019, 1, 1, 12, tzinfo=UTC)
    for bad in ("2019", "20191301120000", "2019010112000x"):
        with pytest.raises(ValueError):
            parse_timestamp14(bad)
