"""Model of the simulated origin's language negotiation and sticky cookie.

The origin picks a page's language from, in order: a supported ``lang``
query value, a supported ``lang`` cookie, then its default (the benchmark's
crawls send no Accept-Language). A supported ``?lang=`` request sets the
sticky ``lang`` cookie for the whole host, so on a crawl with uncapped
cookies every request carries the value of the latest earlier ``?lang=``
capture; with a zero cookie lifetime none carries a cookie.
"""

from __future__ import annotations

import re
from urllib.parse import parse_qsl, urlsplit

_HTML_LANG_RE = re.compile(rb'<html\b[^>]*?\blang="([^"]*)"')


def query_lang(uri: str, supported) -> str | None:
    for key, value in parse_qsl(urlsplit(uri).query):
        if key == "lang" and value.lower() in supported:
            return value.lower()
    return None


def cookie_lang(cookie_header: str | None) -> str | None:
    for segment in (cookie_header or "").split(";"):
        name, eq, value = segment.partition("=")
        if eq and name.strip() == "lang":
            return value.strip()
    return None


def negotiate(uri: str, cookie_header: str | None, supported, default: str) -> str:
    lang = query_lang(uri, supported)
    if lang is not None:
        return lang
    lang = cookie_lang(cookie_header)
    if lang is not None and lang.lower() in supported:
        return lang.lower()
    return default


def sticky_cookies(uris, supported, cookies_kept: bool) -> list[str | None]:
    """Expected ``lang`` cookie value on each request of a crawl, in order."""
    expected = []
    current = None
    for uri in uris:
        expected.append(current)
        if cookies_kept:
            lang = query_lang(uri, supported)
            if lang is not None:
                current = lang
    return expected


def html_lang(body: bytes) -> str | None:
    match = _HTML_LANG_RE.search(body)
    return match.group(1).decode("utf-8", "replace") if match else None
