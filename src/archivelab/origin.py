"""Deterministic synthetic multi-language origin server.

Simulates a timeline site that negotiates language three ways: a `lang`
query parameter (which also sets a sticky `lang` cookie scoped to /), the
`lang` cookie itself, and Accept-Language. Responses are pure functions of
(request, site config): all statefulness lives in the client's cookie jar.
By default responses do NOT acknowledge the cookie in a Vary header, which
is exactly what makes naive archiving of such sites go wrong.

`handle()` serves one request in process, for deterministic simulation;
`make_origin_server` puts it behind the shared TCP listener for end-to-end
tests, with the request's `Host` field as the URI's host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from .http_core import (
    CanonicalUri,
    Headers,
    HttpError,
    HttpRequest,
    HttpResponse,
    Listener,
    canonicalize,
    make_listener,
    parse_accept_language,
    parse_cookie_header,
)

__all__ = [
    "DEFAULT_LANGUAGES",
    "SiteConfig",
    "PageModel",
    "negotiate_language",
    "handle",
    "alternate_links",
    "fetch_fn",
    "site_config_from_dict",
    "load_site_config",
    "make_origin_server",
]

# 47 supported language tags; "kn" deliberately last so it is the final
# alternate link on every page. The middle of the list is arbitrary.
DEFAULT_LANGUAGES = (
    "fr", "en", "de", "es", "it", "pt", "ja", "ko", "zh", "ar",
    "hi", "ur", "ru", "tr", "nl", "sv", "da", "fi", "no", "pl",
    "cs", "sk", "hu", "ro", "bg", "el", "he", "th", "vi", "id",
    "ms", "fil", "uk", "sr", "hr", "ca", "fa", "ta", "te", "bn",
    "gu", "mr", "ml", "pa", "sw", "am", "kn",
)

TIMELINE = "timeline"
FRAGMENT = "fragment"

_FRAGMENT_SLOTS = ("sidebar", "notifications")


@dataclass(frozen=True)
class SiteConfig:
    """Shape of the simulated site."""

    host: str = "timeline.example"
    languages: tuple[str, ...] = DEFAULT_LANGUAGES
    default_language: str = "en"
    emit_vary: bool = False
    page_count: int = 3
    resources_per_page: int = 2

    def __post_init__(self) -> None:
        if not self.languages:
            raise ValueError("languages must be nonempty")
        if self.page_count < 1:
            raise ValueError("page_count must be >= 1")
        if self.resources_per_page < 0:
            raise ValueError("resources_per_page must be >= 0")
        object.__setattr__(self, "host", self.host.lower())
        object.__setattr__(self, "languages", tuple(l.lower() for l in self.languages))
        object.__setattr__(self, "default_language", self.default_language.lower())

    @property
    def supported(self) -> frozenset[str]:
        return frozenset(self.languages) | {self.default_language}

    def base(self) -> str:
        return f"https://{self.host}"

    def timeline_path(self, n: int) -> str:
        return "/" if n == 0 else f"/timeline/{n}"

    def fragment_path(self, page: int, slot: int) -> str:
        return f"/fragment/{page}/{slot}"

    def page_for(self, path: str) -> "PageModel | None":
        """Resolve a canonical path to its page model, or None for 404."""
        if path == "/":
            return self._timeline_model(0)
        parts = path.strip("/").split("/")
        if len(parts) == 2 and parts[0] == "timeline" and parts[1].isdigit():
            n = int(parts[1])
            if 1 <= n < self.page_count:
                return self._timeline_model(n)
        if len(parts) == 3 and parts[0] == "fragment":
            if parts[1].isdigit() and parts[2].isdigit():
                page, slot = int(parts[1]), int(parts[2])
                if page < self.page_count and slot < self.resources_per_page:
                    return PageModel(path, FRAGMENT, ())
        return None

    def _timeline_model(self, n: int) -> "PageModel":
        fragments = tuple(
            self.base() + self.fragment_path(n, j)
            for j in range(self.resources_per_page)
        )
        siblings = tuple(
            self.base() + self.timeline_path(k)
            for k in range(self.page_count)
            if k != n
        )
        return PageModel(self.timeline_path(n), TIMELINE, fragments + siblings)


@dataclass(frozen=True)
class PageModel:
    """One page of the site: its path, kind, and non-alternate outlinks."""

    uri_path: str
    kind: str
    links_out: tuple[str, ...] = field(default_factory=tuple)


def site_config_from_dict(data: dict) -> SiteConfig:
    unknown = set(data) - {f.name for f in fields(SiteConfig)}
    if unknown:
        raise ValueError(f"unknown site config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "languages" in kwargs:
        kwargs["languages"] = tuple(kwargs["languages"])
    return SiteConfig(**kwargs)


def load_site_config(path: str | Path) -> SiteConfig:
    with open(path, encoding="utf-8") as fh:
        return site_config_from_dict(json.load(fh))


def _query_language(uri: CanonicalUri, site: SiteConfig) -> str | None:
    for value in uri.query_values("lang"):
        tag = value.lower()
        if tag in site.supported:
            return tag
    return None


def _cookie_language(request: HttpRequest, site: SiteConfig) -> str | None:
    for header in request.headers.get_all("cookie"):
        for name, value in parse_cookie_header(header):
            if name == "lang":
                tag = value.lower()
                if tag in site.supported:
                    return tag
                return None
    return None


def _accept_language(request: HttpRequest, site: SiteConfig) -> str | None:
    header = request.headers.get("accept-language")
    if header is None:
        return None
    for tag, q in parse_accept_language(header):
        if q <= 0.0:
            continue
        if tag in site.supported:
            return tag
        primary = tag.split("-")[0]
        if primary in site.supported:
            return primary
    return None


def negotiate_language(request: HttpRequest, site: SiteConfig) -> str:
    """Pick the response language for a request.

    Precedence: `lang` query parameter, then `lang` cookie, then the
    highest-q supported Accept-Language tag, then the site default.
    Unsupported values at any stage fall through to the next source.
    """
    return _negotiate(request, _query_language(canonicalize(request.uri), site), site)


def _negotiate(request: HttpRequest, query_lang: str | None, site: SiteConfig) -> str:
    """negotiate_language, given the request URI's `lang` query result."""
    for source in (query_lang, _cookie_language(request, site)):
        if source is not None:
            return source
    negotiated = _accept_language(request, site)
    return negotiated if negotiated is not None else site.default_language


def alternate_links(page: PageModel, site: SiteConfig) -> list[str]:
    """Alternate-language URIs of a timeline page: x-default first, then
    one ?lang= link per supported language in configuration order."""
    if page.kind != TIMELINE:
        raise ValueError("only timeline pages carry alternate links")
    base = site.base() + page.uri_path
    return [base] + [f"{base}?lang={tag}" for tag in site.languages]


def _render_timeline(page: PageModel, site: SiteConfig, lang: str) -> str:
    alt_lines = [
        f'<link rel="alternate" hreflang="{tag}" href="{href}">'
        for tag, href in zip(("x-default",) + site.languages, alternate_links(page, site))
    ]
    fragments = []
    siblings = []
    for link in page.links_out:
        if "/fragment/" in link:
            fragments.append(f'<iframe class="fragment" src="{link}"></iframe>')
        else:
            siblings.append(f'<a href="{link}">{link}</a>')
    name = page.uri_path if page.uri_path != "/" else "/ (home)"
    return (
        "<!DOCTYPE html>\n"
        f'<html lang="{lang}">\n'
        "<head>\n"
        '<meta charset="utf-8">\n'
        f"<title>{site.host} {name} [{lang}]</title>\n"
        + "\n".join(alt_lines)
        + "\n</head>\n<body>\n"
        f'<h1 class="timeline-title">timeline {name} [{lang}]</h1>\n'
        f'<p class="post">localized timeline copy in {lang}</p>\n'
        + "\n".join(fragments)
        + ("\n" if fragments else "")
        + "<nav>\n"
        + "\n".join(siblings)
        + "\n</nav>\n</body>\n</html>\n"
    )


def _render_fragment(page: PageModel, site: SiteConfig, lang: str) -> str:
    slot = page.uri_path.rsplit("/", 1)[-1]
    slot_name = (
        _FRAGMENT_SLOTS[int(slot)] if int(slot) < len(_FRAGMENT_SLOTS) else f"widget-{slot}"
    )
    return (
        "<!DOCTYPE html>\n"
        f'<html lang="{lang}">\n'
        "<head>\n"
        '<meta charset="utf-8">\n'
        f"<title>{site.host} {page.uri_path} [{lang}]</title>\n"
        "</head>\n<body>\n"
        f'<div class="fragment-body">{slot_name} content in {lang}</div>\n'
        "</body>\n</html>\n"
    )


_NOT_FOUND_BODY = b"<!DOCTYPE html>\n<html>\n<body>404 not found</body>\n</html>\n"


def handle(request: HttpRequest, site: SiteConfig) -> HttpResponse:
    """Serve one request. Pure: identical inputs give byte-identical output.

    A `lang` query parameter naming a supported language makes the response
    set the sticky `lang` cookie (Path=/). With emit_vary the response
    declares `Vary: Cookie, Accept-Language`; otherwise the negotiation is
    invisible to caches, cookie included.
    """
    uri = canonicalize(request.uri)
    page = site.page_for(uri.path) if uri.host == site.host else None
    if page is None:
        return HttpResponse(
            404,
            Headers([("content-type", "text/html; charset=utf-8")]),
            _NOT_FOUND_BODY,
        )

    query_lang = _query_language(uri, site)
    lang = _negotiate(request, query_lang, site)
    if page.kind == TIMELINE:
        body = _render_timeline(page, site, lang)
    else:
        body = _render_fragment(page, site, lang)

    header_pairs = [
        ("content-type", "text/html; charset=utf-8"),
        ("content-language", lang),
    ]
    if query_lang is not None:
        header_pairs.append(("set-cookie", f"lang={lang}; Path=/"))
    if site.emit_vary:
        header_pairs.append(("vary", "Cookie, Accept-Language"))
    return HttpResponse(200, Headers(header_pairs), body.encode("utf-8"))


def fetch_fn(site: SiteConfig) -> Callable[[HttpRequest], HttpResponse]:
    """In-process fetch function for the crawler: request -> response."""

    def fetch(request: HttpRequest) -> HttpResponse:
        return handle(request, site)

    return fetch


def make_origin_server(site: SiteConfig, port: int) -> Listener:
    """Build (but do not start) the TCP listener; port 0 picks a free port.

    A request whose `Host` or path makes no valid request URI is answered
    400."""

    def respond(path: str, headers: Headers) -> HttpResponse:
        host = headers.get("host", site.host).split(":")[0]
        try:
            return handle(HttpRequest("GET", f"https://{host}{path}", headers), site)
        except ValueError:
            raise HttpError(400) from None

    return make_listener(respond, port, "OriginHandler")
