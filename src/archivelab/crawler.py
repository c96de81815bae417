"""Breadth-first archival crawler with a frontier queue and per-session jar.

The crawl clock is synthetic: capture i is stamped start + i * clock_step,
so identical inputs reproduce byte-identical record lists. One session is
strictly sequential; concurrent sessions get fully isolated jars, frontiers,
and clocks.

Link extraction is a tolerant scanner for the origin simulator's HTML
dialect (double-quoted href/src attributes on <link rel="alternate">, <a>,
and <iframe> tags), not a general HTML5 parser.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable, Iterable
from urllib.parse import urljoin

from .cookiejar import CookieJar, JarPolicy
from .http_core import (
    CanonicalUri,
    Headers,
    HttpRequest,
    HttpResponse,
    UriError,
    canonicalize,
    ensure_utc,
    format_cookie_header,
    parse_set_cookie,
)
from .store import ArchiveRecord, VariantConfig, derive_variant_key

__all__ = [
    "CrawlPolicy",
    "Frontier",
    "crawl",
    "scripted_crawl",
    "extract_links",
    "extract_fragment_refs",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CrawlPolicy:
    """Crawl session knobs.

    revisit_root_every re-enqueues the seed after every k dequeues (and
    exempts it from frontier dedup), standing in for the repeated captures a
    real archive accumulates over years. 0 or None disables it.
    """

    jar_policy: JarPolicy = JarPolicy()
    max_pages: int = 100
    revisit_root_every: int | None = None
    clock_step: timedelta = timedelta(seconds=1)

    def __post_init__(self) -> None:
        if self.max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        if self.clock_step <= timedelta(0):
            raise ValueError("clock_step must be positive")
        if self.revisit_root_every is not None and self.revisit_root_every < 0:
            raise ValueError("revisit_root_every must be >= 0")


class Frontier:
    """FIFO of canonical URIs with dedup; exempt URIs may be enqueued again."""

    def __init__(self, exempt: Iterable[CanonicalUri] = ()):
        self._queue: list[CanonicalUri] = []
        self._head = 0
        self._seen: set[CanonicalUri] = set()
        self._exempt = set(exempt)

    def add(self, uri: CanonicalUri) -> bool:
        # One set operation for a new URI: add, and see if the set grew.
        seen = self._seen
        size = len(seen)
        seen.add(uri)
        if len(seen) == size and uri not in self._exempt:
            return False
        self._queue.append(uri)
        return True

    def pop(self) -> CanonicalUri:
        uri = self._queue[self._head]
        self._head += 1
        return uri

    def __len__(self) -> int:
        return len(self._queue) - self._head

    def __bool__(self) -> bool:
        return len(self) > 0


_TAG_RE = re.compile(r"<(link|a|iframe)\b[^>]*>", re.IGNORECASE)
_HREF_RE = re.compile(r'\bhref="([^"]*)"', re.IGNORECASE)
_SRC_RE = re.compile(r'\bsrc="([^"]*)"', re.IGNORECASE)
_REL_ALTERNATE_RE = re.compile(r'\brel="alternate"', re.IGNORECASE)
# An href with a scheme and a non-empty authority. urljoin returns such an
# href as given, or rebuilt from its own parts when its scheme equals the
# base's, so the joined link depends on the base only through its scheme.
# The authority's first character may not be whitespace: urlsplit drops
# tabs and newlines, so "http://\t/x", like "http:///x", takes the base's
# host. A leading space (also stripped) fails the anchored scheme.
_ABSOLUTE_HREF_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*://[^/?#\s]")


def _scan_refs(
    body: bytes,
    base: CanonicalUri,
    tags: frozenset[str],
    resolved: dict[tuple[str, str], CanonicalUri | None] | None = None,
) -> list[CanonicalUri]:
    text = body.decode("utf-8", errors="replace")
    base_str = str(base)
    scheme = base.scheme
    if resolved is None:
        resolved = {}
    found: list[CanonicalUri] = []
    for match in _TAG_RE.finditer(text):
        tag = match.group(1).lower()
        if tag not in tags:
            continue
        markup = match.group(0)
        if tag == "link":
            if not _REL_ALTERNATE_RE.search(markup):
                continue
            attr = _HREF_RE.search(markup)
        elif tag == "a":
            attr = _HREF_RE.search(markup)
        else:
            attr = _SRC_RE.search(markup)
        if attr is None:
            continue
        href = attr.group(1)
        key = (scheme if _ABSOLUTE_HREF_RE.match(href) else base_str, href)
        try:
            link = resolved[key]
        except KeyError:
            try:
                link = canonicalize(urljoin(base_str, href))
            except (UriError, ValueError):
                link = None
            resolved[key] = link
        if link is not None:
            found.append(link)
    return found


def extract_links(
    body: bytes,
    base: CanonicalUri,
    resolved: dict[tuple[str, str], CanonicalUri | None] | None = None,
) -> list[CanonicalUri]:
    """Outlinks of a page in document order: alternate links, anchors, and
    fragment references, resolved against `base` and canonicalized.
    Duplicates are preserved; the frontier dedups.

    `resolved` memoizes joining and canonicalization by raw href, None
    marking a rejected link; pass one dict to share it across pages. Its
    key is (base scheme, href) for an href with a scheme and an authority,
    and (str(base), href) otherwise.
    """
    return _scan_refs(body, base, frozenset({"link", "a", "iframe"}), resolved)


def extract_fragment_refs(body: bytes, base: CanonicalUri) -> list[CanonicalUri]:
    """Embedded-resource references only (iframe src), document order."""
    return _scan_refs(body, base, frozenset({"iframe"}))


def _fetch_one(
    fetch: Callable[[HttpRequest], HttpResponse],
    uri: CanonicalUri,
    jar: CookieJar,
    now: datetime,
    cfg: VariantConfig,
) -> ArchiveRecord:
    header_pairs = [("host", uri.host)]
    cookie_pairs = jar.cookies_for(uri, now)
    if cookie_pairs:
        header_pairs.append(("cookie", format_cookie_header(cookie_pairs)))
    request = HttpRequest("GET", str(uri), Headers(header_pairs))
    try:
        response: HttpResponse | None = fetch(request)
    except Exception:
        logger.warning("fetch failed for %s", uri, exc_info=True)
        response = None
    if response is None:
        status, resp_headers, body = 0, Headers(), b""
    else:
        status, resp_headers, body = response.status, response.headers, response.body
    record = ArchiveRecord(
        id=None,
        uri=uri,
        datetime=now,
        request_headers=request.headers,
        response_status=status,
        response_headers=resp_headers,
        body=body,
        variant_key=derive_variant_key(request.headers, resp_headers, cfg),
    )
    for raw in resp_headers.get_all("set-cookie"):
        cookie = parse_set_cookie(raw, uri, now)
        if cookie is not None:
            jar.store(cookie, now)
    return record


def crawl(
    seeds: Iterable[str],
    fetch: Callable[[HttpRequest], HttpResponse],
    policy: CrawlPolicy,
    start: datetime,
    *,
    variant_config: VariantConfig | None = None,
    jar: CookieJar | None = None,
) -> list[ArchiveRecord]:
    """Breadth-first crawl; returns one ArchiveRecord per fetch.

    Before every dequeue the jar is pruned and matching cookies attached;
    after every response all Set-Cookie values are stored. Fetch failures
    become status-0 records and contribute no links. Stops at max_pages.
    """
    start = ensure_utc(start)
    cfg = variant_config if variant_config is not None else VariantConfig()
    if jar is None:
        jar = CookieJar(policy.jar_policy)
    seed_uris = [canonicalize(s) for s in seeds]
    if not seed_uris:
        return []
    root = seed_uris[0]
    revisit = policy.revisit_root_every or 0
    exempt = {root} if revisit else set()
    frontier = Frontier(exempt)
    for uri in seed_uris:
        frontier.add(uri)

    # Memos for this crawl only: the exempt links of each page already
    # scanned, keyed by (uri, body), and each href's canonical link (see
    # extract_links). A page's other links went to the frontier at its first
    # scan and would be refused as seen, so a root revisit that returns a
    # body scanned before re-adds only the exempt ones.
    page_exempt: dict[tuple[CanonicalUri, bytes], list[CanonicalUri]] = {}
    resolved: dict[tuple[str, str], CanonicalUri | None] = {}
    records: list[ArchiveRecord] = []
    dequeues = 0
    while frontier and len(records) < policy.max_pages:
        now = start + len(records) * policy.clock_step
        jar.prune(now)
        uri = frontier.pop()
        dequeues += 1
        record = _fetch_one(fetch, uri, jar, now, cfg)
        records.append(record)
        if record.response_status == 200:
            page = (uri, record.body)
            links = page_exempt.get(page)
            if links is None:
                links = extract_links(record.body, uri, resolved)
                page_exempt[page] = [link for link in links if link in exempt]
            for link in links:
                frontier.add(link)
        if revisit and dequeues % revisit == 0:
            frontier.add(root)
    jar.end_session()
    return records


def scripted_crawl(
    uris: Iterable[str],
    fetch: Callable[[HttpRequest], HttpResponse],
    jar_policy: JarPolicy,
    start: datetime,
    *,
    variant_config: VariantConfig | None = None,
) -> list[ArchiveRecord]:
    """Fetch an explicit URI schedule in order, one synthetic second per
    request, no frontier, no dedup.

    Cookies still flow through the jar between steps, which is what makes
    scripted capture schedules able to pin down cookie-dependent variants.
    """
    start = ensure_utc(start)
    cfg = variant_config if variant_config is not None else VariantConfig()
    jar = CookieJar(jar_policy)
    records: list[ArchiveRecord] = []
    for uri_str in uris:
        now = start + timedelta(seconds=len(records))
        jar.prune(now)
        records.append(_fetch_one(fetch, canonicalize(uri_str), jar, now, cfg))
    jar.end_session()
    return records
