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
        if uri in self._seen and uri not in self._exempt:
            return False
        self._seen.add(uri)
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


def _scan_refs(
    body: bytes,
    base: CanonicalUri,
    tags: frozenset[str],
    resolved: dict[str, CanonicalUri | None] | None = None,
) -> list[CanonicalUri]:
    text = body.decode("utf-8", errors="replace")
    base_str = str(base)
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
        try:
            absolute = urljoin(base_str, attr.group(1))
        except ValueError:
            continue
        if absolute in resolved:
            link = resolved[absolute]
        else:
            try:
                link = canonicalize(absolute)
            except (UriError, ValueError):
                link = None
            resolved[absolute] = link
        if link is not None:
            found.append(link)
    return found


def extract_links(
    body: bytes,
    base: CanonicalUri,
    resolved: dict[str, CanonicalUri | None] | None = None,
) -> list[CanonicalUri]:
    """Outlinks of a page in document order: alternate links, anchors, and
    fragment references, resolved against `base` and canonicalized.
    Duplicates are preserved; the frontier dedups.

    `resolved` memoizes canonicalization by absolute (joined) URI string,
    None marking a rejected link; pass one dict to share it across pages.
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
    frontier = Frontier(exempt={root} if revisit else ())
    for uri in seed_uris:
        frontier.add(uri)

    # Memos for this crawl only: the link list of each page already scanned,
    # keyed by (uri, body), and the canonical form of each absolute link.
    # Root revisits mostly return a body scanned before.
    page_links: dict[tuple[CanonicalUri, bytes], list[CanonicalUri]] = {}
    resolved: dict[str, CanonicalUri | None] = {}
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
            links = page_links.get(page)
            if links is None:
                links = page_links[page] = extract_links(record.body, uri, resolved)
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
    clock_step: timedelta = timedelta(seconds=1),
    variant_config: VariantConfig | None = None,
    jar: CookieJar | None = None,
) -> list[ArchiveRecord]:
    """Fetch an explicit URI schedule in order, no frontier, no dedup.

    Cookies still flow through the jar between steps, which is what makes
    scripted capture schedules able to pin down cookie-dependent variants.
    """
    start = ensure_utc(start)
    cfg = variant_config if variant_config is not None else VariantConfig()
    if jar is None:
        jar = CookieJar(jar_policy)
    records: list[ArchiveRecord] = []
    for uri_str in uris:
        now = start + len(records) * clock_step
        jar.prune(now)
        records.append(_fetch_one(fetch, canonicalize(uri_str), jar, now, cfg))
    jar.end_session()
    return records
