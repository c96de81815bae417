"""Memento selection, composite reconstruction, and the replay HTTP service.

Two selection modes:

* ``baseline`` reproduces what mainstream replay systems do: pick the
  capture nearest the target datetime, keyed on canonical URI alone. The
  replaying user's request headers are ignored entirely.
* ``variant_aware`` first restricts candidates to captures whose stored
  variant key the request's headers reproduce, then picks the nearest of
  those; an empty restricted set falls back per the mode. The request's
  values are always computed under the store's own `VariantConfig` (the
  one recorded in ``meta.json``), the config the stored keys were made with.

A request is the replaying user's `Headers`. `replay_headers` adds the
cookies of a cookie file (a jar) that are in scope for the URI and
unexpired, and the request's own cookies win; the replay listener and
``archivelab detect`` both build their requests with it.

The replay listener's answer to a GET is `_respond`, a plain function of
the store, the mode, the jar, the path and the request headers; the
shared listener of `http_core` writes it.

Composite reconstruction never touches the live web: parts come from the
store or are reported missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from functools import partial

from .cookiejar import CookieJar
from .crawler import extract_fragment_refs
from .http_core import (
    CanonicalUri,
    Headers,
    HttpError,
    HttpResponse,
    Listener,
    UriError,
    canonicalize,
    ensure_utc,
    format_cookie_header,
    format_http_date,
    make_listener,
    parse_cookie_header,
    parse_timestamp14,
)
from .store import ArchiveRecord, ArchiveStore, variant_matches

__all__ = [
    "BASELINE",
    "VARIANT_AWARE",
    "FALLBACK_NEAREST_ANY",
    "FALLBACK_NOT_FOUND",
    "ReplayMode",
    "CompositeMemento",
    "replay_headers",
    "select_memento",
    "reconstruct_composite",
    "make_replay_server",
]

BASELINE = "baseline"
VARIANT_AWARE = "variant_aware"
FALLBACK_NEAREST_ANY = "nearest_any"
FALLBACK_NOT_FOUND = "not_found"


@dataclass(frozen=True)
class ReplayMode:
    """Selection mode; `fallback` only matters for variant-aware replay."""

    kind: str = BASELINE
    fallback: str = FALLBACK_NEAREST_ANY

    def __post_init__(self) -> None:
        if self.kind not in (BASELINE, VARIANT_AWARE):
            raise ValueError(f"unknown replay mode: {self.kind}")
        if self.fallback not in (FALLBACK_NEAREST_ANY, FALLBACK_NOT_FOUND):
            raise ValueError(f"unknown fallback: {self.fallback}")

    @classmethod
    def baseline(cls) -> "ReplayMode":
        return cls(BASELINE)

    @classmethod
    def variant_aware(cls, fallback: str = FALLBACK_NEAREST_ANY) -> "ReplayMode":
        return cls(VARIANT_AWARE, fallback)


@dataclass(frozen=True)
class CompositeMemento:
    """A selected root capture plus the independently selected captures of
    its embedded resources (None where the archive has no candidate)."""

    root: ArchiveRecord
    parts: tuple[tuple[str, ArchiveRecord | None], ...]
    target_datetime: datetime


def select_memento(
    store: ArchiveStore,
    uri: CanonicalUri | str,
    target: datetime,
    mode: ReplayMode,
    request_headers: Headers | None = None,
) -> ArchiveRecord | None:
    """Select the capture of `uri` to replay for `target`, or None.

    Baseline: nearest |datetime - target| over all captures, ties toward the
    earlier datetime then the smaller id; the request headers never change
    the result. Variant-aware: same rule over the captures whose variant key
    the request headers reproduce under the store's config, falling back
    per mode when none match.
    """
    entry = None
    if mode.kind == VARIANT_AWARE:
        entry = store.nearest(uri, target, request_headers or Headers())
        if entry is None and mode.fallback == FALLBACK_NOT_FOUND:
            return None
    if entry is None:
        entry = store.nearest(uri, target)
    return store.get_record(entry.id) if entry is not None else None


def reconstruct_composite(
    store: ArchiveStore,
    uri: CanonicalUri | str,
    target: datetime,
    mode: ReplayMode,
    request_headers: Headers | None = None,
) -> CompositeMemento | None:
    """Select a root capture and, independently, each embedded resource.

    Parts are selected with the root's capture datetime as their target and
    the same request headers, which baseline selection ignores, mirroring
    replay systems that key on URI and datetime alone. Returns None when no
    root can be selected; missing parts are recorded as None, never fetched
    live.
    """
    root = select_memento(store, uri, target, mode, request_headers)
    if root is None:
        return None
    parts = []
    for part_uri in extract_fragment_refs(root.body, root.uri):
        selected = select_memento(store, part_uri, root.datetime, mode, request_headers)
        parts.append((str(part_uri), selected))
    return CompositeMemento(root, tuple(parts), ensure_utc(target))


def replay_headers(
    request_headers: Headers,
    uri: CanonicalUri,
    now: datetime,
    jar: CookieJar | None = None,
) -> Headers:
    """The replaying user's request for `uri`, with `jar`'s cookies as defaults.

    The jar's cookies that are in scope for `uri` and unexpired at `now`
    (RFC 6265 §5.4) join the request in one more Cookie header; a cookie
    whose name the request already carries is left out, so the request's
    own cookies win.
    """
    if jar is None:
        return request_headers
    present = {
        name
        for raw in request_headers.get_all("cookie")
        for name, _ in parse_cookie_header(raw)
    }
    extra = [(name, value) for name, value in jar.cookies_for(uri, now) if name not in present]
    if not extra:
        return request_headers
    return Headers([*request_headers, ("cookie", format_cookie_header(extra))])


def _respond(
    store: ArchiveStore, mode: ReplayMode, jar: CookieJar | None, path: str, headers: Headers
) -> HttpResponse:
    """The replay listener's answer to GET `path` with request `headers`."""
    if not path.startswith("/web/"):
        raise HttpError(404, "unknown endpoint; use /web/<timestamp>/<uri>")
    timestamp, _, uri_str = path[len("/web/") :].partition("/")
    try:
        target = parse_timestamp14(timestamp)
    except ValueError:
        raise HttpError(400, "malformed 14-digit timestamp") from None
    try:
        uri = canonicalize(uri_str)
    except UriError:
        raise HttpError(400, "malformed archived URI") from None

    request = replay_headers(headers, uri, target, jar)
    record = select_memento(store, uri, target, mode, request)
    if record is None:
        raise HttpError(404, "no matching capture")
    # status 0 is a failed fetch: the archive holds no response to replay
    fields = [] if record.response_status else [("x-archive-error", "capture-fetch-failed")]
    fields += [
        (name, value)
        for name in ("content-type", "content-language")
        if (value := record.response_headers.get(name)) is not None
    ]
    fields += [
        ("memento-datetime", format_http_date(record.datetime)),
        ("x-archive-variant", record.variant_key.encoded),
    ]
    if mode.kind == VARIANT_AWARE and not variant_matches(
        record.variant_key, request, store.variant_config
    ):
        fields.append(("x-archive-fallback", "variant-mismatch"))
    return HttpResponse(record.response_status or 504, fields, record.body)


def make_replay_server(
    store: ArchiveStore,
    mode: ReplayMode,
    port: int,
    base_jar: CookieJar | None = None,
) -> Listener:
    """Build (but do not start) the replay listener on 127.0.0.1:port.

    Serves GET /web/<14-digit-timestamp>/<absolute-URI> from a read-only
    store snapshot. base_jar supplies default cookies for requests that do
    not carry their own (the --request-cookies CLI path).
    """
    return make_listener(partial(_respond, store, mode, base_jar), port, "ReplayHandler")
