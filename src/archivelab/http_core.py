"""Minimal HTTP message model and header parsers shared by the whole pipeline.

Everything here but the listener is a pure function over immutable
values: requests, responses, cookies, canonical URIs, and the parsers for
Set-Cookie, Cookie, Vary, and Accept-Language. No clocks; callers pass `now`
explicitly. `make_listener` is the one TCP listener factory, shared by the
origin and replay servers: one handler class parses each request, asks the
server's `respond(path, headers)`, and writes the answer. The listener
serves each connection on the thread that accepted it, from a fixed pool.
The request parser reads the request line by `http.server`'s rules and the
field lines straight into a `Headers`, without the `email` package.
"""

from __future__ import annotations

import re
import socket
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, ClassVar, Iterable, Iterator

__all__ = [
    "UTC",
    "UriError",
    "Headers",
    "HttpRequest",
    "HttpResponse",
    "Cookie",
    "CanonicalUri",
    "VarySpec",
    "canonicalize",
    "domain_match",
    "parse_set_cookie",
    "parse_cookie_header",
    "format_cookie_header",
    "vary_spec",
    "parse_accept_language",
    "parse_cookie_date",
    "format_timestamp14",
    "parse_timestamp14",
    "format_http_date",
    "ensure_utc",
    "HttpError",
    "Listener",
    "make_listener",
]

UTC = timezone.utc

DEFAULT_PORTS = {"http": 80, "https": 443}


class UriError(ValueError):
    """Raised for URIs this pipeline cannot canonicalize.

    `position` is the character offset in the input where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def ensure_utc(dt: datetime) -> datetime:
    """Interpret naive datetimes as UTC; convert aware ones to UTC."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=UTC)
    return dt.astimezone(UTC)


def format_timestamp14(dt: datetime) -> str:
    """Render a datetime as the 14-digit capture timestamp (UTC, second precision)."""
    return ensure_utc(dt).strftime("%Y%m%d%H%M%S")


def parse_timestamp14(value: str) -> datetime:
    """Parse a 14-digit timestamp; raises ValueError on anything else."""
    if len(value) != 14 or not value.isdecimal():
        raise ValueError(f"not a 14-digit timestamp: {value!r}")
    return datetime(
        int(value[0:4]),
        int(value[4:6]),
        int(value[6:8]),
        int(value[8:10]),
        int(value[10:12]),
        int(value[12:14]),
        tzinfo=UTC,
    )


_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTH_NAMES = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


def format_http_date(dt: datetime) -> str:
    """Render a datetime as an RFC 9110 §5.6.7 IMF-fixdate, such as
    `Sun, 06 Nov 1994 08:49:37 GMT`; the names are English whatever the
    locale, and fractions of a second are dropped."""
    dt = ensure_utc(dt)
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _DAY_NAMES[dt.weekday()],
        dt.day,
        _MONTH_NAMES[dt.month - 1],
        dt.year,
        dt.hour,
        dt.minute,
        dt.second,
    )


class Headers:
    """Ordered multimap of header fields.

    Field names are lowercased on construction; duplicate fields keep their
    arrival order and are retrievable individually (required for Set-Cookie).
    Instances are immutable so they can be shared freely.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        if isinstance(pairs, Headers):
            object.__setattr__(self, "_pairs", pairs._pairs)
            return
        if isinstance(pairs, dict):
            pairs = pairs.items()
        object.__setattr__(
            self, "_pairs", tuple((str(k).lower(), str(v)) for k, v in pairs)
        )

    def get(self, name: str, default: str | None = None) -> str | None:
        name = name.lower()
        for key, value in self._pairs:
            if key == name:
                return value
        return default

    def get_all(self, name: str) -> list[str]:
        name = name.lower()
        return [value for key, value in self._pairs if key == name]

    def names(self) -> list[str]:
        """Distinct field names, first-appearance order."""
        seen: list[str] = []
        for key, _ in self._pairs:
            if key not in seen:
                seen.append(key)
        return seen

    def items(self) -> tuple[tuple[str, str], ...]:
        return self._pairs

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Headers({list(self._pairs)!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Headers is immutable")


_ABSOLUTE_URI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]+")


@dataclass(frozen=True)
class HttpRequest:
    """One HTTP request. `uri` must be absolute (scheme and host present)."""

    method: str
    uri: str
    headers: Headers = field(default_factory=Headers)

    def __post_init__(self) -> None:
        if not self.method:
            raise ValueError("method must be nonempty")
        if not _ABSOLUTE_URI_RE.match(self.uri):
            raise ValueError(f"request URI must be absolute: {self.uri!r}")
        if not isinstance(self.headers, Headers):
            object.__setattr__(self, "headers", Headers(self.headers))


@dataclass(frozen=True)
class HttpResponse:
    """One HTTP response; body is always raw bytes."""

    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise ValueError(f"status out of range: {self.status}")
        if not isinstance(self.headers, Headers):
            object.__setattr__(self, "headers", Headers(self.headers))
        if not isinstance(self.body, bytes):
            raise TypeError("body must be bytes")


@dataclass(frozen=True)
class Cookie:
    """A stored cookie: name/value plus scope (domain, path) and expiry.

    `expires_at` is None for session cookies. A `secure` cookie is sent to
    https URIs only; HttpOnly and SameSite are not kept (there is no script
    or cross-site model here).
    """

    name: str
    value: str
    domain: str
    host_only: bool
    path: str
    expires_at: datetime | None
    created_at: datetime
    secure: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("cookie name must be nonempty")
        if not self.domain:
            raise ValueError("cookie domain must be nonempty")
        if not self.path.startswith("/"):
            raise ValueError(f"cookie path must start with '/': {self.path!r}")
        if self.expires_at is not None and self.expires_at < self.created_at:
            raise ValueError("expires_at precedes created_at")

    def expired(self, now: datetime) -> bool:
        return self.expires_at is not None and self.expires_at <= now


@dataclass(frozen=True)
class CanonicalUri:
    """Canonical form of an absolute URI.

    Scheme and host lowercased, default ports elided, dot segments removed,
    query pairs sorted by key then value, fragment dropped. Percent-encoding
    is preserved verbatim except that literal spaces become %20 so the
    serialized form stays whitespace-free (the archive index relies on it).
    This canonicalization is self-consistent but not byte-compatible with
    SURT-based CDX tooling.

    The hash is computed on first use and kept on the instance, since
    frontier and memo lookups hash the same links many times over.
    """

    scheme: str
    host: str
    port: int | None
    path: str
    query: tuple[tuple[str, str], ...] = ()
    _hash: ClassVar[int | None] = None

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.scheme, self.host, self.port, self.path, self.query))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict[str, object]:
        # str hashes are salted per process, so a pickle leaves the hash out.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __str__(self) -> str:
        authority = self.host if self.port is None else f"{self.host}:{self.port}"
        rendered = f"{self.scheme}://{authority}{self.path}"
        if self.query:
            rendered += "?" + "&".join(f"{k}={v}" for k, v in self.query)
        return rendered

    def query_values(self, key: str) -> list[str]:
        return [v for k, v in self.query if k == key]


_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.\-]*):")
_AUTHORITY_RE = re.compile(r"[^/?#]*")
_HOST_RE = re.compile(r"^[a-z0-9._\-]+$")


def _remove_dot_segments(path: str) -> str:
    segments = path.split("/")
    out = [""]
    last_index = len(segments) - 1
    for i, seg in enumerate(segments[1:], start=1):
        if seg == ".":
            if i == last_index:
                out.append("")
        elif seg == "..":
            if len(out) > 1:
                out.pop()
            if i == last_index:
                out.append("")
        else:
            out.append(seg)
    return "/".join(out) or "/"


def canonicalize(uri: str) -> CanonicalUri:
    """Canonicalize an absolute URI; deterministic and idempotent.

    Raises UriError (with the failing position) for relative or malformed
    input. Query parameters are never dropped; in particular `lang` survives
    because it determines content on the simulated origin.
    """
    scheme_match = _SCHEME_RE.match(uri)
    if not scheme_match:
        raise UriError("expected an absolute URI with a scheme", 0)
    scheme = scheme_match.group(1).lower()
    pos = scheme_match.end()
    if uri[pos : pos + 2] != "//":
        raise UriError("expected '//' before authority", pos)
    pos += 2

    authority_match = _AUTHORITY_RE.match(uri, pos)
    authority = authority_match.group(0)
    if "@" in authority:
        raise UriError("userinfo in authority is not supported", pos)
    host_part, colon, port_str = authority.rpartition(":")
    if not colon:
        host_part, port_str = authority, ""
    port: int | None = None
    if colon:
        if not port_str.isdigit():
            raise UriError("port must be numeric", pos + len(host_part) + 1)
        port = int(port_str)
        if not 0 < port < 65536:
            raise UriError("port out of range", pos + len(host_part) + 1)
    host = host_part.lower()
    if not host:
        raise UriError("empty host", pos)
    if not _HOST_RE.match(host):
        raise UriError(f"invalid host {host!r}", pos)
    if port == DEFAULT_PORTS.get(scheme):
        port = None
    pos = authority_match.end()

    rest = uri[pos:].partition("#")[0]
    path, _, query_str = rest.partition("?")

    path = path.replace(" ", "%20")
    if not path:
        path = "/"
    if not path.startswith("/"):
        raise UriError("path must start with '/'", pos)
    path = _remove_dot_segments(path)

    pairs: list[tuple[str, str]] = []
    for chunk in query_str.split("&"):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        pairs.append((key.replace(" ", "%20"), value.replace(" ", "%20")))
    pairs.sort()

    return CanonicalUri(scheme, host, port, path, tuple(pairs))


# --- cookie parsing ---------------------------------------------------------

# RFC 6265 section 5.1.1: a cookie date is a list of tokens separated by
# any run of delimiter octets; each token may carry trailing junk after a
# non-digit.
_DATE_TOKEN_RE = re.compile(r"[^\x09\x20-\x2f\x3b-\x40\x5b-\x60\x7b-\x7e]+")
_DATE_TIME_RE = re.compile(r"(\d{1,2}):(\d{1,2}):(\d{1,2})(?:\D|$)", re.ASCII)
_DATE_DAY_RE = re.compile(r"(\d{1,2})(?:\D|$)", re.ASCII)
_DATE_YEAR_RE = re.compile(r"(\d{2,4})(?:\D|$)", re.ASCII)
_MONTHS = {name.lower(): number for number, name in enumerate(_MONTH_NAMES, start=1)}
_MAX_AGE_RE = re.compile(r"^-?\d+$")
_IPV4_RE = re.compile(r"^\d+\.\d+\.\d+\.\d+$")


def parse_cookie_date(value: str) -> datetime | None:
    """Parse a cookie date by the RFC 6265 section 5.1.1 algorithm, or None.

    Tokens are taken in order; the first that fits each of time, day of
    month, month and year (in that order of trial) supplies it. Two-digit
    years 70-99 mean 19xx and 00-69 mean 20xx. A missing part, a day outside
    1-31, a year before 1601, a time field out of range, or a day the month
    does not have rejects the date.
    """
    time = day = month = year = None
    for token in _DATE_TOKEN_RE.findall(value):
        if time is None and (match := _DATE_TIME_RE.match(token)):
            time = tuple(int(g) for g in match.groups())
        elif day is None and (match := _DATE_DAY_RE.match(token)):
            day = int(match.group(1))
        elif month is None and token[:3].lower() in _MONTHS:
            month = _MONTHS[token[:3].lower()]
        elif year is None and (match := _DATE_YEAR_RE.match(token)):
            year = int(match.group(1))
    if time is None or day is None or month is None or year is None:
        return None
    if 70 <= year <= 99:
        year += 1900
    elif year <= 69:
        year += 2000
    hour, minute, second = time
    if not 1 <= day <= 31 or year < 1601 or hour > 23 or minute > 59 or second > 59:
        return None
    try:
        return datetime(year, month, day, hour, minute, second, tzinfo=UTC)
    except ValueError:
        return None


def domain_match(host: str, domain: str) -> bool:
    """RFC 6265 §5.1.3: `host` domain-matches `domain` when the two are
    equal, or when `domain` is a suffix of `host` at a dot boundary and
    `host` is a host name, not an IP address. Both are lowercase."""
    if host == domain:
        return True
    return host.endswith("." + domain) and not _IPV4_RE.match(host)


def _default_cookie_path(request_path: str) -> str:
    # RFC 6265 default-path: directory of the request path.
    if not request_path.startswith("/") or request_path == "/":
        return "/"
    return request_path[: request_path.rindex("/")] or "/"


def parse_set_cookie(
    header_value: str, request_uri: CanonicalUri, now: datetime
) -> Cookie | None:
    """Parse one Set-Cookie value into a Cookie, or None when rejected.

    Rejection (empty name, missing '=' in the first segment, a Domain
    attribute the request host does not domain-match, RFC 6265 §5.3 step 6)
    is not an error: bad cookies are dropped, not raised. Domain defaults to
    the request host (host-only), path to the request path's directory. Max-Age
    takes precedence over Expires; already-elapsed expirations are clamped
    to `now` so expiry never precedes creation. HttpOnly, SameSite and any
    unknown attribute are accepted and ignored.
    """
    now = ensure_utc(now)
    segments = header_value.split(";")
    name, eq, value = segments[0].partition("=")
    if not eq:
        return None
    name = name.strip()
    value = value.strip()
    if not name:
        return None

    domain = request_uri.host
    host_only = True
    path: str | None = None
    expires: datetime | None = None
    max_age: int | None = None
    secure = False

    for segment in segments[1:]:
        attr, _, attr_value = segment.partition("=")
        attr = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr == "domain" and attr_value:
            candidate = attr_value.lstrip(".").lower()
            if candidate:
                domain = candidate
                host_only = False
        elif attr == "path" and attr_value.startswith("/"):
            path = attr_value
        elif attr == "expires":
            parsed = parse_cookie_date(attr_value)
            if parsed is not None:
                expires = parsed
        elif attr == "max-age" and _MAX_AGE_RE.match(attr_value):
            max_age = int(attr_value)
        elif attr == "secure":
            secure = True

    if not host_only and not domain_match(request_uri.host, domain):
        return None

    if max_age is not None:
        expires_at = now + timedelta(seconds=max_age)
    else:
        expires_at = expires
    if expires_at is not None and expires_at < now:
        expires_at = now

    return Cookie(
        name=name,
        value=value,
        domain=domain,
        host_only=host_only,
        path=path if path is not None else _default_cookie_path(request_uri.path),
        expires_at=expires_at,
        created_at=now,
        secure=secure,
    )


def parse_cookie_header(header_value: str) -> list[tuple[str, str]]:
    """Split a Cookie request header into (name, value) pairs, arrival order."""
    pairs: list[tuple[str, str]] = []
    for segment in header_value.split(";"):
        name, eq, value = segment.partition("=")
        if not eq:
            continue
        name = name.strip()
        if name:
            pairs.append((name, value.strip()))
    return pairs


def format_cookie_header(pairs: Iterable[tuple[str, str]]) -> str:
    """Serialize (name, value) pairs into a Cookie header value."""
    return "; ".join(f"{name}={value}" for name, value in pairs)


# --- Vary -------------------------------------------------------------------


@dataclass(frozen=True)
class VarySpec:
    """Parsed Vary dimensions: named fields, everything (`*`), or nothing."""

    fields: tuple[str, ...] = ()
    is_all: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.is_all and not self.fields


def vary_spec(headers: Headers) -> VarySpec:
    """Merge all Vary headers in `headers` into one VarySpec.

    Comma-separated lists and repeated headers are merged, deduplicated,
    lowercased, order-preserving. A `*` anywhere dominates. Garbage tokens
    are kept verbatim after trimming; there is nothing to reject.
    """
    fields: list[str] = []
    is_all = False
    for raw in headers.get_all("vary"):
        for token in raw.split(","):
            token = token.strip().lower()
            if not token:
                continue
            if token == "*":
                is_all = True
            elif token not in fields:
                fields.append(token)
    if is_all:
        return VarySpec((), True)
    return VarySpec(tuple(fields), False)


# --- Accept-Language --------------------------------------------------------

_LANG_TAG_RE = re.compile(r"^(\*|[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)$")


def parse_accept_language(header_value: str) -> list[tuple[str, float]]:
    """Parse Accept-Language into (tag, q) pairs, q descending, ties in arrival order.

    Missing q defaults to 1.0; entries with malformed tags or q values are
    skipped. Tags are lowercased.
    """
    entries: list[tuple[str, float]] = []
    for part in header_value.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(";")
        tag = pieces[0].strip()
        if not _LANG_TAG_RE.match(tag):
            continue
        q = 1.0
        valid = True
        for param in pieces[1:]:
            key, _, value = param.partition("=")
            if key.strip().lower() != "q":
                continue
            try:
                q = float(value.strip())
            except ValueError:
                valid = False
                break
            if not 0.0 <= q <= 1.0:
                valid = False
                break
        if valid:
            entries.append((tag.lower(), q))
    entries.sort(key=lambda item: -item[1])
    return entries


# --- listener ---------------------------------------------------------------

# http.server's limits: a field line of at most 64 KiB (`handle_one_request`
# holds the request line to the same), and at most 100 lines of fields, the
# blank line that ends them counted.
_MAX_LINE = 65536
_MAX_FIELD_LINES = 100
# RFC 2145 §3.1: two decimal integers, leading zeros ignored; http.server
# also refuses a number of more than 10 digits.
_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
# RFC 9112 §5.1: a field name is a token, with no whitespace before the
# colon. Any visible ASCII but ':' is accepted, as http.server's parser
# accepted it.
_FIELD_NAME_RE = re.compile(r"[!-9;-~]+")


def _parse_request(self: BaseHTTPRequestHandler) -> bool:
    """`BaseHTTPRequestHandler.parse_request` without the `email` package.

    The request line is checked by http.server's rules, with its statuses
    and limits. The field lines are read to the blank line into one
    `Headers`, kept as `self.headers`. A field line with no colon, with
    whitespace or nothing before its colon, or that starts with whitespace
    (an obsolete line fold) is answered 400, as RFC 9112 §5.1-§5.2 allows;
    `email` dropped it and every field after it. Leading and trailing
    whitespace of a value is not part of it.
    """
    self.command = None  # set in case of error on the first line
    self.request_version = self.default_request_version
    self.close_connection = True
    requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
    self.requestline = requestline
    words = requestline.split()
    if not words:
        return False
    if len(words) >= 3:  # enough to determine the protocol version
        version = words[-1]
        number = _VERSION_RE.fullmatch(version)
        if number is None:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
            return False
        major, minor = int(number[1]), int(number[2])
        if (major, minor) >= (1, 1) and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if major >= 2:
            self.send_error(
                HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({version[5:]})"
            )
            return False
        self.request_version = version
    if not 2 <= len(words) <= 3:
        self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
        return False
    command, path = words[:2]
    if len(words) == 2:
        self.close_connection = True
        if command != "GET":
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
            return False
    self.command = command
    # a path starting "//" reads as a scheme-relative URI to clients, an open
    # redirect (gh-87389), so it is reduced to a single "/"
    self.path = "/" + path.lstrip("/") if path.startswith("//") else path

    # Every line is read before any is judged, so an error leaves no unread
    # request bytes behind.
    lines = []
    while True:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Line too long",
                f"got more than {_MAX_LINE} bytes when reading header line",
            )
            return False
        if len(lines) == _MAX_FIELD_LINES:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Too many headers",
                f"got more than {_MAX_FIELD_LINES} headers",
            )
            return False
        if line in (b"\r\n", b"\n", b""):
            break
        lines.append(line)
    fields = []
    for line in lines:
        name, colon, value = str(line, "iso-8859-1").rstrip("\r\n").partition(":")
        if not colon or not _FIELD_NAME_RE.fullmatch(name):
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad header field line", repr(line))
            return False
        fields.append((name, value.strip(" \t")))
    self.headers = Headers(fields)

    connection = self.headers.get("connection", "").lower()
    if connection == "close":
        self.close_connection = True
    elif connection == "keep-alive" and self.protocol_version >= "HTTP/1.1":
        self.close_connection = False
    # `Expect: 100-continue` is not answered: it never applies to an
    # HTTP/1.0 listener. A listener that speaks HTTP/1.1 must restore it.
    return True


# Threads per listener, and how long a connection may keep one waiting for
# request bytes before the server drops it.
_WORKERS = 16
_READ_TIMEOUT_S = 30


def _date_time_string(self, timestamp: float | None = None) -> str:
    return _http_date_of_second(int(time.time() if timestamp is None else timestamp))


@lru_cache(maxsize=1)
def _http_date_of_second(second: int) -> str:
    return format_http_date(datetime.fromtimestamp(second, UTC))


class HttpError(Exception):
    """Raised by a listener's `respond` as `HttpError(status)` or
    `HttpError(status, message)`, to answer `send_error` with those args."""


class _Handler(BaseHTTPRequestHandler):
    """The one handler of both listeners. `make_listener` subclasses it once
    per listener, with that listener's `respond` as a static method."""

    headers: Headers  # set by `parse_request`
    respond: Callable[[str, Headers], HttpResponse]
    timeout = _READ_TIMEOUT_S
    parse_request = _parse_request
    date_time_string = _date_time_string

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        """Write what `respond` returns: the status line, its fields in
        order, Content-Length, then the body; or the error page of the
        `HttpError` it raises."""
        try:
            response = self.respond(self.path, self.headers)
        except HttpError as exc:
            self.send_error(*exc.args)
            return
        self.send_response(response.status)
        for name, value in response.headers:
            self.send_header(name, value)
        self.send_header("content-length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    def log_message(self, fmt: str, *args) -> None:
        pass


class Listener(HTTPServer):
    """An HTTP listener whose `_WORKERS` threads each accept connections and
    serve them on their own stack.

    `serve_forever` starts the threads. Each blocks in `accept()` on the
    listening socket, and Linux wakes one waiter per connection, so nothing
    is handed from one thread to another. A connection holds its thread
    until it closes or a read waits longer than the handler's `timeout`:
    under HTTP/1.1, a persistent connection would hold one thread for its
    whole life.

    `shutdown()` shuts the listening socket, which on Linux wakes every
    thread blocked in `accept()`, and returns once none is left there. It
    does not wait for a thread that is serving: that thread finishes its
    connection and then exits. The threads are daemons, and a listener that
    was shut down does not serve again.
    """

    # socketserver's backlog of 5 dropped the SYNs of a burst of connections
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address: tuple[str, int], handler: type[BaseHTTPRequestHandler]):
        super().__init__(address, handler)
        self._state = threading.Condition()
        self._stopping = False
        self._accepting = 0  # threads in accept(), or about to enter it

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until `shutdown()`, or shut down when an exception (such as
        Ctrl-C) ends the wait. Nothing polls: `poll_interval` is kept for
        `socketserver.BaseServer`'s signature."""
        for _ in range(_WORKERS):
            threading.Thread(target=self._work, daemon=True).start()
        try:
            with self._state:
                self._state.wait_for(lambda: self._stopping)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        with self._state:
            self._stopping = True
            self._state.notify_all()
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # the socket is closed already
            pass
        with self._state:
            self._state.wait_for(lambda: not self._accepting)

    def _work(self) -> None:
        while True:
            with self._state:
                if self._stopping:
                    return
                self._accepting += 1
            try:
                request, client_address = self.get_request()
            except OSError:  # shut down, or a connection aborted before accept
                request = None
            with self._state:
                self._accepting -= 1
                if self._stopping:
                    self._state.notify_all()
            if request is None:
                continue
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)


def make_listener(
    respond: Callable[[str, Headers], HttpResponse], port: int, name: str
) -> Listener:
    """Build (but do not start) a listener on 127.0.0.1:port.

    Port 0 picks a free port. `respond(path, headers)` answers each GET
    with the `HttpResponse` to send, or raises `HttpError`. Each listener
    gets its own subclass of `_Handler`, named `name`, so that one
    listener's `timeout` or `do_GET` can be changed alone. `serve_forever`
    serves connections on `_WORKERS` threads; see `Listener`.
    """
    handler = type(name, (_Handler,), {"respond": staticmethod(respond)})
    return Listener(("127.0.0.1", port), handler)

