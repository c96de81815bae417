"""http_core.make_listener's listeners, over a real socket.

The request parser: each row is sent as raw bytes to the origin and replay
listeners, and every row but the field-line errors also to a handler on
`http.server`'s own parser, so the rows pin the limits and statuses the
parser keeps from it. Each request is built so that the listener reads all
of it before it answers and closes.

The wire format: each response of the origin and replay listeners, as
bytes, with only the `Server` and `Date` values masked.

The thread pool: silent connections hold threads only until they time out,
and `shutdown()` does not wait for a connection that is mid-request.
"""

from __future__ import annotations

import html
import re
import socket
import threading
import time
from datetime import timedelta
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from archivelab import http_core
from archivelab.http_core import HttpRequest
from archivelab.origin import SiteConfig, handle, make_origin_server
from archivelab.replay import ReplayMode, make_replay_server
from archivelab.store import ArchiveStore
from conftest import START, make_record

URI = "https://a.example/"


class _StdlibHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        self.send_response(200)
        self.send_header("content-length", "2")
        self.end_headers()
        self.wfile.write(b"ok")

    def log_message(self, fmt: str, *args) -> None:
        pass


def _serving(server):
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server


def _build(kind, directory):
    """(a listener, not yet serving, a path it answers 200, its store or None)."""
    if kind == "origin":
        return make_origin_server(SiteConfig(), 0), "/", None
    if kind == "replay":
        store = ArchiveStore.create(directory / "arch")
        store.append(make_record(URI, START, lang="kn", request_cookie="lang=kn"))
        server = make_replay_server(store, ReplayMode.variant_aware(), 0)
        return server, f"/web/{START:%Y%m%d%H%M%S}/{URI}", store
    return ThreadingHTTPServer(("127.0.0.1", 0), _StdlibHandler), "/", None


@pytest.fixture(scope="module", params=["origin", "replay", "stdlib"])
def listener(request, tmp_path_factory):
    """(kind, port, a path the listener answers 200)."""
    kind = request.param
    server, path, store = _build(kind, tmp_path_factory.mktemp("listener"))
    _serving(server)
    try:
        yield kind, server.server_address[1], path
    finally:
        server.shutdown()
        server.server_close()
        if store is not None:
            store.close()


@pytest.fixture(params=["origin", "replay"])
def own_listener(request, tmp_path):
    """(a listener of this test's own, not yet serving, a path it answers 200)."""
    server, path, store = _build(request.param, tmp_path)
    try:
        yield server, path.encode("ascii")
    finally:
        _shut_down(server, within=5)
        server.server_close()
        if store is not None:
            store.close()


def _shut_down(server, within: float) -> None:
    """`server.shutdown()`, failing instead of hanging when it has not
    returned within `within` seconds."""
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    stopper.join(within)
    assert not stopper.is_alive(), f"shutdown() has not returned after {within} s"


def _exchange(port: int, request: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _answer(raw: bytes) -> tuple[int, bool]:
    """(status, whether a status line was sent). A response without a status
    line is an HTTP/0.9 one: an error page, or else the content served."""
    if raw.startswith(b"HTTP/"):
        return int(raw[9:12]), True
    error = re.search(rb"Error code: (\d+)", raw)
    return (int(error.group(1)) if error else 200), False


def _fields(count: int) -> bytes:
    return b"".join(b"X-F%d: v\r\n" % k for k in range(count))


def _pad(line_bytes: int) -> bytes:
    """One field line of exactly `line_bytes` bytes, CRLF included."""
    return b"X-Pad: " + b"a" * (line_bytes - len(b"X-Pad: \r\n")) + b"\r\n"


# (name, request built from the served path, status, status line sent)
ROWS = [
    ("request line of 65,537 bytes", lambda p: b"GET /" + b"a" * 65532, 414, True),
    ("field line of 65,537 bytes",
     lambda p: b"GET %s HTTP/1.0\r\n%s" % (p, _pad(65537)), 431, True),
    ("field line of 65,536 bytes",
     lambda p: b"GET %s HTTP/1.0\r\n%s\r\n" % (p, _pad(65536)), 200, True),
    ("100 fields", lambda p: b"GET %s HTTP/1.0\r\n%s\r\n" % (p, _fields(100)), 431, True),
    ("99 fields", lambda p: b"GET %s HTTP/1.0\r\n%s\r\n" % (p, _fields(99)), 200, True),
    ("bad version", lambda p: b"GET %s HTTP/1.x\r\n" % p, 400, False),
    ("non-ASCII digit in version", lambda p: b"GET %s HTTP/1.\xb2\r\n" % p, 400, False),
    ("four words, version last", lambda p: b"GET %s x HTTP/1.0\r\n" % p, 400, True),
    ("four words, word last", lambda p: b"GET %s HTTP/1.0 x\r\n" % p, 400, False),
    ("HTTP/2.0", lambda p: b"GET %s HTTP/2.0\r\n" % p, 505, False),
    ("HTTP/0.9 GET", lambda p: b"GET %s\r\n\r\n" % p, 200, False),
    ("HTTP/0.9 POST", lambda p: b"POST %s\r\n" % p, 400, False),
    ("HEAD", lambda p: b"HEAD %s HTTP/1.0\r\n\r\n" % p, 501, True),
    ("bare LF line ends", lambda p: b"GET %s HTTP/1.0\nX-A: b\n\n" % p, 200, True),
    ("leading // collapsed", lambda p: b"GET /%s HTTP/1.0\r\n\r\n" % p, 200, True),
]
# RFC 9112 §5.1-§5.2 field-line errors: http.server's parser answered these
# 200 and dropped the bad line and every field after it
NEW_ROWS = [
    ("space before colon",
     lambda p: b"GET %s HTTP/1.0\r\nHost : x\r\nCookie: lang=kn\r\n\r\n" % p, 400, True),
    ("no colon", lambda p: b"GET %s HTTP/1.0\r\nX-A b\r\nCookie: lang=kn\r\n\r\n" % p, 400, True),
    ("obs-fold", lambda p: b"GET %s HTTP/1.0\r\nX-A: b\r\n c\r\n\r\n" % p, 400, True),
    ("empty field name", lambda p: b"GET %s HTTP/1.0\r\n: b\r\n\r\n" % p, 400, True),
]


@pytest.mark.parametrize(
    "build, status, status_line, new",
    [(*row[1:], False) for row in ROWS] + [(*row[1:], True) for row in NEW_ROWS],
    ids=[row[0] for row in ROWS + NEW_ROWS],
)
def test_request_parsing_table(listener, build, status, status_line, new):
    kind, port, path = listener
    if kind == "stdlib" and new:
        pytest.skip("http.server's parser answers 200 here")
    raw = _exchange(port, build(path.encode("ascii")))
    assert _answer(raw) == (status, status_line), raw[:200]


def test_http09_get_is_the_body_alone(listener):
    _, port, path = listener
    full = _exchange(port, b"GET %s HTTP/1.0\r\n\r\n" % path.encode("ascii"))
    assert full.startswith(b"HTTP/1.0 200 ")
    assert _exchange(port, b"GET %s\r\n\r\n" % path.encode("ascii")) == full.partition(
        b"\r\n\r\n"
    )[2]


def test_field_values_reach_the_handler(tmp_path):
    """Names are case-blind, values lose surrounding whitespace, and repeated
    fields all arrive: a variant-aware listener selects by the cookie."""
    with ArchiveStore.create(tmp_path / "arch") as store:
        store.append(make_record(URI, START, lang="kn", request_cookie="lang=kn"))
        store.append(make_record(URI, START, lang="en", request_cookie="lang=en"))
        server = _serving(make_replay_server(store, ReplayMode.variant_aware(), 0))
        try:
            port = server.server_address[1]
            request = f"GET /web/{START:%Y%m%d%H%M%S}/{URI} HTTP/1.0\r\n".encode()
            for cookie, lang in [
                (b"COOKIE: \t lang=kn \t\r\n", b"kn"),
                (b"Cookie: x=1\r\ncookie: lang=en\r\n", b"en"),
            ]:
                raw = _exchange(port, request + cookie + b"\r\n")
                assert _answer(raw) == (200, True)
                assert b"\r\ncontent-language: " + lang + b"\r\n" in raw.lower()
                assert b"x-archive-fallback" not in raw.lower()
        finally:
            server.shutdown()
            server.server_close()


MASKED = b"*"
TS = START.strftime("%Y%m%d%H%M%S").encode()
KN_BODY = b'<html lang="kn"><body>x</body></html>'


def _error(status: int, message: str) -> tuple[bytes, list, bytes]:
    """(status line, fields, body) of `send_error(status, message)`."""
    body = (
        BaseHTTPRequestHandler.error_message_format
        % {
            "code": status,
            "message": html.escape(message, quote=False),
            "explain": html.escape(BaseHTTPRequestHandler.responses[status][1], quote=False),
        }
    ).encode("utf-8")
    return b"HTTP/1.0 %d %s" % (status, message.encode()), [
        (b"Server", MASKED),
        (b"Date", MASKED),
        (b"Connection", b"close"),
        (b"Content-Type", b"text/html;charset=utf-8"),
        (b"Content-Length", b"%d" % len(body)),
    ], body


def _origin(path: str) -> tuple[bytes, list, bytes]:
    response = handle(HttpRequest("GET", f"https://timeline.example{path}"), SiteConfig())
    reason = {200: b"OK", 404: b"Not Found"}[response.status]
    return b"HTTP/1.0 %d %s" % (response.status, reason), [
        (b"Server", MASKED),
        (b"Date", MASKED),
        *((k.encode(), v.encode()) for k, v in response.headers),
        (b"content-length", b"%d" % len(response.body)),
    ], response.body


def _capture(status_line: bytes, first: list, when: bytes, variant: bytes, last: list,
             body: bytes) -> tuple[bytes, list, bytes]:
    return status_line, [
        (b"Server", MASKED),
        (b"Date", MASKED),
        *first,
        (b"memento-datetime", when),
        (b"x-archive-variant", variant),
        *last,
        (b"content-length", b"%d" % len(body)),
    ], body


HTML = (b"content-type", b"text/html; charset=utf-8")
# (name, listener, request, expected (status line, fields in order, body))
WIRE_ROWS = [
    ("origin 200", "origin", b"GET / HTTP/1.0\r\n\r\n", _origin("/")),
    ("origin 404", "origin", b"GET /nope HTTP/1.0\r\n\r\n", _origin("/nope")),
    # no host to build a request URI from
    ("origin empty Host", "origin", b"GET / HTTP/1.0\r\nHost:\r\n\r\n",
     _error(400, "Bad Request")),
    ("origin Host of a port alone", "origin", b"GET / HTTP/1.0\r\nHost: :8080\r\n\r\n",
     _error(400, "Bad Request")),
    ("replay baseline 200", "baseline",
     b"GET /web/%s/%s HTTP/1.0\r\nCookie: lang=en\r\n\r\n" % (TS, URI.encode()),
     _capture(b"HTTP/1.0 200 OK", [HTML, (b"content-language", b"kn")],
              b"Tue, 01 Jan 2019 11:59:50 GMT", b'[["cookie","lang=kn"]]', [], KN_BODY)),
    ("replay variant 200 fallback", "variant",
     b"GET /web/%s/%s HTTP/1.0\r\nCookie: lang=ur\r\n\r\n" % (TS, URI.encode()),
     _capture(b"HTTP/1.0 200 OK", [HTML, (b"content-language", b"kn")],
              b"Tue, 01 Jan 2019 11:59:50 GMT", b'[["cookie","lang=kn"]]',
              [(b"x-archive-fallback", b"variant-mismatch")], KN_BODY)),
    ("replay 504", "variant", b"GET /web/%s/%sfailed HTTP/1.0\r\n\r\n" % (TS, URI.encode()),
     _capture(b"HTTP/1.0 504 Gateway Timeout",
              [(b"x-archive-error", b"capture-fetch-failed"), HTML],
              b"Tue, 01 Jan 2019 12:00:00 GMT", b'[["cookie",""]]', [], b"")),
    ("replay 400", "baseline", b"GET /web/2019/%s HTTP/1.0\r\n\r\n" % URI.encode(),
     _error(400, "malformed 14-digit timestamp")),
    ("replay 404", "variant", b"GET /web/%s/https://b.example/ HTTP/1.0\r\n\r\n" % TS,
     _error(404, "no matching capture")),
    ("replay 404 endpoint", "baseline", b"GET /elsewhere HTTP/1.0\r\n\r\n",
     _error(404, "unknown endpoint; use /web/<timestamp>/<uri>")),
]


@pytest.fixture(scope="module")
def wire_ports(tmp_path_factory):
    """Ports of an origin listener and of baseline and variant-aware replay
    listeners on one archive: a kn capture 10 s before START, an en capture
    30 s after it, and a failed fetch at START."""
    store = ArchiveStore.create(tmp_path_factory.mktemp("wire") / "arch")
    store.append(make_record(URI, START - timedelta(seconds=10), lang="kn",
                             request_cookie="lang=kn"))
    store.append(make_record(URI, START + timedelta(seconds=30), lang="en",
                             request_cookie="lang=en"))
    store.append(make_record(URI + "failed", START, lang=None, status=0))
    servers = {
        "origin": make_origin_server(SiteConfig(), 0),
        "baseline": make_replay_server(store, ReplayMode.baseline(), 0),
        "variant": make_replay_server(store, ReplayMode.variant_aware(), 0),
    }
    try:
        yield {kind: _serving(server).server_address[1] for kind, server in servers.items()}
    finally:
        for server in servers.values():
            server.shutdown()
            server.server_close()
        store.close()


@pytest.mark.parametrize(
    "kind, request_bytes, expected", [row[1:] for row in WIRE_ROWS],
    ids=[row[0] for row in WIRE_ROWS],
)
def test_wire_format_table(wire_ports, kind, request_bytes, expected):
    head, _, body = _exchange(wire_ports[kind], request_bytes).partition(b"\r\n\r\n")
    status_line, *lines = head.split(b"\r\n")
    fields = [tuple(line.split(b": ", 1)) for line in lines]
    fields = [(k, MASKED if k in (b"Server", b"Date") else v) for k, v in fields]
    assert (status_line, fields, body) == expected


def _connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=5)


def _get(port: int, path: bytes) -> tuple[int, bool]:
    return _answer(_exchange(port, b"GET %s HTTP/1.0\r\n\r\n" % path))


def test_get_is_answered_while_other_connections_sit_silent(own_listener):
    server, path = own_listener
    port = _serving(server).server_address[1]
    silent = [_connect(port) for _ in range(http_core._WORKERS - 1)]
    try:
        assert _get(port, path) == (200, True)
    finally:
        for sock in silent:
            sock.close()


def test_connections_queue_before_the_listener_serves(own_listener):
    """The listen backlog holds more connections than the pool has threads,
    so a burst that arrives before they run waits for no SYN retransmit."""
    server, _ = own_listener
    port = server.server_address[1]
    opened = []
    try:
        for _ in range(2 * http_core._WORKERS):
            try:
                opened.append(socket.create_connection(("127.0.0.1", port), timeout=0.5))
            except OSError:
                break
        assert len(opened) == 2 * http_core._WORKERS
    finally:
        for sock in opened:
            sock.close()


def test_silent_connections_are_dropped_after_the_read_timeout(own_listener):
    server, path = own_listener
    handler = server.RequestHandlerClass
    assert handler.timeout == http_core._READ_TIMEOUT_S
    handler.timeout = 0.2
    port = _serving(server).server_address[1]
    silent = [_connect(port) for _ in range(http_core._WORKERS)]
    try:
        for sock in silent:
            assert sock.recv(1) == b""  # closed by the server, no answer
        assert _get(port, path) == (200, True)
    finally:
        for sock in silent:
            sock.close()


@pytest.mark.parametrize("run", range(10))
def test_shutdown_does_not_wait_for_a_connection_mid_request(own_listener, run):
    server, path = own_listener
    before = set(threading.enumerate())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    with _connect(port) as stalled:
        stalled.sendall(b"GET /we")
        # connections are accepted in arrival order, so once a later GET is
        # answered, a thread of the listener is reading `stalled`
        assert _get(port, path) == (200, True)
        _shut_down(server, within=1)
        thread.join(1)
        assert not thread.is_alive()
    deadline = time.monotonic() + 5
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) - before == set()
