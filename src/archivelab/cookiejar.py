"""Cookie storage with scope matching, expiry, and a lifetime-cap policy.

The jar enforces the crawl-time policy of capping cookie lifetime: with
`max_ttl` set, every stored cookie's effective expiry is clamped to
store-time + max_ttl regardless of what the server asked for. A jar belongs
to exactly one crawl or replay session; there is no cross-session sharing.

The Netscape cookie-file format used by `export_netscape`/`import_netscape`
is the classic 7-field tab-separated layout::

    domain <TAB> include-subdomains <TAB> path <TAB> secure <TAB> expiry <TAB> name <TAB> value

with expiry in epoch seconds and 0 meaning a session cookie.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

from .http_core import CanonicalUri, Cookie, domain_match, ensure_utc

__all__ = ["JarPolicy", "CookieJar", "import_netscape", "NETSCAPE_HEADER"]

logger = logging.getLogger(__name__)

NETSCAPE_HEADER = "# Netscape HTTP Cookie File"

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class JarPolicy:
    """Jar behavior knobs.

    max_ttl caps every cookie's lifetime (None = no cap). session_scoped
    jars drop their contents at end_session(); non-session jars may be
    persisted to a cookie file between sessions.
    """

    max_ttl: timedelta | None = None
    session_scoped: bool = True

    def __post_init__(self) -> None:
        if self.max_ttl is not None and self.max_ttl < timedelta(0):
            raise ValueError("max_ttl must be >= 0")


def _domain_match(cookie: Cookie, host: str) -> bool:
    if cookie.host_only:
        return host == cookie.domain
    return domain_match(host, cookie.domain)


def _path_match(cookie_path: str, request_path: str) -> bool:
    if request_path == cookie_path:
        return True
    if request_path.startswith(cookie_path):
        return cookie_path.endswith("/") or request_path[len(cookie_path)] == "/"
    return False


class CookieJar:
    """Single-session cookie store keyed by (name, domain, path)."""

    def __init__(self, policy: JarPolicy | None = None):
        self.policy = policy if policy is not None else JarPolicy()
        self._entries: dict[tuple[str, str, str], Cookie] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[Cookie]:
        """All stored cookies in insertion order."""
        return list(self._entries.values())

    def store(self, cookie: Cookie, now: datetime) -> None:
        """Store one cookie, applying the max_ttl cap.

        Effective expiry is min(cookie's own expiry, now + max_ttl). Storing
        a cookie that is already expired deletes the (name, domain, path)
        key; a same-key cookie overwrites the previous value but keeps the
        original creation time, as real jars do.
        """
        now = ensure_utc(now)
        key = (cookie.name, cookie.domain, cookie.path)
        expires_at = cookie.expires_at
        if self.policy.max_ttl is not None:
            cap = now + self.policy.max_ttl
            expires_at = cap if expires_at is None else min(expires_at, cap)
        if expires_at is not None and expires_at <= now:
            self._entries.pop(key, None)
            return
        previous = self._entries.get(key)
        created_at = previous.created_at if previous is not None else cookie.created_at
        self._entries[key] = replace(cookie, expires_at=expires_at, created_at=created_at)

    def cookies_for(self, uri: CanonicalUri, now: datetime) -> list[tuple[str, str]]:
        """Unexpired cookies scoped to `uri`, longest path first, then oldest,
        then first stored (the sort is stable over insertion order).

        At most one entry per name is returned (the most specific match
        wins), so the resulting Cookie header never repeats a name. A
        secure-only cookie goes to https URIs only (RFC 6265 §5.4 step 1).
        """
        now = ensure_utc(now)
        secure = uri.scheme == "https"
        matching = [
            cookie
            for cookie in self._entries.values()
            if not cookie.expired(now)
            and (secure or not cookie.secure)
            and _domain_match(cookie, uri.host)
            and _path_match(cookie.path, uri.path)
        ]
        matching.sort(key=lambda c: (-len(c.path), c.created_at))
        pairs: list[tuple[str, str]] = []
        seen_names: set[str] = set()
        for cookie in matching:
            if cookie.name in seen_names:
                continue
            seen_names.add(cookie.name)
            pairs.append((cookie.name, cookie.value))
        return pairs

    def prune(self, now: datetime) -> None:
        """Drop every entry whose effective expiry is <= now. Idempotent."""
        now = ensure_utc(now)
        for key in [k for k, c in self._entries.items() if c.expired(now)]:
            del self._entries[key]

    def end_session(self) -> None:
        """Discard all cookies if the policy is session-scoped."""
        if self.policy.session_scoped:
            self._entries.clear()

    def export_netscape(self) -> str:
        """Serialize the jar as a Netscape cookie file (header always present)."""
        lines = [NETSCAPE_HEADER]
        for cookie in self._entries.values():
            expiry = (
                0 if cookie.expires_at is None else int(cookie.expires_at.timestamp())
            )
            lines.append(
                "\t".join(
                    (
                        cookie.domain,
                        "FALSE" if cookie.host_only else "TRUE",
                        cookie.path,
                        "TRUE" if cookie.secure else "FALSE",
                        str(expiry),
                        cookie.name,
                        cookie.value,
                    )
                )
            )
        return "\n".join(lines) + "\n"


def _parse_netscape_line(line: str) -> Cookie | None:
    fields = line.split("\t")
    if len(fields) != 7:
        return None
    domain, subdomains, path, secure, expiry_str, name, value = fields
    if not domain or not name or not path.startswith("/"):
        return None
    if subdomains.upper() not in ("TRUE", "FALSE") or secure.upper() not in (
        "TRUE",
        "FALSE",
    ):
        return None
    try:
        expiry = int(expiry_str)
    except ValueError:
        return None
    if expiry < 0:
        return None
    return Cookie(
        name=name,
        value=value,
        domain=domain.lstrip(".").lower(),
        host_only=subdomains.upper() == "FALSE",
        path=path,
        expires_at=None if expiry == 0 else datetime.fromtimestamp(expiry, timezone.utc),
        created_at=_EPOCH,
        secure=secure.upper() == "TRUE",
    )


def import_netscape(text: str, policy: JarPolicy | None = None) -> CookieJar:
    """Load a Netscape cookie file into a fresh jar.

    Malformed rows are skipped with a warning naming the line number.
    Imported cookies keep file order for tie-breaking; expiry 0 becomes a
    session cookie. The jar policy's max_ttl is NOT applied to imported
    rows (their expiry is already absolute).
    """
    jar = CookieJar(policy)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip("\r")
        if not stripped.strip() or stripped.lstrip().startswith("#"):
            continue
        cookie = _parse_netscape_line(stripped)
        if cookie is None:
            logger.warning("cookie file line %d malformed, skipped: %r", lineno, line)
            continue
        jar._entries[(cookie.name, cookie.domain, cookie.path)] = cookie
    return jar
