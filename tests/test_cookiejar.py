"""cookiejar: scope matching, TTL capping, pruning, Netscape files."""

from __future__ import annotations

import logging
import random
from datetime import datetime, timedelta, timezone

from archivelab.cookiejar import CookieJar, JarPolicy, import_netscape
from archivelab.http_core import Cookie, canonicalize, parse_set_cookie

UTC = timezone.utc
NOW = datetime(2019, 6, 1, tzinfo=UTC)
TWITTER_ROOT = canonicalize("https://twitter.com/")
TWITTER_LANG_AR = canonicalize("https://twitter.com/?lang=ar")

STICKY_LANG_LINE = "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tar"


def _cookie(
    name="lang",
    value="ar",
    domain="twitter.com",
    host_only=True,
    path="/",
    expires_at=None,
    created_at=NOW,
    secure=False,
):
    return Cookie(name, value, domain, host_only, path, expires_at, created_at, secure)


class TestStore:
    def test_session_cookie_persists_without_cap(self):
        jar = CookieJar(JarPolicy(max_ttl=None))
        jar.store(_cookie(), NOW)
        much_later = NOW + timedelta(days=365)
        assert jar.cookies_for(TWITTER_ROOT, much_later) == [("lang", "ar")]

    def test_zero_cap_drops_immediately(self):
        jar = CookieJar(JarPolicy(max_ttl=timedelta(0)))
        jar.store(_cookie(), NOW)
        assert len(jar) == 0

    def test_same_scope_overwrites_to_single_entry(self):
        jar = CookieJar()
        jar.store(_cookie(value="fr"), NOW)
        jar.store(_cookie(value="kn"), NOW + timedelta(seconds=1))
        assert len(jar) == 1
        assert jar.cookies_for(TWITTER_ROOT, NOW + timedelta(seconds=2)) == [("lang", "kn")]

    def test_cap_clamps_but_never_extends_expiry(self):
        jar = CookieJar(JarPolicy(max_ttl=timedelta(seconds=300)))
        jar.store(_cookie(expires_at=NOW + timedelta(seconds=30)), NOW)
        (entry,) = jar.entries()
        assert entry.expires_at == NOW + timedelta(seconds=30)
        jar.store(_cookie(name="other", expires_at=NOW + timedelta(days=9)), NOW)
        other = [c for c in jar.entries() if c.name == "other"][0]
        assert other.expires_at == NOW + timedelta(seconds=300)

    def test_storing_expired_cookie_deletes_key(self):
        jar = CookieJar()
        jar.store(_cookie(), NOW)
        jar.store(_cookie(expires_at=NOW), NOW)  # deletion idiom: expiry <= now
        assert len(jar) == 0

    def test_overwrite_count_property(self):
        rng = random.Random(5)
        jar = CookieJar()
        for i in range(50):
            jar.store(_cookie(value=f"v{rng.randrange(9)}"), NOW + timedelta(seconds=i))
        assert len(jar) == 1


class TestCookiesFor:
    def test_sticky_lang_jar_match(self):
        jar = CookieJar()
        jar.store(parse_set_cookie("lang=ar; Path=/", TWITTER_LANG_AR, NOW), NOW)
        assert jar.cookies_for(TWITTER_ROOT, NOW) == [("lang", "ar")]

    def test_domain_mismatch(self):
        jar = CookieJar()
        jar.store(_cookie(), NOW)
        assert jar.cookies_for(canonicalize("https://example.com/"), NOW) == []

    def test_expired_entry_excluded(self):
        jar = CookieJar()
        expiry = NOW + timedelta(seconds=10)
        jar.store(_cookie(expires_at=expiry), NOW)
        assert jar.cookies_for(TWITTER_ROOT, expiry - timedelta(seconds=1)) != []
        assert jar.cookies_for(TWITTER_ROOT, expiry + timedelta(seconds=1)) == []

    def test_host_only_vs_subdomain(self):
        jar = CookieJar()
        jar.store(_cookie(name="strict", host_only=True), NOW)
        jar.store(_cookie(name="loose", host_only=False), NOW)
        sub = canonicalize("https://mobile.twitter.com/")
        assert jar.cookies_for(sub, NOW) == [("loose", "ar")]
        assert dict(jar.cookies_for(TWITTER_ROOT, NOW)) == {"strict": "ar", "loose": "ar"}

    def test_path_prefix_matching(self):
        jar = CookieJar()
        jar.store(_cookie(name="deep", path="/a/b"), NOW)
        jar.store(_cookie(name="shallow", path="/a"), NOW)
        assert jar.cookies_for(canonicalize("https://twitter.com/a/b/c"), NOW) == [
            ("deep", "ar"),
            ("shallow", "ar"),
        ]
        assert jar.cookies_for(canonicalize("https://twitter.com/ab"), NOW) == []

    def test_longest_path_wins_per_name(self):
        jar = CookieJar()
        jar.store(_cookie(path="/", value="root"), NOW)
        jar.store(_cookie(path="/a", value="specific"), NOW + timedelta(seconds=1))
        pairs = jar.cookies_for(canonicalize("https://twitter.com/a/x"), NOW)
        assert pairs == [("lang", "specific")]  # one entry per name

    def test_secure_cookie_goes_to_https_only(self):
        jar = CookieJar()
        jar.store(_cookie(secure=True), NOW)
        assert jar.cookies_for(TWITTER_ROOT, NOW) == [("lang", "ar")]
        assert jar.cookies_for(canonicalize("http://twitter.com/"), NOW) == []

    def test_ttl_cap_invariant(self):
        # with max_ttl = d, nothing is ever emitted more than d after its store time
        rng = random.Random(11)
        cap = timedelta(seconds=60)
        jar = CookieJar(JarPolicy(max_ttl=cap))
        for i in range(40):
            expiry = None if rng.random() < 0.5 else NOW + timedelta(seconds=rng.randrange(0, 90000))
            jar.store(_cookie(name=f"c{i}", expires_at=expiry), NOW)
        assert jar.cookies_for(TWITTER_ROOT, NOW + cap + timedelta(seconds=1)) == []


class TestPrune:
    def test_all_expired_leaves_empty_jar(self):
        jar = CookieJar()
        for i in range(3):
            jar.store(_cookie(name=f"c{i}", expires_at=NOW + timedelta(seconds=5)), NOW)
        jar.prune(NOW + timedelta(seconds=5))
        assert len(jar) == 0

    def _random_jar(self, rng: random.Random) -> CookieJar:
        jar = CookieJar()
        for i in range(rng.randrange(0, 12)):
            expiry = (
                None
                if rng.random() < 0.3
                else NOW + timedelta(seconds=rng.randrange(0, 120))
            )
            jar.store(
                _cookie(
                    name=f"n{rng.randrange(6)}",
                    domain=rng.choice(["twitter.com", "example.com"]),
                    path=rng.choice(["/", "/a", "/a/b"]),
                    expires_at=expiry,
                ),
                NOW,
            )
        return jar

    def test_prune_is_idempotent(self):
        rng = random.Random(500)
        for _ in range(500):
            jar = self._random_jar(rng)
            when = NOW + timedelta(seconds=rng.randrange(0, 130))
            jar.prune(when)
            once = sorted((c.name, c.domain, c.path) for c in jar.entries())
            jar.prune(when)
            assert sorted((c.name, c.domain, c.path) for c in jar.entries()) == once

    def test_prune_equals_linear_scan_oracle(self):
        rng = random.Random(501)
        for _ in range(200):
            jar = self._random_jar(rng)
            when = NOW + timedelta(seconds=rng.randrange(0, 130))
            expected = sorted(
                (c.name, c.domain, c.path)
                for c in jar.entries()
                if not (c.expires_at is not None and c.expires_at <= when)
            )
            jar.prune(when)
            assert sorted((c.name, c.domain, c.path) for c in jar.entries()) == expected


class TestNetscapeFormat:
    def test_sticky_lang_session_cookie_line(self):
        jar = CookieJar()
        jar.store(parse_set_cookie("lang=ar; Path=/", TWITTER_LANG_AR, NOW), NOW)
        exported = jar.export_netscape()
        assert exported.splitlines()[1] == STICKY_LANG_LINE

    def test_known_line_round_trips_byte_exactly(self):
        jar = import_netscape("# Netscape HTTP Cookie File\n" + STICKY_LANG_LINE + "\n")
        assert jar.export_netscape().splitlines()[1:] == [STICKY_LANG_LINE]

    def test_empty_jar_exports_header_only(self):
        assert CookieJar().export_netscape() == "# Netscape HTTP Cookie File\n"

    def test_duplicated_row_keeps_last_value_at_first_position(self):
        text = (
            "# Netscape HTTP Cookie File\n"
            "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tar\n"
            "twitter.com\tFALSE\t/\tFALSE\t0\ttheme\tdark\n"
            "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tkn\n"
        )
        jar = import_netscape(text)
        assert jar.export_netscape().splitlines()[1:] == [
            "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tkn",
            "twitter.com\tFALSE\t/\tFALSE\t0\ttheme\tdark",
        ]
        assert jar.cookies_for(TWITTER_ROOT, NOW) == [("lang", "kn"), ("theme", "dark")]

    def test_malformed_rows_skipped_with_line_numbers(self, caplog):
        text = (
            "# header\n"
            "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tar\n"
            "short\tline\n"
            "twitter.com\tMAYBE\t/\tFALSE\t0\tx\ty\n"
            "twitter.com\tFALSE\tnopath\tFALSE\t0\tx\ty\n"
            "twitter.com\tFALSE\t/\tFALSE\tnever\tx\ty\n"
        )
        with caplog.at_level(logging.WARNING):
            jar = import_netscape(text)
        assert len(jar) == 1
        flagged = sorted(
            int(rec.args[0]) for rec in caplog.records if "malformed" in rec.message
        )
        assert flagged == [3, 4, 5, 6]

    def _random_jar(self, rng: random.Random) -> CookieJar:
        jar = CookieJar()
        letters = "abcdefghijklmnopqrstuvwxyz0123456789"
        for _ in range(rng.randrange(0, 8)):
            expiry = (
                None
                if rng.random() < 0.4
                else datetime.fromtimestamp(rng.randrange(1_700_000_000, 2_500_000_000), UTC)
            )
            jar.store(
                _cookie(
                    name="".join(rng.choice(letters) for _ in range(rng.randrange(1, 8))),
                    value="".join(rng.choice(letters) for _ in range(rng.randrange(0, 8))),
                    domain=rng.choice(["twitter.com", "example.com", "archive.example"]),
                    host_only=rng.random() < 0.5,
                    path=rng.choice(["/", "/a", "/a/b"]),
                    expires_at=expiry,
                    secure=rng.random() < 0.2,
                ),
                NOW,
            )
        return jar

    def test_import_export_identity_on_random_jars(self):
        rng = random.Random(777)
        for _ in range(200):
            jar = self._random_jar(rng)
            exported = jar.export_netscape()
            reimported = import_netscape(exported)
            assert reimported.export_netscape() == exported
            original = {
                (c.name, c.domain, c.path): (c.host_only, c.secure, c.value, c.expires_at)
                for c in jar.entries()
            }
            loaded = {
                (c.name, c.domain, c.path): (c.host_only, c.secure, c.value, c.expires_at)
                for c in reimported.entries()
            }
            assert loaded == original


def test_session_scoped_jar_clears_on_end():
    jar = CookieJar(JarPolicy(session_scoped=True))
    jar.store(_cookie(), NOW)
    jar.end_session()
    assert len(jar) == 0
    keeper = CookieJar(JarPolicy(session_scoped=False))
    keeper.store(_cookie(), NOW)
    keeper.end_session()
    assert len(keeper) == 1
