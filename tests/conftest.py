"""Shared fixtures: the simulated site, a deterministic clock, fresh
archives under the case's temporary directory, builders for the scripted
capture schedule used by the replay and analyzer tests, and the
brute-force selection oracle."""

from __future__ import annotations

import itertools
from datetime import datetime, timezone
from pathlib import Path

import pytest

from archivelab.cookiejar import JarPolicy
from archivelab.crawler import scripted_crawl
from archivelab.demo import scenario_schedule
from archivelab.http_core import Headers, canonicalize
from archivelab.origin import SiteConfig, fetch_fn
from archivelab.replay import (
    FALLBACK_NEAREST_ANY,
    FALLBACK_NOT_FOUND,
    VARIANT_AWARE,
    Selection,
)
from archivelab.store import (
    ArchiveRecord,
    ArchiveStore,
    VariantConfig,
    VariantKey,
    derive_variant_key,
    variant_value,
)

START = datetime(2019, 1, 1, 12, 0, 0, tzinfo=timezone.utc)


@pytest.fixture
def twitter_site() -> SiteConfig:
    return SiteConfig(host="twitter.com")


@pytest.fixture
def twitter_fetch(twitter_site):
    return fetch_fn(twitter_site)


@pytest.fixture
def new_store(tmp_path):
    """Factory of empty archives, each in its own directory under `tmp_path`.
    The case closes every store it makes, with `with`."""
    names = itertools.count(1)

    def make(cfg: VariantConfig | None = None) -> ArchiveStore:
        return ArchiveStore.create(tmp_path / f"store-{next(names)}", cfg)

    return make


@pytest.fixture
def no_fsync(monkeypatch):
    """Skip the store's fsyncs, for cases whose subject is not durability."""
    monkeypatch.setattr("archivelab.store.os.fsync", lambda fd: None)


def make_record(
    uri: str,
    when: datetime,
    lang: str | None = "en",
    record_id: int | None = None,
    body: bytes | None = None,
    status: int = 200,
    request_cookie: str | None = None,
    accept_language: str | None = None,
    vary: str | None = None,
    variant_key: VariantKey | None = None,
    cfg: VariantConfig = VariantConfig(),
) -> ArchiveRecord:
    """Hand-built capture whose variant key is derived from its own headers
    (so store.verify() holds) unless an explicit key is forced."""
    canonical = canonicalize(uri)
    request_pairs = [("host", canonical.host)]
    if request_cookie is not None:
        request_pairs.append(("cookie", request_cookie))
    if accept_language is not None:
        request_pairs.append(("accept-language", accept_language))
    request_headers = Headers(request_pairs)

    response_pairs = [("content-type", "text/html; charset=utf-8")]
    if lang is not None:
        response_pairs.append(("content-language", lang))
        if body is None:
            body = f'<html lang="{lang}"><body>x</body></html>'.encode()
    if vary is not None:
        response_pairs.append(("vary", vary))
    response_headers = Headers(response_pairs)

    if variant_key is None:
        variant_key = derive_variant_key(request_headers, response_headers, cfg)
    return ArchiveRecord(
        id=record_id,
        uri=canonical,
        datetime=when,
        request_headers=request_headers,
        response_status=status,
        response_headers=response_headers,
        body=body if body is not None else b"",
        variant_key=variant_key,
    )


def build_defacement_store(site: SiteConfig, directory: Path):
    """Scripted scenario archive created at `directory`; returns (store, root
    uri, root capture time). The caller closes the store."""
    cfg = VariantConfig()
    records = scripted_crawl(
        scenario_schedule(site, "pt", ["ur", "en"]),
        fetch_fn(site),
        JarPolicy(max_ttl=None),
        START,
        variant_config=cfg,
    )
    store = ArchiveStore.create(directory, cfg)
    for record in records:
        store.append(record)
    return store, site.base() + "/", records[1].datetime


def reproduces(key: VariantKey, headers: Headers, cfg: VariantConfig) -> bool:
    """The reference match rule: `headers` give every dimension value of `key`."""
    return all(variant_value(headers, dimension, cfg) == value for dimension, value in key.pairs)


def brute_force_select(records, uri, target, mode, headers, cfg) -> Selection | None:
    """Independent selection oracle: a linear scan over every record of a
    store. Returns the `Selection` that `select_memento` must return: the
    record, and the fallback that chose it."""
    candidates = [r for r in records if str(r.uri) == str(uri)]
    fallback = None
    if mode.kind == VARIANT_AWARE:
        matching = [r for r in candidates if reproduces(r.variant_key, headers, cfg)]
        if matching:
            candidates = matching
        elif mode.fallback == FALLBACK_NOT_FOUND:
            return None
        else:
            fallback = FALLBACK_NEAREST_ANY
    if not candidates:
        return None
    chosen = min(candidates, key=lambda r: (abs(r.datetime - target), r.datetime, r.id))
    return Selection(chosen, fallback)
