"""Workload crawl-sticky: the paper's biased crawl, then its durable write.

One operation is one crawled page. A run repeats units until its time is
up; a unit crawls the seeded site with uncapped cookies and root revisits,
writes the records into a fresh on-disk archive as ``archivelab crawl``
does, and checks both against the independent models. Only the time inside
``crawler.crawl`` counts toward throughput and latency.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from datetime import datetime, timedelta, timezone
from statistics import median

from checkers import archive_reader, origin_model
from common import SRC, FsyncCounter, peak_rss_mb, percentile
from spans import Tracer, decomposition, summarize

PAGES_PER_CRAWL = 500
REVISIT_ROOT_EVERY = 5
ZERO_TTL_PAGES = 200
SETUP_REPEATS = 9
MIN_UNITS = 4
PROBE_EVERY_PAGES = 100

# Set-up is everything `archivelab crawl` does before its first fetch:
# importing the program, building the site and policies, creating the
# archive. It runs in a fresh interpreter so import-time work shows.
_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from archivelab.cookiejar import JarPolicy
from archivelab.crawler import CrawlPolicy
from archivelab.origin import SiteConfig, fetch_fn
from archivelab.store import ArchiveStore, VariantConfig
site = SiteConfig(languages=tuple(sys.argv[3].split(",")))
policy = CrawlPolicy(jar_policy=JarPolicy(max_ttl=None), max_pages=int(sys.argv[4]),
                     revisit_root_every=int(sys.argv[5]))
fetch = fetch_fn(site)
ArchiveStore.create(sys.argv[2], VariantConfig()).close()
print(time.perf_counter() - t0)
"""


def make_inputs(seed: int):
    """Site languages (the default 47, middle order shuffled, `kn` kept
    last) and the crawl's start time."""
    from archivelab.origin import DEFAULT_LANGUAGES

    rng = random.Random(seed)
    middle = list(DEFAULT_LANGUAGES[:-1])
    rng.shuffle(middle)
    languages = tuple(middle) + (DEFAULT_LANGUAGES[-1],)
    start = datetime(2015, 1, 1, tzinfo=timezone.utc) + timedelta(
        seconds=rng.randrange(5 * 365 * 86400)
    )
    return languages, start


def measure_setup(workdir, languages, probe) -> list[tuple[float, float]]:
    """Set-up times, raw and at reference speed."""
    times = []
    probe.probe()
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup-{i}"
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(target),
             ",".join(languages), str(PAGES_PER_CRAWL), str(REVISIT_ROOT_EVERY)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        ended = time.perf_counter()
        probe.probe()
        seconds = float(out.stdout.strip().splitlines()[-1])
        times.append((seconds, seconds / probe.factor(started, ended)))
        shutil.rmtree(target)
    return times


class ProbingFetch:
    """The fetch function handed to the crawler. It stamps the start of each
    page, and in an untraced crawl runs a speed probe every
    PROBE_EVERY_PAGES pages; its stamps, and `paused`, leave the probes out."""

    def __init__(self, origin_fetch, probe, probing: bool) -> None:
        self.origin_fetch = origin_fetch
        self.probe = probe if probing else None
        self.stamps: list[float] = []
        self.paused = 0.0

    def __call__(self, request):
        if self.probe is not None and self.stamps and len(self.stamps) % PROBE_EVERY_PAGES == 0:
            started = time.perf_counter()
            self.probe.probe()
            self.paused += time.perf_counter() - started
        self.stamps.append(time.perf_counter() - self.paused)
        return self.origin_fetch(request)


def trace_plan():
    from archivelab import cookiejar, crawler, origin, store

    return [
        (crawler, "crawl", "crawler.crawl", "span"),
        (crawler, "extract_links", "crawler.extract_links", "span"),
        (crawler, "derive_variant_key", "store.derive_variant_key", "span"),
        (origin, "handle", "origin.handle", "span"),
        (cookiejar.CookieJar, "cookies_for", "cookiejar.cookies_for", "span"),
        (cookiejar.CookieJar, "store", "cookiejar.store", "span"),
        (cookiejar.CookieJar, "prune", "cookiejar.prune", "span"),
        (store.ArchiveStore, "append", "store.append", "span"),
        (crawler, "canonicalize", "http_core.canonicalize", "count"),
        (origin, "canonicalize", "http_core.canonicalize", "count"),
    ]


def check_crawl(records, languages, root: str, cookies_kept: bool) -> list[str]:
    """Each capture against the sticky-cookie and negotiation models."""
    problems = []
    supported = set(languages) | {"en"}
    uris = [str(r.uri) for r in records]
    expected = origin_model.sticky_cookies(uris, supported, cookies_kept)
    for record, uri, want in zip(records, uris, expected):
        if record.response_status == 0:
            # A failed fetch is counted as failed, and fails the run.
            problems.append(f"{uri}: fetch failed")
            continue
        cookie = record.request_headers.get("cookie")
        if origin_model.cookie_lang(cookie) != want:
            problems.append(f"{uri}: request lang cookie {cookie!r}, model says {want!r}")
        lang = origin_model.negotiate(uri, cookie, supported, "en")
        if record.response_status != 200:
            problems.append(f"{uri}: status {record.response_status}")
        if record.response_headers.get("content-language") != lang:
            problems.append(f"{uri}: Content-Language is not {lang}")
        if origin_model.html_lang(record.body) != lang:
            problems.append(f"{uri}: <html lang> is not {lang}")
        if len(problems) > 20:
            break
    repeated = [u for u, n in Counter(uris).items() if n > 1 and u != root]
    if repeated:
        problems.append(f"non-root URIs captured more than once: {repeated[:5]}")
    return problems


def modal_root_language(records, root: str):
    counts = Counter(r.response_headers.get("content-language")
                     for r in records if str(r.uri) == root)
    return counts.most_common()


def check_archive(directory, records, ids) -> list[str]:
    """The archive read back by the independent reader equals the appended
    records field for field and body byte for byte."""
    problems = []
    frames = {}
    expected = iter(zip(ids, records))
    for frame in archive_reader.iter_frames(directory):
        want_id, record = next(expected, (None, None))
        h = frame.header
        if record is None:
            problems.append(f"extra frame {h.get('id')}")
            break
        frames[h["id"]] = h
        got = (h["id"], h["uri"], h["datetime"], h["status"], h["request_headers"],
               h["response_headers"], h["variant"], h["body_length"])
        want = (want_id, str(record.uri), record.datetime.strftime("%Y%m%d%H%M%S"),
                record.response_status, [list(p) for p in record.request_headers],
                [list(p) for p in record.response_headers],
                [list(p) for p in record.variant_key.pairs], len(record.body))
        if got != want or frame.body != record.body:
            problems.append(f"frame {h['id']} differs from appended record {want_id}")
    if next(expected, None) is not None:
        problems.append("archive holds fewer frames than records appended")
    problems += archive_reader.check_index_matches_frames(directory, frames)
    return problems


def run(seed: int, seconds: float, trace: bool, workdir, probe) -> dict:
    from archivelab import crawler
    from archivelab.cookiejar import JarPolicy
    from archivelab.crawler import CrawlPolicy
    from archivelab.origin import SiteConfig, fetch_fn
    from archivelab.store import ArchiveStore, VariantConfig

    languages, start = make_inputs(seed)
    site = SiteConfig(languages=languages)
    root = site.base() + "/"
    cfg = VariantConfig()
    policy = CrawlPolicy(jar_policy=JarPolicy(max_ttl=None), max_pages=PAGES_PER_CRAWL,
                         revisit_root_every=REVISIT_ROOT_EVERY)
    origin_fetch = fetch_fn(site)
    problems: list[str] = []

    setup_times = measure_setup(workdir, languages, probe)

    # Untimed: with a zero cookie lifetime no request carries a cookie and
    # every root capture is in the default language.
    zero = crawler.crawl([root], origin_fetch, CrawlPolicy(
        jar_policy=JarPolicy(max_ttl=timedelta(0)), max_pages=ZERO_TTL_PAGES,
        revisit_root_every=REVISIT_ROOT_EVERY), start, variant_config=cfg)
    problems += check_crawl(zero, languages, root, cookies_kept=False)
    if any("cookie" in r.request_headers for r in zero):
        problems.append("zero-TTL crawl sent a cookie")
    if {lang for lang, _ in modal_root_language(zero, root)} != {"en"}:
        problems.append("zero-TTL crawl has root captures not in en")
    del zero

    tracer = Tracer()
    plan = trace_plan() if trace else []
    units = []  # (traced, pages, crawl seconds, probe factor)
    p50s_ms: list[float] = []  # per untraced unit, page latency at reference speed
    p95s_ms: list[float] = []
    attempted = failed = 0
    fsyncs = captures = archive_bytes = body_bytes = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(units) < MIN_UNITS:
        traced = trace and len(units) % 2 == 1
        unit_dir = workdir / f"unit-{len(units)}"
        fetch = ProbingFetch(origin_fetch, probe, probing=not traced)
        counter = FsyncCounter()
        probe.probe()
        with tracer.installed(plan if traced else []):
            t0 = time.perf_counter()
            records = crawler.crawl([root], fetch, policy, start, variant_config=cfg)
            t1 = time.perf_counter()
            with counter.active(), ArchiveStore.create(unit_dir, cfg) as store:
                ids = [store.append(record) for record in records]
        probe.probe()
        factor = probe.factor(t0, t1)
        units.append((traced, len(records), t1 - t0 - fetch.paused, factor))
        if not traced:
            stamps = fetch.stamps + [t1 - fetch.paused]
            pages_ms = [(b - a) * 1000 / factor for a, b in zip(stamps, stamps[1:])]
            p50s_ms.append(percentile(pages_ms, 50))
            p95s_ms.append(percentile(pages_ms, 95))

        attempted += len(records)
        failed += sum(1 for r in records if r.response_status == 0)
        fsyncs += counter.calls
        captures += len(records)
        archive_bytes += archive_reader.archive_bytes(unit_dir)
        body_bytes += sum(len(r.body) for r in records)

        problems += check_crawl(records, languages, root, cookies_kept=True)
        modal = modal_root_language(records, root)
        if not modal or modal[0][0] != languages[-1] or (
                len(modal) > 1 and modal[1][1] == modal[0][1]):
            problems.append(f"root's modal language is not {languages[-1]}: {modal[:3]}")
        problems += check_archive(unit_dir, records, ids)
        shutil.rmtree(unit_dir)
        del records

    plain = [pages / secs for traced, pages, secs, _ in units if not traced]
    scaled = [pages * factor / secs for traced, pages, secs, factor in units if not traced]
    metrics = {
        "setup_s": median([scaled for _, scaled in setup_times]),
        "throughput_per_s": median(scaled),
        "latency_p50_ms": median(p50s_ms),
        "peak_rss_mb": peak_rss_mb(),
        "archive_bytes_per_body_byte": archive_bytes / body_bytes,
        "fsyncs_per_capture": fsyncs / captures,
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "inputs": {
            "pages_per_crawl": PAGES_PER_CRAWL,
            "revisit_root_every": REVISIT_ROOT_EVERY,
            "languages": len(languages),
            "crawl_units": len(units),
            "pages_attempted": attempted,
            "pages_failed": failed,
            "setup_times_s": [raw for raw, _ in setup_times],
            "crawl_pages_per_s_unscaled": median(plain),
        },
    }
    if trace:
        result["layers"], result["decomposition"] = layer_metrics(tracer, units)
        result["layers"]["latency_p95_ms"] = median(p95s_ms)
        result["spans"] = tracer
    return result


def layer_metrics(tracer: Tracer, units):
    rows = summarize(tracer.spans)
    traced = [(pages, secs / factor) for t, pages, secs, factor in units if t]
    plain = [(pages, secs / factor) for t, pages, secs, factor in units if not t]
    pages = sum(p for p, _ in traced)
    traced_us = sum(s for _, s in traced) / pages * 1e6
    # Span times are given at reference speed, like the end-to-end metrics.
    factor = median([f for t, _, _, f in units if t])
    plain_us = sum(s for _, s in plain) / sum(p for p, _ in plain) * 1e6

    def per_call(name, scale):
        row = rows.get(name)
        return row["total_ns"] / row["calls"] / scale / factor if row else 0.0

    def per_page(name, key="total_ns"):
        row = rows.get(name)
        return row[key] / pages / 1e3 / factor if row else 0.0

    layers = {
        "origin.handle_us": per_call("origin.handle", 1e3),
        "crawler.extract_links_us": per_page("crawler.extract_links"),
        "http_core.canonicalize_calls_per_page": tracer.count("http_core.canonicalize") / pages,
        "cookiejar.cookies_for_us": per_call("cookiejar.cookies_for", 1e3),
        "cookiejar.store_us": per_call("cookiejar.store", 1e3),
        "cookiejar.prune_us": per_call("cookiejar.prune", 1e3),
        "store.derive_variant_key_us": per_call("store.derive_variant_key", 1e3),
        "crawler.crawl_self_us": per_page("crawler.crawl", "self_ns"),
        "store.append_ms": per_call("store.append", 1e6),
        "trace.overhead_pct": (traced_us / plain_us - 1) * 100,
    }
    loop = ["crawler.crawl", "crawler.extract_links", "origin.handle",
            "store.derive_variant_key", "cookiejar.cookies_for", "cookiejar.store",
            "cookiejar.prune"]
    self_us = {name: per_page(name, "self_ns") for name in loop}
    return layers, decomposition("us/page", self_us, plain_us, traced_us)

