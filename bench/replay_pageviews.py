"""Workloads replay-variant and replay-baseline: pageviews over HTTP.

The input is an on-disk archive written through the program's store from a
seeded scripted capture schedule: rounds of ``/?lang=X``, ``/``, then each
fragment of the landing page, with ``X`` running through every language in
seeded order, so each URI holds thousands of captures. The program's replay
listener serves it from its own process. A closed-loop client on one
connection makes pageviews as a browser would: GET the landing page at a
random target time, then GET each of its ``<iframe>`` parts at the landing
page's Memento-Datetime, with the same ``lang`` cookie in variant mode and
none in baseline mode. One operation is one pageview.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from email.utils import parsedate_to_datetime
from statistics import fmean, median

from checkers import archive_reader, origin_model, selector
from common import BENCH_DIR, FsyncCounter, percentile
from spans import Tracer, decomposition, load_spans, summarize

BLOCKS = 43  # rounds = BLOCKS * number of languages
MIN_PAGEVIEWS = 200
COUNT_PAGEVIEWS = 10  # untimed pageviews over which the server counts calls
TAIL_GROUP = 200  # pageviews per group whose 95th percentile is taken
PROBE_EVERY_S = 0.25
SERVER_TIMEOUT_S = 120

_IFRAME_RE = re.compile(rb'<iframe\b[^>]*\bsrc="([^"]*)"')


def ts14(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y%m%d%H%M%S")


def build_archive(seed: int, directory) -> dict:
    """Write the seeded capture schedule into a new archive through the
    program's crawler and store; returns the schedule's make-up."""
    from archivelab.cookiejar import JarPolicy
    from archivelab.crawler import scripted_crawl
    from archivelab.origin import SiteConfig, fetch_fn
    from archivelab.store import ArchiveStore, VariantConfig

    site = SiteConfig()
    rng = random.Random(seed)
    order: list[str] = []
    for _ in range(BLOCKS):
        block = list(site.languages)
        rng.shuffle(block)
        order += block
    root = site.base() + "/"
    fragments = [site.base() + site.fragment_path(0, j) for j in range(site.resources_per_page)]
    schedule = []
    for lang in order:
        schedule += [f"{root}?lang={lang}", root, *fragments]
    start = datetime(2015, 1, 1, tzinfo=timezone.utc) + timedelta(
        seconds=rng.randrange(5 * 365 * 86400))
    cfg = VariantConfig()
    records = scripted_crawl(schedule, fetch_fn(site), JarPolicy(max_ttl=None), start,
                             variant_config=cfg)
    counter = FsyncCounter()
    with counter.active(), ArchiveStore.create(directory, cfg) as store:
        for record in records:
            store.append(record)
    body_bytes = sum(len(r.body) for r in records)
    return {
        "languages": list(site.languages),
        "root": root,
        "fragments": fragments,
        "rounds": len(order),
        "captures": len(records),
        "start": int(start.timestamp()),
        "fsyncs": counter.calls,
        "archive_bytes": archive_reader.archive_bytes(directory),
        "body_bytes": body_bytes,
    }


def read_captures(directory):
    """Captures per URI as the independent reader sees them:
    ``(epoch, id, variant, language)`` tuples."""
    by_uri = defaultdict(list)
    frames = {}
    for frame in archive_reader.iter_frames(directory):
        h = frame.header
        frames[h["id"]] = h
        epoch = int(datetime.strptime(h["datetime"], "%Y%m%d%H%M%S")
                    .replace(tzinfo=timezone.utc).timestamp())
        lang = dict(h["response_headers"]).get("content-language")
        by_uri[h["uri"]].append((epoch, h["id"], h["variant"], lang))
    problems = archive_reader.check_index_matches_frames(directory, frames)
    meta = archive_reader.read_meta(directory)
    return by_uri, meta["variant_config"]["content_cookie_names"], problems


class Server:
    """The replay server process; always stopped and waited for on exit."""

    def __init__(self, archive, mode: str, spans_out=None) -> None:
        cmd = [sys.executable, str(BENCH_DIR / "replay_server.py"), "--archive", str(archive),
               "--mode", mode]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        try:
            self.ready = self._read_line()
        except BaseException:
            self.close()
            raise

    def _read_line(self) -> dict:
        box: list[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(SERVER_TIMEOUT_S)
        if not box or not box[0]:
            raise RuntimeError("replay server did not answer")
        return json.loads(box[0])

    def count(self) -> None:
        """Have the server count calls from now on."""
        self.proc.stdin.write("count\n")
        self.proc.stdin.flush()
        self._read_line()

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        report = self._read_line()
        self.proc.wait(SERVER_TIMEOUT_S)
        return report

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Response:
    __slots__ = ("status", "memento", "language", "html_lang", "fallback", "body")


def get(port: int, path: str, headers: dict, keep_body: bool) -> Response:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path, headers=headers)
        raw = conn.getresponse()
        body = raw.read()
        r = Response()
        r.status = raw.status
        memento = raw.getheader("memento-datetime")
        r.memento = int(parsedate_to_datetime(memento).timestamp()) if memento else None
        r.language = raw.getheader("content-language")
        r.html_lang = origin_model.html_lang(body)
        r.fallback = raw.getheader("x-archive-fallback")
        r.body = body if keep_body else None
        return r
    finally:
        conn.close()


def pageview(port: int, mode: str, inputs: dict, spec: dict, tracer: Tracer | None) -> None:
    """GET the root, then each of its parts at the root's Memento-Datetime."""
    headers = {"Cookie": f"lang={spec['lang']}"} if mode == "variant" else {}
    rid = spec["n"]

    def fetch(path, keep_body):
        if tracer is None:
            return get(port, path, headers, keep_body)
        with tracer.span("replay.http_get", rid) as span_id:
            return get(port, path, dict(headers, **{"X-Bench-Span": f"{span_id}:{rid}"}),
                       keep_body)

    root = fetch(f"/web/{ts14(spec['target'])}/{inputs['root']}", True)
    spec["root"] = root
    spec["parts"] = []
    if root.status != 200 or root.memento is None:
        return
    spec["part_uris"] = [m.decode() for m in _IFRAME_RE.findall(root.body)]
    root.body = None
    for uri in spec["part_uris"]:
        spec["parts"].append(fetch(f"/web/{ts14(root.memento)}/{uri}", False))


def drive(port: int, mode: str, inputs: dict, seed: int, seconds: float,
          tracer: Tracer | None, probe, min_views: int = MIN_PAGEVIEWS) -> list[dict]:
    """Pageviews back to back on one connection until `seconds` pass and at
    least `min_views` are done, with a speed probe between two pageviews
    every PROBE_EVERY_S."""
    rng = random.Random(seed * 7919 + 1)
    pageviews: list[dict] = []
    deadline = time.perf_counter() + seconds
    last_probe = float("-inf")
    while time.perf_counter() < deadline or len(pageviews) < min_views:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probe.probe()
            last_probe = time.perf_counter()
        spec = {"n": len(pageviews), "lang": rng.choice(inputs["languages"]),
                "target": inputs["start"] + rng.randrange(inputs["captures"])}
        pageviews.append(spec)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                pageview(port, mode, inputs, spec, None)
            else:
                with tracer.span("replay.pageview", spec["n"]):
                    pageview(port, mode, inputs, spec, tracer)
        except (OSError, http.client.HTTPException) as exc:
            spec["error"] = repr(exc)
        spec["t0"], spec["t1"] = t0, time.perf_counter()
    probe.probe()
    return pageviews


def failure(p: dict) -> str:
    """Why a pageview failed, or "" if it did not."""
    if "error" in p:
        return p["error"]
    statuses = [p["root"].status] + [part.status for part in p["parts"]]
    if any(status != 200 for status in statuses):
        return f"statuses {statuses}"
    if len(p["parts"]) != len(p.get("part_uris", [None])):
        return "parts missing"
    return ""


def check(pageviews, mode: str, inputs: dict, captures, cookie_names) -> tuple[list[str], dict]:
    """Every pageview against the brute-force selector; a failed pageview
    is a problem too."""
    problems: list[str] = []
    variant = mode == "variant"
    cache: dict = {}
    defaced_seen = defaced_predicted = 0

    def expected(uri, target, lang):
        key = (uri, target, lang if variant else None)
        if key not in cache:
            headers = {"cookie": f"lang={lang}"} if variant else {}
            cache[key] = selector.select(captures[uri], target, variant, headers, cookie_names)
        return cache[key]

    for p in pageviews:
        why = failure(p)
        if why:
            problems.append(f"pageview {p['n']} failed: {why}")
            continue
        lang, root = p["lang"], p["root"]
        want_root = expected(inputs["root"], p["target"], lang)
        if root.memento != want_root[0]:
            problems.append(f"pageview {p['n']}: root Memento-Datetime {root.memento}, "
                            f"brute force chose {want_root[0]}")
            continue
        if p["part_uris"] != inputs["fragments"]:
            problems.append(f"pageview {p['n']}: parts {p['part_uris']}")
            continue
        predicted_langs = set()
        for uri, part in zip(p["part_uris"], p["parts"]):
            want = expected(uri, root.memento, lang)
            if part.memento != want[0]:
                problems.append(f"pageview {p['n']}: part {uri} Memento-Datetime "
                                f"{part.memento}, brute force chose {want[0]}")
            predicted_langs.add(want[3])
            if part.language != part.html_lang:
                problems.append(f"pageview {p['n']}: part {uri} header and body languages differ")
            if variant:
                if part.fallback or root.fallback:
                    problems.append(f"pageview {p['n']}: X-Archive-Fallback present")
                if part.language != lang or root.language != lang:
                    problems.append(f"pageview {p['n']}: part {uri} in {part.language}, "
                                    f"requested {lang}")
        defaced_seen += any(part.language != root.language for part in p["parts"])
        defaced_predicted += bool(predicted_langs - {want_root[3]})
        if len(problems) > 20:
            break
    if not variant and defaced_seen != defaced_predicted:
        problems.append(f"{defaced_seen} defaced pageviews, brute force predicts "
                        f"{defaced_predicted}")
    return problems, {"defaced_pageviews": defaced_seen,
                      "defaced_predicted": defaced_predicted}


def scaled_latencies_ms(probe, pageviews) -> list[float]:
    return [(p["t1"] - p["t0"]) * 1000 / probe.factor(p["t0"], p["t1"]) for p in pageviews]


def grouped_p95(latencies_ms: list[float]) -> float:
    """Median over consecutive groups of TAIL_GROUP pageviews of each
    group's 95th percentile, which leaves 10 pageviews beyond it. A slow
    phase of the machine then lifts only the groups it covers."""
    groups = [latencies_ms[i:i + TAIL_GROUP]
              for i in range(0, max(len(latencies_ms) - TAIL_GROUP + 1, 1), TAIL_GROUP)]
    return median([percentile(group, 95) for group in groups])


def run(mode: str, seed: int, seconds: float, trace: bool, workdir, probe) -> dict:
    archive = workdir / "archive"
    inputs = build_archive(seed, archive)
    captures, cookie_names, problems = read_captures(archive)

    phases = [("plain", seconds / 2 if trace else seconds)]
    if trace:
        phases.append(("traced", seconds / 2))
    results = {}
    counted: list[dict] = []
    for phase, phase_seconds in phases:
        tracer = Tracer() if phase == "traced" else None
        spans_out = workdir / "server-spans.jsonl" if tracer else None
        with Server(archive, mode, spans_out) as server:
            port = server.ready["port"]
            pageviews = drive(port, mode, inputs, seed, phase_seconds, tracer, probe)
            if trace and phase == "plain":
                server.count()
                counted = drive(port, mode, inputs, seed, 0, None, probe, COUNT_PAGEVIEWS)
            report = server.stop()
        results[phase] = (server.ready, report, pageviews, tracer, spans_out)

    ready, report, pageviews, _, _ = results["plain"]
    all_views = [p for r in results.values() for p in r[2]] + counted
    failed = sum(bool(failure(p)) for p in all_views)
    found, tally = check(all_views, mode, inputs, captures, cookie_names)
    problems += found
    done = [p for p in pageviews if not failure(p)]
    if not done:
        problems.append("no timed pageview succeeded")
        return {"attempted": len(all_views), "failed": failed, "problems": problems,
                "metrics": {}, "layers": {}, "inputs": {"mode": mode}}
    latencies_ms = scaled_latencies_ms(probe, done)
    busy_s = sum(p["t1"] - p["t0"] for p in done)
    result = {
        "attempted": len(all_views),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": median(ready["scaled_setup_s"]),
            "throughput_per_s": len(done) / (sum(latencies_ms) / 1000),
            "latency_p50_ms": percentile(latencies_ms, 50),
            "peak_rss_mb": report["peak_rss_mb"],
            "archive_bytes_per_body_byte": inputs["archive_bytes"] / inputs["body_bytes"],
            "fsyncs_per_capture": inputs["fsyncs"] / inputs["captures"],
        },
        "inputs": {
            "mode": mode,
            "captures": inputs["captures"],
            "captures_per_uri": {u: len(c) for u, c in captures.items()
                                 if len(c) > inputs["rounds"] // 2},
            "rounds": inputs["rounds"],
            "client_connections": 1,
            "pageviews_attempted": len(all_views),
            "pageviews_failed": failed,
            "pageviews_counted_untimed": len(counted),
            "setup_times_s": ready["setup_s"],
            "open_times_s": ready["open_s"],
            "pageviews_per_s_unscaled": len(done) / busy_s,
            **tally,
        },
    }
    if trace:
        result["layers"], result["decomposition"], result["spans"] = layer_metrics(results, probe)
        result["layers"]["latency_p95_ms"] = grouped_p95(latencies_ms)
    return result


def layer_metrics(results, probe):
    _, plain_report, plain_views, _, _ = results["plain"]
    ready, _, views, tracer, spans_out = results["traced"]
    # Times are given at reference speed, like the end-to-end metrics.
    factor = probe.factor(min(p["t0"] for p in views), max(p["t1"] for p in views))
    tracer.spans.extend(load_spans(spans_out))
    rows = summarize(tracer.spans)
    n_views = len(views)

    def per_call(name, scale):
        row = rows.get(name)
        return row["total_ns"] / row["calls"] / scale / factor if row else 0.0

    def per_view(name, key="self_ns"):
        row = rows.get(name)
        return row[key] / n_views / 1e6 / factor if row else 0.0

    gets = rows["replay.http_get"]
    # The two phases run one after the other, so compare them at reference speed.
    traced_ms = fmean(scaled_latencies_ms(probe, views))
    plain_ms = fmean(scaled_latencies_ms(probe, plain_views))
    layers = {
        "store.open_s": median(ready["scaled_open_s"]),
        "store.lookup_us": per_call("store.lookup", 1e3),
        "store.get_record_us": per_call("store.get_record", 1e3),
        "replay.select_memento_us": per_call("replay.select_memento", 1e3),
        "store.variant_value_calls_per_selection": plain_report["variant_value_per_selection"],
        "replay.http_get_ms": per_call("replay.http_get", 1e6),
        "replay.http_self_ms": gets["self_ns"] / gets["calls"] / 1e6 / factor,
        "trace.overhead_pct": (traced_ms / plain_ms - 1) * 100,
    }
    path = ["replay.pageview", "replay.http_get", "replay.select_memento", "store.lookup",
            "store.get_record"]
    self_ms = {name: per_view(name) for name in path}
    return layers, decomposition("ms/pageview", self_ms, plain_ms, traced_ms), tracer
