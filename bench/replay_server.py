"""Replay server process for the replay workloads.

    python3 bench/replay_server.py --archive DIR --mode variant [--spans-out F]

Opens the archive and starts the program's replay listener SETUPS times,
timing each, raw and at reference speed, and serves from the last. It
prints one JSON line with the port and the set-up times, then serves until
a line other than "count" arrives on standard input, and prints one JSON
line with its peak RSS and counts. With `--spans-out` it wraps the store
and selection functions and writes its spans there; each request's spans
are parented to the client's GET span named in its X-Bench-Span header.

On a "count" line it wraps `select_memento` and `store.variant_value` with
counters, answers with one JSON line, and counts `variant_value` calls per
selection over the requests that follow. The client sends it after its
timed pageviews, so no timed request pays for the counting wrapper.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
from contextlib import ExitStack

from common import import_program, peak_rss_mb
from spans import Tracer
from speed import SpeedLog

SERVER_SPAN_IDS = 1_000_000_000
SETUPS = 9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--archive", required=True)
    parser.add_argument("--mode", choices=("baseline", "variant"), required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    import_program()
    from archivelab import replay, store as store_module
    from archivelab.replay import ReplayMode, make_replay_server
    from archivelab.store import ArchiveStore

    mode = ReplayMode.variant_aware() if args.mode == "variant" else ReplayMode.baseline()
    setup_s, open_s, scaled_setup_s, scaled_open_s = [], [], [], []
    probe = SpeedLog()
    probe.probe()
    for i in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        store = ArchiveStore.open(args.archive)
        t1 = time.perf_counter()
        server = make_replay_server(store, mode, 0)
        t2 = time.perf_counter()
        probe.probe()
        factor = probe.factor(t0, t2)
        setup_s.append(t2 - t0)
        open_s.append(t1 - t0)
        scaled_setup_s.append((t2 - t0) / factor)
        scaled_open_s.append((t1 - t0) / factor)
        if i < SETUPS - 1:
            server.server_close()
            store.close()
            del server, store

    tracer = Tracer(first_id=SERVER_SPAN_IDS)
    plan = []
    if args.spans_out:
        plan = [
            (replay, "select_memento", "replay.select_memento", "span"),
            (ArchiveStore, "lookup", "store.lookup", "span"),
            (ArchiveStore, "get_record", "store.get_record", "span"),
        ]
        handler = server.RequestHandlerClass
        untraced_get = handler.do_GET

        def do_GET(self):  # noqa: N802 (BaseHTTPRequestHandler API)
            parent, _, request = (self.headers.get("X-Bench-Span") or "").partition(":")
            tracer.adopt(int(parent) if parent else None, int(request) if request else None)
            return untraced_get(self)

        handler.do_GET = do_GET

    counter = Tracer()
    count_plan = [
        (replay, "select_memento", "replay.select_memento", "span"),
        (store_module, "variant_value", "store.variant_value", "count"),
    ]
    with tracer.installed(plan), ExitStack() as counting:
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        try:
            print(json.dumps({"port": server.server_address[1], "setup_s": setup_s,
                              "open_s": open_s, "scaled_setup_s": scaled_setup_s,
                              "scaled_open_s": scaled_open_s}), flush=True)
            while sys.stdin.readline().strip() == "count":
                counting.enter_context(counter.installed(count_plan))
                print(json.dumps({"counting": True}), flush=True)
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
            store.close()

    selections = sum(1 for span in counter.spans if span[1] == "replay.select_memento")
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "captures": len(store),
        "counted_selections": selections,
        "variant_value_per_selection":
            counter.count("store.variant_value", "replay.select_memento") / selections
            if selections else None,
    }
    if args.spans_out:
        tracer.write(args.spans_out)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
