"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload crawl-sticky --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A record of the run, with its provenance and input sizes,
is written under bench/runs/. Exit status is 0 only when every check of the
program's outputs passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from common import ROOT, RUNS_DIR, import_program, provenance, write_json
from speed import SpeedLog

WORKLOADS = ("crawl-sticky", "replay-variant", "replay-baseline")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir, probe) -> dict:
    if name == "crawl-sticky":
        import crawl_sticky

        return crawl_sticky.run(seed, seconds, trace, workdir, probe)
    import replay_pageviews

    return replay_pageviews.run(name.split("-", 1)[1], seed, seconds, trace, workdir, probe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    import_program()
    # One CPU for the workload and every process it starts: a request handed
    # between processes on different vCPUs waits for the other vCPU to wake,
    # which on a 2-vCPU VM made replay tail latency vary 2x between runs.
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = RUNS_DIR / f"work-{stem}"
    workdir.mkdir(parents=True)
    try:
        probe = SpeedLog()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, declared = result["layers"], spec["per_layer"]
    else:
        values, declared = result["metrics"], spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    problems = result["problems"]
    line = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, len(cpus)),
        "inputs": result["inputs"],
        "speed_probe": probe.summary(),
        "pinned_cpu": cpu,
        "problems": problems[:50],
        "result": line,
    }
    if "decomposition" in result:
        record["decomposition"] = result["decomposition"]
    if "spans" in result:
        spans_path = RUNS_DIR / f"{stem}.spans.jsonl"
        result["spans"].write(spans_path)
        record["spans_file"] = spans_path.name
    write_json(RUNS_DIR / f"{stem}.json", record)

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {line['attempted']} failed {line['failed']} "
          f"correct {line['correct']} record {RUNS_DIR.name}/{stem}.json")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
