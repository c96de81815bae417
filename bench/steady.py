"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py [--first-seed 1]

Runs every workload of BENCHMARK.json RUNS times per set, for its
run_seconds, each run with its own seed (counting up from --first-seed, so
that separate checks can use distinct seeds), alternating workloads so that
slow phases of the machine fall on all of them. For each end-to-end metric
it prints each set's median and quartiles and the spread (interquartile
distance over the median), then whether the sets agree within
BENCHMARK.json's bounds: every spread within its bound, the two medians
apart by no more than the bound in either direction, and the same share of
failed operations. Exits 1 if they do not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, RUNS_DIR, quartiles, write_json

RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n"
                         f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def compare(spec: dict, sets: list[dict[str, list[dict]]]) -> bool:
    ok = True
    for workload in sets[0]:
        print(f"\n== {workload}")
        shares = [sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload])
                  for s in sets]
        print(f"   failed share per set: {shares}")
        ok &= len(set(shares)) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            cells = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s[workload]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                medians.append(q2)
                steady = spread <= bound
                ok &= steady
                cells.append(f"med {q2:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}"
                             + ("" if steady else " SPREAD>BOUND"))
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            # Both sets run the same code, so a gain beyond the bound is as
            # much a disagreement as a loss.
            agree = abs(worse) <= bound
            ok &= agree
            drift = f" | worse by {worse:+.3f} of bound {bound}" + ("" if agree else " DISAGREE")
            print(f"   {name:28s} {' || '.join(cells)}{drift}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets: list[dict[str, list[dict]]] = []
    seed = args.first_seed
    for set_no in range(SETS):
        results: dict[str, list[dict]] = {w: [] for w in workloads}
        for i in range(RUNS):
            for w in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
                started = time.perf_counter()
                results[w].append(run_once(w, seed, seconds))
                print(f"set {set_no + 1} run {i + 1} {w} seed {seed} "
                      f"{time.perf_counter() - started:.1f}s", flush=True)
                seed += 1
        sets.append(results)
    ok = compare(spec, sets)
    write_json(RUNS_DIR / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json",
               {"first_seed": args.first_seed, "runs": RUNS, "seconds": seconds, "sets": sets})
    print(f"\nsteady: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
