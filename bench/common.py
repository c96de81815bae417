"""Shared pieces of the benchmark: locating the program, statistics,
provenance, and the fsync counter."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"


def import_program() -> None:
    """Put the checkout's own sources first on sys.path, or exit non-zero."""
    if not (SRC / "archivelab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: program sources not found at {SRC / 'archivelab'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(seed: int, nproc: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": nproc,
        "seed": seed,
    }


class FsyncCounter:
    """Counts os.fsync/os.fdatasync calls made while active; calls go through."""

    def __init__(self) -> None:
        self.calls = 0

    @contextmanager
    def active(self):
        real = {name: getattr(os, name) for name in ("fsync", "fdatasync")}

        def counting(real_fn):
            def wrapper(fd):
                self.calls += 1
                return real_fn(fd)
            return wrapper

        for name, fn in real.items():
            setattr(os, name, counting(fn))
        try:
            yield self
        finally:
            for name, fn in real.items():
                setattr(os, name, fn)


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
