"""Reader for an archive directory, written from the format in README.md.

``records.dat`` holds frames: a UTF-8 JSON header line (``id``, ``uri``,
``datetime``, ``request_headers``, ``status``, ``response_headers``,
``variant``, ``body_length``), then exactly ``body_length`` body bytes, then
a newline. ``index.cdxj`` holds one ``<uri> <ts14> <JSON {id, status,
variant}>`` line per capture; ``meta.json`` holds the variant-key settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


class ArchiveFormatError(Exception):
    """The directory does not hold a well-formed archive."""


@dataclass(frozen=True)
class Frame:
    header: dict
    body: bytes


@dataclass(frozen=True)
class IndexRow:
    uri: str
    ts14: str
    id: int
    status: int
    variant: list


def read_meta(directory: str | Path) -> dict:
    return json.loads((Path(directory) / "meta.json").read_text(encoding="utf-8"))


def iter_frames(directory: str | Path) -> Iterator[Frame]:
    """Frames of records.dat in file order; every byte must belong to one."""
    with open(Path(directory) / "records.dat", "rb") as fh:
        while True:
            line = fh.readline()
            if not line:
                return
            if not line.endswith(b"\n"):
                raise ArchiveFormatError("frame header line is not terminated")
            header = json.loads(line)
            length = header["body_length"]
            body = fh.read(length)
            if len(body) != length:
                raise ArchiveFormatError(f"frame {header.get('id')}: short body")
            if fh.read(1) != b"\n":
                raise ArchiveFormatError(f"frame {header.get('id')}: no newline after body")
            yield Frame(header, body)


def read_index(directory: str | Path) -> list[IndexRow]:
    rows = []
    text = (Path(directory) / "index.cdxj").read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line:
            continue
        uri, ts14, blob = line.split(" ", 2)
        data = json.loads(blob)
        if len(ts14) != 14 or not ts14.isdigit():
            raise ArchiveFormatError(f"index row timestamp {ts14!r}")
        rows.append(IndexRow(uri, ts14, int(data["id"]), int(data["status"]), data["variant"]))
    return rows


def archive_bytes(directory: str | Path) -> int:
    """Total size of the archive's files."""
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def check_index_matches_frames(directory: str | Path, frames: dict[int, dict]) -> list[str]:
    """Problems found cross-checking index rows against frame headers by id."""
    problems = []
    rows = read_index(directory)
    seen = set()
    for row in rows:
        header = frames.get(row.id)
        if header is None:
            problems.append(f"index row names missing frame {row.id}")
            continue
        seen.add(row.id)
        if (row.uri, row.ts14, row.status, row.variant) != (
            header["uri"], header["datetime"], header["status"], header["variant"]
        ):
            problems.append(f"index row {row.id} disagrees with its frame")
    if len(rows) != len(frames) or seen != set(frames):
        problems.append(f"{len(rows)} index rows for {len(frames)} frames")
    return problems
