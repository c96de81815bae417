"""Append-only capture store with a variant-aware CDXJ-style index.

On disk an archive is a directory of three files:

``records.dat``
    One frame per capture: a UTF-8 JSON header line carrying everything but
    the payload (including ``body_length``), then exactly that many raw body
    bytes, then a newline. Frames are append-only and never rewritten.

``index.cdxj``
    One line per capture: ``<canonical-uri> <14-digit-timestamp> <JSON>``
    where the JSON object holds ``id``, ``status``, and the variant key as a
    ``[[dimension, value], ...]`` list. Lines sort bytewise into
    (URI, datetime) order because canonical URIs contain no spaces. Only
    `verify` reads it back; it is written for external readers.

``meta.json``
    Format version plus the VariantConfig the captures were keyed with, so
    replay never needs to guess how variant keys were derived.

Variant keys are computed at ingest time from the request/response header
pair and stored; lookups never recompute them.

`open` builds the in-memory index from the frames of `records.dat` alone; a
repeated frame id is a `StoreError`. Each URI's captures are indexed twice:
one list of all entries in (datetime, id) order, and the same entries grouped
by dimension tuple, then by variant key, each group in (datetime, id) order.
`nearest` bisects them.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from typing import Iterator, NamedTuple

from .http_core import (
    CanonicalUri,
    Headers,
    canonicalize,
    ensure_utc,
    format_timestamp14,
    parse_cookie_header,
    parse_timestamp14,
    vary_spec,
)

__all__ = [
    "VariantKey",
    "VariantConfig",
    "derive_variant_key",
    "variant_value",
    "variant_matches",
    "ArchiveRecord",
    "IndexEntry",
    "ArchiveStore",
    "StoreError",
]

FORMAT_VERSION = 1
RECORDS_NAME = "records.dat"
INDEX_NAME = "index.cdxj"
META_NAME = "meta.json"


class StoreError(Exception):
    """Archive directory is unreadable, corrupt, or failed to accept a write."""


@dataclass(frozen=True)
class VariantKey:
    """Ordered (dimension, value) pairs a capture varied on; empty = no variance."""

    pairs: tuple[tuple[str, str], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def to_json(self) -> list[list[str]]:
        return [[d, v] for d, v in self.pairs]

    @classmethod
    def from_json(cls, data: list) -> "VariantKey":
        return cls(tuple((str(d), str(v)) for d, v in data))

    def encode(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


@dataclass(frozen=True)
class VariantConfig:
    """How variant keys are derived.

    content_cookie_names are the cookies treated as content-affecting; all
    other cookies are ignored to avoid false negatives at replay.
    implied_vary supplies dimensions for responses that carry no Vary header
    at all, which is how sites that negotiate silently get keyed.
    """

    content_cookie_names: frozenset[str] = frozenset({"lang"})
    honor_vary: bool = True
    implied_vary: tuple[str, ...] = ("cookie",)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "content_cookie_names",
            frozenset(n.lower() for n in self.content_cookie_names),
        )
        object.__setattr__(
            self, "implied_vary", tuple(d.lower() for d in self.implied_vary)
        )

    def to_json(self) -> dict:
        return {
            "content_cookie_names": sorted(self.content_cookie_names),
            "honor_vary": self.honor_vary,
            "implied_vary": list(self.implied_vary),
        }

    @classmethod
    def from_json(cls, data: dict) -> "VariantConfig":
        return cls(
            content_cookie_names=frozenset(data["content_cookie_names"]),
            honor_vary=bool(data["honor_vary"]),
            implied_vary=tuple(data["implied_vary"]),
        )


def variant_value(request_headers: Headers, dimension: str, cfg: VariantConfig) -> str:
    """Normalized request-side value for one variant dimension.

    The cookie dimension reduces to the configured content cookies only,
    sorted by name and joined as ``name=value;name=value``. Any other
    dimension is the raw header value ("" when absent, comma-joined when
    repeated).
    """
    dimension = dimension.lower()
    if dimension == "cookie":
        pairs: list[tuple[str, str]] = []
        for header in request_headers.get_all("cookie"):
            pairs.extend(parse_cookie_header(header))
        kept = sorted(
            (name, value)
            for name, value in pairs
            if name.lower() in cfg.content_cookie_names
        )
        return ";".join(f"{name}={value}" for name, value in kept)
    values = request_headers.get_all(dimension)
    return ", ".join(values)


def derive_variant_key(
    request_headers: Headers, response_headers: Headers, cfg: VariantConfig
) -> VariantKey:
    """Derive the capture's variant key from its header pair.

    Dimensions come from the response's Vary header when honor_vary is set
    and one is present, otherwise from cfg.implied_vary. ``Vary: *`` yields
    the full sorted request-header fingerprint, raw values included (such
    captures effectively never match a replay request, matching cache
    semantics for ``*``).
    """
    spec = vary_spec(response_headers)
    if cfg.honor_vary and not spec.is_empty:
        if spec.is_all:
            pairs = tuple(
                (name, ", ".join(request_headers.get_all(name)))
                for name in sorted(set(request_headers.names()))
            )
            return VariantKey(pairs)
        dimensions = spec.fields
    else:
        dimensions = cfg.implied_vary
    ordered = sorted(set(d.lower() for d in dimensions))
    return VariantKey(
        tuple((d, variant_value(request_headers, d, cfg)) for d in ordered)
    )


def variant_matches(
    key: VariantKey, request_headers: Headers, cfg: VariantConfig
) -> bool:
    """True when a request reproduces every dimension value of `key`."""
    return all(
        variant_value(request_headers, dimension, cfg) == value
        for dimension, value in key.pairs
    )


@dataclass(frozen=True)
class ArchiveRecord:
    """One capture. `id` is assigned by the store on append (None before)."""

    id: int | None
    uri: CanonicalUri
    datetime: datetime
    request_headers: Headers
    response_status: int
    response_headers: Headers
    body: bytes
    variant_key: VariantKey

    def __post_init__(self) -> None:
        normalized = ensure_utc(self.datetime).replace(microsecond=0)
        object.__setattr__(self, "datetime", normalized)
        if not 0 <= self.response_status <= 599:
            raise ValueError(f"response status out of range: {self.response_status}")

    @property
    def timestamp14(self) -> str:
        return format_timestamp14(self.datetime)


class IndexEntry(NamedTuple):
    datetime: datetime
    variant_key: VariantKey
    id: int


def _entry_datetime(entry: IndexEntry) -> datetime:
    return entry.datetime


def _entry_order(entry: IndexEntry) -> tuple[datetime, int]:
    return entry.datetime, entry.id


def _nearest(entries: list[IndexEntry], target: datetime) -> IndexEntry | None:
    """The entry of a (datetime, id)-sorted list that minimizes
    (|datetime - target|, datetime, id), or None when the list is empty.

    Only two entries can win: the first at or after `target`, and the first
    (smallest id) of the run sharing the latest datetime before it.
    """
    i = bisect_left(entries, target, key=_entry_datetime)
    candidates = entries[i : i + 1]
    if i:
        before = entries[i - 1].datetime
        candidates.append(entries[bisect_left(entries, before, 0, i, key=_entry_datetime)])
    return _closest(candidates, target)


def _closest(entries: list[IndexEntry], target: datetime) -> IndexEntry | None:
    return min(
        entries, key=lambda e: (abs(e.datetime - target), e.datetime, e.id), default=None
    )


@dataclass
class _UriIndex:
    """Every capture of one URI, (datetime, id)-sorted, plus the same entries
    grouped by the dimension tuple of their variant key, then by the key."""

    entries: list[IndexEntry] = field(default_factory=list)
    groups: dict[tuple[str, ...], dict[VariantKey, list[IndexEntry]]] = field(
        default_factory=dict
    )

    def add(self, entry: IndexEntry) -> None:
        dimensions = tuple(d for d, _ in entry.variant_key.pairs)
        group = self.groups.setdefault(dimensions, {}).setdefault(entry.variant_key, [])
        insort(group, entry, key=_entry_order)
        insort(self.entries, entry, key=_entry_order)


def _frame_header(record: ArchiveRecord) -> bytes:
    header = {
        "id": record.id,
        "uri": str(record.uri),
        "datetime": record.timestamp14,
        "request_headers": [[k, v] for k, v in record.request_headers],
        "status": record.response_status,
        "response_headers": [[k, v] for k, v in record.response_headers],
        "variant": record.variant_key.to_json(),
        "body_length": len(record.body),
    }
    return json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _record_from_frame(header: dict, body: bytes) -> ArchiveRecord:
    return ArchiveRecord(
        id=int(header["id"]),
        uri=canonicalize(header["uri"]),
        datetime=parse_timestamp14(header["datetime"]),
        request_headers=Headers([(k, v) for k, v in header["request_headers"]]),
        response_status=int(header["status"]),
        response_headers=Headers([(k, v) for k, v in header["response_headers"]]),
        body=body,
        variant_key=VariantKey.from_json(header["variant"]),
    )


def _index_line(record: ArchiveRecord) -> str:
    blob = json.dumps(
        {
            "id": record.id,
            "status": record.response_status,
            "variant": record.variant_key.to_json(),
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return f"{record.uri} {record.timestamp14} {blob}"


def _durable_write(fh, data: bytes, failure: str) -> None:
    try:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    except OSError as exc:
        raise StoreError(f"{failure}: {exc}") from exc


class ArchiveStore:
    """Capture store: single writer, any number of readers.

    Disk-backed stores flush and fsync every append, so a record is durable
    before `append` returns. At desk scale all records are also kept in
    memory; `open` reloads everything from `records.dat`.
    """

    def __init__(self, directory: Path | None, variant_config: VariantConfig):
        self._directory = directory
        self.variant_config = variant_config
        self._records: dict[int, ArchiveRecord] = {}
        self._by_uri: defaultdict[str, _UriIndex] = defaultdict(_UriIndex)
        self._next_id = 1
        self._records_file = None
        self._index_file = None

    # -- construction --------------------------------------------------------

    @classmethod
    def in_memory(cls, variant_config: VariantConfig | None = None) -> "ArchiveStore":
        return cls(None, variant_config or VariantConfig())

    @classmethod
    def create(
        cls, directory: str | Path, variant_config: VariantConfig | None = None
    ) -> "ArchiveStore":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        records_path = directory / RECORDS_NAME
        if records_path.exists():
            raise StoreError(f"archive already exists at {directory}")
        store = cls(directory, variant_config or VariantConfig())
        meta = {
            "format": "archivelab-store",
            "version": FORMAT_VERSION,
            "variant_config": store.variant_config.to_json(),
        }
        (directory / META_NAME).write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
        store._open_files()
        return store

    @classmethod
    def open(cls, directory: str | Path) -> "ArchiveStore":
        directory = Path(directory)
        try:
            meta = json.loads((directory / META_NAME).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read archive metadata: {exc}") from exc
        if meta.get("version") != FORMAT_VERSION:
            raise StoreError(f"unsupported archive version: {meta.get('version')}")
        store = cls(directory, VariantConfig.from_json(meta["variant_config"]))
        store._load_records()
        store._open_files()
        return store

    def _open_files(self) -> None:
        assert self._directory is not None
        self._records_file = open(self._directory / RECORDS_NAME, "ab")
        self._index_file = open(self._directory / INDEX_NAME, "ab")

    def _load_records(self) -> None:
        assert self._directory is not None
        path = self._directory / RECORDS_NAME
        if not path.exists():
            raise StoreError(f"missing {RECORDS_NAME} in {self._directory}")
        with open(path, "rb") as fh:
            while True:
                line = fh.readline()
                if not line:
                    break
                try:
                    header = json.loads(line)
                    body = fh.read(header["body_length"])
                    if len(body) != header["body_length"] or fh.read(1) != b"\n":
                        raise StoreError(f"truncated frame for record {header.get('id')}")
                    record = _record_from_frame(header, body)
                except (KeyError, ValueError) as exc:
                    raise StoreError(f"corrupt record frame: {exc}") from exc
                self._register(record)

    # -- write path -----------------------------------------------------------

    def append(self, record: ArchiveRecord) -> int:
        """Append one capture; returns its assigned id.

        The record's variant key must already be derived. Duplicate
        (uri, datetime, variant) captures are allowed: append-only means
        append-only. The capture is registered once its frame is durable, so
        a failed index-row write still raises but never frees the id.
        """
        if record.id is None:
            record = replace(record, id=self._next_id)
        if record.id in self._records:
            raise StoreError(f"record id {record.id} already present")
        if self._records_file is not None:
            frame = _frame_header(record) + b"\n" + record.body + b"\n"
            _durable_write(self._records_file, frame, f"append of record {record.id} failed")
        self._register(record)
        if self._index_file is not None:
            row = (_index_line(record) + "\n").encode("utf-8")
            failure = f"frame of record {record.id} is stored but its index row is not"
            _durable_write(self._index_file, row, failure)
        return record.id

    def _register(self, record: ArchiveRecord) -> None:
        if record.id in self._records:
            raise StoreError(f"record id {record.id} already present")
        self._records[record.id] = record
        self._by_uri[str(record.uri)].add(
            IndexEntry(record.datetime, record.variant_key, record.id)
        )
        self._next_id = max(self._next_id, record.id + 1)

    # -- read path ------------------------------------------------------------

    def lookup(self, uri: CanonicalUri | str) -> list[IndexEntry]:
        """All captures of a canonical URI, ascending (datetime, id) order."""
        index = self._by_uri.get(str(uri))
        return list(index.entries) if index is not None else []

    def nearest(
        self,
        uri: CanonicalUri | str,
        target: datetime,
        request_headers: Headers | None = None,
        cfg: VariantConfig | None = None,
    ) -> IndexEntry | None:
        """The capture of `uri` nearest `target`, or None.

        Nearest means least |datetime - target|, then the earlier datetime,
        then the smaller id. With `request_headers`, only captures whose
        variant key those headers reproduce under `cfg` (default: the
        store's) are candidates. The request's value for each dimension is
        computed once per call, then each group is found by its key.
        """
        index = self._by_uri.get(str(uri))
        if index is None:
            return None
        target = ensure_utc(target)
        if request_headers is None:
            return _nearest(index.entries, target)
        cfg = cfg if cfg is not None else self.variant_config
        values: dict[str, str] = {}
        candidates = []
        for dimensions, by_key in index.groups.items():
            for dimension in dimensions:
                if dimension not in values:
                    values[dimension] = variant_value(request_headers, dimension, cfg)
            group = by_key.get(VariantKey(tuple((d, values[d]) for d in dimensions)))
            if group is not None:
                candidates.append(_nearest(group, target))
        return _closest(candidates, target)

    def get_record(self, record_id: int) -> ArchiveRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise StoreError(f"no record with id {record_id}") from None

    def iter_records(self) -> Iterator[ArchiveRecord]:
        for record_id in sorted(self._records):
            yield self._records[record_id]

    def uris(self) -> list[str]:
        return sorted(self._by_uri)

    def __len__(self) -> int:
        return len(self._records)

    def verify(self) -> list[str]:
        """Problems found by checking that each frame has exactly one
        `index.cdxj` row, equal to the row it writes (in-memory stores have
        none), and a variant key that re-derives from its header pair."""
        problems: list[str] = []
        indexed: set[int] = set()
        if self._directory is not None:
            with open(self._directory / INDEX_NAME, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.rstrip("\n")
                    try:
                        record_id = int(json.loads(line.split(" ", 2)[2])["id"])
                    except (IndexError, KeyError, TypeError, ValueError):
                        problems.append(f"index line {lineno} malformed: {line!r}")
                        continue
                    record = self._records.get(record_id)
                    if record is None:
                        problems.append(f"index line {lineno} names missing record {record_id}")
                    elif record_id in indexed:
                        problems.append(f"index line {lineno} repeats record {record_id}")
                    elif line != _index_line(record):
                        problems.append(f"index row for record {record_id} disagrees with its frame")
                    indexed.add(record_id)
        for record in self.iter_records():
            if self._directory is not None and record.id not in indexed:
                problems.append(f"record {record.id} missing from index")
            rederived = derive_variant_key(
                record.request_headers, record.response_headers, self.variant_config
            )
            if rederived != record.variant_key:
                problems.append(f"variant key of record {record.id} not reproducible")
        return problems

    def close(self) -> None:
        if self._records_file is not None:
            self._records_file.close()
            self._records_file = None
        if self._index_file is not None:
            self._index_file.close()
            self._index_file = None

    def __enter__(self) -> "ArchiveStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
