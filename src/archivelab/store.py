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

Each capture is held as one `IndexEntry`: its datetime, variant key, id,
canonical URI, response status and two header lists, and where its frame
lies, with the length and CRC-32 of its header line. `_index_entry` builds
it from a frame's decoded header, for `open` and `append` alike: `open`
decodes each header line of `records.dat`, seeking past every body, and
`append` passes the header it has just encoded. Captures with equal header
lists share one `Headers`, equal variant keys one `VariantKey`, and equal
URI strings one `CanonicalUri`. A repeated frame id is a `StoreError`.
`open` never writes: a torn final frame is left out of the index with a
warning, and the next `append` cuts it off. `get_record` reads the frame
back with `os.pread`, checks that its header line is still the one the
entry was built from, and slices the body off; it decodes no JSON. Each
URI's captures are indexed twice: one list of all entries in (datetime, id)
order, and the same entries grouped by dimension tuple, then by variant
key, each group in (datetime, id) order. `nearest` bisects them.
"""

from __future__ import annotations

import json
import os
import re
import warnings
import zlib
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import cached_property, partial
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
    """Ordered (dimension, value) pairs a capture varied on; empty = no variance.

    Its dimension tuple and its JSON encoding are computed once per key.
    """

    pairs: tuple[tuple[str, str], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    @cached_property
    def dimensions(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.pairs)

    def to_json(self) -> list[list[str]]:
        return [[d, v] for d, v in self.pairs]

    @cached_property
    def encoded(self) -> str:
        """The key as compact JSON, as replay's `X-Archive-Variant` carries it."""
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
        normalized = ensure_utc(self.datetime)
        if normalized.microsecond:
            normalized = normalized.replace(microsecond=0)
        if normalized is not self.datetime:
            object.__setattr__(self, "datetime", normalized)
        if not 0 <= self.response_status <= 599:
            raise ValueError(f"response status out of range: {self.response_status}")

    @property
    def timestamp14(self) -> str:
        return format_timestamp14(self.datetime)


class IndexEntry(NamedTuple):
    """One capture as the store holds it: where its frame lives in
    `records.dat`, the length and CRC-32 of its header line (newline
    included), and every field of that header but the body length. Its
    header lists and variant key are interned."""

    datetime: datetime
    variant_key: VariantKey
    id: int
    uri: CanonicalUri
    status: int
    request_headers: Headers
    response_headers: Headers
    offset: int
    length: int
    header_length: int
    header_crc: int


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


def _add_sorted(entries: list[IndexEntry], entry: IndexEntry) -> None:
    """Keep `entries` (datetime, id)-sorted; appending in order costs O(1)."""
    if entries and (entry.datetime, entry.id) < (entries[-1].datetime, entries[-1].id):
        insort(entries, entry, key=_entry_order)
    else:
        entries.append(entry)


@dataclass
class _UriIndex:
    """Every capture of one URI, (datetime, id)-sorted, plus the same entries
    grouped by the dimension tuple of their variant key, then by the key."""

    entries: list[IndexEntry] = field(default_factory=list)
    groups: dict[tuple[str, ...], dict[VariantKey, list[IndexEntry]]] = field(
        default_factory=dict
    )

    def add(self, entry: IndexEntry) -> None:
        key = entry.variant_key
        group = self.groups.setdefault(key.dimensions, {}).setdefault(key, [])
        _add_sorted(group, entry)
        _add_sorted(self.entries, entry)


_dumps = partial(json.dumps, separators=(",", ":"), sort_keys=True)


def _index_line(record: ArchiveRecord) -> str:
    blob = {"id": record.id, "status": record.response_status,
            "variant": record.variant_key.to_json()}
    return f"{record.uri} {record.timestamp14} {_dumps(blob)}"


class _TornFrame(Exception):
    """The final frame of `records.dat` ends before its body does."""


# Header keys are sorted, so every frame starts with its body length, and
# "id" follows only "body_length" and "datetime": the first match in a torn
# header is its id when the id is complete.
_HEADER_START = b'{"body_length":'
_TORN_ID_RE = re.compile(rb'"id":(\d+)[,}]')
_raw_decode_json = json.JSONDecoder().raw_decode


def _holds_later_frame(data: bytes, record_id: int) -> bool:
    """True when a complete line of `data` after its first newline is a
    frame header with an id above `record_id`. Body bytes may contain
    anything, so a line that merely starts like a header does not count."""
    for line in data.split(b"\n")[1:-1]:
        if line.startswith(_HEADER_START):
            try:
                later = json.loads(line)["id"]
            except (KeyError, ValueError):
                continue
            if type(later) is int and later > record_id:
                return True
    return False


class ArchiveStore:
    """Capture store: single writer, any number of readers.

    The store fsyncs each frame of `records.dat` before `append` returns;
    it writes and flushes each `index.cdxj` row, and fsyncs the index once,
    at `close()`. It keeps the index of every capture in memory but no
    record: `get_record` and `iter_records` read frames back through the
    descriptor it appends with, which `close()` releases.
    """

    def __init__(self, directory: Path, variant_config: VariantConfig):
        self._directory = directory
        self.variant_config = variant_config
        self._records: dict[int, IndexEntry] = {}
        # interned values: the one Headers per distinct list of a frame
        # header, the one VariantKey per pairs, and per URI string of a frame
        # header its canonical URI and the key string it is indexed under
        self._header_lists: dict[tuple, Headers] = {}
        self._keys: dict[tuple, VariantKey] = {}
        self._uris: dict[str, tuple[CanonicalUri, str]] = {}
        self._by_uri: defaultdict[str, _UriIndex] = defaultdict(_UriIndex)
        self._next_id = 1
        self._size = 0  # bytes of complete frames in records.dat
        self._torn_tail = False  # records.dat ends in a partial frame past _size
        self._refusal: str | None = None  # why every append now fails
        self._index_unsynced = False  # rows written since open, to fsync at close
        self._records_file = None
        self._index_file = None

    # -- construction --------------------------------------------------------

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
        store._scan_frames()
        store._open_files()
        return store

    def _open_files(self) -> None:
        try:
            # appends and preads share one descriptor; unbuffered, so a failed
            # append leaves no bytes to flush later
            self._records_file = open(self._directory / RECORDS_NAME, "a+b", buffering=0)
            self._index_file = open(self._directory / INDEX_NAME, "ab")
        except OSError as exc:
            self.close()
            raise StoreError(f"cannot open archive files: {exc}") from exc

    def _scan_frames(self) -> None:
        """Index every frame of `records.dat` from its header line, seeking
        past its body.

        Each entry is built by `_index_entry`, as `append` builds it. Only
        the bytes present at the start of the scan are read, so frames
        another process appends meanwhile wait for the next `open`. A final
        frame that ends early, as a crash in `append` leaves it, is left out
        with a warning, and the next `append` cuts it off; any other bad
        frame is a `StoreError`. The file is never changed here.
        """
        path = self._directory / RECORDS_NAME
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            raise StoreError(f"missing {RECORDS_NAME} in {self._directory}") from None
        with fh:
            size = os.fstat(fh.fileno()).st_size
            offset = 0
            while offset < size:
                line = fh.readline()[: size - offset]
                try:
                    if not line.endswith(b"\n"):
                        raise _TornFrame
                    text = line.decode("utf-8")
                    header, header_end = _raw_decode_json(text)
                    if header_end != len(text) - 1:
                        raise ValueError("bytes after the JSON of a frame header")
                    length = header["body_length"]
                    if type(length) is not int or length < 0:
                        raise ValueError(f"bad body_length {length!r}")
                    end = offset + len(line) + length + 1
                    if end > size:
                        record_id = int(header["id"])
                        if _holds_later_frame(fh.read(size - fh.tell()), record_id):
                            raise ValueError(f"body of record {record_id} overruns later frames")
                        raise _TornFrame
                    fh.seek(length, os.SEEK_CUR)
                    if fh.read(1) != b"\n":
                        raise ValueError(f"no newline after the body of record {header.get('id')}")
                    uri_key, entry = self._index_entry(header, line, offset, end - offset)
                except _TornFrame:
                    found = _TORN_ID_RE.search(line)
                    name = f"record {int(found.group(1))}" if found else "a record whose id was cut"
                    warnings.warn(
                        f"{path}: ignored the torn final frame of {name} ({size - offset} "
                        f"bytes at offset {offset}); the next append cuts it off",
                        stacklevel=3,
                    )
                    self._torn_tail = True
                    break
                except (KeyError, TypeError, ValueError) as exc:
                    raise StoreError(f"corrupt record frame: {exc}") from exc
                self._register(uri_key, entry)
                offset = end
        self._size = offset

    def _index_entry(
        self, header: dict, line: bytes, offset: int, length: int
    ) -> tuple[str, IndexEntry]:
        """The key string of a frame's URI and the frame's entry, from its
        decoded header, its header line and where the frame lies.

        Each distinct URI string is canonicalized once per store, and each
        distinct header list and variant key built once.
        """
        uri = self._uris.get(header["uri"])
        if uri is None:
            canonical = canonicalize(header["uri"])
            uri = self._uris[header["uri"]] = (canonical, str(canonical))
        status = int(header["status"])
        if not 0 <= status <= 599:
            raise ValueError(f"response status out of range: {status}")
        entry = IndexEntry(
            parse_timestamp14(header["datetime"]),
            self._variant_key(header["variant"]),
            int(header["id"]),
            uri[0],
            status,
            self._header_list(header["request_headers"]),
            self._header_list(header["response_headers"]),
            offset,
            length,
            len(line),
            zlib.crc32(line),
        )
        return uri[1], entry

    def _header_list(self, pairs: list) -> Headers:
        """The shared `Headers` of a frame header's ``[[name, value], ...]``."""
        key = tuple(map(tuple, pairs))
        headers = self._header_lists.get(key)
        if headers is None:
            headers = self._header_lists[key] = Headers(key)  # raises unless all are pairs
        return headers

    def _variant_key(self, pairs: list) -> VariantKey:
        """The shared `VariantKey` of a frame header's ``[[dimension, value], ...]``."""
        key = tuple(map(tuple, pairs))
        variant_key = self._keys.get(key)
        if variant_key is None:
            variant_key = self._keys[key] = VariantKey(tuple((str(d), str(v)) for d, v in key))
        return variant_key

    # -- write path -----------------------------------------------------------

    def append(self, record: ArchiveRecord) -> int:
        """Append one capture; returns its assigned id.

        The record's variant key must already be derived. Duplicate
        (uri, datetime, variant) captures are allowed: append-only means
        append-only. Its entry is built from the header it encodes, before
        the frame is written, and registered once the frame is fsynced. A
        frame that fails to write or sync is cut off again, so its id stays
        free; a failed index-row write still raises, but the capture stays
        registered and its id is never reused.
        """
        if record.id is None:
            record = replace(record, id=self._next_id)
        if record.id in self._records:
            raise StoreError(f"record id {record.id} already present")
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
        line = _dumps(header).encode("utf-8") + b"\n"
        length = len(line) + len(record.body) + 1
        uri_key, entry = self._index_entry(header, line, self._size, length)
        self._write_frame(line + record.body + b"\n", record.id)
        self._register(uri_key, entry)
        self._size += length
        self._index_unsynced = True
        try:
            self._index_file.write((_index_line(record) + "\n").encode("utf-8"))
            self._index_file.flush()
        except OSError as exc:
            raise StoreError(
                f"frame of record {record.id} is stored but its index row is not: {exc}"
            ) from exc
        return record.id

    def _write_frame(self, frame: bytes, record_id: int) -> None:
        """Write and fsync `frame` after the last complete frame of
        `records.dat`, first cutting off a torn tail that `open` found. On
        failure cut the file back to its length before; if that fails too,
        refuse every later append."""
        if self._refusal is not None:
            raise StoreError(self._refusal)
        if self._records_file is None:
            raise StoreError(f"archive at {self._directory} is closed")
        try:
            if self._torn_tail:
                os.ftruncate(self._records_file.fileno(), self._size)
                self._torn_tail = False
            view = memoryview(frame)
            while view:
                view = view[self._records_file.write(view) :]
            os.fsync(self._records_file.fileno())
        except OSError as exc:
            try:
                os.ftruncate(self._records_file.fileno(), self._size)
            except OSError as again:
                self._refusal = (
                    f"{RECORDS_NAME} may end in a partial frame of record {record_id}, "
                    f"which could not be cut off: {again}"
                )
                raise StoreError(self._refusal) from exc
            raise StoreError(f"append of record {record_id} failed: {exc}") from exc

    def _register(self, uri: str, entry: IndexEntry) -> None:
        record_id = entry.id
        if record_id in self._records:
            raise StoreError(f"record id {record_id} already present")
        self._records[record_id] = entry
        self._by_uri[uri].add(entry)
        self._next_id = max(self._next_id, record_id + 1)

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
    ) -> IndexEntry | None:
        """The capture of `uri` nearest `target`, or None.

        Nearest means least |datetime - target|, then the earlier datetime,
        then the smaller id. With `request_headers`, only captures whose
        variant key those headers reproduce under the store's
        `variant_config` are candidates. The request's value for each
        dimension is computed once per call, then each group is found by its
        key.
        """
        index = self._by_uri.get(str(uri))
        if index is None:
            return None
        target = ensure_utc(target)
        if request_headers is None:
            return _nearest(index.entries, target)
        cfg = self.variant_config
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
        """Read one record back: pread its frame, check that its header line
        is still the one the store indexed, and slice the body off."""
        entry = self._records.get(record_id)
        if entry is None:
            raise StoreError(f"no record with id {record_id}")
        if self._records_file is None:
            raise StoreError(f"archive at {self._directory} is closed")
        data = os.pread(self._records_file.fileno(), entry.length, entry.offset)
        head = entry.header_length
        if len(data) != entry.length or zlib.crc32(data[:head]) != entry.header_crc:
            raise StoreError(f"frame at offset {entry.offset} is not record {record_id}")
        return ArchiveRecord(
            id=record_id,
            uri=entry.uri,
            datetime=entry.datetime,
            request_headers=entry.request_headers,
            response_status=entry.status,
            response_headers=entry.response_headers,
            body=data[head:-1],
            variant_key=entry.variant_key,
        )

    def iter_records(self) -> Iterator[ArchiveRecord]:
        for record_id in sorted(self._records):
            yield self.get_record(record_id)

    def uris(self) -> list[str]:
        return sorted(self._by_uri)

    def __len__(self) -> int:
        return len(self._records)

    def verify(self) -> list[str]:
        """Problems found by checking that each frame has exactly one
        `index.cdxj` row, equal to the row it writes, and a variant key that
        re-derives from its header pair. Each frame is read once."""
        rows: dict[int, str] = {}
        unreproducible: set[int] = set()
        for record in self.iter_records():
            rows[record.id] = _index_line(record)
            rederived = derive_variant_key(
                record.request_headers, record.response_headers, self.variant_config
            )
            if rederived != record.variant_key:
                unreproducible.add(record.id)
        problems: list[str] = []
        indexed: set[int] = set()
        with open(self._directory / INDEX_NAME, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                try:
                    record_id = int(json.loads(line.split(" ", 2)[2])["id"])
                except (IndexError, KeyError, TypeError, ValueError):
                    problems.append(f"index line {lineno} malformed: {line!r}")
                    continue
                if record_id not in rows:
                    problems.append(f"index line {lineno} names missing record {record_id}")
                elif record_id in indexed:
                    problems.append(f"index line {lineno} repeats record {record_id}")
                elif line != rows[record_id]:
                    problems.append(f"index row for record {record_id} disagrees with its frame")
                indexed.add(record_id)
        for record_id in rows:
            if record_id not in indexed:
                problems.append(f"record {record_id} missing from index")
            if record_id in unreproducible:
                problems.append(f"variant key of record {record_id} not reproducible")
        return problems

    def close(self) -> None:
        """Fsync `index.cdxj` if rows were written, then release every file;
        closing twice is a no-op."""
        index, self._index_file = self._index_file, None
        try:
            if index is not None:
                try:
                    if self._index_unsynced:
                        os.fsync(index.fileno())
                finally:
                    index.close()
        except OSError as exc:
            raise StoreError(f"cannot sync {INDEX_NAME}: {exc}") from exc
        finally:
            records, self._records_file = self._records_file, None
            if records is not None:
                records.close()

    def __enter__(self) -> "ArchiveStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
