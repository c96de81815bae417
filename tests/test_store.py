"""store: variant keys, the append-only record file, and the CDXJ index."""

from __future__ import annotations

import errno
import itertools
import os
import random
import warnings
from dataclasses import replace
from datetime import timedelta

import pytest

from archivelab.http_core import Headers
from archivelab.store import (
    ArchiveStore,
    StoreError,
    VariantConfig,
    VariantKey,
    derive_variant_key,
    variant_value,
)
from conftest import START, make_record

CFG = VariantConfig()  # {lang} cookies, honor Vary, implied [cookie]


class TestDeriveVariantKey:
    def test_cookie_dimension_reduces_to_content_cookies(self):
        request = Headers([("cookie", "lang=kn; _sess=abc")])
        response = Headers([("vary", "Cookie")])
        key = derive_variant_key(request, response, CFG)
        assert key.pairs == (("cookie", "lang=kn"),)

    def test_no_vary_no_implied_is_empty(self):
        cfg = VariantConfig(implied_vary=())
        key = derive_variant_key(Headers([("cookie", "lang=kn")]), Headers(), cfg)
        assert key.is_empty

    def test_implied_cookie_dimension_with_absent_header(self):
        key = derive_variant_key(Headers(), Headers(), CFG)
        assert key.pairs == (("cookie", ""),)

    def test_vary_star_fingerprints_whole_request(self):
        request = Headers([("host", "x"), ("cookie", "lang=kn"), ("accept", "a"), ("accept", "b")])
        key = derive_variant_key(request, Headers([("vary", "*")]), CFG)
        assert key.pairs == (
            ("accept", "a, b"),
            ("cookie", "lang=kn"),
            ("host", "x"),
        )

    def test_honor_vary_false_uses_implied(self):
        request = Headers([("cookie", "lang=kn"), ("accept-language", "ur")])
        response = Headers([("vary", "Accept-Language")])
        cfg = VariantConfig(honor_vary=False, implied_vary=("cookie",))
        assert derive_variant_key(request, response, cfg).pairs == (("cookie", "lang=kn"),)

    def test_dimensions_sorted_and_values_normalized(self):
        request = Headers([("accept-language", "ur"), ("cookie", "b=2; lang=kn; a=1")])
        response = Headers([("vary", "Cookie, Accept-Language")])
        cfg = VariantConfig(content_cookie_names=frozenset({"lang", "a"}))
        key = derive_variant_key(request, response, cfg)
        assert key.pairs == (
            ("accept-language", "ur"),
            ("cookie", "a=1;lang=kn"),  # names sorted inside the value
        )

    def test_variant_value_multiple_cookie_headers(self):
        request = Headers([("cookie", "lang=kn"), ("cookie", "other=1; a=2")])
        cfg = VariantConfig(content_cookie_names=frozenset({"lang", "a"}))
        assert variant_value(request, "cookie", cfg) == "a=2;lang=kn"

    def test_key_dimensions_and_encoding(self):
        key = VariantKey((("accept-language", "ur"), ("cookie", "lang=kn")))
        assert key.dimensions == ("accept-language", "cookie")
        assert key.encoded == '[["accept-language","ur"],["cookie","lang=kn"]]'
        assert key.encoded is key.encoded  # computed once per key
        assert key == VariantKey(key.pairs) and hash(key) == hash(VariantKey(key.pairs))

    def test_variant_matches(self, new_store):
        # `nearest` with request headers is the one variant match rule
        uri = "https://a.example/"
        with new_store(CFG) as store:
            kn = store.append(make_record(uri, START, request_cookie="lang=kn"))
            assert store.nearest(uri, START, Headers([("cookie", "lang=kn; _sess=zz")])).id == kn
            assert store.nearest(uri, START, Headers([("cookie", "lang=en")])) is None
        with new_store(VariantConfig(implied_vary=())) as store:
            empty = store.append(make_record(uri, START, cfg=VariantConfig(implied_vary=())))
            assert store.get_record(empty).variant_key == VariantKey()
            for request in (Headers(), Headers([("cookie", "lang=en")])):
                assert store.nearest(uri, START, request).id == empty  # empty key matches all


class TestAppendAndLookup:
    def test_ids_increase_from_one(self, new_store):
        with new_store() as store:
            ids = [store.append(make_record("https://a.example/", START)) for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_duplicate_captures_both_kept(self, new_store):
        record = make_record("https://a.example/", START)
        with new_store() as store:
            store.append(record)
            store.append(record)
            assert len(store.lookup("https://a.example/")) == 2

    def test_unknown_uri_empty(self, new_store):
        with new_store() as store:
            assert store.lookup("https://nowhere.example/") == []

    def test_same_second_ties_ordered_by_id(self, new_store):
        with new_store() as store:
            first = store.append(
                make_record("https://a.example/", START, request_cookie="lang=kn")
            )
            second = store.append(
                make_record("https://a.example/", START, request_cookie="lang=en")
            )
            entries = store.lookup("https://a.example/")
        assert [e.id for e in entries] == [first, second]
        assert {e.variant_key.pairs[0][1] for e in entries} == {"lang=kn", "lang=en"}

    def test_lookup_equals_linear_scan_oracle(self, new_store, no_fsync):
        rng = random.Random(1000)
        uris = [f"https://site{k}.example/p" for k in range(3)]
        for _ in range(1000):
            with new_store() as store:
                for _ in range(rng.randrange(0, 9)):
                    record = make_record(
                        rng.choice(uris),
                        START + timedelta(seconds=rng.randrange(-50, 50)),
                        lang=rng.choice(["en", "kn", None]),
                    )
                    store.append(record)
                probe = rng.choice(uris)
                expected = sorted(
                    (
                        (r.datetime, r.id)
                        for r in store.iter_records()
                        if str(r.uri) == probe
                    ),
                )
                got = [(e.datetime, e.id) for e in store.lookup(probe)]
            assert got == expected


def _short_second_body(data: bytes) -> bytes:
    """Drop one byte of the second of three 30-byte bodies."""
    second = data.index(b"x" * 30, data.index(b"x" * 30) + 30)
    return data[:second] + data[second + 1 :]


def _first_body_past_eof(data: bytes) -> bytes:
    return data.replace(b'"body_length":30', b'"body_length":9999', 1)


class TestDiskFormat:
    def _populate(self, store):
        ids = []
        ids.append(store.append(make_record("https://a.example/", START, lang="kn")))
        ids.append(
            store.append(
                make_record(
                    "https://a.example/",
                    START + timedelta(seconds=40),
                    lang="en",
                    request_cookie="lang=en",
                )
            )
        )
        # binary body with embedded newlines must survive framing
        ids.append(
            store.append(
                make_record(
                    "https://b.example/x",
                    START,
                    lang=None,
                    body=b"\x00\n\xff{\"not\":\"json\"}\n\n",
                )
            )
        )
        return ids

    def test_round_trip_reopen_identical(self, tmp_path):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            self._populate(store)
            original = list(store.iter_records())
            original_lookup = {u: store.lookup(u) for u in store.uris()}
        with ArchiveStore.open(tmp_path / "arch") as reopened:
            assert list(reopened.iter_records()) == original
            assert {u: reopened.lookup(u) for u in reopened.uris()} == original_lookup
            assert reopened.variant_config == CFG
            assert reopened.verify() == []

    def test_append_builds_the_entries_open_builds(self, tmp_path):
        """Every field of an appended capture's entry, down to where its
        frame lies, is what `open` reads back; the frames tile the file."""
        directory = tmp_path / "arch"
        with ArchiveStore.create(directory, CFG) as store:
            self._populate(store)
            appended = [entry for uri in store.uris() for entry in store.lookup(uri)]
        with ArchiveStore.open(directory) as reopened:
            assert [entry for uri in reopened.uris() for entry in reopened.lookup(uri)] == appended
        spans = sorted((entry.offset, entry.length) for entry in appended)
        assert [offset for offset, _ in spans] == [0] + list(
            itertools.accumulate(length for _, length in spans[:-1])
        )
        assert sum(length for _, length in spans) == (directory / "records.dat").stat().st_size

    def test_append_after_reopen_continues_ids(self, tmp_path):
        with ArchiveStore.create(tmp_path / "arch") as store:
            self._populate(store)
            original = list(store.iter_records())
        with ArchiveStore.open(tmp_path / "arch") as reopened:
            added = make_record("https://c.example/", START)
            new_id = reopened.append(added)
            assert new_id == 4
            # frames are read on demand: old and new ids alike, no reopen
            assert [reopened.get_record(r.id) for r in original] == original
            assert reopened.get_record(4) == replace(added, id=4)
        with ArchiveStore.open(tmp_path / "arch") as again:
            assert len(again) == 4

    def test_index_lines_byte_sortable(self, tmp_path):
        with ArchiveStore.create(tmp_path / "arch") as store:
            self._populate(store)
        lines = (tmp_path / "arch" / "index.cdxj").read_text().splitlines()
        parsed = [(l.split(" ", 2)[0], l.split(" ", 2)[1]) for l in sorted(lines)]
        assert parsed == sorted(parsed)

    def test_create_refuses_existing_archive(self, tmp_path):
        ArchiveStore.create(tmp_path / "arch").close()
        with pytest.raises(StoreError):
            ArchiveStore.create(tmp_path / "arch")

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(StoreError):
            ArchiveStore.open(tmp_path / "missing")

    def test_verify_detects_index_tampering(self, tmp_path):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            store.append(
                make_record("https://a.example/", START, request_cookie="lang=kn")
            )
        index = tmp_path / "arch" / "index.cdxj"
        index.write_text(index.read_text().replace("lang=kn", "lang=XX"))
        with ArchiveStore.open(tmp_path / "arch") as tampered:
            problems = tampered.verify()
        assert problems == ["index row for record 1 disagrees with its frame"]

    def test_verify_reads_each_frame_once(self, tmp_path, monkeypatch):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            self._populate(store)
        real_pread = os.pread
        offsets = []

        def counting_pread(fd, length, offset):
            offsets.append(offset)
            return real_pread(fd, length, offset)

        with ArchiveStore.open(tmp_path / "arch") as reopened:
            monkeypatch.setattr(os, "pread", counting_pread)
            assert reopened.verify() == []
        assert len(offsets) == len(set(offsets)) == len(reopened) == 3

    def test_failed_index_row_write_keeps_the_capture_and_its_id(self, tmp_path):
        class FullDisk:
            """Index file whose first write fails as a full disk would."""

            def __init__(self, fh):
                self.fh, self.failed = fh, False

            def write(self, data):
                if not self.failed:
                    self.failed = True
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        first = make_record("https://a.example/", START, lang="kn")
        second = make_record("https://b.example/", START + timedelta(seconds=9))
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            store._index_file = FullDisk(store._index_file)
            with pytest.raises(StoreError, match="frame of record 1 is stored"):
                store.append(first)
            assert store.append(second) == 2
        with ArchiveStore.open(tmp_path / "arch") as reopened:
            assert [(r.id, str(r.uri)) for r in reopened.iter_records()] == [
                (1, "https://a.example/"),
                (2, "https://b.example/"),
            ]
            assert reopened.nearest("https://a.example/", START).id == 1
            assert reopened.nearest("https://b.example/", START).id == 2
            assert reopened.verify() == ["record 1 missing from index"]

    def test_cut_off_final_index_line_still_serves_the_capture(self, tmp_path):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            self._populate(store)
        index = tmp_path / "arch" / "index.cdxj"
        index.write_bytes(index.read_bytes()[:-12])
        with ArchiveStore.open(tmp_path / "arch") as reopened:
            assert reopened.nearest("https://b.example/x", START).id == 3
            problems = reopened.verify()
        assert problems[0].startswith("index line 3 malformed")
        assert problems[1:] == ["record 3 missing from index"]

    @pytest.mark.parametrize("status", [0, 100, 599])
    def test_capture_status_accepted(self, tmp_path, status):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            store.append(make_record("https://a.example/", START, status=status))
        with ArchiveStore.open(tmp_path / "arch") as reopened:
            assert reopened.get_record(1).response_status == status

    @pytest.mark.parametrize("status", [1, 99, 600])
    def test_capture_status_refused_appended_and_in_a_frame(self, tmp_path, status):
        # a capture's status is 0 (a failed fetch) or 100-599, the statuses
        # an HttpResponse can carry
        with pytest.raises(ValueError, match="status out of range"):
            make_record("https://a.example/", START, status=status)
        forced = make_record("https://a.example/", START)
        object.__setattr__(forced, "response_status", status)
        directory = tmp_path / "arch"
        with ArchiveStore.create(directory, CFG) as store:
            with pytest.raises(ValueError, match="status out of range"):
                store.append(forced)
            assert len(store) == 0
            store.append(make_record("https://a.example/", START))
        records = directory / "records.dat"
        assert records.read_bytes().count(b'"status":200') == 1
        records.write_bytes(records.read_bytes().replace(b'"status":200', b'"status":%d' % status))
        with pytest.raises(StoreError, match="corrupt record frame: response status out of range"):
            ArchiveStore.open(directory)

    def test_duplicate_frame_id_is_rejected_on_open(self, tmp_path):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            store.append(make_record("https://a.example/", START))
        records = tmp_path / "arch" / "records.dat"
        records.write_bytes(records.read_bytes() * 2)
        with pytest.raises(StoreError, match="record id 1 already present"):
            ArchiveStore.open(tmp_path / "arch")

    def test_failed_frame_sync_leaves_no_frame(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        calls = []

        def fsync_failing_once(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError(errno.EIO, "Input/output error")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_failing_once)
        first = make_record("https://a.example/", START, lang="kn")
        second = make_record("https://b.example/", START + timedelta(seconds=9))
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            with pytest.raises(StoreError, match="append of record 1 failed"):
                store.append(first)
            assert store.append(second) == 1
        with ArchiveStore.open(tmp_path / "arch") as reopened:
            assert list(reopened.iter_records()) == [replace(second, id=1)]
            assert reopened.verify() == []

    def test_appends_refused_when_a_failed_frame_cannot_be_cut_off(
        self, tmp_path, monkeypatch
    ):
        def eio(*args):
            raise OSError(errno.EIO, "Input/output error")

        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            monkeypatch.setattr(os, "fsync", eio)
            monkeypatch.setattr(os, "ftruncate", eio)
            with pytest.raises(StoreError, match="could not be cut off"):
                store.append(make_record("https://a.example/", START))
            monkeypatch.undo()
            with pytest.raises(StoreError, match="could not be cut off"):
                store.append(make_record("https://b.example/", START))

    def test_torn_final_frame_is_ignored_then_cut_off_at_every_offset(self, tmp_path):
        directory = tmp_path / "arch"
        bodies = [bytes(range(k, k + 40)) for k in range(2)]
        # lines that start like frame headers but name no later frame
        bodies.append(b'{"page":3}\n{"body_length":7,"id":3}\n{"body_length":}\n')
        captures = [
            make_record(f"https://a.example/{k}", START + timedelta(seconds=k), body=body)
            for k, body in enumerate(bodies)
        ]
        with ArchiveStore.create(directory, CFG) as store:
            store.append(captures[0])
            store.append(captures[1])
            two_frames = (directory / "records.dat").stat().st_size
            store.append(captures[2])
            stored = list(store.iter_records())
        data = (directory / "records.dat").read_bytes()
        id_known_from = data.index(b'"id":3,', two_frames) + len(b'"id":3,')
        for cut in range(two_frames, len(data)):
            (directory / "records.dat").write_bytes(data[:cut])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with ArchiveStore.open(directory) as store:
                    assert list(store.iter_records()) == stored[:2]
                    assert (directory / "records.dat").read_bytes() == data[:cut]
                    assert store.append(captures[2]) == 3
                with ArchiveStore.open(directory) as again:
                    assert len(again) == 3 and again.get_record(3) == stored[2]
            assert (directory / "records.dat").read_bytes() == data
            messages = [str(w.message) for w in caught]
            if cut == two_frames:
                assert messages == []
                continue
            assert len(messages) == 1 and "torn final frame" in messages[0], (cut, messages)
            if cut >= id_known_from:
                assert "of record 3 " in messages[0]

    @pytest.mark.parametrize("seen_of_third", [0, 25])
    def test_frames_appended_during_open_are_left_alone(
        self, tmp_path, monkeypatch, seen_of_third
    ):
        directory = tmp_path / "arch"
        with ArchiveStore.create(directory, CFG) as store:
            for k in range(4):
                store.append(make_record(f"https://a.example/{k}", START, body=b"x" * 30))
                if k == 1:
                    two_frames = (directory / "records.dat").stat().st_size
            stored = list(store.iter_records())
        records = directory / "records.dat"
        data = records.read_bytes()
        seen = two_frames + seen_of_third
        records.write_bytes(data[:seen])
        real_fstat = os.fstat

        def fstat_then_writer_appends(fd):
            result = real_fstat(fd)
            monkeypatch.setattr(os, "fstat", real_fstat)
            with open(records, "ab") as writer:
                writer.write(data[seen:])
            return result

        monkeypatch.setattr(os, "fstat", fstat_then_writer_appends)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ArchiveStore.open(directory) as store:
                assert list(store.iter_records()) == stored[:2]
        assert len(caught) == (1 if seen_of_third else 0)
        assert records.read_bytes() == data
        with ArchiveStore.open(directory) as reopened:
            assert list(reopened.iter_records()) == stored

    @pytest.mark.parametrize("corrupt", [_short_second_body, _first_body_past_eof])
    def test_bad_frame_before_more_bytes_is_an_error(self, tmp_path, corrupt):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            for k in range(3):
                store.append(make_record(f"https://a.example/{k}", START, body=b"x" * 30))
        records = tmp_path / "arch" / "records.dat"
        records.write_bytes(corrupt(records.read_bytes()))
        damaged = records.read_bytes()
        with pytest.raises(StoreError, match="corrupt record frame"):
            ArchiveStore.open(tmp_path / "arch")
        assert records.read_bytes() == damaged  # nothing truncated

    def test_frame_changed_under_an_open_store_is_an_error(self, tmp_path):
        with ArchiveStore.create(tmp_path / "arch", CFG) as store:
            store.append(make_record("https://a.example/", START))
            store.append(make_record("https://b.example/", START))
        with ArchiveStore.open(tmp_path / "arch") as store:
            (tmp_path / "arch" / "records.dat").write_bytes(b"")
            with pytest.raises(StoreError, match="is not record 2"):
                store.get_record(2)

    @pytest.mark.parametrize("reopen", [False, True], ids=["appended", "reopened"])
    @pytest.mark.parametrize(
        "old, new",
        [(b'"status":200', b'"status":404'), (b'"lang=en"', b'"lang=kn"')],
        ids=["status", "header value"],
    )
    def test_frame_header_rewritten_in_place_is_an_error(self, tmp_path, reopen, old, new):
        directory = tmp_path / "arch"
        records = directory / "records.dat"

        def rewrite_second_header_then_read(store):
            data = records.read_bytes()
            second = data.index(b"\n", data.index(b"\n") + 1) + 1  # bodies hold no newline
            changed = data[:second] + data[second:].replace(old, new, 1)
            assert len(changed) == len(data) and changed != data
            records.write_bytes(changed)
            assert store.get_record(1).response_status == 200
            with pytest.raises(StoreError, match="is not record 2"):
                store.get_record(2)

        with ArchiveStore.create(directory, CFG) as store:
            for uri in ("https://a.example/", "https://b.example/"):
                store.append(make_record(uri, START, request_cookie="lang=en"))
            if not reopen:
                rewrite_second_header_then_read(store)
        if reopen:
            with ArchiveStore.open(directory) as store:
                rewrite_second_header_then_read(store)

    def test_equal_header_lists_share_one_headers(self, tmp_path):
        directory = tmp_path / "arch"
        uris = ["https://a.example/", "https://b.example/", "https://a.example/"]
        with ArchiveStore.create(directory, CFG) as store:
            for k, uri in enumerate(uris):
                store.append(make_record(uri, START + timedelta(seconds=k), lang="kn"))
            appended = list(store.iter_records())
        with ArchiveStore.open(directory) as store:
            reopened = list(store.iter_records())
        for records in (appended, reopened):
            first, second, third = records
            assert first.response_headers is third.response_headers
            assert first.request_headers is third.request_headers
            assert first.request_headers is not second.request_headers  # host differs
            assert first.response_headers is second.response_headers
            assert first.variant_key is second.variant_key
        assert appended == reopened

    def test_random_archives_round_trip(self, tmp_path):
        rng = random.Random(6006)
        for case in range(200):
            directory = tmp_path / f"arch{case}"
            with ArchiveStore.create(directory, CFG) as store:
                for _ in range(rng.randrange(1, 6)):
                    store.append(
                        make_record(
                            f"https://s{rng.randrange(3)}.example/p{rng.randrange(2)}",
                            START + timedelta(seconds=rng.randrange(0, 1000)),
                            lang=rng.choice(["en", "kn", "ur", None]),
                            body=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64))),
                            request_cookie=rng.choice([None, "lang=kn", "lang=en; _s=1"]),
                        )
                    )
                original = list(store.iter_records())
            with ArchiveStore.open(directory) as reopened:
                assert list(reopened.iter_records()) == original
