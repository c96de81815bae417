"""The independent checkers on small hand-built inputs.

Run with: python3 -m pytest bench/tests -q
"""

import json

import pytest

from checkers import archive_reader, origin_model, selector


def write_archive(tmp_path, frames, index_lines):
    (tmp_path / "meta.json").write_text(json.dumps({
        "format": "archivelab-store", "version": 1,
        "variant_config": {"content_cookie_names": ["lang"], "honor_vary": True,
                           "implied_vary": ["cookie"]}}))
    with open(tmp_path / "records.dat", "wb") as fh:
        for header, body in frames:
            fh.write(json.dumps(dict(header, body_length=len(body))).encode() + b"\n")
            fh.write(body + b"\n")
    (tmp_path / "index.cdxj").write_text("".join(line + "\n" for line in index_lines))


def header(record_id, uri, ts, variant):
    return {"id": record_id, "uri": uri, "datetime": ts, "status": 200,
            "request_headers": [["host", "a.example"]],
            "response_headers": [["content-language", "kn"]], "variant": variant}


class TestArchiveReader:
    def test_reads_frames_with_binary_bodies(self, tmp_path):
        body = b"line one\nline two\n\x00\xff"
        write_archive(tmp_path, [
            (header(1, "https://a.example/", "20190101000000", [["cookie", "lang=kn"]]), body),
            (header(2, "https://a.example/", "20190101000001", [["cookie", ""]]), b""),
        ], [
            'https://a.example/ 20190101000000 {"id":1,"status":200,"variant":[["cookie","lang=kn"]]}',
            'https://a.example/ 20190101000001 {"id":2,"status":200,"variant":[["cookie",""]]}',
        ])
        frames = list(archive_reader.iter_frames(tmp_path))
        assert [f.body for f in frames] == [body, b""]
        assert frames[0].header["variant"] == [["cookie", "lang=kn"]]
        by_id = {f.header["id"]: f.header for f in frames}
        assert archive_reader.check_index_matches_frames(tmp_path, by_id) == []
        assert archive_reader.read_meta(tmp_path)["variant_config"]["content_cookie_names"] == ["lang"]

    def test_truncated_body_is_an_error(self, tmp_path):
        write_archive(tmp_path, [(header(1, "https://a.example/", "20190101000000", []), b"abc")], [])
        data = (tmp_path / "records.dat").read_bytes()
        (tmp_path / "records.dat").write_bytes(data[:-2])
        with pytest.raises(archive_reader.ArchiveFormatError):
            list(archive_reader.iter_frames(tmp_path))

    def test_index_disagreement_is_reported(self, tmp_path):
        write_archive(tmp_path, [(header(1, "https://a.example/", "20190101000000", []), b"x")],
                      ['https://a.example/ 20190101000009 {"id":1,"status":200,"variant":[]}'])
        frames = {1: next(archive_reader.iter_frames(tmp_path)).header}
        assert archive_reader.check_index_matches_frames(tmp_path, frames) == [
            "index row 1 disagrees with its frame"]


KN = [["cookie", "lang=kn"]]
FR = [["cookie", "lang=fr"]]


class TestSelector:
    def test_nearest_wins(self):
        captures = [(10, 1, KN), (20, 2, KN), (31, 3, KN)]
        assert selector.select(captures, 24)[1] == 2

    def test_tie_goes_to_earlier_datetime(self):
        captures = [(30, 1, KN), (10, 2, KN)]
        assert selector.select(captures, 20)[1] == 2

    def test_equal_datetime_goes_to_smaller_id(self):
        captures = [(10, 7, KN), (10, 3, KN)]
        assert selector.select(captures, 10)[1] == 3

    def test_variant_aware_keeps_matching_captures(self):
        captures = [(10, 1, KN), (19, 2, FR), (40, 3, KN)]
        cookie = {"cookie": "session=x; lang=kn"}
        assert selector.select(captures, 20)[1] == 2
        assert selector.select(captures, 20, True, cookie)[1] == 1

    def test_variant_aware_falls_back_to_all(self):
        captures = [(10, 1, KN), (19, 2, FR)]
        assert selector.select(captures, 20, True, {"cookie": "lang=de"})[1] == 2

    def test_empty_cookie_dimension_matches_request_without_cookie(self):
        captures = [(10, 1, [["cookie", ""]]), (19, 2, FR)]
        assert selector.select(captures, 20, True, {})[1] == 1

    def test_cookie_value_keeps_content_cookies_sorted(self):
        assert selector.cookie_value("b=2; lang=kn; a=1", ["lang", "a"]) == "a=1;lang=kn"

    def test_no_captures(self):
        assert selector.select([], 5) is None


class TestOriginModel:
    SUPPORTED = {"en", "fr", "kn"}

    def test_negotiation_precedence(self):
        assert origin_model.negotiate("https://a/?lang=fr", "lang=kn", self.SUPPORTED, "en") == "fr"
        assert origin_model.negotiate("https://a/", "x=1; lang=kn", self.SUPPORTED, "en") == "kn"
        assert origin_model.negotiate("https://a/?lang=zz", "lang=yy", self.SUPPORTED, "en") == "en"
        assert origin_model.negotiate("https://a/", None, self.SUPPORTED, "en") == "en"

    def test_latest_earlier_lang_capture_wins(self):
        uris = ["https://a/", "https://a/?lang=fr", "https://a/f", "https://a/?lang=kn",
                "https://a/?lang=zz", "https://a/"]
        assert origin_model.sticky_cookies(uris, self.SUPPORTED, True) == [
            None, None, "fr", "fr", "kn", "kn"]
        assert origin_model.sticky_cookies(uris, self.SUPPORTED, False) == [None] * 6

    def test_html_lang(self):
        assert origin_model.html_lang(b'<!DOCTYPE html>\n<html lang="kn">\n') == "kn"
        assert origin_model.html_lang(b"<html>") is None
