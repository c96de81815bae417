"""cli: subcommand wiring, exit codes, config-file precedence."""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import socket
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import archivelab
from archivelab.cli import main
from archivelab.replay import ReplayMode, select_memento
from archivelab.store import ArchiveStore


def _site_config(tmp_path, **overrides):
    config = {"host": "twitter.com", "page_count": 2, "resources_per_page": 2}
    config.update(overrides)
    path = tmp_path / "site.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _crawl(tmp_path, out="arch", extra=()):
    site = _site_config(tmp_path)
    args = [
        "crawl",
        "--site-config", str(site),
        "--out", str(tmp_path / out),
        "--max-pages", "60",
        "--cookie-max-ttl", "inf",
        "--revisit-root-every", "5",
    ]
    return main(args + list(extra))


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["crawl"])  # --out is required
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-command"])
        assert excinfo.value.code == 1

    def test_runtime_error_is_exit_2(self, tmp_path, capsys):
        code = main(
            ["analyze", "--archive", str(tmp_path / "missing"), "--uri", "https://x.example/"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_demo_sessions_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--out", str(tmp_path / "d"), "--sessions", "0"])
        assert excinfo.value.code == 1
        assert not (tmp_path / "d").exists()  # rejected before any work

    def test_demo_max_pages_zero_is_usage_error(self, tmp_path, capsys):
        assert main(["demo", "--out", str(tmp_path / "d"), "--max-pages", "0"]) == 1
        assert "max_pages must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-pages", "0"], "max_pages must be >= 1"),
            (["--cookie-max-ttl", "-5"], "max_ttl must be >= 0"),
            (["--clock-step", "0"], "clock_step must be positive"),
            (["--start", "2019"], "not a 14-digit timestamp"),
            (["--seed", "notauri"], "expected an absolute URI"),
        ],
    )
    def test_crawl_invalid_option_value_is_usage_error(self, tmp_path, capsys, flags, message):
        assert main(["crawl", "--out", str(tmp_path / "a"), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("detect", ["--timestamp", "2019"], "not a 14-digit timestamp"),
            ("detect", ["--uri", "notauri"], "expected an absolute URI"),
            ("analyze", ["--uri", "notauri"], "expected an absolute URI"),
        ],
    )
    def test_read_invalid_option_value_is_usage_error(
        self, tmp_path, capsys, command, flags, message
    ):
        """Checked before the archive is opened: the missing one is not reached."""
        defaults = ["--archive", str(tmp_path / "missing"), "--uri", "https://x.example/"]
        if command == "detect":
            defaults += ["--timestamp", "20190101000000"]
        assert main([command, *defaults, *flags]) == 1
        assert f"archivelab {command}: usage error: {message}" in capsys.readouterr().err

    def test_demo_unwritable_out_dir_is_exit_2(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x", encoding="utf-8")
        code = main(["demo", "--out", str(blocker / "nested"), "--max-pages", "20"])
        assert code == 2

    def test_demo_contract_violation_exits_3(self, tmp_path, monkeypatch):
        import dataclasses

        import archivelab.demo as demo_module

        real_detect = demo_module.detect_violations

        def blinded(composite):
            report = real_detect(composite)
            return dataclasses.replace(report, verdict="consistent", violating_parts=())

        monkeypatch.setattr(demo_module, "detect_violations", blinded)
        code = main(["demo", "--out", str(tmp_path / "d"), "--max-pages", "20"])
        assert code == 3  # fine-grained: baseline no longer shows >= 1 violation
        assert (tmp_path / "d" / "demo_report.json").exists()

    def test_demo_failure_cleans_partial_output(self, tmp_path, monkeypatch):
        import archivelab.demo as demo_module

        def explode(*args, **kwargs):
            raise OSError("disk full (synthetic)")

        monkeypatch.setattr(demo_module, "scripted_crawl", explode)
        out = tmp_path / "demo"
        code = main(["demo", "--out", str(out), "--max-pages", "20"])
        assert code == 2
        assert not out.exists()  # crawl archives had been written, then removed

    def test_demo_failure_closes_every_store(self, tmp_path, monkeypatch):
        import archivelab.demo as demo_module

        def explode(*args, **kwargs):
            raise OSError("disk full (synthetic)")

        monkeypatch.setattr(demo_module, "scripted_crawl", explode)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["demo", "--out", str(tmp_path / "demo"), "--max-pages", "20"])
            gc.collect()
        assert code == 2
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


    def test_replay_on_a_busy_port_closes_its_store(self, tmp_path, capsys):
        assert _crawl(tmp_path) == 0
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                code = main(["replay", "--archive", str(tmp_path / "arch"), "--port", str(port)])
                gc.collect()
        assert code == 2
        assert "Address already in use" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestPipeline:
    def test_crawl_analyze_detect_round_trip(self, tmp_path, capsys):
        assert _crawl(tmp_path) == 0
        out = capsys.readouterr().out
        assert "60 captures" in out
        with ArchiveStore.open(tmp_path / "arch") as store:
            assert len(store) == 60

        code = main(
            [
                "analyze",
                "--archive", str(tmp_path / "arch"),
                "--uri", "https://twitter.com/",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] > 0
        assert payload["modal"] == "kn"  # faithful crawl is biased

        code = main(
            ["analyze", "--archive", str(tmp_path / "arch"), "--uri", "https://twitter.com/"]
        )
        assert code == 0
        text = capsys.readouterr().out.splitlines()
        assert text[0] == "language distribution of https://twitter.com/"
        assert text[2].split()[0] == "kn" and text[2].endswith("%")

        code = main(
            [
                "detect",
                "--archive", str(tmp_path / "arch"),
                "--uri", "https://twitter.com/",
                "--timestamp", "20190101000030",
                "--mode", "baseline",
                "--format", "json",
            ]
        )
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] in ("consistent", "defaced")
        assert verdict["parts"]

    def test_archives_are_byte_deterministic(self, tmp_path, capsys):
        names = ("records.dat", "index.cdxj", "meta.json")
        assert _crawl(tmp_path, out="first") == 0
        assert _crawl(tmp_path, out="second") == 0
        first = {n: (tmp_path / "first" / n).read_bytes() for n in names}
        assert {n: (tmp_path / "second" / n).read_bytes() for n in names} == first
        ArchiveStore.open(tmp_path / "first").close()
        assert {n: (tmp_path / "first" / n).read_bytes() for n in names} == first

    def test_detect_lang_shorthand(self, tmp_path, capsys):
        assert _crawl(tmp_path) == 0
        capsys.readouterr()
        code = main(
            [
                "detect",
                "--archive", str(tmp_path / "arch"),
                "--uri", "https://twitter.com/",
                "--timestamp", "20190101000030",
                "--mode", "variant",
                "--lang", "kn",
                "--format", "json",
            ]
        )
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["root_language"] == "kn"

    def test_analyze_compare_reports_both(self, tmp_path, capsys):
        assert _crawl(tmp_path, out="faithful") == 0
        site = _site_config(tmp_path)
        assert (
            main(
                [
                    "crawl",
                    "--site-config", str(site),
                    "--out", str(tmp_path / "fixed"),
                    "--max-pages", "60",
                    "--cookie-max-ttl", "0",
                    "--revisit-root-every", "5",
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "analyze",
                "--archive", str(tmp_path / "faithful"),
                "--compare", str(tmp_path / "fixed"),
                "--uri", "https://twitter.com/",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entropy_difference_bits"] > 0.0

    def test_crawl_cookie_file_preload_and_persist(self, tmp_path, capsys):
        cookie_file = tmp_path / "cookies.txt"
        cookie_file.write_text(
            "# Netscape HTTP Cookie File\ntwitter.com\tFALSE\t/\tFALSE\t0\tlang\tur\n",
            encoding="utf-8",
        )
        site = _site_config(tmp_path)
        code = main(
            [
                "crawl",
                "--site-config", str(site),
                "--out", str(tmp_path / "arch"),
                "--max-pages", "3",
                "--cookie-max-ttl", "inf",
                "--cookie-file", str(cookie_file),
                "--persist-cookies",
            ]
        )
        assert code == 0
        with ArchiveStore.open(tmp_path / "arch") as store:
            first = next(store.iter_records())
            assert first.request_headers.get("cookie") == "lang=ur"
        # jar was written back and the sticky cookie evolved with the crawl
        assert "lang" in cookie_file.read_text(encoding="utf-8")


class TestDetectRequestCookies:
    """`detect --request-cookies` sends only the rows in scope and unexpired."""

    def _detect(self, tmp_path, capsys, *extra):
        code = main(
            [
                "detect",
                "--archive", str(tmp_path / "arch"),
                "--uri", "https://twitter.com/",
                "--timestamp", "20190101000030",
                "--mode", "variant",
                "--fallback", "not-found",
                "--format", "json",
                *extra,
            ]
        )
        return code, capsys.readouterr().out

    def _cookie_file(self, tmp_path, row):
        path = tmp_path / "cookies.txt"
        path.write_text(f"# Netscape HTTP Cookie File\n{row}\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "row",
        [
            "other.example\tFALSE\t/\tFALSE\t0\tlang\tur",
            "twitter.com\tFALSE\t/\tFALSE\t946684800\tlang\tur",  # expired in 2000
        ],
        ids=["out-of-scope", "expired"],
    )
    def test_unsent_row_leaves_the_no_file_verdict(self, tmp_path, capsys, row):
        assert _crawl(tmp_path) == 0
        capsys.readouterr()
        code, out = self._detect(tmp_path, capsys)
        assert code == 0
        assert json.loads(out)["root_language"] == "en"
        cookies = self._cookie_file(tmp_path, row)
        assert self._detect(tmp_path, capsys, "--request-cookies", cookies) == (code, out)

    def test_in_scope_row_is_sent(self, tmp_path, capsys):
        assert _crawl(tmp_path) == 0
        capsys.readouterr()
        cookies = self._cookie_file(tmp_path, "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tkn")
        code, out = self._detect(tmp_path, capsys, "--request-cookies", cookies)
        assert code == 0
        assert json.loads(out)["root_language"] == "kn"

    def test_lang_wins_over_a_file_row(self, tmp_path, capsys):
        assert _crawl(tmp_path) == 0
        capsys.readouterr()
        cookies = self._cookie_file(tmp_path, "twitter.com\tFALSE\t/\tFALSE\t0\tlang\tur")
        code, out = self._detect(tmp_path, capsys, "--lang", "kn", "--request-cookies", cookies)
        assert code == 0
        assert json.loads(out)["root_language"] == "kn"


class TestReplayCommand:
    def test_port_zero_announces_bound_port(self, tmp_path, capsys):
        assert _crawl(tmp_path) == 0
        archive = tmp_path / "arch"
        src = str(Path(archivelab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from archivelab.cli import run; run()",
             "replay", "--archive", str(archive), "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            announced = re.search(r"http://127\.0\.0\.1:(\d+)/", proc.stdout.readline())
            assert announced is not None
            port = int(announced.group(1))
            assert port != 0
            with ArchiveStore.open(archive) as store:
                record = next(store.iter_records())
                expected = select_memento(
                    store, record.uri, record.datetime, ReplayMode.baseline()
                ).record
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", f"/web/{record.timestamp14}/{record.uri}")
            response = conn.getresponse()
            assert response.status == 200
            assert response.read() == expected.body
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=5)
            proc.stdout.close()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        site = _site_config(tmp_path)
        config = tmp_path / "defaults.json"
        config.write_text(
            json.dumps(
                {
                    "site_config": str(site),
                    "max_pages": 10,
                    "cookie_max_ttl": "inf",
                }
            ),
            encoding="utf-8",
        )
        assert main(["crawl", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        with ArchiveStore.open(tmp_path / "a") as store:
            assert len(store) == 10  # from config
        assert (
            main(
                [
                    "crawl",
                    "--config", str(config),
                    "--max-pages", "4",
                    "--out", str(tmp_path / "b"),
                ]
            )
            == 0
        )
        with ArchiveStore.open(tmp_path / "b") as store:
            assert len(store) == 4  # flag beats config

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["crawl", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 1


class TestDemo:
    def test_demo_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "demo",
                "--out", str(tmp_path / "demo"),
                "--max-pages", "120",
                "--site-config", str(_site_config(tmp_path)),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline replay verdict:      defaced" in out
        assert "variant-aware replay verdict: consistent" in out
        report = json.loads((tmp_path / "demo" / "demo_report.json").read_text())
        assert report["contract_satisfied"] is True
        for name in (
            "bias_report.json",
            "bias_report.txt",
            "violations_baseline.json",
            "violations_variant.json",
        ):
            assert (tmp_path / "demo" / name).exists()
        assert (tmp_path / "demo" / "archive-scenario" / "index.cdxj").exists()
