"""Command-line entry point wiring the pipeline together.

Subcommands: serve-origin, crawl, replay, analyze, detect, demo.
Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 demo contract
violated. Every subcommand accepts --config <json>; explicit flags win over
config values, which win over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from datetime import timedelta
from pathlib import Path

from .analyzer import bias_report, detect_violations, distribution
from .cookiejar import CookieJar, JarPolicy, import_netscape
from .crawler import CrawlPolicy, crawl
from .demo import DemoPlan, run_demo
from .http_core import Headers, canonicalize, parse_timestamp14
from .origin import SiteConfig, fetch_fn, load_site_config, make_origin_server
from .replay import (
    FALLBACK_NEAREST_ANY,
    FALLBACK_NOT_FOUND,
    ReplayMode,
    make_replay_server,
    reconstruct_composite,
    replay_headers,
)
from .store import ArchiveStore, VariantConfig

__all__ = ["main", "run"]

logger = logging.getLogger(__name__)

_FALLBACKS = {"nearest-any": FALLBACK_NEAREST_ANY, "not-found": FALLBACK_NOT_FOUND}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this pipeline reserves 2 for runtime."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _option_values():
    """Read option values inside this block, before any work: a ValueError
    raised there is a usage error, which `main` reports with exit code 1."""
    try:
        yield
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from exc


def _cfg(args: argparse.Namespace, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return getattr(args, "_config", {}).get(key, default)


def _parse_ttl(value) -> timedelta | None:
    if value is None or str(value).lower() in ("inf", "none", ""):
        return None
    return timedelta(seconds=float(value))


def _site_from_args(args: argparse.Namespace) -> SiteConfig:
    path = _cfg(args, "site_config", None)
    return load_site_config(path) if path else SiteConfig()


def _split_csv(value) -> tuple[str, ...]:
    return tuple(s.strip() for s in str(value).split(",") if s.strip())


def _variant_config(args: argparse.Namespace) -> VariantConfig:
    return VariantConfig(
        content_cookie_names=frozenset(_split_csv(_cfg(args, "content_cookie_names", "lang"))),
        honor_vary=bool(_cfg(args, "honor_vary", True)),
        implied_vary=_split_csv(_cfg(args, "implied_vary", "cookie")),
    )


def _replay_mode(args: argparse.Namespace) -> ReplayMode:
    mode = _cfg(args, "mode", "baseline")
    fallback = _FALLBACKS[_cfg(args, "fallback", "nearest-any")]
    if mode == "baseline":
        return ReplayMode.baseline()
    return ReplayMode.variant_aware(fallback)


def _request_cookie_jar(args: argparse.Namespace) -> CookieJar | None:
    """The --request-cookies file as a jar, or None without one."""
    cookie_file = _cfg(args, "request_cookies", None)
    if not cookie_file:
        return None
    return import_netscape(Path(cookie_file).read_text(encoding="utf-8"))


# -- subcommands ---------------------------------------------------------------


def cmd_serve_origin(args: argparse.Namespace) -> int:
    site = _site_from_args(args)
    port = int(_cfg(args, "port", 8080))
    with make_origin_server(site, port) as server:
        print(
            f"origin for {site.host} listening on "
            f"http://127.0.0.1:{server.server_address[1]}/",
            flush=True,
        )
        server.serve_forever()
    return 0


def cmd_crawl(args: argparse.Namespace) -> int:
    with _option_values():
        site = _site_from_args(args)
        seeds = _cfg(args, "seed", None) or [site.base() + "/"]
        for seed in seeds:
            canonicalize(seed)
        policy = CrawlPolicy(
            jar_policy=JarPolicy(
                max_ttl=_parse_ttl(_cfg(args, "cookie_max_ttl", "300")),
                session_scoped=not bool(_cfg(args, "persist_cookies", False)),
            ),
            max_pages=int(_cfg(args, "max_pages", 100)),
            revisit_root_every=int(_cfg(args, "revisit_root_every", 0)) or None,
            clock_step=timedelta(seconds=float(_cfg(args, "clock_step", 1.0))),
        )
        start = parse_timestamp14(str(_cfg(args, "start", "20190101000000")))
    cfg = _variant_config(args)

    jar = None
    cookie_file = _cfg(args, "cookie_file", None)
    if cookie_file:
        jar = import_netscape(
            Path(cookie_file).read_text(encoding="utf-8"), policy.jar_policy
        )

    records = crawl(
        seeds, fetch_fn(site), policy, start, variant_config=cfg, jar=jar
    )
    out = Path(args.out)
    with ArchiveStore.create(out, cfg) as store:
        for record in records:
            store.append(record)
    if cookie_file and not policy.jar_policy.session_scoped and jar is not None:
        Path(cookie_file).write_text(jar.export_netscape(), encoding="utf-8")
    print(f"crawled {len(records)} captures into {out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    mode = _replay_mode(args)
    port = int(_cfg(args, "port", 8081))
    base_jar = _request_cookie_jar(args)
    with (
        ArchiveStore.open(args.archive) as store,
        make_replay_server(store, mode, port, base_jar=base_jar) as server,
    ):
        print(
            f"replaying {len(store)} captures ({mode.kind}) on "
            f"http://127.0.0.1:{server.server_address[1]}/web/<timestamp>/<uri>",
            flush=True,
        )
        server.serve_forever()
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    archive = args.archive
    with _option_values():
        uri = canonicalize(args.uri)
    fmt = _cfg(args, "format", "text")
    with ArchiveStore.open(archive) as store:
        compare = _cfg(args, "compare", None)
        if compare:
            with ArchiveStore.open(compare) as other:
                report = bias_report(store, other, uri, str(archive), str(compare))
            payload, text = report.to_json(), report.to_text()
        else:
            dist = distribution(store, uri)
            payload = {"uri": dist.uri, **dist.to_json()}
            text = f"language distribution of {dist.uri}\n{dist.to_text()}"
    print(json.dumps(payload, indent=2) if fmt == "json" else text)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    archive = args.archive
    with _option_values():
        uri = canonicalize(args.uri)
        target = parse_timestamp14(str(args.timestamp))
    mode = _replay_mode(args)
    lang = _cfg(args, "lang", None)
    request = Headers([("cookie", f"lang={lang}")] if lang else [])
    request = replay_headers(request, uri, target, _request_cookie_jar(args))
    fmt = _cfg(args, "format", "text")
    with ArchiveStore.open(archive) as store:
        composite = reconstruct_composite(store, uri, target, mode, request)
        if composite is None:
            raise RuntimeError(f"no capture of {uri} to use as composite root")
        report = detect_violations(composite)
        if fmt == "json":
            payload = report.to_json()
            payload["parts"] = [
                {
                    "uri": part_uri,
                    "capture": None if rec is None else rec.timestamp14,
                }
                for part_uri, rec in composite.parts
            ]
            print(json.dumps(payload, indent=2))
        else:
            print(f"root {report.root_uri} @{composite.root.timestamp14} "
                  f"lang={report.root_language}")
            for part_uri, rec in composite.parts:
                note = "MISSING" if rec is None else f"@{rec.timestamp14}"
                print(f"  part {part_uri} {note}")
            print(f"languages present: {sorted(report.languages_present)}")
            for part_uri, tag in report.violating_parts:
                print(f"  VIOLATION {part_uri} -> {tag}")
            print(f"verdict: {report.verdict}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    site_path = _cfg(args, "site_config", None)
    with _option_values():
        plan = DemoPlan(
            out_dir=Path(args.out),
            sessions=int(_cfg(args, "sessions", 1)),
            site=load_site_config(site_path) if site_path else SiteConfig(),
            seed=_cfg(args, "seed", None),
            max_pages=int(_cfg(args, "max_pages", 150)),
        )
    result = run_demo(plan)
    bias = result.report["bias"]
    scenario = result.report["scenario"]
    print(f"faithful crawl entropy: {bias['faithful_entropy_bits']:.4f} bits "
          f"(modal {bias['faithful_modal']})")
    print(f"fixed crawl entropy:    {bias['fixed_entropy_bits']:.4f} bits "
          f"(modal {bias['fixed_modal']})")
    print(f"baseline replay verdict:      {scenario['baseline']['verdict']} "
          f"({len(scenario['baseline']['violating_parts'])} violating parts)")
    print(f"variant-aware replay verdict: {scenario['variant_aware']['verdict']} "
          f"({len(scenario['variant_aware']['violating_parts'])} violating parts)")
    print(f"report: {result.report_path}")
    if result.exit_code != 0:
        print("demo contract violated", file=sys.stderr)
    return result.exit_code


# -- parser --------------------------------------------------------------------


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="archivelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of default option values")
        return p

    p = add("serve-origin", cmd_serve_origin, "run the synthetic origin over TCP")
    p.add_argument("--port", type=int)
    p.add_argument("--site-config", help="site config JSON")

    p = add("crawl", cmd_crawl, "breadth-first crawl into a new archive")
    p.add_argument("--seed", action="append", help="seed URI (repeatable)")
    p.add_argument("--site-config")
    p.add_argument("--max-pages", type=int)
    p.add_argument("--cookie-max-ttl", dest="cookie_max_ttl",
                   help="cap cookie lifetime in seconds; 'inf' disables the cap (default 300)")
    p.add_argument("--revisit-root-every", type=int)
    p.add_argument("--clock-step", type=float, help="synthetic seconds per request")
    p.add_argument("--start", help="14-digit timestamp of the first capture")
    p.add_argument("--cookie-file", help="Netscape cookie file to preload")
    p.add_argument("--persist-cookies", action="store_const", const=True, default=None,
                   help="write the jar back to --cookie-file after the crawl")
    p.add_argument("--content-cookie-names", help="comma-separated, default 'lang'")
    p.add_argument("--implied-vary", help="comma-separated dimensions, default 'cookie'")
    p.add_argument("--out", required=True, help="archive directory to create")

    p = add("replay", cmd_replay, "serve an archive over HTTP")
    p.add_argument("--archive", required=True)
    p.add_argument("--mode", choices=["baseline", "variant"])
    p.add_argument("--fallback", choices=sorted(_FALLBACKS))
    p.add_argument("--port", type=int)
    p.add_argument("--request-cookies", help="Netscape cookie file of default request cookies")

    p = add("analyze", cmd_analyze, "language distribution of a URI in an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--uri", required=True)
    p.add_argument("--compare", help="second archive for a side-by-side bias report")
    p.add_argument("--format", choices=["text", "json"])

    p = add("detect", cmd_detect, "reconstruct a composite and judge it")
    p.add_argument("--archive", required=True)
    p.add_argument("--uri", required=True)
    p.add_argument("--timestamp", required=True, help="14-digit target timestamp")
    p.add_argument("--mode", choices=["baseline", "variant"])
    p.add_argument("--fallback", choices=sorted(_FALLBACKS))
    p.add_argument("--lang", help="shorthand for a 'lang' request cookie")
    p.add_argument("--request-cookies",
                   help="Netscape cookie file of default request cookies")
    p.add_argument("--format", choices=["text", "json"])

    p = add("demo", cmd_demo, "run the full bias-and-fix experiment")
    p.add_argument("--out", required=True)
    p.add_argument("--sessions", type=_positive_int)
    p.add_argument("--max-pages", type=int)
    p.add_argument("--seed")
    p.add_argument("--site-config")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read --config: {exc}")
        if not isinstance(config, dict):
            parser.error("--config must contain a JSON object")
    args._config = config
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        print(f"archivelab {args.command}: usage error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # runtime failures map to exit 2 by contract
        logger.debug("command failed", exc_info=True)
        print(f"archivelab: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
