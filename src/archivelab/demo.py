"""One-shot experiment: crawl under contrasting jar policies, compare the
language bias, then reconstruct a scripted defacement scenario under both
replay modes and verify the variant-aware mode repairs it.

The exit contract is strict: status 0 only when the baseline replay of the
scenario is defaced (>= 1 violating part) AND the variant-aware replay is
consistent (0 violating parts). A run that completes but breaks that
contract exits 3; stage failures clean up partial output and propagate.
"""

from __future__ import annotations

import json
import logging
import shutil
from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .analyzer import CONSISTENT, DEFACED, bias_report, detect_violations, distribution, shannon_entropy
from .cookiejar import JarPolicy
from .crawler import CrawlPolicy, crawl, scripted_crawl
from .origin import SiteConfig, fetch_fn
from .replay import ReplayMode, RequestContext, reconstruct_composite
from .store import ArchiveStore, VariantConfig

__all__ = ["DemoPlan", "DemoResult", "run_demo", "scenario_schedule"]

logger = logging.getLogger(__name__)

_BASE_START = datetime(2019, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class DemoPlan:
    """What the demo runs: first policy is the faithful (bias-reproducing)
    arm, last is the fixed (short-TTL) arm."""

    out_dir: Path
    sessions: int = 1
    policies: tuple[JarPolicy, ...] = (
        JarPolicy(max_ttl=None),
        JarPolicy(max_ttl=timedelta(0)),
    )
    site: SiteConfig = field(default_factory=SiteConfig)
    seed: str | None = None
    max_pages: int = 150
    revisit_root_every: int = 5

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if not self.policies:
            raise ValueError("policies must be nonempty")
        if self.site.resources_per_page < 1:
            raise ValueError("the defacement scenario needs at least one fragment per page")
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    @property
    def seed_uri(self) -> str:
        return self.seed if self.seed is not None else self.site.base() + "/"


@dataclass(frozen=True)
class DemoResult:
    exit_code: int
    report: dict
    report_path: Path


def _policy_label(index: int, policy: JarPolicy) -> str:
    if policy.max_ttl is None:
        return f"{index:02d}-faithful"
    return f"{index:02d}-fixed-ttl{int(policy.max_ttl.total_seconds())}s"


def scenario_schedule(site: SiteConfig, root_lang: str, part_langs: list[str]) -> list[str]:
    """Capture order that makes baseline replay assemble a mixed-language
    composite: root in root_lang, each fragment's nearest capture in a
    different language, with root_lang fragment captures further away."""
    base = site.base() + "/"
    schedule = [f"{base}?lang={root_lang}", base]
    fragments = [
        site.base() + site.fragment_path(0, j) for j in range(site.resources_per_page)
    ]
    for lang, fragment in zip(part_langs, fragments):
        schedule += [f"{base}?lang={lang}", fragment]
    schedule.append(f"{base}?lang={root_lang}")
    schedule.extend(fragments)
    return schedule


def _scenario_languages(site: SiteConfig) -> tuple[str, list[str]]:
    """Root language plus one contrasting language per fragment slot."""
    supported = [t for t in site.languages]
    root_lang = "pt" if "pt" in supported else supported[0]
    preferred = [t for t in ("ur", "en") if t in supported and t != root_lang]
    rest = [t for t in supported if t != root_lang and t not in preferred]
    pool = preferred + rest
    needed = site.resources_per_page
    return root_lang, [pool[i % len(pool)] for i in range(needed)]


def run_demo(plan: DemoPlan) -> DemoResult:
    """Run the full pipeline; writes archives and reports under plan.out_dir."""
    out_dir = plan.out_dir
    created_out_dir = not out_dir.exists()
    created: list[Path] = []
    try:
        # closes every store before a failure reaches _cleanup
        with ExitStack() as open_stores:
            out_dir.mkdir(parents=True, exist_ok=True)
            fetch = fetch_fn(plan.site)
            cfg = VariantConfig()
            root_uri = plan.seed_uri

            # crawl arm: one archive per jar policy
            stores: list[tuple[str, ArchiveStore]] = []
            for i, policy in enumerate(plan.policies):
                label = _policy_label(i, policy)
                archive_dir = out_dir / f"archive-{label}"
                created.append(archive_dir)
                store = open_stores.enter_context(ArchiveStore.create(archive_dir, cfg))
                crawl_policy = CrawlPolicy(
                    jar_policy=policy,
                    max_pages=plan.max_pages,
                    revisit_root_every=plan.revisit_root_every,
                )
                for session in range(plan.sessions):
                    start = _BASE_START + timedelta(days=session)
                    for record in crawl([root_uri], fetch, crawl_policy, start, variant_config=cfg):
                        store.append(record)
                stores.append((label, store))
                logger.info("crawled %s: %d captures", label, len(store))

            faithful_label, faithful_store = stores[0]
            fixed_label, fixed_store = stores[-1]
            bias = bias_report(
                faithful_store, fixed_store, root_uri, faithful_label, fixed_label
            )
            bias_json = out_dir / "bias_report.json"
            bias_text = out_dir / "bias_report.txt"
            created += [bias_json, bias_text]
            bias_json.write_text(json.dumps(bias.to_json(), indent=2) + "\n", encoding="utf-8")
            bias_text.write_text(bias.to_text(), encoding="utf-8")

            # replay arm: scripted defacement scenario, reconstructed both ways
            root_lang, part_langs = _scenario_languages(plan.site)
            scenario_dir = out_dir / "archive-scenario"
            created.append(scenario_dir)
            scenario_store = open_stores.enter_context(ArchiveStore.create(scenario_dir, cfg))
            schedule = scenario_schedule(plan.site, root_lang, part_langs)
            records = scripted_crawl(
                schedule, fetch, JarPolicy(max_ttl=None), _BASE_START, variant_config=cfg
            )
            for record in records:
                scenario_store.append(record)
            root_capture_time = records[1].datetime

            baseline = reconstruct_composite(
                scenario_store, root_uri, root_capture_time, ReplayMode.baseline()
            )
            variant = reconstruct_composite(
                scenario_store,
                root_uri,
                root_capture_time,
                ReplayMode.variant_aware(),
                RequestContext.with_cookies([("lang", root_lang)]),
            )
            if baseline is None or variant is None:
                raise RuntimeError("scenario root capture could not be selected")
            baseline_report = detect_violations(baseline)
            variant_report = detect_violations(variant)
            for name, report in (
                ("violations_baseline.json", baseline_report),
                ("violations_variant.json", variant_report),
            ):
                path = out_dir / name
                created.append(path)
                path.write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")

            contract_ok = (
                baseline_report.verdict == DEFACED
                and len(baseline_report.violating_parts) >= 1
                and variant_report.verdict == CONSISTENT
                and not variant_report.violating_parts
            )
            faithful_dist = distribution(faithful_store, root_uri)
            fixed_dist = distribution(fixed_store, root_uri)
            report = {
                "seed": root_uri,
                "sessions": plan.sessions,
                "policies": [
                    {
                        "label": _policy_label(i, p),
                        "max_ttl_seconds": None
                        if p.max_ttl is None
                        else p.max_ttl.total_seconds(),
                    }
                    for i, p in enumerate(plan.policies)
                ],
                "bias": {
                    "faithful_entropy_bits": shannon_entropy(faithful_dist.counts),
                    "fixed_entropy_bits": shannon_entropy(fixed_dist.counts),
                    "faithful_modal": faithful_dist.modal(),
                    "fixed_modal": fixed_dist.modal(),
                },
                "scenario": {
                    "root_language": root_lang,
                    "part_languages": part_langs,
                    "baseline": baseline_report.to_json(),
                    "variant_aware": variant_report.to_json(),
                },
                "contract_satisfied": contract_ok,
            }
            report_path = out_dir / "demo_report.json"
            created.append(report_path)
            report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        return DemoResult(0 if contract_ok else 3, report, report_path)
    except Exception:
        _cleanup(out_dir, created, created_out_dir)
        raise


def _cleanup(out_dir: Path, created: list[Path], created_out_dir: bool) -> None:
    if created_out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
        return
    for path in reversed(created):
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        elif path.exists():
            path.unlink(missing_ok=True)
