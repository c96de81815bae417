"""Measurements over archives: language distributions, bias comparison,
and cookie-violation verdicts on composite mementos.

Language equality is on primary subtags ("en-US" counts as "en"). Captures
whose language cannot be determined are tallied under "unknown" and never
count toward the distinctness test that declares a composite defaced.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Mapping

from .http_core import CanonicalUri
from .replay import CompositeMemento
from .store import ArchiveRecord, ArchiveStore

__all__ = [
    "UNKNOWN",
    "CONSISTENT",
    "DEFACED",
    "language_of",
    "primary_subtag",
    "LanguageDistribution",
    "distribution",
    "shannon_entropy",
    "ViolationReport",
    "detect_violations",
    "BiasReport",
    "bias_report",
]

logger = logging.getLogger(__name__)

UNKNOWN = "unknown"
CONSISTENT = "consistent"
DEFACED = "defaced"

_HTML_LANG_RE = re.compile(rb'<html\b[^>]*?\blang="([^"]+)"', re.IGNORECASE)


def primary_subtag(tag: str) -> str:
    return tag.split("-")[0].lower()


def language_of(record: ArchiveRecord) -> str | None:
    """Language of a capture: Content-Language header first, else the html
    lang attribute, else None. A header/body mismatch is worth a warning
    (the header still wins)."""
    header = record.response_headers.get("content-language")
    header_tag = header.split(",")[0].strip().lower() if header else None

    body_tag: str | None = None
    match = _HTML_LANG_RE.search(record.body)
    if match:
        body_tag = match.group(1).decode("utf-8", errors="replace").strip().lower()

    if header_tag:
        if body_tag and primary_subtag(body_tag) != primary_subtag(header_tag):
            logger.warning(
                "record %s: Content-Language %r disagrees with body lang %r",
                record.id,
                header_tag,
                body_tag,
            )
        return header_tag
    return body_tag


@dataclass(frozen=True)
class LanguageDistribution:
    """Per-URI capture counts by primary language subtag."""

    uri: str
    counts: Mapping[str, int]
    total: int

    def fractions(self) -> dict[str, float]:
        if self.total == 0:
            return {}
        return {tag: count / self.total for tag, count in self.counts.items()}

    def modal(self) -> str | None:
        if not self.counts:
            return None
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]

    def to_json(self) -> dict:
        return {
            "counts": dict(self.counts),
            "fractions": self.fractions(),
            "modal": self.modal(),
            "entropy_bits": shannon_entropy(self.counts),
            "total": self.total,
        }


def distribution(store: ArchiveStore, uri: CanonicalUri | str) -> LanguageDistribution:
    """Language distribution over all captures of one URI."""
    counts: dict[str, int] = {}
    entries = store.lookup(uri)
    for entry in entries:
        tag = language_of(store.get_record(entry.id))
        key = primary_subtag(tag) if tag else UNKNOWN
        counts[key] = counts.get(key, 0) + 1
    return LanguageDistribution(str(uri), dict(sorted(counts.items())), len(entries))


def shannon_entropy(counts: Mapping[str, int]) -> float:
    """Entropy in bits of a count distribution; 0.0 for empty or single-class."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        if count > 0:
            p = count / total
            entropy -= p * math.log2(p)
    return entropy


@dataclass(frozen=True)
class ViolationReport:
    """Verdict on a composite memento.

    defaced iff at least two distinct known languages appear among the root
    and its parts. violating_parts lists each part whose known language
    differs from the root's; unresolved_parts lists parts that are missing
    or of unknown language (excluded from the distinctness count).
    """

    root_uri: str
    root_language: str | None
    languages_present: frozenset[str]
    violating_parts: tuple[tuple[str, str], ...]
    unresolved_parts: tuple[str, ...]
    verdict: str

    def to_json(self) -> dict:
        return {
            "root_uri": self.root_uri,
            "root_language": self.root_language,
            "languages_present": sorted(self.languages_present),
            "violating_parts": [list(p) for p in self.violating_parts],
            "unresolved_parts": list(self.unresolved_parts),
            "verdict": self.verdict,
        }


def detect_violations(composite: CompositeMemento) -> ViolationReport:
    """Judge a composite: consistent or defaced. Order of parts is irrelevant."""
    root_tag = language_of(composite.root)
    root_primary = primary_subtag(root_tag) if root_tag else None

    present: set[str] = set()
    if root_primary:
        present.add(root_primary)
    violating: list[tuple[str, str]] = []
    unresolved: list[str] = []
    for part_uri, record in composite.parts:
        tag = language_of(record) if record is not None else None
        if tag is None:
            unresolved.append(part_uri)
            continue
        part_primary = primary_subtag(tag)
        present.add(part_primary)
        if root_primary is not None and part_primary != root_primary:
            violating.append((part_uri, part_primary))

    return ViolationReport(
        root_uri=str(composite.root.uri),
        root_language=root_primary,
        languages_present=frozenset(present),
        violating_parts=tuple(violating),
        unresolved_parts=tuple(unresolved),
        verdict=DEFACED if len(present) > 1 else CONSISTENT,
    )


@dataclass(frozen=True)
class BiasReport:
    """Side-by-side language distributions of one URI in two archives."""

    uri: str
    label_a: str
    label_b: str
    distribution_a: LanguageDistribution
    distribution_b: LanguageDistribution

    def to_json(self) -> dict:
        return {
            "uri": self.uri,
            self.label_a: self.distribution_a.to_json(),
            self.label_b: self.distribution_b.to_json(),
            "entropy_difference_bits": shannon_entropy(self.distribution_a.counts)
            - shannon_entropy(self.distribution_b.counts),
        }

    def to_text(self) -> str:
        lines = [f"language distribution of {self.uri}"]
        for label, dist in (
            (self.label_a, self.distribution_a),
            (self.label_b, self.distribution_b),
        ):
            entropy = shannon_entropy(dist.counts)
            lines.append(
                f"  [{label}] captures={dist.total} modal={dist.modal()} "
                f"entropy={entropy:.4f} bits"
            )
            for tag, fraction in sorted(
                dist.fractions().items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"    {tag:10s} {dist.counts[tag]:6d}  {fraction:7.2%}")
        return "\n".join(lines) + "\n"


def bias_report(
    store_a: ArchiveStore,
    store_b: ArchiveStore,
    uri: CanonicalUri | str,
    label_a: str = "a",
    label_b: str = "b",
) -> BiasReport:
    """Compare how two archives captured the same URI."""
    return BiasReport(
        uri=str(uri),
        label_a=label_a,
        label_b=label_b,
        distribution_a=distribution(store_a, uri),
        distribution_b=distribution(store_b, uri),
    )
