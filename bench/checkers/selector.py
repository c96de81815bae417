"""Brute-force memento selection with the documented rules.

A capture is ``(epoch_seconds, id, variant)`` where ``variant`` is the
stored ``[[dimension, value], ...]`` list. The nearest capture to the target
wins; ties go to the earlier datetime, then to the smaller id. Variant-aware
selection first keeps the captures whose every stored dimension value the
request reproduces, and falls back to all captures when none does.
"""

from __future__ import annotations


def cookie_value(cookie_header: str | None, content_cookie_names) -> str:
    """Request-side value of the ``cookie`` dimension: the content cookies
    only, sorted by name, joined as ``name=value;name=value``."""
    names = {n.lower() for n in content_cookie_names}
    pairs = []
    for segment in (cookie_header or "").split(";"):
        name, eq, value = segment.partition("=")
        if eq and name.strip() and name.strip().lower() in names:
            pairs.append((name.strip(), value.strip()))
    return ";".join(f"{n}={v}" for n, v in sorted(pairs))


def reproduces(variant, request_headers: dict[str, str], content_cookie_names) -> bool:
    """True when the request reproduces every dimension value of `variant`."""
    for dimension, value in variant:
        if dimension == "cookie":
            got = cookie_value(request_headers.get("cookie"), content_cookie_names)
        else:
            got = request_headers.get(dimension, "")
        if got != value:
            return False
    return True


def nearest(captures, target: int):
    """The capture nearest `target`: |dt|, then earlier, then smaller id."""
    best = None
    best_key = None
    for capture in captures:
        t, capture_id = capture[0], capture[1]
        key = (abs(t - target), t, capture_id)
        if best_key is None or key < best_key:
            best, best_key = capture, key
    return best


def select(captures, target: int, variant_aware: bool = False,
           request_headers: dict[str, str] | None = None,
           content_cookie_names=("lang",)):
    """The capture replay should choose, or None when there is none."""
    if not captures:
        return None
    if variant_aware:
        headers = request_headers or {}
        matching = [c for c in captures if reproduces(c[2], headers, content_cookie_names)]
        if matching:
            return nearest(matching, target)
    return nearest(captures, target)
