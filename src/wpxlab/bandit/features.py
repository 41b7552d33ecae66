"""Shared feature encoding for all per-objective models.

Every model scores a (request context, candidate template) pair through the
same fixed-width vector: a bias term, device and account fields, a category
one-hot, and the candidate's per-template content signals.
"""

from __future__ import annotations

import functools

import numpy as np

from ..domain import ContextFeatures, Device
from ..errors import DomainError

CONTEXT_FEATURE_NAMES = ("bias", "device_mobile", "query_specificity", "membership")


@functools.cache
def feature_schema(
    categories: tuple[str, ...], signal_names: tuple[str, ...]
) -> tuple[str, ...]:
    """Ordered feature names for a given category vocabulary and signal set."""
    if len(set(categories)) != len(categories):
        raise DomainError("duplicate category ids")
    if len(set(signal_names)) != len(signal_names):
        raise DomainError("duplicate signal names")
    return (
        *CONTEXT_FEATURE_NAMES,
        *(f"category_{c}" for c in categories),
        *(f"signal_{s}" for s in signal_names),
    )


def encode_rows(
    rows: list[tuple[ContextFeatures, str]],
    categories: tuple[str, ...],
    signal_names: tuple[str, ...],
) -> np.ndarray:
    """Encode (request context, candidate template id) pairs as an ``(n, p)``
    block, one row per pair."""
    one_hot = {c: [float(d == c) for d in categories] for c in categories}
    flat: list[float] = []
    for context, template_id in rows:
        if context.category_id not in one_hot:
            raise DomainError(f"unknown category {context.category_id!r}")
        signals = context.content_signals.get(template_id)
        if signals is None:
            raise DomainError(f"context has no content signals for template {template_id!r}")
        if len(signals) != len(signal_names):
            raise DomainError(
                f"template {template_id!r} has {len(signals)} content signals, "
                f"schema expects {len(signal_names)}"
            )
        mobile = float(context.device is Device.MOBILE)
        flat += (1.0, mobile, context.query_specificity, float(context.membership))
        flat += one_hot[context.category_id] + list(signals)
    width = len(CONTEXT_FEATURE_NAMES) + len(categories) + len(signal_names)
    return np.array(flat, dtype=float).reshape(len(rows), width)


def build_features(
    context: ContextFeatures,
    template_id: str,
    categories: tuple[str, ...],
    signal_names: tuple[str, ...],
) -> np.ndarray:
    """Encode one candidate template under one request context."""
    return encode_rows([(context, template_id)], categories, signal_names)[0]
