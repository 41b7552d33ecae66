"""Reference checks and one-at-a-time reference implementations the package
itself does not ship, kept for the tests to compare against."""

from __future__ import annotations

import csv
import math
import tracemalloc
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import log_ndtr, ndtr

from wpxlab.bandit.features import CONTEXT_FEATURE_NAMES, build_features
from wpxlab.bandit.posteriors import PROBIT_SLAB, GaussianPosterior, ModelKind, ObjectiveModel
from wpxlab.bandit.ranker import OBJECTIVE_ORDER, ImpressionRecord, RankerBundle, scalarize
from wpxlab.dml.deaverage import EARLY_STOP_TOL
from wpxlab.dml.panel import KEY_COLUMNS, TARGET_COLUMN, PanelDataset
from wpxlab.domain import ContentKind, ContextFeatures, Device, Item, PageLayout
from wpxlab.errors import DomainError
from wpxlab.sim.world import (
    ORGANIC_AREA,
    PAGE_SLOTS,
    TEMPLATE_TABLE,
    WIDGET_AREA,
    World,
)

#: A template's (kind, pixel area) per position.
SlotPlan = tuple[tuple[ContentKind, float], ...]

# a few ulps: what a stable linear update loses on the covariance over many
# rows, where inverting an ill-conditioned precision matrix loses its
# condition number times that
EXACT_RTOL = 1e-14


def template_plan(template_index: int) -> SlotPlan:
    """A pooled template's reference plan, a position at a time from its
    `TEMPLATE_TABLE` widget range: widget slots inside it, organic outside."""
    _, widget_range, *_ = TEMPLATE_TABLE[template_index]
    plan = []
    for pos in range(1, PAGE_SLOTS + 1):
        if widget_range is not None and widget_range[0] <= pos <= widget_range[1]:
            plan.append((ContentKind.WIDGET, WIDGET_AREA))
        else:
            plan.append((ContentKind.ORGANIC, ORGANIC_AREA))
    return tuple(plan)


def validate_layout(
    layout: PageLayout,
    template_id: str,
    plan: SlotPlan,
    widget_item_filter: Callable[[Item], bool] | None = None,
) -> list[str]:
    """Check a layout against its template's id and plan; return every
    violation found.

    Violations are data, not failures: an empty list means the layout is ok.
    ``widget_item_filter`` is the resolved predicate for the template's
    ``eligible_item_filter``; when omitted, eligibility is not checked.
    """
    violations: list[str] = []
    if layout.template_id != template_id:
        violations.append(
            f"template mismatch: layout says {layout.template_id!r}, "
            f"template is {template_id!r}"
        )
    if len(layout.slots) != len(plan):
        violations.append(f"slot count {len(layout.slots)} != template plan length {len(plan)}")
    positions = [slot.position for slot in layout.slots]
    if positions != list(range(1, len(positions) + 1)):
        violations.append(f"non-contiguous positions: {positions}")
    for slot, (kind, area) in zip(layout.slots, plan):
        if slot.content_kind is not kind:
            violations.append(
                f"kind mismatch at position {slot.position}: "
                f"{slot.content_kind.value} in a {kind.value} slot"
            )
        if slot.pixel_area != area:
            violations.append(
                f"pixel area mismatch at position {slot.position}: "
                f"{slot.pixel_area} != {area}"
            )
        if (
            widget_item_filter is not None
            and slot.content_kind is ContentKind.WIDGET
            and not widget_item_filter(slot.item)
        ):
            violations.append(
                f"ineligible item {slot.item.item_id!r} at position {slot.position}"
            )
    return violations


def _widget_source(world: World, template_index: int, query_index: int) -> np.ndarray:
    """Widget fill order: predicate pool by descending appeal."""
    order = world.widget_order[template_index][query_index]
    return order[order < world.config.n_items]


def layout_item_indices_per_slot(
    world: World,
    query_index: int,
    template_index: int,
    available: np.ndarray,
) -> np.ndarray:
    """One page filled a slot at a time, in position order.

    Widget slots draw from the template's predicate pool by appeal; organic
    slots draw from the query's relevance order; no item repeats on a page.
    An exhausted widget pool falls through to the organic order so the page
    always fills.
    """
    plan = template_plan(template_index)
    organic_src = world.organic_order[query_index]
    widget_src = _widget_source(world, template_index, query_index)
    used = np.zeros(world.config.n_items, dtype=bool)
    chosen = np.empty(len(plan), dtype=np.intp)
    o_ptr = 0
    w_ptr = 0

    def take(source: np.ndarray, ptr: int) -> tuple[int, int]:
        while ptr < len(source):
            cand = source[ptr]
            ptr += 1
            if available[cand] and not used[cand]:
                return int(cand), ptr
        return -1, ptr

    for slot_i, (kind, _) in enumerate(plan):
        item = -1
        if kind is ContentKind.WIDGET:
            item, w_ptr = take(widget_src, w_ptr)
        if item < 0:
            item, o_ptr = take(organic_src, o_ptr)
        if item < 0:
            raise DomainError("catalog exhausted while filling a page")
        used[item] = True
        chosen[slot_i] = item
    return chosen


def per_candidate_scores(
    features: np.ndarray,
    template_ids: Sequence[str],
    bundle: RankerBundle,
    device: Device,
    z: np.ndarray,
) -> tuple[int, list[tuple[dict[str, float], float]]]:
    """One request scored a candidate and an objective at a time: the winner's
    row, and every candidate's objective samples and scalarized score.

    `z` is the request's ``(c, n_models, p)`` normals, slot j for the j-th
    objective of OBJECTIVE_ORDER; a mobile request skips the non-abandonment
    slot. Each weight vector is ``mean + L @ z`` (``mean + sd * z`` when
    diagonal) and each sample ``w @ x``, through Phi for probit; exact score
    ties break toward the lowest template_id.
    """
    objectives = bundle.active_objectives(device)
    models = [bundle.model_for(name) for name in objectives]
    slots = [OBJECTIVE_ORDER.index(name) for name in objectives]
    traces: list[tuple[dict[str, float], float]] = []
    best = -1
    for i, (tid, x) in enumerate(zip(template_ids, features)):
        samples = {}
        for j, name, model in zip(slots, objectives, models):
            post = model.posterior
            w = post.mean + (post.factor * z[i, j] if post.diagonal else post.factor @ z[i, j])
            score = float(w @ x)
            samples[name] = score if model.kind is ModelKind.LINEAR else float(ndtr(score))
        score = scalarize(samples, bundle.reward)
        traces.append((samples, score))
        if best < 0 or score > traces[best][1] or (
            score == traces[best][1] and tid < template_ids[best]
        ):
            best = i
    return best, traces


def build_features_per_field(
    context: ContextFeatures,
    template_id: str,
    categories: tuple[str, ...],
    signal_names: tuple[str, ...],
) -> np.ndarray:
    """One candidate's feature row, written a field at a time."""
    signals = context.content_signals[template_id]
    out = np.empty(len(CONTEXT_FEATURE_NAMES) + len(categories) + len(signal_names))
    out[0] = 1.0
    out[1] = 1.0 if context.device is Device.MOBILE else 0.0
    out[2] = context.query_specificity
    out[3] = float(context.membership)
    base = len(CONTEXT_FEATURE_NAMES)
    for i, cat in enumerate(categories):
        out[base + i] = 1.0 if cat == context.category_id else 0.0
    out[base + len(categories) :] = signals
    return out


def request_context(
    world: World, query_index: int, device: Device, membership: int
) -> ContextFeatures:
    """Request features for a query: its specificity, category and the
    per-template content signals, plus the caller's device and membership."""
    query = world.queries[query_index]
    return ContextFeatures(
        device=device,
        query_specificity=query.specificity,
        category_id=query.category_id,
        membership=membership,
        content_signals={
            t.template_id: tuple(world.content_signals[query_index, ti])
            for ti, t in enumerate(world.templates)
        },
    )


def _checked_features(model: ObjectiveModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.posterior.dim,):
        raise DomainError(f"feature vector shape {x.shape} does not match schema")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite feature vector")
    return x


def predict_mean(model: ObjectiveModel, x: np.ndarray) -> float:
    """Posterior-mean prediction: the Bayes point estimate for this model."""
    x = _checked_features(model, x)
    score = float(model.posterior.mean @ x)
    if model.kind is ModelKind.LINEAR:
        return score
    s2 = PROBIT_SLAB**2 + float(model.posterior.cov @ x**2)
    return float(ndtr(score / math.sqrt(s2)))


def blr_update_per_row(model: ObjectiveModel, x: np.ndarray, y: float) -> ObjectiveModel:
    """One Sherman-Morrison conjugate step, validating the posterior it makes."""
    if model.kind is not ModelKind.LINEAR:
        raise DomainError("blr_update requires a Linear model")
    x = _checked_features(model, x)
    y = float(y)
    if not math.isfinite(y):
        raise DomainError("non-finite target")
    post = model.posterior
    sigma = post.full_cov()
    sx = sigma @ x
    denom = model.noise_variance + float(x @ sx)
    mean = post.mean + sx * ((y - float(x @ post.mean)) / denom)
    cov = sigma - np.outer(sx, sx) / denom
    cov = (cov + cov.T) / 2.0
    return replace(model, posterior=GaussianPosterior(mean=mean, cov=cov))


def _scaled_ints(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Python integers N and a shift s with a == N / 2**s exactly, elementwise."""
    ratios = [v.as_integer_ratio() for v in np.asarray(a, dtype=float).ravel().tolist()]
    shift = max((d.bit_length() - 1 for _, d in ratios), default=0)
    ints = [n << (shift - d.bit_length() + 1) for n, d in ratios]
    return np.array(ints, dtype=object).reshape(np.shape(a)), shift


def _solve_exact(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    """A^-1 B by Gauss-Jordan elimination in rational arithmetic."""
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [row[n:] for row in M]


def exact_linear_posterior(
    post: GaussianPosterior, batches: Iterable[tuple[np.ndarray, np.ndarray, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """The conjugate posterior after every (X, y, noise variance) batch, in
    exact rational arithmetic on the floats given: precision
    S0^-1 + sum X'X / s2 and mean precision^-1 (S0^-1 m0 + sum X'y / s2).
    Returns the mean and covariance as object arrays of Fractions."""
    p = post.dim
    eye = [[Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    cov0 = [[Fraction(v) for v in row] for row in post.full_cov().tolist()]
    solved = _solve_exact(cov0, [row + [Fraction(m)] for row, m in zip(eye, post.mean.tolist())])
    precision = [row[:p] for row in solved]
    shift = [row[p] for row in solved]
    for X, y, noise_variance in batches:
        Xi, sx = _scaled_ints(X)
        yi, sy = _scaled_ints(y)
        gram, xty = Xi.T @ Xi, Xi.T @ yi
        s2 = Fraction(noise_variance)
        for i in range(p):
            shift[i] += Fraction(int(xty[i]), 2 ** (sx + sy)) / s2
            for j in range(p):
                precision[i][j] += Fraction(int(gram[i, j]), 2 ** (2 * sx)) / s2
    solved = _solve_exact(precision, [row + [b] for row, b in zip(eye, shift)])
    mean = np.array([row[p] for row in solved], dtype=object)
    cov = np.array([row[:p] for row in solved], dtype=object)
    return mean, cov


def relative_error(got: np.ndarray, exact: np.ndarray) -> float:
    """||got - exact|| / ||exact|| (Frobenius), the difference taken exactly."""
    flat = exact.ravel().tolist()
    diff = np.linalg.norm([float(Fraction(g) - e) for g, e in zip(np.ravel(got).tolist(), flat)])
    return float(diff / np.linalg.norm([float(e) for e in flat])) if diff else 0.0


def probit_update_per_row(model: ObjectiveModel, x: np.ndarray, label: int) -> ObjectiveModel:
    """One assumed-density-filtering probit step, validating the posterior it makes."""
    if model.kind is not ModelKind.PROBIT:
        raise DomainError("probit_update requires a Probit model")
    x = _checked_features(model, x)
    if label not in (0, 1):
        raise DomainError(f"label must be 0 or 1, got {label!r}")
    t = 2 * label - 1
    post = model.posterior
    v = post.cov
    s2 = PROBIT_SLAB**2 + float(v @ x**2)
    s = math.sqrt(s2)
    z = t * float(post.mean @ x) / s
    ratio = math.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_ndtr(z))
    w = ratio * (ratio + z)
    mean = post.mean + (t * ratio / s) * (v * x)
    var = v * (1.0 - w * (v * x**2) / s2)
    return replace(model, posterior=GaussianPosterior(mean=mean, cov=var))


def apply_impression_per_row(bundle: RankerBundle, record: ImpressionRecord) -> RankerBundle:
    """One impression through every applicable model, a validated step each."""
    x = build_features(record.context, record.template_id, bundle.categories, bundle.signal_names)
    revenue_model = blr_update_per_row(bundle.revenue_model, x, record.targets.revenue)
    non_ab = bundle.non_abandonment_model
    if record.context.device is Device.DESKTOP:
        non_ab = probit_update_per_row(non_ab, x, record.targets.non_abandonment)
    satisfaction_model = bundle.satisfaction_model
    if satisfaction_model is not None:
        if record.targets.satisfaction is None:
            raise DomainError("impression lacks a satisfaction target")
        satisfaction_model = blr_update_per_row(
            satisfaction_model, x, record.targets.satisfaction
        )
    return replace(
        bundle,
        revenue_model=revenue_model,
        non_abandonment_model=non_ab,
        satisfaction_model=satisfaction_model,
    )


def deaverage_row_major(
    values: np.ndarray, group_keys: list[np.ndarray], iterations: int
) -> tuple[np.ndarray, tuple[float, ...], int]:
    """Alternating group demeaning on a row-major copy that recomputes every
    convergence sum: each pass demeans every column by every key, then takes
    every key's group means again for the early stop, and the diagnostics are
    taken once more at the end. Returns (out, max_group_means, iterations_run).
    """
    if values.ndim != 2:
        values = np.asarray(values, dtype=float).reshape(len(values), -1)
    codes = []
    for keys in group_keys:
        _, inverse = np.unique(np.asarray(keys), return_inverse=True)
        codes.append((inverse.astype(np.intp), int(inverse.max()) + 1))
    out = np.array(values, dtype=float, copy=True)
    counts = [np.bincount(c, minlength=g).astype(float) for c, g in codes]

    def key_maxima() -> list[float]:
        maxima = []
        for (c, g), cnt in zip(codes, counts):
            sums = np.zeros((g, out.shape[1]))
            for j in range(out.shape[1]):
                sums[:, j] = np.bincount(c, weights=out[:, j], minlength=g)
            maxima.append(float(np.max(np.abs(sums / cnt.reshape(-1, 1)))))
        return maxima

    iterations_run = 0
    for _ in range(iterations):
        iterations_run += 1
        for (c, g), cnt in zip(codes, counts):
            for j in range(out.shape[1]):
                means = np.bincount(c, weights=out[:, j], minlength=g) / cnt
                out[:, j] -= means[c]
        if max([0.0, *key_maxima()]) < EARLY_STOP_TOL:
            break
    return out, tuple(key_maxima()), iterations_run


def deaverage_cell_table(
    values: np.ndarray, group_keys: list[np.ndarray], iterations: int
) -> tuple[np.ndarray, tuple[float, ...], int]:
    """Alternating group demeaning on the cell table in plain loops: a cell is
    one combination of every key's group, numbered in the lexicographic order
    of the keys' sorted group numbers. Cells sum their rows in row order and
    groups their cells in cell order, each pass demeans the cells' residual
    sums key by key and accumulates the means in a per-cell shift, and the
    maxima are read from the returned rows. Returns (out, max_group_means,
    iterations_run).
    """
    if values.ndim != 2:
        values = np.asarray(values, dtype=float).reshape(len(values), -1)
    codes = [np.unique(np.asarray(keys), return_inverse=True)[1].reshape(-1) for keys in group_keys]
    n_groups = [int(c.max()) + 1 for c in codes]
    row_groups = list(zip(*(c.tolist() for c in codes)))
    cells = sorted(set(row_groups))
    number = {groups: i for i, groups in enumerate(cells)}
    cell = [number[groups] for groups in row_groups]
    rows = np.asarray(values, dtype=float).tolist()
    width = len(rows[0])
    size = [0.0] * len(cells)
    for c in cell:
        size[c] += 1.0
    counts = []
    for k, g in enumerate(n_groups):
        cnt = [0.0] * g
        for groups, s in zip(cells, size):
            cnt[groups[k]] += s
        counts.append(cnt)

    def cell_sums(rows: list[list[float]]) -> list[list[float]]:
        sums = [[0.0] * width for _ in cells]
        for c, row in zip(cell, rows):
            for j in range(width):
                sums[c][j] += row[j]
        return sums

    def group_means(sums: list[list[float]], k: int) -> list[list[float]]:
        totals = [[0.0] * width for _ in range(n_groups[k])]
        for groups, row in zip(cells, sums):
            for j in range(width):
                totals[groups[k]][j] += row[j]
        return [[t / cnt for t in total] for total, cnt in zip(totals, counts[k])]

    def worst(sums: list[list[float]], k: int) -> float:
        return max(abs(m) for means in group_means(sums, k) for m in means)

    resid = cell_sums(rows)
    shift = [[0.0] * width for _ in cells]
    iterations_run = 0
    for _ in range(iterations):
        iterations_run += 1
        for k in range(len(codes)):
            means = group_means(resid, k)
            for c, groups in enumerate(cells):
                for j in range(width):
                    m = means[groups[k]][j]
                    resid[c][j] -= size[c] * m
                    shift[c][j] += m
        if max(worst(resid, k) for k in range(len(codes))) < EARLY_STOP_TOL:
            break
    out = [[v - s for v, s in zip(row, shift[c])] for c, row in zip(cell, rows)]
    sums = cell_sums(out)
    return np.array(out), tuple(worst(sums, k) for k in range(len(codes))), iterations_run


def traced_peak(fn: Callable[..., object], *args: object) -> tuple[object, int]:
    """``fn(*args)`` and the most bytes ``tracemalloc`` saw it hold at once
    beyond what was held when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def write_panel_csv_per_row(dataset: PanelDataset, path: str | Path) -> None:
    """The panel CSV written one ``csv.writer.writerow`` per row, floats as
    ``repr``: the byte reference for `write_panel_csv`."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.header())
        keys = (dataset.event_id, dataset.customer_id, dataset.query_group, dataset.zip_code)
        values = np.column_stack([dataset.drev, dataset.x, dataset.m, dataset.h])
        for *key, row in zip(*keys, values.astype(float, copy=False)):
            writer.writerow([*key, *map(repr, row.tolist())])


def read_panel_csv_per_cell(path: str | Path) -> PanelDataset:
    """The panel CSV read through ``csv.reader`` and one ``float()`` per
    cell, keys as object arrays: the array reference for `read_panel_csv`."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        # each row named by the physical line it starts on
        rows, lines, line = [], [], reader.line_num + 1
        for r in reader:
            rows.append(r)
            lines.append(line)
            line = reader.line_num + 1
    missing = [c for c in (*KEY_COLUMNS, TARGET_COLUMN) if c not in header]
    if missing:
        raise DomainError(f"{path}: missing required columns {missing}")
    col = {name: i for i, name in enumerate(header)}
    x_names = tuple(c for c in header if c.startswith("x_"))
    m_names = tuple(c for c in header if c.startswith("m_"))
    h_names = tuple(c for c in header if c.startswith("h_"))
    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise DomainError(
                f"{path}: line {lines[i]} has {len(r)} cells, the header {len(header)}"
            )

    def strings(name: str) -> np.ndarray:
        return np.array([r[col[name]] for r in rows], dtype=object)

    def floats(names: tuple[str, ...]) -> np.ndarray:
        out = np.empty((len(rows), len(names)))
        for k, name in enumerate(names):
            j = col[name]
            for i, r in enumerate(rows):
                try:
                    out[i, k] = float(r[j])
                except ValueError:
                    raise DomainError(
                        f"{path}: line {lines[i]} column {name} is not a number: {r[j]!r}"
                    ) from None
        return out

    return PanelDataset(
        event_id=strings("event_id"),
        customer_id=strings("customer_id"),
        query_group=strings("query_group"),
        zip_code=strings("zip"),
        drev=floats((TARGET_COLUMN,))[:, 0],
        x=floats(x_names),
        m=floats(m_names),
        h=floats(h_names),
        x_names=x_names,
        m_names=m_names,
        h_names=h_names,
    )
