"""Inputs the benchmark generates itself, with numpy, from the workload seed.

Nothing here calls the program, so the planted values below are known apart
from anything the program computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wpxlab.dml.panel import PanelDataset
from wpxlab.domain import ContextFeatures, Device, ObjectiveVector
from wpxlab.bandit.ranker import ImpressionRecord

# --- estimate workload: a planted linear panel ------------------------------

ESTIMATE_ROWS = 200_000
N_QUERIES = 50
N_ZIPS = 30
N_CUSTOMERS = 20_000

X_NAMES = ("x_bmr_top", "x_bmr_mid", "x_bmr_bot")
M_NAMES = ("m_short_rev", "m_engagement")
H_NAMES = ("h_spend", "h_orders", "h_engage", "h_tenure")

PLANTED_BETA = np.array([1.0, 0.6, 0.0])
PLANTED_THETA = np.array([0.35, 0.10])
PLANTED_GAMMA = np.array([0.02, 0.8, 0.5, 0.1])
NOISE_SIGMA = 0.5


def _standardize(v: np.ndarray) -> np.ndarray:
    return (v - v.mean()) / v.std()


def _keys(fmt: str, n: int) -> np.ndarray:
    """String keys in the simulator's format, one per index."""
    return np.array([fmt % i for i in range(n)])


def _expit(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def estimate_panel(seed: int, n_rows: int = ESTIMATE_ROWS) -> PanelDataset:
    """drev = x.beta + m.theta + h.gamma + alpha[query] + zeta[zip] + N(0, sigma^2).

    Brand-match rates ``x_`` rise with the customer's spend propensity (a
    function of history) and with both fixed effects, so neither naive OLS
    nor a fit without de-averaging recovers beta. Scales follow the
    simulator: ``m_short_rev`` has sd near 100, ``m_engagement`` counts
    clicks on a 24-slot page.
    """
    rng = np.random.default_rng([seed, 0xE57])
    history = np.column_stack(
        [
            rng.gamma(4.0, 25.0, N_CUSTOMERS),
            rng.poisson(8.0, N_CUSTOMERS).astype(float),
            rng.beta(2.0, 2.0, N_CUSTOMERS),
            rng.uniform(0.0, 10.0, N_CUSTOMERS),
        ]
    )
    propensity = 0.6 * _standardize(history[:, 0]) + 0.4 * _standardize(history[:, 1])
    customer_zip = rng.integers(0, N_ZIPS, N_CUSTOMERS)
    alpha = 0.5 * rng.standard_normal(N_QUERIES)
    zeta = 0.3 * rng.standard_normal(N_ZIPS)

    customer = rng.integers(0, N_CUSTOMERS, n_rows)
    query = rng.integers(0, N_QUERIES, n_rows)
    zip_idx = customer_zip[customer]
    u = propensity[customer]
    fe = alpha[query] / 0.5 + zeta[zip_idx] / 0.3
    x = _expit(
        np.array([0.4, -0.6, -0.8])
        + 0.8 * u[:, None]
        + 0.6 * fe[:, None]
        + rng.standard_normal((n_rows, 3))
    )
    short_rev = np.exp(4.0 + 0.3 * u + 0.5 * x[:, 0] + 0.8 * rng.standard_normal(n_rows))
    engagement = rng.binomial(24, _expit(-2.5 + 0.3 * u + 1.0 * x[:, 0])).astype(float)
    m = np.column_stack([short_rev, engagement])
    h = history[customer]
    drev = (
        x @ PLANTED_BETA
        + m @ PLANTED_THETA
        + h @ PLANTED_GAMMA
        + alpha[query]
        + zeta[zip_idx]
        + NOISE_SIGMA * rng.standard_normal(n_rows)
    )
    return PanelDataset(
        event_id=_keys("e%08d", n_rows),
        customer_id=_keys("c%06d", N_CUSTOMERS)[customer],
        query_group=_keys("q%03d", N_QUERIES)[query],
        zip_code=_keys("z%03d", N_ZIPS)[zip_idx],
        drev=drev,
        x=x,
        m=m,
        h=h,
        x_names=X_NAMES,
        m_names=M_NAMES,
        h_names=H_NAMES,
    )


# --- serve workload: request contexts and their outcomes --------------------


@dataclass(frozen=True)
class Requests:
    """A day of requests: contexts, their benchmark-side feature rows per
    template, and pre-drawn noise for the served template's outcome."""

    queries: np.ndarray
    contexts: tuple[ContextFeatures, ...]
    features: np.ndarray  # (n, n_templates, p), the ranker's encoding, built here
    revenue_noise: np.ndarray
    click_uniform: np.ndarray
    satisfaction_noise: np.ndarray


def context_features(world, query_index: int, device: Device, membership: int) -> ContextFeatures:
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


def encode(world, query_index: int, mobile: bool, membership: int) -> np.ndarray:
    """Feature rows for every template: bias, device, specificity, membership,
    category one-hot, content signals (the layout the ranker documents)."""
    query = world.queries[query_index]
    n_t = len(world.templates)
    cats = [1.0 if c == query.category_id else 0.0 for c in world.categories]
    head = [1.0, 1.0 if mobile else 0.0, query.specificity, float(membership), *cats]
    return np.column_stack(
        [np.tile(head, (n_t, 1)), world.content_signals[query_index]]
    )


def requests(world, seed: int, day: int, n: int) -> Requests:
    """A day of requests with the world's device and membership mix."""
    rng = np.random.default_rng([seed, 0x5E7E, day])
    queries = rng.integers(0, world.config.n_queries, n)
    mobile = rng.random(n) < world.config.mobile_fraction
    members = (rng.random(n) < world.config.membership_rate).astype(int)
    contexts = []
    rows = []
    for q, mob, mem in zip(queries, mobile, members):
        device = Device.MOBILE if mob else Device.DESKTOP
        contexts.append(context_features(world, int(q), device, int(mem)))
        rows.append(encode(world, int(q), bool(mob), int(mem)))
    return Requests(
        queries=queries,
        contexts=tuple(contexts),
        features=np.array(rows),
        revenue_noise=rng.standard_normal(n),
        click_uniform=rng.random(n),
        satisfaction_noise=rng.standard_normal(n),
    )


def outcome(signals: np.ndarray, revenue_noise: float, click_u: float, sat_noise: float) -> ObjectiveVector:
    """Targets for a served template from its content signals."""
    revenue = max(0.0, 20.0 + 60.0 * signals[0] + 25.0 * signals[1] + 15.0 * revenue_noise)
    p_click = 0.35 + 0.4 * signals[3] + 0.2 * signals[0]
    satisfaction = float(
        np.clip(0.6 * signals[0] + 0.25 * signals[1] + 0.15 * signals[2] + 0.05 * sat_noise, 0.0, 1.0)
    )
    return ObjectiveVector(
        revenue=revenue,
        non_abandonment=int(click_u < min(p_click, 1.0)),
        satisfaction=satisfaction,
    )


def impressions(world, seed: int, day: int, n: int) -> list[ImpressionRecord]:
    """A day of uniformly served impressions with their outcomes."""
    reqs = requests(world, seed, day, n)
    rng = np.random.default_rng([seed, 0x1AB, day])
    served = rng.integers(0, len(world.templates), n)
    return [
        record(world, reqs, i, int(t), day) for i, t in enumerate(served)
    ]


def record(world, reqs: Requests, i: int, template_index: int, day: int) -> ImpressionRecord:
    targets = outcome(
        world.content_signals[reqs.queries[i], template_index],
        reqs.revenue_noise[i],
        reqs.click_uniform[i],
        reqs.satisfaction_noise[i],
    )
    return ImpressionRecord(
        ts=day,
        context=reqs.contexts[i],
        template_id=world.templates[template_index].template_id,
        targets=targets,
        long_term_revenue=targets.revenue,
        long_term_available_on=day + 84,
    )
