"""Output checks, each made apart from the program.

Every check returns a list of problems; an empty list means it passed.
Tolerances come from the estimate's own standard error, from Monte Carlo
error, or from float round-off, never from a copy of earlier output, so a
change that redraws the random streams does not fail a check by chance.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: Standard errors an estimate may sit from its planted value. The chance
#: that an unbiased estimate lands further out is below 2e-9 per coefficient.
K_SE = 6.0
#: Relative tolerance for posteriors computed two ways (sequential rank-one
#: updates against one batch solve).
POSTERIOR_RTOL = 1e-8
GROUP_MEAN_LIMIT = 1e-6


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --- simulate ----------------------------------------------------------------


def panel_invariants(panel, history: np.ndarray, n_events: int, n_slots: int) -> list[str]:
    """Row count, keys, value ranges, and history rows of a simulated panel."""
    problems = []
    if panel.n_rows != n_events:
        problems.append(f"panel has {panel.n_rows} rows, expected {n_events}")
    ids = [str(v) for v in panel.event_id]
    if len(set(ids)) != len(ids) or any(a >= b for a, b in zip(ids, ids[1:])):
        problems.append("event_id is not unique and ascending")
    if not (np.all(panel.x >= 0.0) and np.all(panel.x <= 1.0)):
        problems.append("x_ column outside [0, 1]")
    if not (np.all(np.isfinite(panel.drev)) and np.all(panel.drev >= 0.0)):
        problems.append("drev not finite and >= 0")
    engagement = panel.m[:, list(panel.m_names).index("m_engagement")]
    if not (
        np.all(engagement == np.round(engagement))
        and np.all(engagement >= 0)
        and np.all(engagement <= n_slots)
    ):
        problems.append(f"m_engagement not an integer in [0, {n_slots}]")
    customers = np.array([int(str(c)[1:]) for c in panel.customer_id])
    if not np.array_equal(panel.h, history[customers]):
        problems.append("h_ differs from the world's history row for the customer")
    return problems


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def csv_round_trip(original, reread) -> list[str]:
    """Every key string and every float bit pattern survives write + read."""
    problems = []
    for name in ("event_id", "customer_id", "query_group", "zip_code"):
        if [str(v) for v in getattr(original, name)] != [str(v) for v in getattr(reread, name)]:
            problems.append(f"CSV round trip changed {name}")
    for name in ("drev", "x", "m", "h"):
        a, b = getattr(original, name), getattr(reread, name)
        if a.shape != b.shape or not np.array_equal(_bits(a), _bits(b)):
            problems.append(f"CSV round trip changed bits of {name}")
    for name in ("x_names", "m_names", "h_names"):
        if tuple(getattr(original, name)) != tuple(getattr(reread, name)):
            problems.append(f"CSV round trip changed {name}")
    return problems


def planted_recovery(beta, stderr, planted, label: str, k: float = K_SE) -> list[str]:
    """Each coefficient lies within k of its own standard errors of the plant."""
    beta, stderr, planted = (np.asarray(v, dtype=float) for v in (beta, stderr, planted))
    if not (np.all(np.isfinite(stderr)) and np.all(stderr > 0)):
        return [f"{label}: standard errors not positive and finite: {stderr}"]
    z = np.abs(beta - planted) / stderr
    return [
        f"{label}: coefficient {i} = {beta[i]:.5f}, planted {planted[i]:.5f}, "
        f"{z[i]:.1f} standard errors away (limit {k})"
        for i in np.flatnonzero(~(z <= k))
    ]


def naive_biased(naive_beta, planted, tolerance: np.ndarray) -> list[str]:
    """Naive OLS misses the top-region plant by more than the DML tolerance."""
    gap = abs(float(naive_beta[0]) - float(planted[0]))
    if not gap > float(tolerance[0]):
        return [f"naive OLS top-region gap {gap:.4f} is within the DML tolerance {tolerance[0]:.4f}"]
    return []


# --- estimate ----------------------------------------------------------------


def group_means(values: np.ndarray, keys: list[np.ndarray], limit: float = GROUP_MEAN_LIMIT) -> list[str]:
    """Every column's mean within every group of every key is below ``limit``."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    problems = []
    for k, key in enumerate(keys):
        _, codes = np.unique(np.asarray(key), return_inverse=True)
        counts = np.bincount(codes)
        for j in range(values.shape[1]):
            worst = float(np.max(np.abs(np.bincount(codes, weights=values[:, j]) / counts)))
            if not worst < limit:
                problems.append(f"key {k} column {j}: de-averaged group mean {worst:.3g} >= {limit}")
    return problems


def reported_group_means(diagnostics: dict, limit: float = GROUP_MEAN_LIMIT) -> list[str]:
    problems = []
    for name in ("deaverage_max_group_mean_query", "deaverage_max_group_mean_zip"):
        if not diagnostics[name] < limit:
            problems.append(f"{name} = {diagnostics[name]:.3g} >= {limit}")
    return problems


def rmse_near_sigma(test_rmse: float, sigma: float, n_test: int, k: float = K_SE) -> list[str]:
    """Held-out RMSE within k Monte Carlo errors of the planted noise sd.

    The sd of a sample RMSE over n draws of N(0, sigma^2) is sigma/sqrt(2n).
    """
    tolerance = k * sigma / math.sqrt(2.0 * n_test)
    if not abs(test_rmse - sigma) <= tolerance:
        return [f"test_rmse {test_rmse:.5f} is more than {tolerance:.5f} from sigma {sigma}"]
    return []


# --- experiment --------------------------------------------------------------

METRICS = ("revenue", "long_term_revenue", "ctr", "pr_wp_bmr")


def weight_tolerance(stderr_beta, planted_effects, k: float = K_SE) -> np.ndarray:
    """k delta-method standard errors of normalized weights w = b / sum(b)."""
    b = np.maximum(np.asarray(planted_effects, dtype=float), 0.0)
    total = b.sum()
    w = b / total
    se = np.asarray(stderr_beta, dtype=float)
    jac = (np.eye(len(b)) - w[:, None]) / total  # d w_i / d b_j
    return k * np.sqrt((jac**2) @ (se**2))


def experiment_report(report, config, planted_weights, tolerance, ctr_weights) -> list[str]:
    problems = []
    arms = [arm.name for arm in config.arms]
    rows = {(r["day"], r["arm"]): r for r in report.per_day}
    expected = {(d, a) for d in range(1, config.days + 1) for a in arms}
    if set(rows) != expected or len(rows) != len(report.per_day):
        problems.append("per_day does not hold exactly one row per (day, arm)")
    for key, row in rows.items():
        if row["n_sessions"] != config.sessions_per_day:
            problems.append(f"day {key[0]} arm {key[1]}: n_sessions {row['n_sessions']}")
    for day in range(1, config.warmup_days + 1):
        for m in METRICS:
            values = {rows[(day, a)][m] for a in arms if (day, a) in rows}
            if len(values) != 1:
                problems.append(f"warm-up day {day}: {m} differs across arms: {sorted(values)}")
    weights = report.region_weights
    t2 = weights.get("t2")
    if t2 is None:
        problems.append("t2 carries no region weights")
    else:
        gap = np.abs(np.asarray(t2) - np.asarray(planted_weights))
        if not np.all(gap <= tolerance):
            problems.append(f"t2 weights {tuple(t2)} not within {tuple(tolerance)} of {tuple(planted_weights)}")
    if weights.get("t1") is None or tuple(weights["t1"]) != tuple(ctr_weights):
        problems.append(f"t1 weights {weights.get('t1')} are not the click weights {tuple(ctr_weights)}")
    if weights.get("control", "missing") is not None:
        problems.append(f"control carries region weights {weights.get('control')}")
    post = [d for d in range(1, config.days + 1) if d > config.warmup_days]
    for a in arms:
        for m in METRICS:
            day_means = [rows[(d, a)][m] for d in post if (d, a) in rows]
            reported = report.arm_means.get(a, {}).get(m)
            if reported is None or not day_means or not _rel_close(reported, float(np.mean(day_means)), 1e-9):
                problems.append(f"arm {a} {m}: mean {reported} != mean of post-warm-up days")
    return problems


# --- serve -------------------------------------------------------------------


def selection(chosen_id: str, scores, reward, mobile: bool) -> list[str]:
    """Argmax with ties to the lowest id; scores recomputed from samples."""
    problems = []
    for sc in scores:
        recomputed = sum(
            reward.weights[name] * (value - reward.stats[name].mean) / reward.stats[name].std
            for name, value in sc.samples.items()
        )
        if not _rel_close(sc.score, recomputed, 1e-12):
            problems.append(f"{sc.template_id}: score {sc.score!r} != recomputed {recomputed!r}")
        if mobile and "non_abandonment" in sc.samples:
            problems.append(f"{sc.template_id}: mobile request carries a non_abandonment sample")
    best = min(scores, key=lambda sc: (-sc.score, sc.template_id))
    flagged = [sc.template_id for sc in scores if sc.chosen]
    if chosen_id != best.template_id or flagged != [best.template_id]:
        problems.append(f"chose {chosen_id} (flagged {flagged}), argmax is {best.template_id}")
    return problems


def batch_posterior(incoming, outgoing, X: np.ndarray, y: np.ndarray, label: str) -> list[str]:
    """Sequential conjugate updates equal one batch solve from the incoming
    posterior: P = S0^-1 + X'X / s2, mean = P^-1 (S0^-1 m0 + X'y / s2)."""
    s2 = incoming.noise_variance
    prior_precision = np.linalg.inv(incoming.posterior.full_cov())
    precision = prior_precision + X.T @ X / s2
    rhs = prior_precision @ incoming.posterior.mean + X.T @ y / s2
    solved = np.linalg.solve(precision, np.column_stack([rhs, np.eye(len(rhs))]))
    mean, cov = solved[:, 0], solved[:, 1:]
    problems = []
    for what, got, want in (
        ("mean", outgoing.posterior.mean, mean),
        ("cov", outgoing.posterior.full_cov(), cov),
    ):
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        if not err <= POSTERIOR_RTOL:
            problems.append(f"{label} posterior {what} off the batch solve by {err:.2e} relative")
    return problems


def probit_variances(variances: np.ndarray, prior_variance: float, label: str) -> list[str]:
    if not (np.all(variances > 0.0) and np.all(variances <= prior_variance)):
        return [f"{label}: probit variance outside (0, {prior_variance}]: {variances.min()}..{variances.max()}"]
    return []


_SCORE_LINE = re.compile(r"^\s+(\S+)\s+(-?\d+\.\d+)( \*)?$")


def rank_output(stdout: str) -> list[str]:
    """``wpxlab rank`` stars exactly one line, the one with the highest printed score."""
    lines = [_SCORE_LINE.match(line) for line in stdout.splitlines()]
    scored = [(m.group(1), float(m.group(2)), bool(m.group(3))) for m in lines if m]
    starred = [s for s in scored if s[2]]
    if not scored or len(starred) != 1:
        return [f"wpxlab rank printed {len(starred)} starred lines among {len(scored)}"]
    if starred[0][1] < max(s[1] for s in scored):
        return [f"starred {starred[0][0]} {starred[0][1]} is not the highest printed score"]
    return []
