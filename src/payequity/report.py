"""Decision layer on top of posterior draws.

Turns a fitted model into the quantities the review team acts on:
factual and counterfactual salary predictions per worker, per-group
wage-gap posteriors, raise recommendations, the workforce-level
adjusted cents-to-the-dollar ratio, and in-sample fit statistics.

Dollar conversion averages exp of each draw's linear predictor over
draws (a mean of exponentials, not the exponential of the mean); the
two differ by Jensen's inequality and the former is the posterior
mean on the dollar scale. No residual noise is added: the estimand
is expected salary given the worker's covariates and group.

Worker i's predictor at draw d is a[c, d] + x_i'beta_d, where c is the
worker's own (GJS-geo, job-geo) pair and a[c, d] the pair's two
intercepts, plus its two slopes at female.  So

    exp(a[c, d] + x_i'beta_d) = exp(a[c, d] - m_c) * exp(x_i'beta_d + m_c),

and the covariate factor, one exp per worker and draw, serves both
genders; exp(a - m_c) is built once per pair.  The offset m_c is the
pair's mean of a over draws and genders: it keeps both factors finite
wherever their product is.  The mean linear predictor needs no
exponentials and is the pair's mean of a plus x_i'mean(beta).

The working memory does not grow with the draws x workers product:
the predictions are built for one block of workers at a time (taken in
pair order, so a block meets few pairs), and the group-effect draws for
one block of job-geo groups at a time, each block array holding at most
_BLOCK_VALUES values.  Every worker's or group's reduction over draws
runs along one contiguous row of its block, so the block size and the
block boundaries do not change a bit of the output.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import ParamLayout

# Values per block of (workers, draws) predictor or (groups, draws)
# group effects: 2 MB of float64.
_BLOCK_VALUES = 1 << 18


@dataclass(frozen=True)
class Predictions:
    """Posterior-mean predictions, one entry per worker of the Workforce.

    y_hat_female / y_hat_male are the dollar-scale means with the worker
    set to female / male; for a female worker y_hat_female is the
    factual prediction, for a male worker the counterfactual one.
    mean_log is the mean linear predictor at the worker's own gender.
    """
    worker_id: tuple
    y_hat_female: np.ndarray
    y_hat_male: np.ndarray
    mean_log: np.ndarray


@dataclass(frozen=True)
class GroupGapSummary:
    """Posterior of the total female effect for one job-geo group.

    effect_* fields summarize beta1_g[g] + beta1_j[j] on the log scale.
    Positive effect means women earn more; the dollar gap fields use the
    opposite orientation (male prediction minus female prediction, so
    positive means women are paid less) because that is how the raise
    rule consumes them. Dollar gaps are NaN when the summaries were
    built without worker predictions.
    """
    job_geo: int
    label: str
    effect_mean: float
    effect_sd: float
    ci_low: float
    ci_high: float
    significant: bool
    n_workers: int
    n_female: int
    median_gap_usd: float
    mean_gap_usd: float


@dataclass(frozen=True)
class GapReport:
    summaries: list
    adjusted_cents_to_dollar: float
    raises: list  # (worker_id, raise_usd), disadvantaged workers only
    r_squared: float
    rmse: float


def _natural_blocks(draws):
    """Split a pooled natural-scale draw matrix into the blocks the
    predictor needs: beta0_g, beta1_g, beta0_j, beta1_j, fixed effects."""
    lay = ParamLayout(draws.G, draws.J)
    m = draws.pooled()
    return tuple(m[:, block] for block in (*lay.random_effects(), lay.fixed))


def counterfactual_predictions(draws, wf):
    """Predictions for every worker, averaging exp(draws) per gender."""
    index = wf.index
    if index.n_gjs_geo != draws.G or index.n_job_geo != draws.J:
        raise ContractViolation(
            "draws were produced for G=%d, J=%d but index has G=%d, J=%d"
            % (draws.G, draws.J, index.n_gjs_geo, index.n_job_geo))
    beta0_g, beta1_g, beta0_j, beta1_j, fixed = _natural_blocks(draws)
    n_draws, J = len(fixed), index.n_job_geo
    g_of, j_of = index.g_of, index.j_of
    covariates = (wf.recent, wf.past, wf.tenure)
    # the mean of every effect over draws: mean_log is linear in them
    m0g, m1g, m0j, m1j, m_fixed = (b.mean(axis=0) for b in (beta0_g, beta1_g, beta0_j,
                                                             beta1_j, fixed))
    mean_log = m0g[g_of] + m0j[j_of] + np.where(wf.female, m1g[g_of] + m1j[j_of], 0.0)
    for x, b in zip(covariates, m_fixed):
        mean_log += x * b
    # the covariates and a fourth column for the offset, against the
    # fixed effects and a coefficient of 1
    design = np.column_stack([*covariates, np.zeros(wf.n)])
    coefficients = np.ones((4, n_draws))
    coefficients[:3] = fixed.T

    # Workers in order of their (GJS-geo, job-geo) pair, so that a block
    # meets few pairs and the pair factors are built once per pair and block.
    pair = g_of * J + j_of
    order = np.argsort(pair, kind="stable")
    y_hat = np.empty((2, wf.n))   # row 0 at female, row 1 at male
    step = max(1, _BLOCK_VALUES // n_draws)
    blocks = [(workers, *np.unique(pair[workers], return_inverse=True))
              for workers in (order[start:start + step] for start in range(0, wf.n, step))]
    # Every block builds its pair factors for the same number of pairs,
    # repeating its last one, so that its arrays keep one shape and the
    # allocator reuses the previous block's memory (blocks of varying
    # shapes cost 2.6 MB of peak RSS on a 1,958-worker, 600-draw fit).
    width = max(len(pairs) for _, pairs, _ in blocks)
    for workers, pairs, pair_of in blocks:
        pairs = np.r_[pairs, np.full(width - len(pairs), pairs[-1])]
        g, j = pairs // J, pairs % J
        offset = m0g[g] + m0j[j] + (m1g[g] + m1j[j]) / 2
        male = beta0_g.T[g] + beta0_j.T[j]                  # (pairs, draws)
        female = male + beta1_g.T[g] + beta1_j.T[j]
        rows = design[workers]
        rows[:, 3] = offset[pair_of]
        # exp(x_i'beta_d + offset), (workers, draws).  np.einsum sums the
        # four products in the same order for any number of rows; a BLAS
        # product does not (a single row takes another kernel), which
        # would let the block size change a bit of the output.
        cov = np.einsum("mk,kd->md", rows, coefficients)
        np.exp(cov, out=cov)
        for k, a in enumerate((female, male)):
            a -= offset[:, None]
            np.exp(a, out=a)
            y_hat[k, workers] = np.einsum("md,md->m", cov, a[pair_of]) / n_draws
    return Predictions(
        worker_id=wf.worker_id,
        y_hat_female=y_hat[0],
        y_hat_male=y_hat[1],
        mean_log=mean_log,
    )


def adjusted_cents_to_dollar(pred):
    """Workforce-level ratio sum(y_hat_female) / sum(y_hat_male).

    Every worker contributes one female-gendered and one male-gendered
    prediction, which is what makes the ratio insensitive to the
    gender mix.
    """
    if len(pred.worker_id) == 0:
        raise ContractViolation("adjusted cents-to-the-dollar needs at least one worker")
    bad = ~((pred.y_hat_female > 0.0) & (pred.y_hat_male > 0.0))
    if bad.any():
        raise ContractViolation(
            "nonpositive prediction for worker %s" % pred.worker_id[int(np.argmax(bad))])
    return float(np.sum(pred.y_hat_female)) / float(np.sum(pred.y_hat_male))


def group_gap_summaries(draws, wf, interval_mass=0.95, predictions=None):
    """Per job-geo posterior summary of the total female effect.

    Every group in the index gets exactly one summary, including
    single-worker and single-gender groups (the pooled effect exists
    for them even when no within-group contrast does). When predictions
    are supplied, dollar gaps are the median and mean over the group's
    workers of (y_hat_male - y_hat_female); otherwise NaN.
    """
    if not (0.0 < interval_mass < 1.0):
        raise ContractViolation("interval_mass must lie in (0, 1)")
    index = wf.index
    J = index.n_job_geo
    _, beta1_g, _, beta1_j, _ = _natural_blocks(draws)
    gjs_geo_of = index.gjs_geo_of_job_geo()
    alpha = (1.0 - interval_mass) / 2.0
    n_draws = len(beta1_j)
    mean, sd, lo, hi = np.empty((4, J))
    step = max(1, _BLOCK_VALUES // n_draws)
    for start in range(0, J, step):
        groups = slice(start, start + step)
        # (groups, draws), so that every reduction over draws runs along a row
        eff = np.ascontiguousarray((beta1_g[:, gjs_geo_of[groups]] + beta1_j[:, groups]).T)
        lo[groups], hi[groups] = np.quantile(eff, [alpha, 1.0 - alpha], axis=1)
        mean[groups] = eff.mean(axis=1)
        sd[groups] = eff.std(axis=1, ddof=1) if n_draws > 1 else 0.0

    sizes = index.group_sizes
    med_gap = mean_gap = np.full(J, np.nan)
    if predictions is not None:
        gaps = predictions.y_hat_male - predictions.y_hat_female
        # every group has a worker; its median is the mean of the middle
        # two of its sorted gaps (one, twice, when the count is odd)
        ranked = gaps[np.lexsort((gaps, index.j_of))]
        start = np.cumsum(sizes) - sizes
        med_gap = (ranked[start + (sizes - 1) // 2] + ranked[start + sizes // 2]) / 2
        mean_gap = np.bincount(index.j_of, weights=gaps, minlength=J) / sizes

    columns = zip(mean.tolist(), sd.tolist(), lo.tolist(), hi.tolist(),
                  ((lo > 0.0) | (hi < 0.0)).tolist(), sizes.tolist(),
                  index.gender_counts[:, 0].tolist(), med_gap.tolist(), mean_gap.tolist())
    # in GroupGapSummary's field order
    return [GroupGapSummary(j, index.job_geo_label(j), *row)
            for j, row in enumerate(columns)]


def raise_recommendations(pred, summaries, wf):
    """Raises for workers of the disadvantaged gender in significant groups.

    In a group whose female effect is significantly negative, female
    workers are recommended max(0, y_hat_male - y_hat_female); with a
    significantly positive effect the rule mirrors to male workers.
    Workers with nothing to recommend are omitted.
    """
    J = wf.index.n_job_geo
    significant = np.zeros(J, dtype=bool)
    female_disadvantaged = np.zeros(J, dtype=bool)
    for s in summaries:
        significant[s.job_geo] = s.significant
        female_disadvantaged[s.job_geo] = s.effect_mean < 0.0
    j_of = wf.index.j_of
    due = significant[j_of] & (wf.female == female_disadvantaged[j_of])
    gap = pred.y_hat_male - pred.y_hat_female
    amount = np.where(wf.female, gap, -gap)
    return [(wf.worker_id[i], float(amount[i]))
            for i in np.flatnonzero(due & (amount > 0.0))]


def fit_metrics(wf, pred):
    """In-sample (R^2, RMSE) of the mean predicted log-salary at true gender."""
    obs = wf.log_salary
    resid = obs - pred.mean_log
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0.0:
        raise ContractViolation("observed log-salaries are constant; R^2 undefined")
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return r2, rmse


def build_gap_report(draws, wf, interval_mass=0.95):
    """Assemble the full GapReport from one fitted run."""
    pred = counterfactual_predictions(draws, wf)
    summaries = group_gap_summaries(draws, wf, interval_mass, predictions=pred)
    cents = adjusted_cents_to_dollar(pred)
    raises = raise_recommendations(pred, summaries, wf)
    r2, rmse = fit_metrics(wf, pred)
    return GapReport(
        summaries=summaries,
        adjusted_cents_to_dollar=cents,
        raises=raises,
        r_squared=r2,
        rmse=rmse,
    )


def write_group_csv(summaries, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["job_geo", "n", "n_female", "effect_mean", "effect_sd",
                    "ci_low", "ci_high", "significant", "median_gap_usd"])
        for s in summaries:
            gap = "" if np.isnan(s.median_gap_usd) else "%.2f" % s.median_gap_usd
            w.writerow([s.label, s.n_workers, s.n_female,
                        "%.6f" % s.effect_mean, "%.6f" % s.effect_sd,
                        "%.6f" % s.ci_low, "%.6f" % s.ci_high,
                        "true" if s.significant else "false", gap])


def report_to_json(report):
    """JSON-ready dict; NaN dollar gaps serialize as null."""
    def _num(x):
        return None if np.isnan(x) else x
    return {
        "adjusted_cents_to_dollar": report.adjusted_cents_to_dollar,
        "fit": {"r_squared": report.r_squared, "rmse_log": report.rmse},
        "n_groups": len(report.summaries),
        "n_significant": sum(1 for s in report.summaries if s.significant),
        "groups": [
            {
                "job_geo": s.label,
                "n": s.n_workers,
                "n_female": s.n_female,
                "effect_mean": s.effect_mean,
                "effect_sd": s.effect_sd,
                "ci_low": s.ci_low,
                "ci_high": s.ci_high,
                "significant": s.significant,
                "median_gap_usd": _num(s.median_gap_usd),
                "mean_gap_usd": _num(s.mean_gap_usd),
            }
            for s in report.summaries
        ],
        "raises": [
            {"worker_id": wid, "raise_usd": amt} for wid, amt in report.raises
        ],
    }


def write_report_json(report, path):
    with open(path, "w") as fh:
        json.dump(report_to_json(report), fh, indent=2)
        fh.write("\n")


def format_report_text(report):
    """Aligned-column report with the Eq-style ratio in the header."""
    lines = []
    lines.append("pay equity report")
    lines.append("  adjusted cents-to-the-dollar: %.4f" % report.adjusted_cents_to_dollar)
    lines.append("  fit: R^2 = %.4f, RMSE(log) = %.4f" % (report.r_squared, report.rmse))
    n_sig = sum(1 for s in report.summaries if s.significant)
    lines.append("  groups: %d total, %d significant" % (len(report.summaries), n_sig))
    lines.append("  raises recommended: %d (total $%.2f)"
                 % (len(report.raises), sum(a for _, a in report.raises)))
    lines.append("")
    header = "%-22s %6s %6s %10s %10s %10s %10s %5s %12s" % (
        "job_geo", "n", "n_fem", "effect", "sd", "ci_low", "ci_high", "sig",
        "med_gap_usd")
    lines.append(header)
    for s in report.summaries:
        gap = "" if np.isnan(s.median_gap_usd) else "%.2f" % s.median_gap_usd
        lines.append("%-22s %6d %6d %10.4f %10.4f %10.4f %10.4f %5s %12s" % (
            s.label, s.n_workers, s.n_female, s.effect_mean, s.effect_sd,
            s.ci_low, s.ci_high, "yes" if s.significant else "no", gap))
    return "\n".join(lines) + "\n"
