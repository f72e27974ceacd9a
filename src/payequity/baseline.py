"""Plain dummy-variable regression used as the comparison model.

The model has one intercept per job-geo (no global intercept), one
female coefficient per gender-variant job-geo, and the three pooled
covariates. Groups with a single gender get no female coefficient at
all: their gap is structurally inestimable for this model, which is the
property the hierarchical fit is compared against.

Intercept plus female dummy per job-geo is one fixed effect per
(job-geo, gender) cell, so the fit is solved in closed form over the
cells (Frisch-Waugh-Lovell) instead of through an n x p design.
Demeaning within cells leaves a 3-column least-squares problem for the
covariates; each intercept is then its male cell's covariate-adjusted
mean (the female cell's when the group has no men), and each female
coefficient is the female minus the male adjusted mean. A covariate
whose demeaned column is spanned by the covariates before it, in label
order, is dropped and reported rather than silently zeroed; so is one
that is constant within every cell.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

COVARIATE_LABELS = ("recent_perf", "past_perf", "time_in_job")


@dataclass
class LmFit:
    labels: list
    coef: np.ndarray             # NaN where the column was dropped
    se: np.ndarray               # NaN where dropped or dof exhausted
    residual_variance: float     # NaN when residual dof is zero
    rank: int
    n_rows: int
    dropped_labels: list
    estimable_groups: set        # job-geos with a female-slope estimate
    inestimable_groups: set      # all other job-geos
    female_coef: dict = field(default_factory=dict)   # job-geo -> estimate
    female_se: dict = field(default_factory=dict)     # job-geo -> std error
    residuals: np.ndarray = None
    fitted: np.ndarray = None


def fit_ols(wf, y):
    """Least squares of y on the dummy-variable model of Workforce wf.

    Labels run intercept[...] per job-geo, female[...] per gender-variant
    job-geo, then the covariates. Dropped covariates are listed in
    dropped_labels and get NaN coefficients. Standard errors are the
    diagonal of s^2 (X^T X)^-1 for the full design, written per block
    with M = (X~^T X~)^-1 over the kept demeaned covariates X~ and the
    cell covariate means x_c: s^2 M for the covariates,
    s^2 (1/n_c + x_c' M x_c) for an intercept and
    s^2 (1/n_f + 1/n_m + d' M d), d = x_f - x_m, for a female
    coefficient. With zero residual degrees of freedom they are NaN but
    the fit is returned.
    """
    index = wf.index
    y = np.asarray(y, dtype=float)
    n, J = wf.n, index.n_job_geo
    if y.shape != (n,):
        raise ContractViolation("response length %d does not match %d rows"
                                % (y.shape[0], n))
    variant = np.flatnonzero(index.gender_variant())
    labels = (["intercept[%s]" % index.job_geo_label(j) for j in range(J)]
              + ["female[%s]" % index.job_geo_label(j) for j in variant]
              + list(COVARIATE_LABELS))

    # cell 2j holds job-geo j's men, cell 2j + 1 its women
    cell = 2 * index.j_of + wf.female
    n_cell = index.gender_counts[:, ::-1].ravel()
    X = np.column_stack([wf.recent, wf.past, wf.tenure])

    def cell_means(v):
        return np.bincount(cell, weights=v, minlength=2 * J) / np.maximum(n_cell, 1)

    y_bar = cell_means(y)
    X_bar = np.column_stack([cell_means(x) for x in X.T])
    Xt = X - X_bar[cell]
    yt = y - y_bar[cell]

    tol = max(n, len(labels)) * np.finfo(float).eps
    keep = []
    for k in range(X.shape[1]):
        r = np.linalg.qr(Xt[:, keep + [k]], mode="r")
        if abs(r[-1, -1]) > tol * np.linalg.norm(X[:, k]):
            keep.append(k)
    Q, R = np.linalg.qr(Xt[:, keep])
    b = np.linalg.solve(R, Q.T @ yt)
    R_inv = np.linalg.inv(R)
    resid = yt - Xt[:, keep] @ b

    rank = J + len(variant) + len(keep)
    dof = n - rank
    s2 = float(resid @ resid) / dof if dof > 0 else float("nan")

    def quad(D):
        """s^2 d' M d for each row d of D, with M = R^-1 R^-T."""
        return s2 * np.sum((D @ R_inv) ** 2, axis=1)

    X_bar = X_bar[:, keep]
    adjusted = y_bar - X_bar @ b
    base = 2 * np.arange(J) + (n_cell[0::2] == 0)   # male cell unless empty
    male, female = 2 * variant, 2 * variant + 1
    cov_coef = np.full(X.shape[1], np.nan)
    cov_coef[keep] = b
    cov_se = np.full(X.shape[1], np.nan)
    cov_se[keep] = np.sqrt(quad(np.eye(len(keep))))
    female_coef = adjusted[female] - adjusted[male]
    female_se = np.sqrt(s2 / n_cell[female] + s2 / n_cell[male]
                        + quad(X_bar[female] - X_bar[male]))
    coef = np.concatenate([adjusted[base], female_coef, cov_coef])
    se = np.concatenate([np.sqrt(s2 / n_cell[base] + quad(X_bar[base])),
                         female_se, cov_se])

    estimable = set(variant.tolist())
    return LmFit(
        labels=labels,
        coef=coef,
        se=se,
        residual_variance=s2,
        rank=rank,
        n_rows=n,
        dropped_labels=[COVARIATE_LABELS[k] for k in range(X.shape[1]) if k not in keep],
        estimable_groups=estimable,
        inestimable_groups=set(range(J)) - estimable,
        female_coef=dict(zip(variant.tolist(), female_coef.tolist())),
        female_se=dict(zip(variant.tolist(), female_se.tolist())),
        residuals=resid,
        fitted=y - resid,
    )


@dataclass
class ComparisonRow:
    job_geo: int
    label: str
    n_workers: int
    hlm_effect: float
    lm_effect: float    # NaN when the LM has no estimate
    lm_se: float


@dataclass
class ComparisonTable:
    """HLM-vs-LM female effects, smallest groups first.

    The shrinkage fields average |effect| over gender-variant groups of
    size <= small_group_k, where both models have an estimate.
    """
    rows: list
    small_group_k: int
    mean_abs_hlm_small: float
    mean_abs_lm_small: float
    n_small_groups: int
    lm_inestimable_workers: int
    lm_inestimable_percent: float


def compare_estimates(hlm_summaries, lm, index, small_group_k=4):
    """Line up the two models' per-group female effects (size ascending)."""
    if len(hlm_summaries) != index.n_job_geo:
        raise ContractViolation(
            "expected %d group summaries, got %d"
            % (index.n_job_geo, len(hlm_summaries)))
    if lm.n_rows != index.n_workers:
        raise ContractViolation("LM fit and index cover different datasets")
    if small_group_k < 1:
        raise ContractViolation("small_group_k must be at least 1")

    by_group = {s.job_geo: s for s in hlm_summaries}
    rows = []
    for j in range(index.n_job_geo):
        s = by_group.get(j)
        if s is None:
            raise ContractViolation("missing summary for job-geo %d" % j)
        rows.append(ComparisonRow(
            job_geo=j,
            label=index.job_geo_label(j),
            n_workers=int(index.group_sizes[j]),
            hlm_effect=s.effect_mean,
            lm_effect=lm.female_coef.get(j, float("nan")),
            lm_se=lm.female_se.get(j, float("nan")),
        ))
    rows.sort(key=lambda r: (r.n_workers, r.job_geo))

    small = [r for r in rows
             if r.n_workers <= small_group_k and r.job_geo in lm.estimable_groups]
    if small:
        mean_hlm = float(np.mean([abs(r.hlm_effect) for r in small]))
        mean_lm = float(np.mean([abs(r.lm_effect) for r in small]))
    else:
        mean_hlm = float("nan")
        mean_lm = float("nan")

    workers_out = int(sum(index.group_sizes[j] for j in lm.inestimable_groups))
    return ComparisonTable(
        rows=rows,
        small_group_k=small_group_k,
        mean_abs_hlm_small=mean_hlm,
        mean_abs_lm_small=mean_lm,
        n_small_groups=len(small),
        lm_inestimable_workers=workers_out,
        lm_inestimable_percent=100.0 * workers_out / index.n_workers,
    )


def write_comparison_csv(table, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["job_geo", "n", "hlm_effect", "lm_effect", "lm_se"])
        for r in table.rows:
            lm_eff = "" if np.isnan(r.lm_effect) else "%.6f" % r.lm_effect
            lm_se = "" if np.isnan(r.lm_se) else "%.6f" % r.lm_se
            w.writerow([r.label, r.n_workers, "%.6f" % r.hlm_effect, lm_eff, lm_se])


def format_comparison_text(table):
    lines = []
    lines.append("HLM vs LM female effects (groups sorted by size)")
    lines.append("  LM-inestimable groups cover %d workers (%.1f%% of rows)"
                 % (table.lm_inestimable_workers, table.lm_inestimable_percent))
    if table.n_small_groups:
        lines.append("  among %d gender-variant groups of size <= %d: "
                     "mean |HLM| = %.4f, mean |LM| = %.4f"
                     % (table.n_small_groups, table.small_group_k,
                        table.mean_abs_hlm_small, table.mean_abs_lm_small))
    lines.append("")
    lines.append("%-22s %6s %12s %12s %10s" % ("job_geo", "n", "hlm_effect",
                                               "lm_effect", "lm_se"))
    for r in table.rows:
        lm_eff = "" if np.isnan(r.lm_effect) else "%.4f" % r.lm_effect
        lm_se = "" if np.isnan(r.lm_se) else "%.4f" % r.lm_se
        lines.append("%-22s %6d %12.4f %12s %10s"
                     % (r.label, r.n_workers, r.hlm_effect, lm_eff, lm_se))
    return "\n".join(lines) + "\n"
