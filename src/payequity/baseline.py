"""Plain dummy-variable regression used as the comparison model.

The design has one indicator column per job-geo (spanning the
intercept, so no global intercept column), one female-indicator
column per gender-variant job-geo, and the three pooled covariates.
Groups with a single gender get no female column at all: their gap is
structurally inestimable for this model, which is the property the
hierarchical fit is compared against.

The solver is a rank-revealing pivoted QR so that exact collinearity
surfaces as explicitly dropped columns rather than silently zeroed
coefficients.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ContractViolation

COVARIATE_LABELS = ("recent_perf", "past_perf", "time_in_job")


@dataclass
class DesignMatrix:
    X: np.ndarray
    labels: list                 # one per column
    group_col: np.ndarray        # job-geo index -> indicator column
    female_col: dict             # job-geo index -> female-slope column
    n_job_geo: int

    @property
    def n_rows(self):
        return self.X.shape[0]

    @property
    def n_cols(self):
        return self.X.shape[1]


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


def build_design_matrix(wf):
    """Assemble the dummy design described in the module docstring."""
    index = wf.index
    n = wf.n
    J = index.n_job_geo
    variant = index.gender_variant()
    variant_groups = [j for j in range(J) if variant[j]]

    labels = []
    group_col = np.arange(J)
    for j in range(J):
        labels.append("intercept[%s]" % index.job_geo_label(j))
    female_col = {}
    for j in variant_groups:
        female_col[j] = len(labels)
        labels.append("female[%s]" % index.job_geo_label(j))
    cov_base = len(labels)
    labels.extend(COVARIATE_LABELS)

    X = np.zeros((n, len(labels)))
    female = wf.female.astype(float)
    X[np.arange(n), index.j_of] = 1.0
    for j, col in female_col.items():
        rows = index.j_of == j
        X[rows, col] = female[rows]
    X[:, cov_base] = wf.recent
    X[:, cov_base + 1] = wf.past
    X[:, cov_base + 2] = wf.tenure

    return DesignMatrix(X=X, labels=labels, group_col=group_col,
                        female_col=female_col, n_job_geo=J)


def fit_ols(design, y):
    """Least squares through pivoted QR with explicit column dropping.

    Numerically rank-deficient columns (pivoted past the rank cutoff)
    are reported in dropped_labels and get NaN coefficients. Standard
    errors come from s^2 (R^-1 R^-T) on the retained columns; with zero
    residual degrees of freedom they are NaN but the fit is returned.
    """
    X = design.X
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ContractViolation("response length %d does not match %d rows"
                                % (y.shape[0], n))

    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(n, p) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank == 0:
        raise ContractViolation("design matrix has rank zero")

    retained = piv[:rank]
    dropped = piv[rank:]
    R1 = R[:rank, :rank]
    qty = Q[:, :rank].T @ y
    b = scipy.linalg.solve_triangular(R1, qty)

    coef = np.full(p, np.nan)
    coef[retained] = b
    fitted = X[:, retained] @ b
    resid = y - fitted

    dof = n - rank
    se = np.full(p, np.nan)
    if dof > 0:
        s2 = float(resid @ resid) / dof
        R1_inv = scipy.linalg.solve_triangular(R1, np.eye(rank))
        cov_diag = s2 * np.sum(R1_inv ** 2, axis=1)
        se[retained] = np.sqrt(np.maximum(cov_diag, 0.0))
    else:
        s2 = float("nan")

    dropped_set = set(int(k) for k in dropped)
    estimable = set()
    female_coef = {}
    female_se = {}
    for j, col in design.female_col.items():
        if col not in dropped_set:
            estimable.add(j)
            female_coef[j] = float(coef[col])
            female_se[j] = float(se[col])
    inestimable = set(range(design.n_job_geo)) - estimable

    return LmFit(
        labels=list(design.labels),
        coef=coef,
        se=se,
        residual_variance=s2,
        rank=rank,
        n_rows=n,
        dropped_labels=[design.labels[int(k)] for k in dropped],
        estimable_groups=estimable,
        inestimable_groups=inestimable,
        female_coef=female_coef,
        female_se=female_se,
        residuals=resid,
        fitted=fitted,
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
