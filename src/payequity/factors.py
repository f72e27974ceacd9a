"""Factor crossing and group indexing.

GJS and job are each crossed with geo; the resulting GJS-geo and
job-geo levels get dense integer indices in first-appearance order.
Job-geo is the comparison-group level at which wage gaps are assessed;
GJS-geo supplies the higher pooling level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FactorIndex:
    """Dense indexing of the crossed factor levels.

    g_of / j_of align with the workers the index was built from:
    g_of[i] is worker i's GJS-geo index, j_of[i] its job-geo index.
    """

    gjs_geo_levels: list[tuple[str, str]]
    job_geo_levels: list[tuple[str, str]]
    g_of: np.ndarray
    j_of: np.ndarray
    group_sizes: np.ndarray       # per job-geo worker count
    gender_counts: np.ndarray     # per job-geo (n_female, n_male)

    @property
    def n_gjs_geo(self) -> int:
        return len(self.gjs_geo_levels)

    @property
    def n_job_geo(self) -> int:
        return len(self.job_geo_levels)

    @property
    def n_workers(self) -> int:
        return len(self.g_of)

    def gender_variant(self) -> np.ndarray:
        """Boolean per job-geo: both genders present."""
        return (self.gender_counts[:, 0] > 0) & (self.gender_counts[:, 1] > 0)

    def job_geo_label(self, j: int) -> str:
        job, geo = self.job_geo_levels[j]
        return f"{job}|{geo}"

    def gjs_geo_label(self, g: int) -> str:
        gjs, geo = self.gjs_geo_levels[g]
        return f"{gjs}|{geo}"

    def gjs_geo_of_job_geo(self) -> np.ndarray:
        """Map each job-geo to the GJS-geo of its workers.

        Jobs nest inside GJS, so a comparison group normally sits under
        a single GJS-geo; if data violates the nesting, the most common
        GJS-geo among the group's workers wins (ties by lower index).
        """
        J, G = self.n_job_geo, self.n_gjs_geo
        counts = np.zeros((J, G), dtype=np.int64)
        np.add.at(counts, (self.j_of, self.g_of), 1)
        return counts.argmax(axis=1)


def _first_appearance_codes(keys, n: int) -> tuple[list, np.ndarray]:
    """Dense codes for n keys, numbered in order of first appearance."""
    levels: dict = {}
    codes = np.fromiter((levels.setdefault(k, len(levels)) for k in keys),
                        dtype=np.int64, count=n)
    return list(levels), codes


def build_factor_index(geo, gjs, job, female) -> FactorIndex:
    """Assign dense indices to GJS-geo and job-geo levels.

    Takes a workforce's label columns and its boolean female column.
    Indices follow first appearance, so the result is deterministic
    without assuming any ordering on labels.
    """
    n = len(geo)
    if n == 0:
        raise ValueError("build_factor_index requires at least one worker")
    gjs_geo_levels, g_of = _first_appearance_codes(zip(gjs, geo), n)
    job_geo_levels, j_of = _first_appearance_codes(zip(job, geo), n)
    J = len(job_geo_levels)
    group_sizes = np.bincount(j_of, minlength=J)
    female = np.asarray(female, dtype=np.int64)
    gender_counts = np.column_stack(
        [
            np.bincount(j_of, weights=female, minlength=J).astype(np.int64),
            np.bincount(j_of, weights=1 - female, minlength=J).astype(np.int64),
        ]
    )
    return FactorIndex(
        gjs_geo_levels=gjs_geo_levels,
        job_geo_levels=job_geo_levels,
        g_of=g_of,
        j_of=j_of,
        group_sizes=group_sizes,
        gender_counts=gender_counts,
    )


@dataclass(frozen=True)
class FactorImbalance:
    n_levels: int
    pct_single_gender: float
    pct_single_worker: float


@dataclass
class ImbalanceSummary:
    """Per-factor level counts and single-gender / single-worker shares.

    Percentages are exact; rounding happens only in format_table.
    """

    factors: dict[str, FactorImbalance] = field(default_factory=dict)

    ORDER = ("geo", "gjs", "gjs_geo", "job", "job_geo")

    def format_table(self) -> str:
        lines = [f"{'factor':<10} {'levels':>7} {'% single-gender':>16} {'% single-worker':>16}"]
        for name in self.ORDER:
            fi = self.factors[name]
            lines.append(
                f"{name:<10} {fi.n_levels:>7d} {fi.pct_single_gender:>16.1f} {fi.pct_single_worker:>16.1f}"
            )
        return "\n".join(lines)


def _level_stats(codes: np.ndarray, female: np.ndarray) -> FactorImbalance:
    sizes = np.bincount(codes)
    n_female = np.bincount(codes, weights=female)
    n = len(sizes)
    single_gender = int(np.sum((n_female == 0) | (n_female == sizes)))
    single_worker = int(np.sum(sizes == 1))
    return FactorImbalance(n, 100.0 * single_gender / n, 100.0 * single_worker / n)


def summarize_imbalance(wf) -> ImbalanceSummary:
    """Exact per-factor imbalance statistics of a Workforce (no sampling).

    Geo, GJS, and job are summarized from the raw labels; the crossed
    factors use the dense indices so the summary and the model agree on
    level identity.
    """
    n = wf.n
    summary = ImbalanceSummary()
    for name in ("geo", "gjs", "job"):
        summary.factors[name] = _level_stats(
            _first_appearance_codes(getattr(wf, name), n)[1], wf.female)
    summary.factors["gjs_geo"] = _level_stats(wf.index.g_of, wf.female)
    summary.factors["job_geo"] = _level_stats(wf.index.j_of, wf.female)
    return summary
