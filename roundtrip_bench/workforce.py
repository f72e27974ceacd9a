"""Workforce generator for the benchmark workloads.

Follows the generating process that ``payequity.synthetic`` documents,
re-implemented here so that a change to the program cannot change a
workload: jobs nest in GJS codes round-robin, every job exists in every
geo, job-geo cell sizes follow a truncated discrete power law, genders
are i.i.d. Bernoulli, covariates are standard normal scores and an
exponential time in job, and every generating parameter is known.

One deliberate difference: the multiset of cell sizes is the law's
quantiles at (k + 0.5) / J, and the seed only permutes it across cells.
The worker count, and with it the cost of every per-worker layer, is
then the same for every seed, so run-to-run spread measures the
program rather than the luck of the size draws.
"""

from dataclasses import dataclass

import numpy as np

# Generating truth, the same values payequity.synthetic uses.
MU0_G, SIGMA0_G = 10.5, 0.5
MU1_G, SIGMA1_G = 0.0, 0.05
MU0_J, SIGMA0_J = 0.0, 0.6
MU1_J, SIGMA1_J = 0.0, 0.05
BETA2, BETA3, BETA4 = 0.05, 0.03, 0.001
SIGMA_RESID = 0.07
FEMALE_RATE = 0.22

COLUMNS = ("worker_id", "geo", "gjs", "job", "female",
           "recent_perf", "past_perf", "time_in_job", "salary")


@dataclass(frozen=True)
class Shape:
    n_geos: int
    n_gjs: int
    n_jobs: int
    size_exponent: float
    max_size: int

    @property
    def n_job_geo(self):
        return self.n_jobs * self.n_geos

    def cell_sizes(self):
        """Quantiles of P(s) proportional to s**-exponent, s = 1..max_size."""
        s = np.arange(1, self.max_size + 1, dtype=float)
        cdf = np.cumsum(s ** -self.size_exponent)
        cdf /= cdf[-1]
        u = (np.arange(self.n_job_geo) + 0.5) / self.n_job_geo
        return np.minimum(np.searchsorted(cdf, u), self.max_size - 1) + 1


@dataclass
class Workforce:
    """Generated workers and the labels the program will see; the truth
    that checks use is in the module's constants.

    Per-worker arrays are aligned with the CSV rows; geo, gjs and job hold
    indices into the name lists. ``g_label`` and ``j_label`` name each
    worker's GJS-geo and job-geo groups the way the program labels them
    ("gjs|geo", "job|geo").
    """

    worker_id: list
    geo: np.ndarray
    gjs: np.ndarray
    job: np.ndarray
    female: np.ndarray
    recent: np.ndarray
    past: np.ndarray
    tenure: np.ndarray
    salary: np.ndarray
    geo_names: list
    gjs_names: list
    job_names: list

    @property
    def n(self):
        return len(self.worker_id)

    def g_label(self):
        return [f"{self.gjs_names[g]}|{self.geo_names[e]}"
                for g, e in zip(self.gjs, self.geo)]

    def j_label(self):
        return [f"{self.job_names[j]}|{self.geo_names[e]}"
                for j, e in zip(self.job, self.geo)]

    def write_csv(self, path):
        """Write the CSV the program reads; floats in repr form so they
        parse back to exactly these values."""
        geo, gjs, job = self.geo_names, self.gjs_names, self.job_names
        lines = [",".join(COLUMNS)]
        for i in range(self.n):
            lines.append("%s,%s,%s,%s,%d,%r,%r,%r,%r" % (
                self.worker_id[i], geo[self.geo[i]], gjs[self.gjs[i]],
                job[self.job[i]], self.female[i], float(self.recent[i]),
                float(self.past[i]), float(self.tenure[i]),
                float(self.salary[i])))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")


def generate(shape, seed):
    """Draw one workforce; fully determined by (shape, seed)."""
    rng = np.random.default_rng(seed)
    J = shape.n_job_geo
    beta0_g = MU0_G + SIGMA0_G * rng.standard_normal((shape.n_gjs, shape.n_geos))
    beta1_g = MU1_G + SIGMA1_G * rng.standard_normal((shape.n_gjs, shape.n_geos))
    beta0_j = MU0_J + SIGMA0_J * rng.standard_normal((shape.n_jobs, shape.n_geos))
    beta1_j = MU1_J + SIGMA1_J * rng.standard_normal((shape.n_jobs, shape.n_geos))

    sizes = rng.permutation(shape.cell_sizes())
    cell = np.repeat(np.arange(J), sizes)           # job-major: cell = job * n_geos + geo
    job = cell // shape.n_geos
    geo = cell % shape.n_geos
    gjs = job % shape.n_gjs
    n = cell.size

    female = (rng.random(n) < FEMALE_RATE).astype(np.int64)
    recent = rng.standard_normal(n)
    past = rng.standard_normal(n)
    tenure = rng.exponential(3.0, n)
    eta = (beta0_g[gjs, geo] + beta0_j[job, geo]
           + female * (beta1_g[gjs, geo] + beta1_j[job, geo])
           + BETA2 * recent + BETA3 * past + BETA4 * tenure)
    salary = np.exp(eta + SIGMA_RESID * rng.standard_normal(n))

    return Workforce(
        worker_id=[f"w{i:06d}" for i in range(n)],
        geo=geo, gjs=gjs, job=job, female=female,
        recent=recent, past=past, tenure=tenure, salary=salary,
        geo_names=[f"geo{k:02d}" for k in range(shape.n_geos)],
        gjs_names=[f"gjs{k:02d}" for k in range(shape.n_gjs)],
        job_names=[f"job{k:03d}" for k in range(shape.n_jobs)],
    )
