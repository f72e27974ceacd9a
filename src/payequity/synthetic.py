"""Synthetic workforce generation with known ground truth.

Group sizes follow a truncated discrete power law, the lever that
controls how many single-worker and single-gender comparison groups
appear.  Every generated parameter is recorded so parameter-recovery
tests can score the fitted model against truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kvconfig import read_kv, write_kv
from .records import Workforce


@dataclass(frozen=True)
class GroupSizeLaw:
    """Truncated discrete power law: P(size = s) proportional to s**-exponent
    for s in 1..max_size."""

    exponent: float = 1.0
    max_size: int = 6

    def probabilities(self) -> np.ndarray:
        sizes = np.arange(1, self.max_size + 1, dtype=float)
        p = sizes ** (-self.exponent)
        return p / p.sum()


@dataclass(frozen=True)
class PopulationTruth:
    """Means and scales of the random-effect populations."""

    mu0_g: float = 10.5
    sigma0_g: float = 0.5
    mu1_g: float = 0.0
    sigma1_g: float = 0.05
    mu0_j: float = 0.0
    sigma0_j: float = 0.6
    mu1_j: float = 0.0
    sigma1_j: float = 0.05


@dataclass(frozen=True)
class SynthConfig:
    n_geos: int = 8
    n_gjs: int = 6
    n_jobs: int = 150
    group_size_law: GroupSizeLaw = field(default_factory=GroupSizeLaw)
    female_rate: float = 0.22
    true_hyperparams: PopulationTruth = field(default_factory=PopulationTruth)
    true_fixed_effects: tuple[float, float, float] = (0.05, 0.03, 0.001)
    residual_scale: float = 0.07
    seed: int = 0

    def validate(self) -> None:
        if min(self.n_geos, self.n_gjs, self.n_jobs) < 1:
            raise ConfigError("n_geos, n_gjs, n_jobs must be positive")
        if self.n_jobs < self.n_gjs:
            raise ConfigError("need n_jobs >= n_gjs so every GJS holds a job")
        if not (0.0 < self.female_rate < 1.0):
            raise ConfigError("female_rate must be strictly inside (0, 1)")
        if self.residual_scale <= 0.0:
            raise ConfigError("residual_scale must be > 0")
        if self.group_size_law.max_size < 1 or self.group_size_law.exponent < 0:
            raise ConfigError("group_size_law needs max_size >= 1 and exponent >= 0")
        t = self.true_hyperparams
        if min(t.sigma0_g, t.sigma1_g, t.sigma0_j, t.sigma1_j) <= 0.0:
            raise ConfigError("all scale hyperparameters must be > 0")


# Preset tuned so the job-geo profile lands on the reference imbalance
# proportions (about 41% single-worker and 68% single-gender groups).
REFERENCE_IMBALANCE = SynthConfig()


class GroundTruth:
    """Flat name -> value map of every generating parameter.

    Random-effect keys are label-based ("beta0_j[job00|geo00]") so tests
    can join them to a FactorIndex regardless of index order.
    """

    def __init__(self, values: dict[str, float]):
        self.values = values

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def total_female_effect(self, gjs_geo_label: str, job_geo_label: str) -> float:
        return self.values[f"beta1_g[{gjs_geo_label}]"] + self.values[f"beta1_j[{job_geo_label}]"]

    def write(self, path: str | Path) -> None:
        write_kv(path, self.values)

    @classmethod
    def read(cls, path: str | Path) -> "GroundTruth":
        return cls({k: float(v) for k, v in read_kv(path).items()})


def generate_synthetic(config: SynthConfig) -> tuple[Workforce, GroundTruth]:
    """Draw a workforce from the hierarchical generating process.

    Jobs are nested in GJS codes round-robin; every job exists in every
    geo, and each job-geo cell's size is drawn from the group-size law.
    Genders are i.i.d. Bernoulli(female_rate); covariates come from
    fixed simple distributions (standard normal performance scores,
    exponential time in job).  Fully deterministic given config.seed.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    truth = config.true_hyperparams
    b2, b3, b4 = config.true_fixed_effects

    geos = [f"geo{k:02d}" for k in range(config.n_geos)]
    gjs_codes = [f"gjs{k:02d}" for k in range(config.n_gjs)]
    jobs = [f"job{k:03d}" for k in range(config.n_jobs)]
    gjs_of_job = [k % config.n_gjs for k in range(config.n_jobs)]

    values: dict[str, float] = {
        "mu0_g": truth.mu0_g,
        "sigma0_g": truth.sigma0_g,
        "mu1_g": truth.mu1_g,
        "sigma1_g": truth.sigma1_g,
        "mu0_j": truth.mu0_j,
        "sigma0_j": truth.sigma0_j,
        "mu1_j": truth.mu1_j,
        "sigma1_j": truth.sigma1_j,
        "beta2": b2,
        "beta3": b3,
        "beta4": b4,
        "sigma_resid": config.residual_scale,
    }

    beta0_g: dict[tuple[int, int], float] = {}
    beta1_g: dict[tuple[int, int], float] = {}
    for gi, gjs in enumerate(gjs_codes):
        for ei, geo in enumerate(geos):
            beta0_g[gi, ei] = truth.mu0_g + truth.sigma0_g * rng.standard_normal()
            beta1_g[gi, ei] = truth.mu1_g + truth.sigma1_g * rng.standard_normal()
            values[f"beta0_g[{gjs}|{geo}]"] = beta0_g[gi, ei]
            values[f"beta1_g[{gjs}|{geo}]"] = beta1_g[gi, ei]

    beta0_j: dict[tuple[int, int], float] = {}
    beta1_j: dict[tuple[int, int], float] = {}
    for ji, job in enumerate(jobs):
        for ei, geo in enumerate(geos):
            beta0_j[ji, ei] = truth.mu0_j + truth.sigma0_j * rng.standard_normal()
            beta1_j[ji, ei] = truth.mu1_j + truth.sigma1_j * rng.standard_normal()
            values[f"beta0_j[{job}|{geo}]"] = beta0_j[ji, ei]
            values[f"beta1_j[{job}|{geo}]"] = beta1_j[ji, ei]

    probs = config.group_size_law.probabilities()
    sizes = np.arange(1, config.group_size_law.max_size + 1)

    columns: tuple[list, ...] = tuple([] for _ in range(10))
    for ji, job in enumerate(jobs):
        gi = gjs_of_job[ji]
        for ei, geo in enumerate(geos):
            group_size = int(rng.choice(sizes, p=probs))
            for _ in range(group_size):
                female = bool(rng.random() < config.female_rate)
                recent = float(rng.standard_normal())
                past = float(rng.standard_normal())
                tenure = float(rng.exponential(3.0))
                eta = (
                    beta0_g[gi, ei]
                    + beta0_j[ji, ei]
                    + (1.0 if female else 0.0) * (beta1_g[gi, ei] + beta1_j[ji, ei])
                    + b2 * recent
                    + b3 * past
                    + b4 * tenure
                )
                log_salary = float(eta + config.residual_scale * rng.standard_normal())
                row = (f"w{len(columns[0]):06d}", geo, gjs_codes[gi], job, female,
                       recent, past, tenure, math.exp(log_salary), log_salary)
                for column, value in zip(columns, row):
                    column.append(value)

    # log_salary stays the generated value, not log(exp(log_salary))
    return Workforce.from_columns(*columns), GroundTruth(values)


def config_summary(config: SynthConfig) -> dict:
    """JSON-friendly echo of the configuration for manifests."""
    d = asdict(config)
    d["true_fixed_effects"] = list(config.true_fixed_effects)
    return d
