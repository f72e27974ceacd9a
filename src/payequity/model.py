"""Hierarchical log-salary model: layout, transform, density, gradient.

The unconstrained state vector holds standardized random effects
(non-centered parameterization), hyperparameter means, log-scale
hyperparameters, fixed effects, and the log residual scale:

    [ z_intercept_g (G) | z_slope_g (G) | z_intercept_j (J) | z_slope_j (J)
      | mu0_g mu1_g mu0_j mu1_j | ls0_g ls1_g ls0_j ls1_j
      | beta2 beta3 beta4 | log_sigma_resid ]

Natural random effects are mu_block + exp(ls_block) * z.  Scales get
half-Normal priors applied on the natural scale plus the log-Jacobian
of the exp transform, so the density is with respect to the
unconstrained coordinates throughout.  Normalizing constants are kept
in full to make value-level comparison against naive oracles exact.

The likelihood and its gradient are computed from cell statistics
(CellStats: per (GJS-geo, job-geo, gender) cell counts and means, and
the pooled within-cell cross-products), built once per model, so one
evaluation costs O(cells) rather than O(workers).

The natural-scale draw matrix uses the same ParamLayout slices: each z
block holds its random effects, hyper_log_sigma the four scales and
log_sigma_resid the residual scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation, NumericOverflowError
from .factors import FactorIndex
from .kvconfig import parse_float, read_kv, write_kv
from .records import Workforce

LOG_2PI = math.log(2.0 * math.pi)

_SPEC_KEYS = (
    "hyperprior_mu_scale",
    "hyperprior_sigma_scale",
    "beta2_prior_scale",
    "beta3_prior_scale",
    "beta4_prior_scale",
    "residual_sigma_prior_scale",
)


@dataclass(frozen=True)
class ModelSpec:
    """Prior scales.  Defaults are weakly informative except beta4,
    which is deliberately tight (time in job is nearly flat in the
    generating process this model is aimed at)."""

    hyperprior_mu_scale: float = 5.0
    hyperprior_sigma_scale: float = 1.0
    fixed_effect_prior_scales: tuple[float, float, float] = (1.0, 1.0, 0.001)
    residual_sigma_prior_scale: float = 1.0

    def validate(self) -> None:
        scales = (
            self.hyperprior_mu_scale,
            self.hyperprior_sigma_scale,
            *self.fixed_effect_prior_scales,
            self.residual_sigma_prior_scale,
        )
        if len(self.fixed_effect_prior_scales) != 3:
            raise ConfigError("fixed_effect_prior_scales must have exactly 3 entries")
        if any(not (s > 0.0) for s in scales):
            raise ConfigError("every prior scale must be strictly positive")

    def as_dict(self) -> dict:
        """JSON-friendly echo using the config-file key names."""
        values = (self.hyperprior_mu_scale, self.hyperprior_sigma_scale,
                  *self.fixed_effect_prior_scales, self.residual_sigma_prior_scale)
        return dict(zip(_SPEC_KEYS, values))

    def to_file(self, path: str | Path) -> None:
        write_kv(path, self.as_dict())

    @classmethod
    def from_file(cls, path: str | Path) -> "ModelSpec":
        raw = read_kv(path)
        unknown = sorted(set(raw) - set(_SPEC_KEYS))
        if unknown:
            raise ConfigError(f"unknown model config keys: {', '.join(unknown)}")
        base = cls()
        def get(key: str, default: float) -> float:
            return parse_float(raw[key], key) if key in raw else default
        spec = cls(
            hyperprior_mu_scale=get("hyperprior_mu_scale", base.hyperprior_mu_scale),
            hyperprior_sigma_scale=get("hyperprior_sigma_scale", base.hyperprior_sigma_scale),
            fixed_effect_prior_scales=(
                get("beta2_prior_scale", base.fixed_effect_prior_scales[0]),
                get("beta3_prior_scale", base.fixed_effect_prior_scales[1]),
                get("beta4_prior_scale", base.fixed_effect_prior_scales[2]),
            ),
            residual_sigma_prior_scale=get(
                "residual_sigma_prior_scale", base.residual_sigma_prior_scale),
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class ParamLayout:
    """Slices of the flat unconstrained vector, one per named block."""

    G: int
    J: int

    @property
    def z_intercept_g(self) -> slice:
        return slice(0, self.G)

    @property
    def z_slope_g(self) -> slice:
        return slice(self.G, 2 * self.G)

    @property
    def z_intercept_j(self) -> slice:
        return slice(2 * self.G, 2 * self.G + self.J)

    @property
    def z_slope_j(self) -> slice:
        return slice(2 * self.G + self.J, 2 * self.G + 2 * self.J)

    @property
    def hyper_mu(self) -> slice:
        # order: mu0_g, mu1_g, mu0_j, mu1_j
        base = 2 * self.G + 2 * self.J
        return slice(base, base + 4)

    @property
    def hyper_log_sigma(self) -> slice:
        # order: ls0_g, ls1_g, ls0_j, ls1_j
        base = 2 * self.G + 2 * self.J + 4
        return slice(base, base + 4)

    @property
    def fixed(self) -> slice:
        base = 2 * self.G + 2 * self.J + 8
        return slice(base, base + 3)

    @property
    def log_sigma_resid(self) -> slice:
        base = 2 * self.G + 2 * self.J + 11
        return slice(base, base + 1)

    @property
    def dim(self) -> int:
        return 2 * self.G + 2 * self.J + 12

    def random_effects(self) -> tuple[slice, slice, slice, slice]:
        """The z blocks, in the order of their hyper means and scales."""
        return self.z_intercept_g, self.z_slope_g, self.z_intercept_j, self.z_slope_j

    def block_slices(self) -> dict[str, slice]:
        return {
            "z_intercept_g": self.z_intercept_g,
            "z_slope_g": self.z_slope_g,
            "z_intercept_j": self.z_intercept_j,
            "z_slope_j": self.z_slope_j,
            "hyper_mu": self.hyper_mu,
            "hyper_log_sigma": self.hyper_log_sigma,
            "fixed": self.fixed,
            "log_sigma_resid": self.log_sigma_resid,
        }

    def count_breakdown(self) -> dict[str, int]:
        return {
            "noncentered_latents": 2 * self.G + 2 * self.J,
            "hyper_means": 4,
            "hyper_scales": 4,
            "fixed_effects": 3,
            "residual_scale": 1,
            "total": self.dim,
        }


def build_layout(index: FactorIndex) -> ParamLayout:
    if index.n_gjs_geo < 1 or index.n_job_geo < 1:
        raise ContractViolation("layout requires at least one level in each grouping")
    return ParamLayout(G=index.n_gjs_geo, J=index.n_job_geo)


def natural_param_names(index: FactorIndex) -> list[str]:
    """Column names of the natural-scale draw matrix, in layout order."""
    lay = build_layout(index)
    g_labels = [index.gjs_geo_label(g) for g in range(lay.G)]
    j_labels = [index.job_geo_label(j) for j in range(lay.J)]
    names = [""] * lay.dim
    for block, prefix, labels in zip(lay.random_effects(),
                                     ("beta0_g", "beta1_g", "beta0_j", "beta1_j"),
                                     (g_labels, g_labels, j_labels, j_labels)):
        names[block] = [f"{prefix}[{label}]" for label in labels]
    names[lay.hyper_mu] = ["mu0_g", "mu1_g", "mu0_j", "mu1_j"]
    names[lay.hyper_log_sigma] = ["sigma0_g", "sigma1_g", "sigma0_j", "sigma1_j"]
    names[lay.fixed] = ["beta2", "beta3", "beta4"]
    names[lay.log_sigma_resid] = ["sigma_resid"]
    return names


def _linear_predictor(beta0_g, beta1_g, beta0_j, beta1_j, fixed, wf: Workforce, female,
                      rows):
    """Linear predictor of log salary for the workers rows of wf.

    rows is a slice of workers; m below is the number it selects.  The
    effects are either one state's (G,), (J,) and (3,) vectors, giving
    (m,), or one row per draw, (D, G), (D, J) and (D, 3), giving (D, m).
    A worker's entries do not depend on which other workers rows
    selects.  Every worker is predicted at one
    gender: female if female is true, male otherwise.  The density
    works from cell statistics instead (see CellStats); the two agree
    to rounding.  Private, so that the benchmark's traced runs count
    its time in the report.
    """
    g_of, j_of = wf.index.g_of[rows], wf.index.j_of[rows]
    # Built as (m, D), so that every gather, product and sum runs over
    # contiguous rows, and returned as its (D, m) transpose.
    eta = beta0_g.T[g_of] + beta0_j.T[j_of]
    if female:  # a male prediction has no gender term
        eta += beta1_g.T[g_of] + beta1_j.T[j_of]
    for k, covariate in enumerate((wf.recent, wf.past, wf.tenure)):
        eta += np.multiply.outer(covariate[rows], fixed[..., k])
    return eta.T


@dataclass(frozen=True, eq=False)
class CellStats:
    """The statistics of a Workforce that the Gaussian likelihood reads.

    A cell is one distinct (GJS-geo, job-geo, gender) triple, so the
    statistics stay exact when jobs do not nest in GJS-geo.  Cell c
    holds n[c] workers of GJS-geo g[c], job-geo j[c] and gender
    female[c] (1.0 or 0.0), with mean log salary y_bar[c] and mean
    covariates x_bar[c] = (recent, past, tenure).  W_xx, W_xy and W_yy
    are the within-cell cross-products of the covariates and log
    salary, pooled over cells.  For a predictor a[c] + x'beta that is
    constant within cells but for the covariates,

        sum_i (y_i - a[c_i] - x_i'beta)^2
            = W_yy - 2 beta'W_xy + beta'W_xx beta + sum_c n[c] r[c]^2,
        r[c] = y_bar[c] - a[c] - x_bar[c]'beta

    (the Frisch-Waugh-Lovell split), which costs O(cells), not
    O(workers).  Deviations from the cell means are taken before any
    product, so the cross-products do not cancel the salary level.
    """

    g: np.ndarray
    j: np.ndarray
    female: np.ndarray
    n: np.ndarray
    y_bar: np.ndarray
    x_bar: np.ndarray       # (cells, 3)
    W_xx: np.ndarray        # (3, 3)
    W_xy: np.ndarray        # (3,)
    W_yy: float

    @classmethod
    def from_workforce(cls, wf: Workforce) -> "CellStats":
        J = wf.index.n_job_geo
        key = (wf.index.g_of * J + wf.index.j_of) * 2 + wf.female
        keys, cell_of, n = np.unique(key, return_inverse=True, return_counts=True)

        def means(v):
            return np.bincount(cell_of, weights=v, minlength=keys.size) / n

        X = np.column_stack([wf.recent, wf.past, wf.tenure])
        y_bar = means(wf.log_salary)
        x_bar = np.column_stack([means(x) for x in X.T])
        yt = wf.log_salary - y_bar[cell_of]
        Xt = X - x_bar[cell_of]
        return cls(g=keys // (2 * J), j=keys // 2 % J, female=(keys % 2).astype(float),
                   n=n.astype(float), y_bar=y_bar, x_bar=x_bar,
                   W_xx=Xt.T @ Xt, W_xy=Xt.T @ yt, W_yy=float(yt @ yt))


class HierarchicalModel:
    """Bundles a Workforce, its layout, its cell statistics and prior scales.

    logp_and_grad is the one density: non-raising, for samplers (a
    non-finite state comes back as -inf and is the caller's signal to
    reject).  log_posterior / grad_log_posterior are its validating
    views and raise on non-finite results.
    """

    def __init__(self, wf: Workforce, spec: ModelSpec):
        spec.validate()
        self.wf = wf
        self.index = wf.index
        self.spec = spec
        self.layout = build_layout(wf.index)
        # the block slices and cell statistics, built once: logp_and_grad
        # is the sampler's hot path and reads no per-worker array
        self._slices = tuple(self.layout.block_slices().values())
        self.cells = CellStats.from_workforce(wf)
        self.n = wf.n

    # -- density ---------------------------------------------------------

    def log_posterior(self, v: np.ndarray) -> float:
        return self._checked(v)[0]

    def grad_log_posterior(self, v: np.ndarray) -> np.ndarray:
        return self._checked(v)[1]

    def _checked(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        v = self._check_vector(v)
        logp, grad = self.logp_and_grad(v)
        if not math.isfinite(logp):
            block = self._overflow_block(v)
            raise NumericOverflowError(block, f"non-finite log-density in block '{block}'")
        return logp, grad

    def _overflow_block(self, v: np.ndarray) -> str:
        """Name the block behind a non-finite density.

        Prior blocks are checked first, so that an exp overflow is
        blamed on the log-scale block that caused it rather than on the
        likelihood it contaminates.  Each prior term is quadratic in its
        block (in the scales for the log-scale blocks).
        """
        with np.errstate(over="ignore"):
            for name, sl in self.layout.block_slices().items():
                x = v[sl]
                if name in ("hyper_log_sigma", "log_sigma_resid"):
                    x = np.exp(x)
                if not math.isfinite(float(np.dot(x, x))):
                    return name
        return "likelihood"

    def _check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.layout.dim,):
            raise ContractViolation(
                f"parameter vector has shape {v.shape}, expected ({self.layout.dim},)")
        if not np.all(np.isfinite(v)):
            raise ContractViolation("parameter vector must be finite")
        return v

    def logp_and_grad(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """Fused value and gradient, no raising: non-finite -> (-inf, 0)."""
        lay = self.layout
        sz0g, sz1g, sz0j, sz1j, s_mu, s_ls, s_fixed, s_res = self._slices
        spec = self.spec
        v = np.asarray(v, dtype=float)
        z0g = v[sz0g]
        z1g = v[sz1g]
        z0j = v[sz0j]
        z1j = v[sz1j]
        mu_vec = v[s_mu]
        mu0g, mu1g, mu0j, mu1j = mu_vec
        ls = v[s_ls]
        fixed = v[s_fixed]
        b2, b3, b4 = fixed
        ls_res = float(v[s_res][0])
        cells = self.cells

        with np.errstate(over="ignore", invalid="ignore"):
            s0g, s1g, s0j, s1j = np.exp(ls)
            sigma = math.exp(ls_res) if ls_res < 350.0 else math.inf

            beta0_g = mu0g + s0g * z0g
            beta1_g = mu1g + s1g * z1g
            beta0_j = mu0j + s0j * z0j
            beta1_j = mu1j + s1j * z1j
            g_c, j_c = cells.g, cells.j
            a = beta0_g[g_c] + beta0_j[j_c] + cells.female * (beta1_g[g_c] + beta1_j[j_c])
            r = cells.y_bar - a - cells.x_bar @ fixed
            n_r = cells.n * r
            W_fixed = cells.W_xx @ fixed
            ssr = float(cells.W_yy - 2.0 * (fixed @ cells.W_xy) + fixed @ W_fixed + r @ n_r)
            var = sigma * sigma
            if not (var > 0.0) or not math.isfinite(ssr):
                return -math.inf, np.zeros(lay.dim)

            S_mu = spec.hyperprior_mu_scale
            S_sig = spec.hyperprior_sigma_scale
            s2, s3, s4 = spec.fixed_effect_prior_scales
            S_res = spec.residual_sigma_prior_scale
            scale_vec = np.array([s0g, s1g, s0j, s1j])

            logp = (
                -0.5 * LOG_2PI * self.n - self.n * ls_res - 0.5 * ssr / var
                - 0.5 * LOG_2PI * (z0g.size + z1g.size + z0j.size + z1j.size)
                - 0.5 * (np.dot(z0g, z0g) + np.dot(z1g, z1g)
                         + np.dot(z0j, z0j) + np.dot(z1j, z1j))
                - 0.5 * LOG_2PI * 4 - 4 * math.log(S_mu)
                - 0.5 * float(np.dot(mu_vec, mu_vec)) / S_mu ** 2
                + 4 * (math.log(2.0) - 0.5 * LOG_2PI - math.log(S_sig))
                - 0.5 * float(np.dot(scale_vec, scale_vec)) / S_sig ** 2
                + float(np.sum(ls))
                - 1.5 * LOG_2PI - math.log(s2) - math.log(s3) - math.log(s4)
                - 0.5 * (b2 * b2 / s2 ** 2 + b3 * b3 / s3 ** 2 + b4 * b4 / s4 ** 2)
                + math.log(2.0) - 0.5 * LOG_2PI - math.log(S_res)
                - 0.5 * (sigma / S_res) ** 2 + ls_res
            )
            if not math.isfinite(logp):
                return -math.inf, np.zeros(lay.dim)

            # d logp / d a_c
            w = n_r / var
            G, J = lay.G, lay.J
            w_female = w * cells.female
            sum_g = np.bincount(g_c, weights=w, minlength=G)
            sum_gf = np.bincount(g_c, weights=w_female, minlength=G)
            sum_j = np.bincount(j_c, weights=w, minlength=J)
            sum_jf = np.bincount(j_c, weights=w_female, minlength=J)

            grad = np.empty(lay.dim)
            grad[sz0g] = s0g * sum_g - z0g
            grad[sz1g] = s1g * sum_gf - z1g
            grad[sz0j] = s0j * sum_j - z0j
            grad[sz1j] = s1j * sum_jf - z1j
            grad[s_mu] = np.array([
                np.sum(sum_g), np.sum(sum_gf), np.sum(sum_j), np.sum(sum_jf),
            ]) - mu_vec / S_mu ** 2
            grad[s_ls] = np.array([
                s0g * float(np.dot(sum_g, z0g)),
                s1g * float(np.dot(sum_gf, z1g)),
                s0j * float(np.dot(sum_j, z0j)),
                s1j * float(np.dot(sum_jf, z1j)),
            ]) + 1.0 - scale_vec ** 2 / S_sig ** 2
            grad[s_fixed] = ((cells.W_xy - W_fixed) / var + cells.x_bar.T @ w
                             - fixed / np.array([s2, s3, s4]) ** 2)
            grad[s_res] = (
                -self.n + ssr / var + 1.0 - var / S_res ** 2)

            if not np.all(np.isfinite(grad)):
                return -math.inf, np.zeros(lay.dim)
        return float(logp), grad

    # -- natural-scale views ----------------------------------------------

    def to_natural_matrix(self, draws: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform a (n_draws, dim) unconstrained matrix to natural scale,
        into out when given (an array of the same shape)."""
        lay = self.layout
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != lay.dim:
            raise ContractViolation(
                f"draw matrix has shape {draws.shape}, expected (*, {lay.dim})")
        mu = draws[:, lay.hyper_mu]
        scales = np.exp(draws[:, lay.hyper_log_sigma])
        if out is None:
            out = np.empty_like(draws)
        for k, block in enumerate(lay.random_effects()):
            out[:, block] = mu[:, k:k + 1] + scales[:, k:k + 1] * draws[:, block]
        out[:, lay.hyper_mu] = mu
        out[:, lay.hyper_log_sigma] = scales
        out[:, lay.fixed] = draws[:, lay.fixed]
        out[:, lay.log_sigma_resid.start] = np.exp(draws[:, lay.log_sigma_resid.start])
        return out
