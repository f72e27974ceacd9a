"""Rank-normalized split R-hat and bulk effective sample size.

Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021), "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", arXiv:1903.08008. The benchmark computes these itself, vectorized
over parameters, so that a rewrite of the program's own diagnostics
cannot redefine the quality metric it is judged by.

Every function takes draws shaped (chains, draws, parameters).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


@dataclass
class Convergence:
    rhat: np.ndarray          # max of bulk and tail (folded) R-hat, per parameter
    rhat_bulk: np.ndarray     # R-hat of the rank-normalized draws alone
    rhat_classic: np.ndarray  # split R-hat of the draws themselves (Gelman-Rubin)
    ess_bulk: np.ndarray      # bulk ESS over all chains

    def converged(self, n_chains, rhat_max=1.01, ess_per_chain=100.0):
        """Vehtari et al.'s rule: R-hat below 1.01 and bulk ESS of at least
        100 per chain, for every parameter."""
        return bool(np.all(self.rhat < rhat_max)
                    and np.all(self.ess_bulk >= ess_per_chain * n_chains))


def split_chains(draws):
    """Halve each chain, dropping the middle draw when the length is odd."""
    x = np.asarray(draws, dtype=float)
    n = x.shape[1]
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half:]], axis=0)


def rank_normalize(x):
    """Normal scores of the pooled ranks (Blom offsets), tied ranks averaged."""
    m, n, p = x.shape
    ranks = rankdata(x.reshape(m * n, p), axis=0)
    return ndtri((ranks - 0.375) / (m * n + 0.25)).reshape(m, n, p)


def rhat(x):
    """Potential scale reduction of already split chains.

    A parameter with no within-chain variance gets infinity: it did not
    move, so it cannot count as converged.
    """
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean(axis=0)
    between = n * x.mean(axis=1).var(axis=0, ddof=1)
    var_plus = (n - 1) / n * within + between / n
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(within > 0, np.sqrt(var_plus / within), np.inf)


def ess(x):
    """Effective sample size of already split chains.

    Autocovariances per chain by FFT, combined with the between-chain
    variance so that disagreeing chains lower the estimate, then summed
    over lag pairs with Geyer's initial monotone sequence: pairs are kept
    up to the first one that is not positive, and each kept pair is
    capped by the one before it.
    """
    m, n, _ = x.shape
    centred = x - x.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, n=nfft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=nfft, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean(axis=0) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n + x.mean(axis=1).var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    n_pairs = n // 2
    pairs = rho[0:2 * n_pairs:2] + rho[1:2 * n_pairs:2]
    kept = np.cumprod(pairs > 0, axis=0).astype(bool)
    monotone = np.minimum.accumulate(pairs, axis=0)
    tau = -1.0 + 2.0 * np.sum(np.where(kept, monotone, 0.0), axis=0)
    total = m * n
    tau = np.maximum(tau, 1.0 / np.log10(total))
    return np.where(var_plus > 0, total / tau, 0.0)


def diagnose(draws):
    """Rank-normalized R-hat (bulk and tail), classic split R-hat and bulk
    ESS per parameter."""
    x = split_chains(draws)
    z = rank_normalize(x)
    folded = rank_normalize(np.abs(x - np.median(x, axis=(0, 1))))
    rhat_bulk = rhat(z)
    return Convergence(rhat=np.maximum(rhat_bulk, rhat(folded)), rhat_bulk=rhat_bulk,
                       rhat_classic=rhat(x), ess_bulk=ess(z))
