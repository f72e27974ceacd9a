"""Convergence diagnostics for multi-chain MCMC output.

Split-chain potential scale reduction (R-hat) and autocorrelation-based
effective sample size, computed for many parameters in one array pass:
their chain halves form one (params, segments, draws) array, one
batched FFT gives all the autocovariances, and Geyer's stopping rule is
a mask. A small report layer flags parameters failing a threshold and
serializes the result for downstream tools.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


# Draws per block of parameters in convergence_report (256 kB), so
# that the FFT's complex temporaries take a few MB instead of several
# times the whole draw matrix.
_BLOCK_DRAWS = 1 << 15


def _segments(chains):
    """Split each chain in half, dropping the middle draw when odd.

    chains: one array per chain, all of one shape, (n_draws,) for one
    parameter or (n_draws, n_params). Returns the halves as one
    (n_params, 2 * n_chains, n_draws // 2) array, the two halves of
    each chain next to each other.
    """
    if len(chains) < 1:
        raise ContractViolation("need at least one chain to split")
    n = len(chains[0])
    half = n // 2
    if half < 2:
        raise ContractViolation(
            "chains too short to split: %d draws gives %d per half" % (n, half))
    if any(np.shape(c) != np.shape(chains[0]) for c in chains):
        raise ContractViolation("all chains must be 1-d and equal length")
    x = np.asarray(chains, dtype=float).reshape(len(chains), n, -1).transpose(2, 0, 1)
    # C order, so that every reduction over draws or segments runs
    # along contiguous rows, as it does for a single 1-d sequence
    segs = np.empty((len(x), 2 * len(chains), half))
    segs[:, 0::2] = x[..., :half]
    segs[:, 1::2] = x[..., n - half:]
    return segs


def _rhat_ess(segs):
    """Split R-hat and ESS of every parameter of a _segments array.

    With m segments of length n, per parameter:

        W = mean of segment variances
        B = n * variance of segment means
        var_plus = (n-1)/n * W + B/n
        rhat = sqrt(var_plus / W)

    Autocorrelations are estimated per segment by FFT, averaged across
    segments with the between-segment variance folded in (so
    disagreeing chains report low ESS), then summed over lag pairs
    following Geyer's initial positive sequence rule: stop at the first
    pair (rho[2t-1] + rho[2t]) that is not positive. A numerically
    constant parameter gets rhat 1.0 and ESS equal to the draw count.
    """
    m, n = segs.shape[1:]
    means = segs.mean(axis=2)
    W = segs.var(axis=2, ddof=1).mean(axis=1)
    B = n * means.var(axis=1, ddof=1)
    var_plus = (n - 1) / n * W + B / n
    # A literally constant sequence can still show variance around
    # (eps * |x|)^2 through cancellation in the mean, so the cutoff
    # scales with the magnitude of the values.
    tiny = (1e-14 * np.maximum(1.0, np.abs(segs).max(axis=(1, 2)))) ** 2

    # biased autocovariance at every lag, padded to a power of two of
    # at least 2n to avoid circular wraparound
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(segs - means[..., None], nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[..., :n] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.where(W <= tiny, 1.0, np.sqrt(var_plus / W))
        rho = 1.0 - (W[:, None] - acov.mean(axis=1)) / var_plus[:, None]
        pairs = rho[:, 1:n - 1:2] + rho[:, 2::2]
        # Geyer's stop as a mask; a NaN pair does not stop the sum, so
        # non-finite draws give a NaN ESS
        running = np.cumprod(~(pairs <= 0.0), axis=1, dtype=bool)
        terms = np.where(running, 2.0 * pairs, 0.0)
        # tau summed in lag order from the lag-0 term 1.0
        tau = np.cumsum(np.concatenate([np.ones((len(segs), 1)), terms], axis=1),
                        axis=1)[:, -1]
        total = m * n
        ess = np.minimum(np.maximum(total / tau, 0.0), total)
    return rhat, np.where(var_plus <= tiny, float(total), ess)


def _one_parameter(chains):
    """(rhat, ess) of one parameter given as 1-d chains."""
    if any(np.ndim(c) != 1 for c in chains):
        raise ContractViolation("all chains must be 1-d and equal length")
    rhat, ess = _rhat_ess(_segments(chains))
    return float(rhat[0]), float(ess[0])


def split_rhat(chains):
    """Split-chain potential scale reduction factor of one parameter.

    chains: 1-d arrays of equal length, one per chain. Each chain is
    halved so that within-chain drift shows up as between-segment
    disagreement (see _rhat_ess). A stationary well-mixed sampler gives
    values near 1. Constant input returns exactly 1.0.
    """
    return _one_parameter(chains)[0]


def effective_sample_size(chains):
    """Effective sample size of one parameter from pooled multi-chain
    autocorrelation (see _rhat_ess); never above the total draw count.

    chains: 1-d arrays of equal length, one per chain. Constant input
    returns the total draw count.
    """
    return _one_parameter(chains)[1]


@dataclass
class DiagnosticSummary:
    """Per-parameter convergence columns plus aggregate counts.

    rhat, ess, flagged and zero_variance are arrays in the order of
    names.
    """
    names: list
    rhat: np.ndarray
    ess: np.ndarray
    flagged: np.ndarray
    zero_variance: np.ndarray
    threshold: float
    n_chains: int
    n_draws_per_chain: int

    @property
    def n_flagged(self):
        return int(np.count_nonzero(self.flagged))

    @property
    def flagged_fraction(self):
        if not self.names:
            return 0.0
        return self.n_flagged / len(self.names)

    @property
    def max_rhat(self):
        return float(self.rhat.max())

    @property
    def min_ess(self):
        return float(self.ess.min())

    def flagged_names(self):
        return [self.names[k] for k in np.flatnonzero(self.flagged)]

    def all_converged(self):
        return self.n_flagged == 0


def convergence_report(chain_draws, param_names, threshold=1.1):
    """Build a DiagnosticSummary from per-chain draw matrices.

    chain_draws: list of arrays, each (n_draws, n_params), one per chain.
    param_names: names for the parameter axis.
    A parameter is flagged when rhat exceeds the threshold. Parameters
    with zero variance across all chains get rhat 1.0, ess equal to the
    total draw count, and a zero_variance marker so the caller can tell
    "converged" from "never moved".
    """
    if len(chain_draws) < 2:
        raise ContractViolation("convergence report needs at least two chains")
    mats = [np.asarray(c, dtype=float) for c in chain_draws]
    shape = mats[0].shape
    for c in mats:
        if c.ndim != 2 or c.shape != shape:
            raise ContractViolation("all chains must share (n_draws, n_params) shape")
    n_draws, n_params = shape
    if len(param_names) != n_params:
        raise ContractViolation(
            "got %d names for %d parameters" % (len(param_names), n_params))
    if threshold <= 1.0:
        raise ContractViolation("rhat threshold must exceed 1.0")

    rhat, ess = np.empty(n_params), np.empty(n_params)
    step = max(1, _BLOCK_DRAWS // (len(mats) * n_draws))
    for start in range(0, n_params, step):
        block = slice(start, start + step)
        rhat[block], ess[block] = _rhat_ess(_segments([c[:, block] for c in mats]))
    lo = np.min([c.min(axis=0) for c in mats], axis=0)
    hi = np.max([c.max(axis=0) for c in mats], axis=0)
    return DiagnosticSummary(
        names=list(param_names),
        rhat=rhat,
        ess=ess,
        flagged=rhat > threshold,
        zero_variance=lo == hi,
        threshold=threshold,
        n_chains=len(mats),
        n_draws_per_chain=n_draws,
    )


def write_diagnostics_csv(summary, path):
    """Write the per-parameter table with a fixed column order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["parameter_name", "rhat", "ess", "flagged"])
        for name, rhat, ess, flagged in zip(summary.names, summary.rhat,
                                            summary.ess, summary.flagged):
            w.writerow([name, "%.6f" % rhat, "%.1f" % ess,
                        "true" if flagged else "false"])


def format_diagnostics_text(summary):
    """Human-readable report. Flagged parameters listed explicitly."""
    n_params = len(summary.names)
    lines = []
    lines.append("convergence diagnostics")
    lines.append("  chains: %d  draws/chain: %d  params: %d"
                 % (summary.n_chains, summary.n_draws_per_chain, n_params))
    lines.append("  rhat threshold: %.3f" % summary.threshold)
    lines.append("  max rhat: %.4f   min ess: %.1f"
                 % (summary.max_rhat, summary.min_ess))
    lines.append("  flagged: %d of %d (%.2f%%)"
                 % (summary.n_flagged, n_params, 100.0 * summary.flagged_fraction))
    if summary.n_flagged:
        lines.append("  parameters over threshold:")
        for k in np.flatnonzero(summary.flagged):
            lines.append("    %-28s rhat=%.4f ess=%.1f"
                         % (summary.names[k], summary.rhat[k], summary.ess[k]))
    else:
        lines.append("  all parameters within threshold")
    zv = [summary.names[k] for k in np.flatnonzero(summary.zero_variance)]
    if zv:
        lines.append("  zero-variance parameters: " + ", ".join(zv))
    return "\n".join(lines) + "\n"


def export_traces(chain_draws, param_names, out_dir):
    """Write one CSV per parameter with columns chain, iteration, value.

    File names are derived from parameter names with index brackets and
    separators replaced so they stay filesystem-safe.
    """
    if len(chain_draws) < 1:
        raise ContractViolation("no chains to export")
    mats = [np.asarray(c, dtype=float) for c in chain_draws]
    n_params = mats[0].shape[1]
    if len(param_names) != n_params:
        raise ContractViolation(
            "got %d names for %d parameters" % (len(param_names), n_params))
    os.makedirs(out_dir, exist_ok=True)
    # The bytes csv.writer would give: \r\n line ends, repr floats (no
    # float repr needs quoting). Row prefixes are shared by all files.
    prefixes = [["%d,%d," % (ci, it) for it in range(len(mat))]
                for ci, mat in enumerate(mats)]
    paths = []
    for k, name in enumerate(param_names):
        safe = name.replace("[", "_").replace("]", "").replace("|", "_")
        path = os.path.join(out_dir, "trace_%s.csv" % safe)
        rows = ["chain,iteration,value\r\n"]
        for pre, mat in zip(prefixes, mats):
            rows += [p + repr(v) + "\r\n" for p, v in zip(pre, mat[:, k].tolist())]
        with open(path, "w", newline="") as fh:
            fh.write("".join(rows))
        paths.append(path)
    return paths
