"""Convergence diagnostics for multi-chain MCMC output.

Implements split-chain potential scale reduction (R-hat) and
autocorrelation-based effective sample size, plus a small report
layer that flags parameters failing a threshold and serializes the
result for downstream tools.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

def _numerically_constant(variance, segs):
    """True when variance is indistinguishable from float noise.

    A literally constant sequence can still show variance around
    (eps * |x|)^2 through cancellation in the mean, so the cutoff
    scales with the magnitude of the values.
    """
    scale = max(1.0, float(np.abs(segs).max()))
    return variance <= (1e-14 * scale) ** 2


def _split_halves(chains):
    """Split each chain in half, dropping the middle draw when odd.

    chains: list/array of 1-d arrays, all the same length.
    Returns a 2-d array of shape (2*n_chains, n_draws//2).
    """
    if len(chains) < 1:
        raise ContractViolation("need at least one chain to split")
    n = len(chains[0])
    half = n // 2
    if half < 2:
        raise ContractViolation(
            "chains too short to split: %d draws gives %d per half" % (n, half))
    segs = []
    for x in chains:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) != n:
            raise ContractViolation("all chains must be 1-d and equal length")
        segs.append(x[:half])
        segs.append(x[len(x) - half:])
    return np.array(segs)


def split_rhat(chains):
    """Split-chain potential scale reduction factor.

    Each chain is halved so that within-chain drift shows up as
    between-segment disagreement. With m segments of length n:

        W = mean of segment variances
        B = n * variance of segment means
        rhat = sqrt(((n-1)/n * W + B/n) / W)

    A stationary well-mixed sampler gives values near 1. Constant
    input (zero variance everywhere) returns exactly 1.0.
    """
    segs = _split_halves(chains)
    if segs.shape[0] < 2:
        raise ContractViolation("need at least two segments for rhat")
    n = segs.shape[1]
    seg_vars = segs.var(axis=1, ddof=1)
    W = seg_vars.mean()
    B = n * np.var(segs.mean(axis=1), ddof=1)
    if _numerically_constant(W, segs):
        return 1.0
    var_plus = (n - 1) / n * W + B / n
    return float(np.sqrt(var_plus / W))


def _autocovariance_fft(x):
    """Biased autocovariance of a 1-d sequence via FFT, all lags."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    xc = x - x.mean()
    # pad to at least 2n to avoid circular wraparound
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real
    return acov / n


def effective_sample_size(chains):
    """Effective sample size from pooled multi-chain autocorrelation.

    Autocorrelations are estimated per chain by FFT, averaged across
    chains with the between-chain variance folded in (so disagreeing
    chains report low ESS), then summed over lag pairs following
    Geyer's initial positive sequence rule: stop at the first pair
    (rho[2t] + rho[2t+1]) that is not positive.

    Constant input returns the total draw count.
    """
    segs = _split_halves(chains)
    m, n = segs.shape
    if m < 2:
        raise ContractViolation("need at least two segments for ess")

    seg_vars = segs.var(axis=1, ddof=1)
    W = seg_vars.mean()
    B_over_n = np.var(segs.mean(axis=1), ddof=1)
    var_plus = (n - 1) / n * W + B_over_n
    total = m * n
    if _numerically_constant(var_plus, segs):
        return float(total)

    acov = np.array([_autocovariance_fft(segs[i]) for i in range(m)])
    mean_acov = acov.mean(axis=0)

    # rho_t as in split-ESS: 1 - (W - mean within-chain acov_t)/var_plus
    rho = 1.0 - (W - mean_acov) / var_plus
    rho[0] = 1.0

    # Geyer initial positive sequence over paired sums
    tau = 1.0  # contribution of lag 0; pairs add 2*(rho[2t-1] + rho[2t])
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        t += 2
    ess = total / tau
    return float(min(max(ess, 0.0), total))


@dataclass
class ParameterDiagnostic:
    name: str
    rhat: float
    ess: float
    flagged: bool
    zero_variance: bool


@dataclass
class DiagnosticSummary:
    """Per-parameter convergence table plus aggregate counts."""
    entries: list
    threshold: float
    n_chains: int
    n_draws_per_chain: int

    @property
    def n_flagged(self):
        return sum(1 for e in self.entries if e.flagged)

    @property
    def flagged_fraction(self):
        if not self.entries:
            return 0.0
        return self.n_flagged / len(self.entries)

    @property
    def max_rhat(self):
        return max(e.rhat for e in self.entries)

    @property
    def min_ess(self):
        return min(e.ess for e in self.entries)

    def flagged_names(self):
        return [e.name for e in self.entries if e.flagged]

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

    entries = []
    for k in range(n_params):
        cols = [c[:, k] for c in mats]
        pooled = np.concatenate(cols)
        zero_var = bool(np.all(pooled == pooled[0]))
        r = split_rhat(cols)
        e = effective_sample_size(cols)
        entries.append(ParameterDiagnostic(
            name=param_names[k],
            rhat=r,
            ess=e,
            flagged=bool(r > threshold),
            zero_variance=zero_var,
        ))
    return DiagnosticSummary(
        entries=entries,
        threshold=threshold,
        n_chains=len(mats),
        n_draws_per_chain=n_draws,
    )


def write_diagnostics_csv(summary, path):
    """Write the per-parameter table with a fixed column order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["parameter_name", "rhat", "ess", "flagged"])
        for e in summary.entries:
            w.writerow([e.name, "%.6f" % e.rhat, "%.1f" % e.ess,
                        "true" if e.flagged else "false"])


def format_diagnostics_text(summary):
    """Human-readable report. Flagged parameters listed explicitly."""
    lines = []
    lines.append("convergence diagnostics")
    lines.append("  chains: %d  draws/chain: %d  params: %d"
                 % (summary.n_chains, summary.n_draws_per_chain, len(summary.entries)))
    lines.append("  rhat threshold: %.3f" % summary.threshold)
    lines.append("  max rhat: %.4f   min ess: %.1f"
                 % (summary.max_rhat, summary.min_ess))
    lines.append("  flagged: %d of %d (%.2f%%)"
                 % (summary.n_flagged, len(summary.entries),
                    100.0 * summary.flagged_fraction))
    if summary.n_flagged:
        lines.append("  parameters over threshold:")
        for e in summary.entries:
            if e.flagged:
                lines.append("    %-28s rhat=%.4f ess=%.1f" % (e.name, e.rhat, e.ess))
    else:
        lines.append("  all parameters within threshold")
    zv = [e.name for e in summary.entries if e.zero_variance]
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
