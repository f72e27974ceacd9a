"""Checks of the program's outputs against computations made apart from it.

Every check reads the files a round trip wrote and recomputes what they
should hold from the benchmark's own workforce and the stored draw
files. A check returns a list of problems; an empty list means it
passed.
"""

import csv
import json
from pathlib import Path

import numpy as np

import workforce as wfmod

GLOBAL_NAMES = ("mu0_g", "mu1_g", "mu0_j", "mu1_j",
                "sigma0_g", "sigma1_g", "sigma0_j", "sigma1_j",
                "beta2", "beta3", "beta4", "sigma_resid")
SCALE_NAMES = ("sigma0_g", "sigma1_g", "sigma0_j", "sigma1_j", "sigma_resid")
INTERVAL_MASS = 0.95     # the program's default for report
CHUNK = 4096             # workers per block of the prediction recomputation


def _close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


class Outputs:
    """The files of one round trip: fit, diagnose, report and compare dirs."""

    def __init__(self, root):
        root = Path(root)
        self.fit, self.diag = root / "fit", root / "diagnose"
        self.report, self.compare = root / "report", root / "compare"

    def draws(self):
        """(param_names, chains) read straight from the draw files."""
        with open(self.fit / "metadata.json") as fh:
            names = json.load(fh)["param_names"]
        paths = sorted(self.fit.glob("draws_chain*.npy"))
        return names, np.stack([np.load(p) for p in paths])

    def report_json(self):
        with open(self.report / "report.json") as fh:
            return json.load(fh)


class Expected:
    """What the round trip must reproduce, derived from the workforce."""

    def __init__(self, wf):
        self.wf = wf
        self.g_label = wf.g_label()
        self.j_label = wf.j_label()
        self.j_labels = sorted(set(self.j_label))
        self.g_labels = sorted(set(self.g_label))
        self.group_of = {}                      # job-geo label -> GJS-geo label
        for g, j in zip(self.g_label, self.j_label):
            self.group_of[j] = g
        counts = {j: [0, 0] for j in self.j_labels}
        for j, f in zip(self.j_label, wf.female):
            counts[j][0] += 1
            counts[j][1] += int(f)
        self.counts = counts                    # label -> [n, n_female]
        self.single_gender = {j for j, (n, nf) in counts.items() if nf in (0, n)}

    def param_names(self):
        names = set(GLOBAL_NAMES)
        for block, labels in (("beta0_g", self.g_labels), ("beta1_g", self.g_labels),
                              ("beta0_j", self.j_labels), ("beta1_j", self.j_labels)):
            names.update(f"{block}[{label}]" for label in labels)
        return names


# ----------------------------------------------------------------- checks

def check_ingest(exp, out, names, rep):
    """Every CSV row ingested; group counts as generated."""
    problems = []
    if (out.fit / "excluded_rows.csv").exists():
        problems.append("fit excluded rows of a valid CSV")
    n_g = sum(1 for n in names if n.startswith("beta0_g["))
    n_j = sum(1 for n in names if n.startswith("beta0_j["))
    if (n_g, n_j) != (len(exp.g_labels), len(exp.j_labels)):
        problems.append("draws cover %d GJS-geo and %d job-geo groups, generated %d and %d"
                        % (n_g, n_j, len(exp.g_labels), len(exp.j_labels)))
    groups = {g["job_geo"]: g for g in rep["groups"]}
    if set(groups) != set(exp.j_labels):
        problems.append("report groups differ from the generated job-geo groups")
        return problems
    total = sum(g["n"] for g in groups.values())
    if total != exp.wf.n:
        problems.append("report covers %d workers, CSV has %d" % (total, exp.wf.n))
    bad = [j for j, (n, nf) in exp.counts.items()
           if (groups[j]["n"], groups[j]["n_female"]) != (n, nf)]
    if bad:
        problems.append("%d groups with wrong worker or female counts, e.g. %s" % (len(bad), bad[0]))
    return problems


def check_draws(exp, names, chains):
    """Finite draws, one column per group label, positive scales."""
    problems = []
    if len(names) != len(set(names)) or set(names) != exp.param_names():
        problems.append("draw columns do not match the generated group labels")
    if chains.shape[2] != len(names):
        problems.append("draw files have %d columns for %d names" % (chains.shape[2], len(names)))
        return problems
    if not np.all(np.isfinite(chains)):
        problems.append("non-finite draws")
    for s in SCALE_NAMES:
        if s in names and not np.all(chains[:, :, names.index(s)] > 0):
            problems.append("non-positive draws of %s" % s)
    return problems


def trace_file(diag_dir, name):
    safe = name.replace("[", "_").replace("]", "").replace("|", "_")
    return Path(diag_dir) / "traces" / ("trace_%s.csv" % safe)


def check_traces(out, names, chains):
    """Every trace CSV reproduces its draw-file column exactly."""
    problems = []
    n_chains, n_draws, _ = chains.shape
    files = list((out.diag / "traces").glob("trace_*.csv"))
    if len(files) != len(names):
        problems.append("%d trace files for %d parameters" % (len(files), len(names)))
    chain_col = np.repeat(np.arange(n_chains), n_draws)
    iter_col = np.tile(np.arange(n_draws), n_chains)
    for k, name in enumerate(names):
        path = trace_file(out.diag, name)
        if not path.exists():
            problems.append("missing trace for %s" % name)
            continue
        with open(path) as fh:
            header = fh.readline()
            cells = np.loadtxt(fh, delimiter=",", ndmin=2)
        if (header.strip() != "chain,iteration,value"
                or cells.shape != (n_chains * n_draws, 3)
                or not np.array_equal(cells[:, 0], chain_col)
                or not np.array_equal(cells[:, 1], iter_col)
                or not np.array_equal(cells[:, 2], chains[:, :, k].ravel())):
            problems.append("trace of %s does not reproduce its draws" % name)
    return problems


def check_verdict(out, names, conv, threshold=1.1, margin=0.01):
    """The program's flagged/unflagged verdict (R-hat above its default
    threshold of 1.1) agrees with the benchmark's own R-hat wherever that
    is clear of the threshold: where the classic split R-hat, the
    rank-normalized bulk R-hat and the rank-normalized R-hat all lie more
    than margin above it, or all more than margin below it. The estimators
    differ by a few hundredths near 1.1, so either may be the program's."""
    with open(out.diag / "diagnostics.csv", newline="") as fh:
        flagged = {row["parameter_name"]: row["flagged"] == "true"
                   for row in csv.DictReader(fh)}
    if set(flagged) != set(names):
        return ["diagnostics.csv does not list every parameter once"]
    estimates = np.vstack([conv.rhat_classic, conv.rhat_bulk, conv.rhat])
    low, high = estimates.min(axis=0), estimates.max(axis=0)
    bad = []
    for k, name in enumerate(names):
        if low[k] > threshold + margin and not flagged[name]:
            bad.append("%s unflagged at R-hat %.3f" % (name, low[k]))
        elif high[k] < threshold - margin and flagged[name]:
            bad.append("%s flagged at R-hat %.3f" % (name, high[k]))
    return ["%d verdicts disagree, e.g. %s" % (len(bad), bad[0])] if bad else []


class Recomputed:
    """Group effects and per-worker salary predictions from the draws."""

    def __init__(self, exp, names, chains):
        wf = exp.wf
        pooled = chains.reshape(-1, chains.shape[2])
        col = {n: k for k, n in enumerate(names)}
        alpha = (1.0 - INTERVAL_MASS) / 2.0
        self.effects = {}
        for j in exp.j_labels:
            eff = pooled[:, col["beta1_g[%s]" % exp.group_of[j]]] + pooled[:, col["beta1_j[%s]" % j]]
            lo, hi = np.quantile(eff, [alpha, 1.0 - alpha])
            self.effects[j] = (float(eff.mean()), float(lo), float(hi))
        gcol = np.array([col["beta0_g[%s]" % g] for g in exp.g_label])
        jcol = np.array([col["beta0_j[%s]" % j] for j in exp.j_label])
        g1col = np.array([col["beta1_g[%s]" % g] for g in exp.g_label])
        j1col = np.array([col["beta1_j[%s]" % j] for j in exp.j_label])
        b2, b3, b4 = (pooled[:, col[n]][:, None] for n in ("beta2", "beta3", "beta4"))
        self.yhat_f = np.empty(wf.n)
        self.yhat_m = np.empty(wf.n)
        for s in range(0, wf.n, CHUNK):
            sl = slice(s, s + CHUNK)
            male = (pooled[:, gcol[sl]] + pooled[:, jcol[sl]] + b2 * wf.recent[sl]
                    + b3 * wf.past[sl] + b4 * wf.tenure[sl])
            female = male + pooled[:, g1col[sl]] + pooled[:, j1col[sl]]
            self.yhat_m[sl] = np.exp(male).mean(axis=0)
            self.yhat_f[sl] = np.exp(female).mean(axis=0)

    def significant(self, j):
        _, lo, hi = self.effects[j]
        return lo > 0.0 or hi < 0.0


def check_report(exp, rec, rep):
    """Cents-to-the-dollar and each group's effect mean and interval."""
    problems = []
    cents = rec.yhat_f.sum() / rec.yhat_m.sum()
    if not _close(cents, rep["adjusted_cents_to_dollar"]):
        problems.append("cents-to-the-dollar %.12g, recomputed %.12g"
                        % (rep["adjusted_cents_to_dollar"], cents))
    bad = []
    for g in rep["groups"]:
        j = g["job_geo"]
        if j not in rec.effects:
            bad.append(j)
            continue
        mean, lo, hi = rec.effects[j]
        if not (_close(g["effect_mean"], mean) and _close(g["ci_low"], lo)
                and _close(g["ci_high"], hi) and g["significant"] == rec.significant(j)):
            bad.append(j)
    if bad:
        problems.append("%d group effects or intervals differ, e.g. %s" % (len(bad), bad[0]))
    return problems


def check_raises(exp, rec, rep, tiny_usd=1e-6):
    """Each raise is positive, goes to the disadvantaged gender of a
    significant group and equals the recomputed gap; none is missing."""
    wf = exp.wf
    problems = []
    index = {w: i for i, w in enumerate(wf.worker_id)}
    due = {}
    for i in range(wf.n):
        j = exp.j_label[i]
        if not rec.significant(j):
            continue
        female_disadvantaged = rec.effects[j][0] < 0.0
        if bool(wf.female[i]) != female_disadvantaged:
            continue
        gap = rec.yhat_m[i] - rec.yhat_f[i]
        due[wf.worker_id[i]] = gap if female_disadvantaged else -gap
    listed = {}
    for r in rep["raises"]:
        wid, amount = r["worker_id"], r["raise_usd"]
        if wid in listed:
            problems.append("two raises for %s" % wid)
        listed[wid] = amount
        if wid not in index:
            problems.append("raise for unknown worker %s" % wid)
        elif not amount > 0.0:
            problems.append("non-positive raise for %s" % wid)
        elif wid not in due:
            problems.append("raise for %s, who is not the disadvantaged gender "
                            "of a significant group" % wid)
        elif not _close(amount, due[wid]):
            problems.append("raise for %s is %.6f, recomputed gap %.6f" % (wid, amount, due[wid]))
    missing = [w for w, gap in due.items() if gap > tiny_usd and w not in listed]
    if missing:
        problems.append("%d raises missing, e.g. %s" % (len(missing), missing[0]))
    return problems[:5]


def ols_female_effects(exp):
    """Female coefficients of the dummy-variable regression, solved apart
    from the program: intercept plus female dummy per job-geo is one fixed
    effect per (job-geo, gender) cell, so demeaning within cells
    (Frisch-Waugh-Lovell) leaves a 3-column least-squares problem for the
    covariates, and each female coefficient is a difference of two cell
    means of the covariate-adjusted log salary."""
    wf = exp.wf
    cell_names = sorted(set(zip(exp.j_label, wf.female.tolist())))
    cell_of = {c: k for k, c in enumerate(cell_names)}
    cell = np.array([cell_of[c] for c in zip(exp.j_label, wf.female.tolist())])
    size = np.bincount(cell)

    def demean(v):
        return v - (np.bincount(cell, weights=v) / size)[cell]

    y = np.log(wf.salary)
    X = np.column_stack([wf.recent, wf.past, wf.tenure])
    b, *_ = np.linalg.lstsq(np.column_stack([demean(c) for c in X.T]), demean(y), rcond=None)
    adjusted = np.bincount(cell, weights=y - X @ b) / size
    means = dict(zip(cell_names, adjusted))
    return {j: means[(j, 1)] - means[(j, 0)]
            for j in exp.j_labels if j not in exp.single_gender}


def check_lm(exp, out, printed_decimals=6):
    """LM female coefficients match an independent solve; the
    LM-inestimable groups are exactly the single-gender ones."""
    with open(out.compare / "comparison.csv", newline="") as fh:
        rows = {r["job_geo"]: r["lm_effect"] for r in csv.DictReader(fh)}
    if set(rows) != set(exp.j_labels):
        return ["comparison.csv does not list every job-geo group once"]
    problems = []
    inestimable = {j for j, v in rows.items() if v == ""}
    if inestimable != exp.single_gender:
        problems.append("LM-inestimable set has %d groups, single-gender groups are %d"
                        % (len(inestimable), len(exp.single_gender)))
    tol = 0.5 * 10.0 ** -printed_decimals + 1e-9
    bad = [j for j, f in ols_female_effects(exp).items()
           if rows[j] == "" or abs(float(rows[j]) - f) > tol]
    if bad:
        problems.append("%d LM female coefficients differ, e.g. %s" % (len(bad), bad[0]))
    return problems


def check_recovery(names, chains, n_sd=4.0):
    """beta2, beta3 and sigma_resid within n_sd posterior SDs of the truth."""
    truth = {"beta2": wfmod.BETA2, "beta3": wfmod.BETA3, "sigma_resid": wfmod.SIGMA_RESID}
    problems = []
    for name, value in truth.items():
        d = chains[:, :, names.index(name)].ravel()
        if abs(d.mean() - value) > n_sd * d.std(ddof=1):
            problems.append("%s posterior %.4f +- %.4f misses truth %.4f"
                            % (name, d.mean(), d.std(ddof=1), value))
    return problems
