import csv
import math

import numpy as np
import pytest

from payequity import diagnostics
from payequity.diagnostics import (convergence_report, effective_sample_size,
                                   export_traces, format_diagnostics_text,
                                   split_rhat, write_diagnostics_csv)
from payequity.errors import ContractViolation


def ar1_chain(phi, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal() * scale / math.sqrt(1 - phi * phi)
    innov = rng.standard_normal(n) * scale
    for t in range(1, n):
        x[t] = phi * x[t - 1] + innov[t]
    return x


# ------------------------------------------------------------------- rhat

def test_split_rhat_hand_computed_value():
    # two identical chains [1,2,3,4]; halves give four segments
    # [1,2],[3,4],[1,2],[3,4] with n=2:
    #   W = mean segment variance = 0.5
    #   B = n * var(segment means) = 2 * var([1.5,3.5,1.5,3.5]) = 8/3
    #   var_plus = (1/2)*0.5 + (8/3)/2 = 19/12
    r = split_rhat([np.array([1.0, 2.0, 3.0, 4.0]),
                    np.array([1.0, 2.0, 3.0, 4.0])])
    assert r == pytest.approx(math.sqrt((19.0 / 12.0) / 0.5), rel=1e-12)
    # odd length: the middle draw is dropped, giving the same four segments
    r_odd = split_rhat([np.array([1.0, 2.0, 99.0, 3.0, 4.0]),
                        np.array([1.0, 2.0, -99.0, 3.0, 4.0])])
    assert r_odd == r


def test_split_rhat_near_one_for_iid_chains():
    rng = np.random.default_rng(0)
    chains = [rng.standard_normal(4000) for _ in range(4)]
    assert split_rhat(chains) < 1.01


def test_split_rhat_large_for_shifted_means():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 5.0
    assert split_rhat([a, b]) > 1.5


def test_split_rhat_catches_within_chain_drift():
    # a single trend-contaminated chain: halves disagree
    x = np.linspace(0.0, 8.0, 1000) + np.random.default_rng(2).standard_normal(1000)
    assert split_rhat([x, x]) > 1.5


def test_split_rhat_constant_input_is_one():
    c = np.full(100, 3.7)
    assert split_rhat([c, c]) == 1.0


def test_split_rhat_affine_invariant():
    rng = np.random.default_rng(3)
    chains = [rng.standard_normal(500) for _ in range(2)]
    r0 = split_rhat(chains)
    r1 = split_rhat([2.5 * c - 17.0 for c in chains])
    assert abs(r0 - r1) < 1e-9


def test_split_rhat_preconditions():
    with pytest.raises(ContractViolation):
        split_rhat([])
    with pytest.raises(ContractViolation):
        split_rhat([np.array([1.0, 2.0, 3.0])])  # halves shorter than 2
    with pytest.raises(ContractViolation):
        split_rhat([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0, 4.0])])


# -------------------------------------------------------------------- ess

def test_ess_iid_draws_close_to_total():
    rng = np.random.default_rng(4)
    chains = [rng.standard_normal(2000) for _ in range(2)]
    ess = effective_sample_size(chains)
    assert 2800 <= ess <= 4000


def test_ess_matches_ar1_closed_form():
    phi = 0.9
    n = 20000
    chains = [ar1_chain(phi, n, seed) for seed in (10, 11)]
    ess = effective_sample_size(chains)
    expected = 2 * n * (1 - phi) / (1 + phi)
    assert abs(ess - expected) / expected < 0.30


def test_ess_constant_chain_returns_total():
    c = np.full(200, 1.23)
    assert effective_sample_size([c, c]) == 400.0


def test_ess_never_exceeds_total_draws():
    rng = np.random.default_rng(5)
    # antithetic structure can push naive estimators above the total
    base = rng.standard_normal(1000)
    chains = [base, -base[::-1]]
    assert effective_sample_size(chains) <= 2000.0


def test_permuting_ar1_draws_raises_ess():
    phi = 0.9
    chains = [ar1_chain(phi, 4000, seed) for seed in (20, 21)]
    ess_orig = effective_sample_size(chains)
    rng = np.random.default_rng(6)
    permuted = [c[rng.permutation(len(c))] for c in chains]
    assert effective_sample_size(permuted) > ess_orig


# ----------------------------------------------------------------- report

def test_convergence_report_flags_only_bad_parameters():
    rng = np.random.default_rng(7)
    n = 1000
    good_a, good_b = rng.standard_normal((2, n))
    bad_a = rng.standard_normal(n)
    bad_b = rng.standard_normal(n) + 8.0
    chains = [np.column_stack([good_a, bad_a]),
              np.column_stack([good_b, bad_b])]
    summary = convergence_report(chains, ["good", "bad"], threshold=1.1)
    assert summary.names == ["good", "bad"]
    assert not summary.flagged[0]
    assert summary.flagged[1]
    assert summary.n_flagged == 1
    assert summary.flagged_fraction == pytest.approx(0.5)
    assert summary.flagged_names() == ["bad"]
    assert not summary.all_converged()


def test_convergence_report_zero_variance_marker():
    n = 100
    frozen = np.full(n, 2.0)
    moving = np.random.default_rng(8).standard_normal(n)
    chains = [np.column_stack([frozen, moving]),
              np.column_stack([frozen, moving])]
    summary = convergence_report(chains, ["frozen", "moving"])
    frozen, moving = summary.names.index("frozen"), summary.names.index("moving")
    assert summary.zero_variance[frozen]
    assert summary.rhat[frozen] == 1.0
    assert summary.ess[frozen] == 2 * n
    assert not summary.zero_variance[moving]


def loop_rhat_ess(chains):
    """Split R-hat, ESS and Geyer's stopping lag of one parameter,
    written out with plain loops and a direct-sum autocovariance."""
    n_draws = len(chains[0])
    n = n_draws // 2
    segs = []
    for c in chains:
        segs.append(np.array(c[:n], dtype=float))
        segs.append(np.array(c[n_draws - n:], dtype=float))
    m = len(segs)
    means = [sum(s) / n for s in segs]
    W = sum(sum((v - mu) ** 2 for v in s) / (n - 1) for s, mu in zip(segs, means)) / m
    grand = sum(means) / m
    B = n * sum((mu - grand) ** 2 for mu in means) / (m - 1)
    var_plus = (n - 1) / n * W + B / n
    tiny = (1e-14 * max(1.0, max(abs(v) for s in segs for v in s))) ** 2
    rhat = 1.0 if W <= tiny else math.sqrt(var_plus / W)
    if var_plus <= tiny:
        return rhat, float(m * n), 0
    acov = [0.0] * n
    for s, mu in zip(segs, means):
        xc = s - mu
        for t in range(n):
            acov[t] += float(np.dot(xc[:n - t], xc[t:])) / n / m
    rho = [1.0 - (W - a) / var_plus for a in acov]
    tau, t = 1.0, 1
    while t + 1 < n and rho[t] + rho[t + 1] > 0.0:
        tau += 2.0 * (rho[t] + rho[t + 1])
        t += 2
    return rhat, min(max(m * n / tau, 0.0), float(m * n)), t


def test_convergence_report_matches_loop_oracle(monkeypatch):
    # odd length, three chains; each column stops Geyer's sum at its own lag
    n, rng = 501, np.random.default_rng(13)
    chains = []
    for k in range(3):
        chains.append(np.column_stack([
            ar1_chain(0.9, n, 30 + k),                       # slow mixing
            rng.standard_normal(n),                          # i.i.d.
            ar1_chain(-0.6, n, 40 + k),                      # antithetic
            np.full(n, 2.5),                                 # constant
            1e6 * (1.0 + 1e-16 * rng.standard_normal(n)),    # float noise
        ]))
    names = ["ar1", "iid", "antithetic", "constant", "noise"]
    summary = convergence_report(chains, names)
    # blocks of two parameters give the same columns
    monkeypatch.setattr(diagnostics, "_BLOCK_DRAWS", 2 * 3 * n)
    blocked = convergence_report(chains, names)
    assert np.array_equal(blocked.rhat, summary.rhat)
    assert np.array_equal(blocked.ess, summary.ess)
    stops = []
    for k in range(len(names)):
        rhat, ess, stop = loop_rhat_ess([c[:, k] for c in chains])
        assert summary.rhat[k] == pytest.approx(rhat, rel=1e-12, abs=0.0)
        assert summary.ess[k] == pytest.approx(ess, rel=1e-12, abs=0.0)
        stops.append(stop)
    assert stops[0] > 10 and stops[2] == 1   # one batch, different stopping lags
    assert summary.rhat[3] == summary.rhat[4] == 1.0
    assert summary.ess[3] == summary.ess[4] == 3 * 2 * (n // 2)
    assert list(summary.zero_variance) == [False, False, False, True, False]


def test_convergence_report_preconditions():
    mat = np.random.default_rng(9).standard_normal((50, 2))
    with pytest.raises(ContractViolation):
        convergence_report([mat], ["a", "b"])
    with pytest.raises(ContractViolation):
        convergence_report([mat, mat], ["a"])
    with pytest.raises(ContractViolation):
        convergence_report([mat, mat], ["a", "b"], threshold=1.0)
    with pytest.raises(ContractViolation):
        convergence_report([mat, mat[:20]], ["a", "b"])


def test_diagnostics_csv_format(tmp_path):
    rng = np.random.default_rng(10)
    chains = [rng.standard_normal((200, 2)) for _ in range(2)]
    summary = convergence_report(chains, ["alpha", "beta[x|y]"])
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(summary, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter_name", "rhat", "ess", "flagged"]
    assert rows[1][0] == "alpha"
    assert rows[2][0] == "beta[x|y]"
    assert rows[1][3] in ("true", "false")
    float(rows[1][1]); float(rows[1][2])  # numeric fields parse


def test_diagnostics_text_lists_flagged(tmp_path):
    rng = np.random.default_rng(11)
    n = 400
    a = np.column_stack([rng.standard_normal(n)])
    b = np.column_stack([rng.standard_normal(n) + 9.0])
    summary = convergence_report([a, b], ["runaway"])
    text = format_diagnostics_text(summary)
    assert "runaway" in text
    assert "flagged: 1 of 1" in text


def test_export_traces_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    chains = [rng.standard_normal((30, 2)) for _ in range(2)]
    chains[0][:4, 1] = [1e300, -0.0, 5e-324, -1.5e-310]  # huge, signed zero, subnormals
    paths = export_traces(chains, ["mu", "beta[a|b]"], tmp_path / "traces")
    assert len(paths) == 2
    with open(paths[1]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain", "iteration", "value"]
    assert len(rows) == 1 + 2 * 30
    # spot-check an entry against the source array
    chain_idx, it, value = int(rows[5][0]), int(rows[5][1]), float(rows[5][2])
    assert chains[chain_idx][it, 1] == value
    assert [float(r[2]) for r in rows[1:5]] == [1e300, -0.0, 5e-324, -1.5e-310]
    assert math.copysign(1.0, float(rows[2][2])) == -1.0
    # byte for byte what a csv.writer with repr floats writes
    for k, path in enumerate(paths):
        oracle = tmp_path / ("oracle_%d.csv" % k)
        with open(oracle, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["chain", "iteration", "value"])
            for ci, mat in enumerate(chains):
                for it in range(mat.shape[0]):
                    w.writerow([ci, it, repr(float(mat[it, k]))])
        with open(path, "rb") as a, open(oracle, "rb") as b:
            assert a.read() == b.read()
