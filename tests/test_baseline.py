import csv
import math

import numpy as np
import pytest

from payequity.baseline import (compare_estimates, fit_ols,
                                format_comparison_text, write_comparison_csv)
from payequity.errors import ContractViolation
from payequity.report import GroupGapSummary

from test_records import make_record, workforce


def dense_design(wf):
    """The dummy design written out, as the oracle for the closed-form
    solve: an indicator per job-geo, a female indicator per
    gender-variant job-geo, then the three covariates."""
    index = wf.index
    J = index.n_job_geo
    variant = np.flatnonzero(index.gender_variant())
    X = np.zeros((wf.n, J + len(variant) + 3))
    X[np.arange(wf.n), index.j_of] = 1.0
    for c, j in enumerate(variant):
        X[:, J + c] = (index.j_of == j) & wf.female
    X[:, -3:] = np.column_stack([wf.recent, wf.past, wf.tenure])
    return X


def fit(records):
    wf = workforce(records)
    return wf.index, dense_design(wf), fit_ols(wf, wf.log_salary)


# ------------------------------------------------------------ model labels

def test_single_worker_design_has_four_columns():
    index, _, lm = fit([make_record(0, female=False)])
    assert lm.labels == ["intercept[job0|geo0]", "recent_perf", "past_perf",
                         "time_in_job"]  # no female coefficient
    assert lm.estimable_groups == set()
    assert lm.female_coef == {}


def test_opposite_gender_pair_adds_female_column():
    index, _, lm = fit([make_record(0, female=False), make_record(1, female=True)])
    assert len(lm.labels) == 5
    assert lm.labels[1] == "female[job0|geo0]"
    assert lm.estimable_groups == {0}


def test_ten_groups_four_variant_gives_seventeen_columns():
    records = []
    i = 0
    for j in range(10):
        records.append(make_record(i, job="job%d" % j, female=False)); i += 1
        if j < 4:
            records.append(make_record(i, job="job%d" % j, female=True)); i += 1
    index, _, lm = fit(records)
    assert len(lm.labels) == 10 + 4 + 3
    assert lm.estimable_groups == {0, 1, 2, 3}
    assert [l for l in lm.labels if l.startswith("female[")] == [
        "female[job%d|geo0]" % j for j in range(4)]


def test_female_column_zero_outside_its_group():
    records = [make_record(0, job="a", female=True, salary=90000.0),
               make_record(1, job="a", female=False, salary=100000.0),
               make_record(2, job="b", female=True, salary=70000.0),
               make_record(3, job="b", female=False, salary=60000.0)]
    index, _, lm = fit(records)
    # one worker per cell: every covariate is constant within its cells
    assert lm.dropped_labels == ["recent_perf", "past_perf", "time_in_job"]
    assert lm.female_coef[0] == pytest.approx(math.log(90000.0 / 100000.0), rel=1e-12)
    assert lm.female_coef[1] == pytest.approx(math.log(70000.0 / 60000.0), rel=1e-12)


# -------------------------------------------------------------- OLS solver

def noisy_fixture():
    rng = np.random.default_rng(11)
    records = []
    i = 0
    for job, genders in [("a", "FFFMM"), ("b", "MMM")]:
        for ch in genders:
            records.append(make_record(
                i, job=job, female=(ch == "F"),
                recent_perf=float(rng.normal()),
                past_perf=float(rng.normal()),
                time_in_job=float(rng.exponential(2.0)),
                salary=float(np.exp(10.0 + 0.3 * rng.normal()))))
            i += 1
    return records


def test_coefficients_match_normal_equations():
    records = noisy_fixture()
    index, X, lm = fit(records)
    y = np.array([r.log_salary for r in records])
    ref = np.linalg.solve(X.T @ X, X.T @ y)
    assert lm.dropped_labels == []
    np.testing.assert_allclose(lm.coef, ref, rtol=1e-8, atol=1e-10)


def test_standard_errors_match_covariance_formula():
    records = noisy_fixture()
    index, X, lm = fit(records)
    y = np.array([r.log_salary for r in records])
    resid = y - X @ np.linalg.solve(X.T @ X, X.T @ y)
    dof = len(records) - X.shape[1]
    s2 = float(resid @ resid) / dof
    ref_se = np.sqrt(s2 * np.diag(np.linalg.inv(X.T @ X)))
    np.testing.assert_allclose(lm.se, ref_se, rtol=1e-8)
    assert lm.residual_variance == pytest.approx(s2, rel=1e-10)


def test_residuals_orthogonal_to_retained_columns():
    records = noisy_fixture()
    index, X, lm = fit(records)
    scale = np.linalg.norm(X, axis=0) * max(np.linalg.norm(lm.residuals), 1e-30)
    dots = np.abs(X.T @ lm.residuals)
    assert np.all(dots <= 1e-8 * np.maximum(scale, 1.0))


def test_exact_interpolation_when_response_in_column_space():
    wf = workforce(noisy_fixture())
    X = dense_design(wf)
    c = np.linspace(0.5, 1.5, X.shape[1])
    lm = fit_ols(wf, X @ c)
    assert np.abs(lm.residuals).max() < 1e-10
    np.testing.assert_allclose(lm.coef, c, rtol=1e-8)


def test_singleton_group_indicator_absorbs_its_worker():
    rng = np.random.default_rng(3)
    records = []
    i = 0
    for job in ("a", "b"):
        for k in range(6):
            records.append(make_record(
                i, job=job, female=bool(k % 2),
                recent_perf=float(rng.normal()),
                past_perf=float(rng.normal()),
                time_in_job=float(rng.exponential(2.0)),
                salary=float(np.exp(10.0 + 0.2 * rng.normal()))))
            i += 1
    lone = make_record(i, job="solo", female=False, recent_perf=0.7,
                       past_perf=-0.4, time_in_job=3.0, salary=90000.0)
    records.append(lone)
    index, _, lm = fit(records)

    j_solo = index.n_job_geo - 1
    assert abs(lm.residuals[-1]) < 1e-10
    cov = dict(zip(lm.labels, lm.coef))
    adjusted = (lone.log_salary - cov["recent_perf"] * lone.recent_perf
                - cov["past_perf"] * lone.past_perf
                - cov["time_in_job"] * lone.time_in_job)
    assert lm.coef[j_solo] == pytest.approx(adjusted, rel=1e-8)


def test_estimable_groups_are_exactly_the_gender_variant_ones():
    records = noisy_fixture()  # group a has both genders, group b male-only
    index, _, lm = fit(records)
    variant = index.gender_variant()
    assert lm.estimable_groups == {j for j in range(index.n_job_geo) if variant[j]}
    assert lm.inestimable_groups == {j for j in range(index.n_job_geo)
                                     if not variant[j]}
    assert set(lm.female_coef) == lm.estimable_groups


def test_duplicate_covariate_column_gets_dropped():
    rng = np.random.default_rng(7)
    records = []
    for i in range(12):
        x = float(rng.normal())
        records.append(make_record(
            i, job="a", female=bool(i % 2), recent_perf=x,
            past_perf=float(rng.normal()), time_in_job=x,  # identical columns
            salary=float(np.exp(10.0 + 0.2 * rng.normal()))))
    index, _, lm = fit(records)
    assert lm.dropped_labels == ["time_in_job"]  # the later of the two, in label order
    k = lm.labels.index("time_in_job")
    assert math.isnan(lm.coef[k]) and math.isnan(lm.se[k])
    assert np.isfinite(lm.residuals).all()


def test_covariate_constant_within_cells_is_dropped_not_an_intercept():
    records = noisy_fixture()
    for r in records:  # one tenure per (job-geo, gender) cell
        r.time_in_job = {("a", True): 1.0, ("a", False): 4.0, ("b", False): 2.5}[
            (r.job, r.female)]
    index, X, lm = fit(records)
    assert lm.dropped_labels == ["time_in_job"]
    assert lm.rank == X.shape[1] - 1
    k = lm.labels.index("time_in_job")
    assert math.isnan(lm.coef[k]) and math.isnan(lm.se[k])
    assert np.isfinite(np.delete(lm.coef, k)).all()
    assert np.isfinite(np.delete(lm.se, k)).all()
    # the oracle without that column: the design has full rank again
    y = np.array([r.log_salary for r in records])
    Xk = np.delete(X, k, axis=1)
    ref = np.linalg.solve(Xk.T @ Xk, Xk.T @ y)
    resid = y - Xk @ ref
    s2 = float(resid @ resid) / (len(records) - Xk.shape[1])
    np.testing.assert_allclose(np.delete(lm.coef, k), ref, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(np.delete(lm.se, k),
                               np.sqrt(s2 * np.diag(np.linalg.inv(Xk.T @ Xk))), rtol=1e-8)


def test_saturated_fit_returns_nan_standard_errors():
    records = [make_record(0, female=False, recent_perf=0.01, past_perf=0.02,
                           time_in_job=0.03, salary=90000.0),
               make_record(1, female=True, recent_perf=0.02, past_perf=0.01,
                           time_in_job=0.04, salary=80000.0)]
    index, _, lm = fit(records)
    assert lm.rank == 2
    assert math.isnan(lm.residual_variance)
    assert np.isnan(lm.se).all()
    assert np.abs(lm.residuals).max() < 1e-10


def test_response_length_checked():
    wf = workforce(noisy_fixture())
    with pytest.raises(ContractViolation):
        fit_ols(wf, np.zeros(wf.n + 1))


# -------------------------------------------------------------- comparison

def summary_for(index, j, effect):
    return GroupGapSummary(job_geo=j, label=index.job_geo_label(j),
                           effect_mean=effect, effect_sd=0.02,
                           ci_low=effect - 0.04, ci_high=effect + 0.04,
                           significant=False, n_workers=int(index.group_sizes[j]),
                           n_female=int(index.gender_counts[j, 0]),
                           median_gap_usd=float("nan"),
                           mean_gap_usd=float("nan"))


def test_comparison_rows_sorted_by_group_size():
    records = noisy_fixture()
    lone = make_record(99, job="solo", female=False)
    records = records + [lone]
    index, _, lm = fit(records)
    summaries = [summary_for(index, j, -0.01 * j) for j in range(index.n_job_geo)]
    table = compare_estimates(summaries, lm, index)
    sizes = [r.n_workers for r in table.rows]
    assert sizes == sorted(sizes)
    assert len(table.rows) == index.n_job_geo


def test_comparison_marks_inestimable_groups():
    records = noisy_fixture()  # b male-only: inestimable
    index, _, lm = fit(records)
    summaries = [summary_for(index, j, -0.02) for j in range(index.n_job_geo)]
    table = compare_estimates(summaries, lm, index)
    by_label = {r.label: r for r in table.rows}
    assert math.isnan(by_label["b|geo0"].lm_effect)
    assert not math.isnan(by_label["a|geo0"].lm_effect)
    assert table.lm_inestimable_workers == 3
    assert table.lm_inestimable_percent == pytest.approx(100.0 * 3 / 8)


def test_all_single_gender_data_has_no_lm_estimates():
    records = [make_record(i, job="job%d" % (i // 2), female=False)
               for i in range(8)]
    index, _, lm = fit(records)
    assert lm.estimable_groups == set()
    summaries = [summary_for(index, j, 0.0) for j in range(index.n_job_geo)]
    table = compare_estimates(summaries, lm, index)
    assert all(math.isnan(r.lm_effect) for r in table.rows)
    assert table.lm_inestimable_percent == 100.0


def test_small_group_shrinkage_averages():
    records = noisy_fixture()
    lone_f = make_record(90, job="tiny", female=True, salary=95000.0)
    lone_m = make_record(91, job="tiny", female=False, salary=100000.0)
    records = records + [lone_f, lone_m]
    index, _, lm = fit(records)
    summaries = [summary_for(index, j, -0.01) for j in range(index.n_job_geo)]
    table = compare_estimates(summaries, lm, index, small_group_k=2)
    # only "tiny" (size 2) is both small and estimable
    assert table.n_small_groups == 1
    assert table.mean_abs_hlm_small == pytest.approx(0.01)
    assert table.mean_abs_lm_small == pytest.approx(abs(lm.female_coef[
        next(iter(j for j in lm.estimable_groups if index.group_sizes[j] == 2))]))


def test_mismatched_summary_count_rejected():
    records = noisy_fixture()
    index, _, lm = fit(records)
    with pytest.raises(ContractViolation):
        compare_estimates([], lm, index)


def test_comparison_csv_format(tmp_path):
    records = noisy_fixture()
    index, _, lm = fit(records)
    summaries = [summary_for(index, j, -0.02) for j in range(index.n_job_geo)]
    table = compare_estimates(summaries, lm, index)
    path = tmp_path / "comparison.csv"
    write_comparison_csv(table, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["job_geo", "n", "hlm_effect", "lm_effect", "lm_se"]
    assert len(rows) == 1 + index.n_job_geo
    by_label = {r[0]: r for r in rows[1:]}
    assert by_label["b|geo0"][3] == ""   # male-only group: no LM estimate
    assert by_label["b|geo0"][4] == ""
    assert float(by_label["a|geo0"][3]) == pytest.approx(lm.female_coef[0], abs=1e-6)


def test_comparison_text_mentions_inestimable_share():
    records = noisy_fixture()
    index, _, lm = fit(records)
    summaries = [summary_for(index, j, -0.02) for j in range(index.n_job_geo)]
    text = format_comparison_text(compare_estimates(summaries, lm, index))
    assert "workers" in text
    assert "job_geo" in text.split("\n")[3]


# ------------------------------------------- agreement with the hierarchy

@pytest.fixture(scope="module")
def balanced_fit():
    """Large balanced groups: partial pooling should barely move estimates."""
    from payequity.hmc import SamplerConfig, run_chains
    from payequity.model import ModelSpec
    from payequity.report import group_gap_summaries

    rng = np.random.default_rng(17)
    true_b0 = {"a": 10.4, "b": 10.6, "c": 10.5}
    true_b1 = {"a": -0.08, "b": 0.05, "c": 0.0}
    records = []
    i = 0
    for job in ("a", "b", "c"):
        for female in (True, False):
            for _ in range(100):
                recent = float(rng.normal())
                past = float(rng.normal())
                tenure = float(rng.exponential(3.0))
                eta = (true_b0[job] + (true_b1[job] if female else 0.0)
                       + 0.05 * recent + 0.03 * past + 0.001 * tenure)
                records.append(make_record(
                    i, job=job, female=female, recent_perf=recent,
                    past_perf=past, time_in_job=tenure,
                    salary=float(np.exp(eta + 0.25 * rng.normal()))))
                i += 1
    index, _, lm = fit(records)
    config = SamplerConfig(n_chains=2, n_warmup=300, n_samples=300,
                           leapfrog_steps=256, target_accept=0.9, base_seed=40)
    wf = workforce(records)
    draws = run_chains(wf, ModelSpec(), config)
    summaries = group_gap_summaries(draws, wf)
    return index, lm, summaries


def test_balanced_groups_agree_with_plain_regression(balanced_fit):
    index, lm, summaries = balanced_fit
    by_group = {s.job_geo: s for s in summaries}
    for j in lm.estimable_groups:
        gap = abs(by_group[j].effect_mean - lm.female_coef[j])
        assert gap <= 2.0 * lm.female_se[j], (
            "group %s: HLM %.4f vs LM %.4f +- %.4f"
            % (index.job_geo_label(j), by_group[j].effect_mean,
               lm.female_coef[j], lm.female_se[j]))
