import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from payequity import report
from payequity.errors import ContractViolation
from payequity.records import Workforce
from payequity.report import (GapReport, Predictions,
                              adjusted_cents_to_dollar, build_gap_report,
                              counterfactual_predictions, fit_metrics,
                              format_report_text, group_gap_summaries,
                              raise_recommendations, report_to_json,
                              write_group_csv, write_report_json)

from test_records import make_record, workforce


class FakeDraws:
    """Minimal stand-in exposing the natural-scale draw matrix."""

    def __init__(self, G, J, matrix):
        self.G = G
        self.J = J
        self._matrix = np.asarray(matrix, dtype=float)

    def pooled(self):
        return self._matrix


def natural_row(G, J, beta0_g=None, beta1_g=None, beta0_j=None, beta1_j=None,
                beta2=0.0, beta3=0.0, beta4=0.0, sigma_resid=0.1):
    row = np.zeros(2 * G + 2 * J + 12)
    if beta0_g is not None:
        row[:G] = beta0_g
    if beta1_g is not None:
        row[G:2 * G] = beta1_g
    if beta0_j is not None:
        row[2 * G:2 * G + J] = beta0_j
    if beta1_j is not None:
        row[2 * G + J:2 * G + 2 * J] = beta1_j
    base = 2 * G + 2 * J + 8
    row[base:base + 3] = [beta2, beta3, beta4]
    row[base + 3] = sigma_resid
    return row


def two_group_rows():
    return [
        make_record(0, gjs="E3", job="jobA", female=True,
                    recent_perf=0.5, past_perf=-0.2, time_in_job=2.0),
        make_record(1, gjs="E3", job="jobA", female=False,
                    recent_perf=-0.1, past_perf=0.3, time_in_job=1.0),
        make_record(2, gjs="E3", job="jobB", female=True,
                    recent_perf=0.0, past_perf=0.0, time_in_job=0.5),
    ]


def two_group_data():
    records = workforce(two_group_rows())
    return records, records.index


# ------------------------------------------------ counterfactual predictions

def factual_and_counterfactual(pred, wf):
    """Each worker's prediction at their own gender and at the other."""
    return (np.where(wf.female, pred.y_hat_female, pred.y_hat_male),
            np.where(wf.female, pred.y_hat_male, pred.y_hat_female))


def test_single_draw_hand_computed_predictions():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    row = natural_row(G, J, beta0_g=[10.0], beta1_g=[-0.05],
                      beta0_j=[0.3, -0.2], beta1_j=[0.02, 0.0],
                      beta2=0.1, beta3=0.2, beta4=0.01)
    draws = FakeDraws(G, J, [row])
    pred = counterfactual_predictions(draws, records)
    w = two_group_rows()[0]  # female, jobA
    eta_m = 10.0 + 0.3 + 0.1 * w.recent_perf + 0.2 * w.past_perf + 0.01 * w.time_in_job
    eta_f = eta_m + (-0.05 + 0.02)
    assert pred.y_hat_female[0] == pytest.approx(math.exp(eta_f), rel=1e-12)
    assert pred.y_hat_male[0] == pytest.approx(math.exp(eta_m), rel=1e-12)
    factual, counter = factual_and_counterfactual(pred, records)
    assert factual[0] == pred.y_hat_female[0]
    assert counter[0] == pred.y_hat_male[0]
    # male worker: factual is the male-gendered prediction
    assert pred.y_hat_male[1] == factual[1]
    assert pred.y_hat_female[1] == counter[1]


def test_zero_slopes_make_factual_equal_counterfactual():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rows = [natural_row(G, J, beta0_g=[10.0], beta0_j=[0.1, 0.2], beta2=0.3),
            natural_row(G, J, beta0_g=[9.5], beta0_j=[0.0, 0.4], beta2=-0.1)]
    pred = counterfactual_predictions(FakeDraws(G, J, rows), records)
    for factual, counter in zip(*factual_and_counterfactual(pred, records)):
        assert factual == pytest.approx(counter, rel=1e-14)


def test_mean_over_draws_is_mean_of_exponentials():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rows = [natural_row(G, J, beta0_g=[10.0], beta0_j=[0.0, 0.0]),
            natural_row(G, J, beta0_g=[11.0], beta0_j=[0.0, 0.0])]
    pred = counterfactual_predictions(FakeDraws(G, J, rows), records)
    expected = 0.5 * (math.exp(10.0) + math.exp(11.0))
    assert pred.y_hat_male[1] == pytest.approx(expected, rel=1e-12)


def test_predictions_hand_case():
    # one female worker, the same state in each of two draws
    records = workforce([make_record(0, female=True, recent_perf=0.4, past_perf=-0.2,
                                     time_in_job=1.5)])
    G, J = records.index.n_gjs_geo, records.index.n_job_geo
    row = natural_row(G, J, beta0_g=[10.0], beta1_g=[0.5], beta0_j=[1.0], beta1_j=[-0.25],
                      beta2=0.1, beta3=0.2, beta4=0.3)
    pred = counterfactual_predictions(FakeDraws(G, J, [row, row]), records)
    base = 10.0 + 1.0 + 0.1 * 0.4 + 0.2 * -0.2 + 0.3 * 1.5
    assert pred.y_hat_male[0] == pytest.approx(math.exp(base), rel=1e-12)
    assert pred.y_hat_female[0] == pytest.approx(math.exp(base + 0.5 - 0.25), rel=1e-12)
    assert pred.mean_log[0] == pytest.approx(base + 0.5 - 0.25, rel=1e-12)


def oracle_predictions(matrix, wf):
    """(y_hat_female, y_hat_male, mean_log): exp of each draw's full linear
    predictor, averaged over draws, with no factoring."""
    G, J = wf.index.n_gjs_geo, wf.index.n_job_geo
    g, j = wf.index.g_of, wf.index.j_of
    y_f, y_m, mean_log = np.zeros((3, wf.n))
    for row in np.asarray(matrix, dtype=float):
        b0g, b1g = row[:G], row[G:2 * G]
        b0j, b1j = row[2 * G:2 * G + J], row[2 * G + J:2 * G + 2 * J]
        b2, b3, b4 = row[2 * G + 2 * J + 8:2 * G + 2 * J + 11]
        eta_m = b0g[g] + b0j[j] + b2 * wf.recent + b3 * wf.past + b4 * wf.tenure
        eta_f = eta_m + b1g[g] + b1j[j]
        y_f += np.exp(eta_f)
        y_m += np.exp(eta_m)
        mean_log += np.where(wf.female, eta_f, eta_m)
    return y_f / len(matrix), y_m / len(matrix), mean_log / len(matrix)


def assert_matches_oracle(matrix, wf):
    G, J = wf.index.n_gjs_geo, wf.index.n_job_geo
    pred = counterfactual_predictions(FakeDraws(G, J, matrix), wf)
    y_f, y_m, mean_log = oracle_predictions(matrix, wf)
    assert np.all(np.isfinite(y_f)) and np.all(np.isfinite(y_m))
    np.testing.assert_allclose(pred.y_hat_female, y_f, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pred.y_hat_male, y_m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pred.mean_log, mean_log, rtol=1e-12, atol=0)
    return pred


def test_predictions_keep_each_workers_own_gjs_geo():
    # jobA sits under E3 (one worker) and E4 (two): the minority worker
    # keeps E3's effects, not those of the group's majority GJS-geo
    rows = [make_record(i, job=job, gjs=gjs, recent_perf=0.1 * i)
            for i, (job, gjs) in enumerate([("jobA", "E4"), ("jobA", "E3"), ("jobA", "E4"),
                                            ("jobB", "E3"), ("jobB", "E3")])]
    wf = workforce(rows)
    G, J = wf.index.n_gjs_geo, wf.index.n_job_geo
    assert (G, J) == (2, 2)
    rng = np.random.default_rng(21)
    matrix = [natural_row(G, J, beta0_g=[10.0, 11.0] + rng.normal(0, 0.1, G),
                          beta1_g=[-0.2, 0.3] + rng.normal(0, 0.05, G),
                          beta0_j=rng.normal(0, 0.2, J), beta1_j=rng.normal(0, 0.05, J),
                          beta2=rng.normal(0.1, 0.02))
              for _ in range(7)]
    pred = assert_matches_oracle(matrix, wf)
    # the two jobA workers in different GJS-geos differ by about e^1
    assert pred.y_hat_male[1] / pred.y_hat_male[0] == pytest.approx(math.e, rel=0.5)


def test_predictions_single_worker_pairs_and_split_pair(monkeypatch):
    # job0 and job2 hold one worker each, job1 three; at two workers per
    # block the boundary falls inside job1, whose workers are interleaved
    jobs = ["job1", "job0", "job1", "job2", "job1"]
    wf = workforce([make_record(i, job=job, recent_perf=0.3 * i, time_in_job=0.5 * i)
                    for i, job in enumerate(jobs)])
    G, J = wf.index.n_gjs_geo, wf.index.n_job_geo
    rng = np.random.default_rng(22)
    matrix = [natural_row(G, J, beta0_g=rng.normal(10.5, 0.1, G),
                          beta1_g=rng.normal(-0.05, 0.02, G),
                          beta0_j=rng.normal(0, 0.3, J), beta1_j=rng.normal(0, 0.05, J),
                          beta2=rng.normal(0.05, 0.01), beta4=rng.normal(0.01, 0.005))
              for _ in range(5)]
    monkeypatch.setattr(report, "_BLOCK_VALUES", 2 * len(matrix))
    assert_matches_oracle(matrix, wf)


def test_predictions_at_high_log_salaries():
    # log salaries near 22.5 (about $6e9)
    wf, index = interleaved_three_gjs_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rng = np.random.default_rng(23)
    matrix = [natural_row(G, J, beta0_g=rng.normal(22.0, 0.05, G),
                          beta1_g=rng.normal(-0.05, 0.02, G),
                          beta0_j=rng.normal(0.5, 0.05, J), beta1_j=rng.normal(0, 0.02, J),
                          beta2=0.05, beta3=0.02, beta4=0.01)
              for _ in range(9)]
    assert_matches_oracle(matrix, wf)


def test_predictions_finite_when_the_pair_factor_alone_overflows():
    # pair intercepts near 712, covariate terms near -10: each prediction
    # is about exp(702) and finite, while exp of the intercepts alone is
    # not, so the two factors need the per-pair offset
    wf, index = interleaved_three_gjs_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rng = np.random.default_rng(24)
    matrix = np.array([natural_row(G, J, beta0_g=rng.normal(356.0, 0.05, G),
                                   beta1_g=rng.normal(-0.05, 0.02, G),
                                   beta0_j=rng.normal(356.0, 0.05, J),
                                   beta1_j=rng.normal(0, 0.02, J),
                                   beta2=rng.normal(-10.0, 0.01), beta3=0.02, beta4=0.01)
                       for _ in range(4)])
    wf = Workforce.from_columns(wf.worker_id, wf.geo, wf.gjs, wf.job, wf.female,
                                np.ones(wf.n), wf.past, wf.tenure, wf.salary)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(matrix[:, :G].min() + matrix[:, 2 * G:2 * G + J].min()))
    assert_matches_oracle(matrix, wf)


def test_dimension_mismatch_rejected():
    records, index = two_group_data()
    draws = FakeDraws(index.n_gjs_geo + 1, index.n_job_geo,
                      [natural_row(index.n_gjs_geo + 1, index.n_job_geo)])
    with pytest.raises(ContractViolation):
        counterfactual_predictions(draws, records)


# --------------------------------------------------------------------- Eq 1

def pair(wid, factual, counter, female):
    return (wid, factual, counter, female)


def predictions(pairs):
    """Predictions from (worker_id, factual, counterfactual, female) rows."""
    female = np.array([p[3] for p in pairs], dtype=bool)
    factual = np.array([p[1] for p in pairs], dtype=float)
    counter = np.array([p[2] for p in pairs], dtype=float)
    return Predictions(worker_id=tuple(p[0] for p in pairs),
                       y_hat_female=np.where(female, factual, counter),
                       y_hat_male=np.where(female, counter, factual),
                       mean_log=np.zeros(len(pairs)))


def test_cents_symmetric_model_is_exactly_one():
    pairs = [pair("w1", 100.0, 100.0, True), pair("w2", 88.0, 88.0, False)]
    assert abs(adjusted_cents_to_dollar(predictions(pairs)) - 1.0) < 1e-12


def test_cents_two_worker_hand_case():
    pairs = [pair("f", 100.0, 110.0, True), pair("m", 110.0, 100.0, False)]
    assert abs(adjusted_cents_to_dollar(predictions(pairs)) - 10.0 / 11.0) < 1e-12


def test_cents_duplication_invariance():
    pairs = [pair("f", 100.0, 110.0, True), pair("m", 120.0, 105.0, False)]
    r1 = adjusted_cents_to_dollar(predictions(pairs))
    r2 = adjusted_cents_to_dollar(predictions(pairs * 3))
    assert abs(r1 - r2) < 1e-12


def test_cents_reorder_invariance():
    pairs = [pair("a", 100.0, 110.0, True), pair("b", 120.0, 105.0, False),
             pair("c", 90.0, 95.0, True)]
    assert abs(adjusted_cents_to_dollar(predictions(pairs))
               - adjusted_cents_to_dollar(predictions(pairs[::-1]))) < 1e-12


def test_cents_empty_list_rejected():
    with pytest.raises(ContractViolation):
        adjusted_cents_to_dollar(predictions([]))


def test_gender_flip_involution_on_pairs():
    pred = predictions([pair("a", 100.0, 110.0, True), pair("b", 120.0, 105.0, False)])
    flipped = Predictions(pred.worker_id, pred.y_hat_male, pred.y_hat_female,
                          pred.mean_log)
    r = adjusted_cents_to_dollar(pred)
    r_flip = adjusted_cents_to_dollar(flipped)
    assert abs(r * r_flip - 1.0) < 1e-12


def test_gender_flip_involution_through_full_pipeline():
    # flip every worker's gender and transform the draws by the exact
    # equivalence (intercept absorbs the slope, slope negates); the
    # per-worker gendered predictions must swap and Eq-style ratio invert
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(5):
        rows.append(natural_row(
            G, J,
            beta0_g=rng.normal(10, 0.2, G), beta1_g=rng.normal(0, 0.05, G),
            beta0_j=rng.normal(0, 0.3, J), beta1_j=rng.normal(0, 0.05, J),
            beta2=0.05, beta3=0.02, beta4=0.001))
    mat = np.array(rows)
    pairs = counterfactual_predictions(FakeDraws(G, J, mat), records)

    flipped_records = workforce([make_record(i, gjs=r.gjs, geo=r.geo, job=r.job,
                                             female=not r.female,
                                             recent_perf=r.recent_perf,
                                             past_perf=r.past_perf,
                                             time_in_job=r.time_in_job,
                                             salary=r.salary)
                                 for i, r in enumerate(two_group_rows())])
    flipped = mat.copy()
    flipped[:, :G] = mat[:, :G] + mat[:, G:2 * G]                  # intercepts
    flipped[:, G:2 * G] = -mat[:, G:2 * G]                         # slopes
    flipped[:, 2 * G:2 * G + J] = mat[:, 2 * G:2 * G + J] + mat[:, 2 * G + J:2 * G + 2 * J]
    flipped[:, 2 * G + J:2 * G + 2 * J] = -mat[:, 2 * G + J:2 * G + 2 * J]
    pairs_flipped = counterfactual_predictions(FakeDraws(G, J, flipped), flipped_records)

    np.testing.assert_allclose(pairs_flipped.y_hat_female, pairs.y_hat_male, rtol=1e-12)
    np.testing.assert_allclose(pairs_flipped.y_hat_male, pairs.y_hat_female, rtol=1e-12)
    r = adjusted_cents_to_dollar(pairs)
    r_flip = adjusted_cents_to_dollar(pairs_flipped)
    assert abs(r * r_flip - 1.0) < 1e-12


# ---------------------------------------------------------- group summaries

def test_degenerate_draws_give_point_interval():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rows = [natural_row(G, J, beta1_g=[-0.05], beta1_j=[0.0, 0.0])
            for _ in range(4)]
    summaries = group_gap_summaries(FakeDraws(G, J, rows), records)
    s = summaries[0]
    assert s.effect_mean == pytest.approx(-0.05)
    assert s.ci_low == pytest.approx(-0.05)
    assert s.ci_high == pytest.approx(-0.05)
    assert s.significant


def test_zero_effect_draws_not_significant():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rows = [natural_row(G, J) for _ in range(4)]
    summaries = group_gap_summaries(FakeDraws(G, J, rows), records)
    assert all(not s.significant for s in summaries)
    assert all(s.effect_mean == 0.0 for s in summaries)


def test_every_group_summarized_including_singletons():
    records, index = two_group_data()  # jobB holds a single female worker
    G, J = index.n_gjs_geo, index.n_job_geo
    rows = [natural_row(G, J) for _ in range(3)]
    summaries = group_gap_summaries(FakeDraws(G, J, rows), records)
    assert len(summaries) == J
    assert sorted(s.job_geo for s in summaries) == list(range(J))
    singleton = next(s for s in summaries if s.n_workers == 1)
    assert singleton.n_female == 1


def test_summary_counts_match_index():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rows = [natural_row(G, J) for _ in range(2)]
    summaries = group_gap_summaries(FakeDraws(G, J, rows), records)
    by_label = {s.label: s for s in summaries}
    assert by_label["jobA|geo0"].n_workers == 2
    assert by_label["jobA|geo0"].n_female == 1
    assert by_label["jobB|geo0"].n_workers == 1


def test_interval_mass_validated():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    draws = FakeDraws(G, J, [natural_row(G, J)])
    with pytest.raises(ContractViolation):
        group_gap_summaries(draws, records, interval_mass=1.0)


def test_dollar_gaps_from_pairs():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rows = [natural_row(G, J, beta0_g=[10.0], beta1_g=[-0.1])
            for _ in range(3)]
    draws = FakeDraws(G, J, rows)
    pred = counterfactual_predictions(draws, records)
    summaries = group_gap_summaries(draws, records, predictions=pred)
    for s in summaries:
        member_gaps = [pred.y_hat_male[i] - pred.y_hat_female[i]
                       for i in range(records.n) if index.j_of[i] == s.job_geo]
        assert s.median_gap_usd == pytest.approx(np.median(member_gaps))
        assert s.mean_gap_usd == pytest.approx(np.mean(member_gaps))
        assert s.median_gap_usd > 0  # women predicted lower here


def test_dollar_gaps_per_group_with_interleaved_workers():
    # groups of 3, 2, 4 and 1 workers, interleaved in file order
    jobs = ["jobA", "jobB", "jobA", "jobD", "jobC", "jobB", "jobD", "jobA", "jobD", "jobD"]
    records = workforce([make_record(i, job=job) for i, job in enumerate(jobs)])
    index = records.index
    G, J = index.n_gjs_geo, index.n_job_geo
    rng = np.random.default_rng(14)
    pred = Predictions(worker_id=records.worker_id,
                       y_hat_female=rng.uniform(5e4, 6e4, records.n),
                       y_hat_male=rng.uniform(5e4, 6e4, records.n),
                       mean_log=np.zeros(records.n))
    draws = FakeDraws(G, J, [natural_row(G, J)] * 2)
    summaries = group_gap_summaries(draws, records, predictions=pred)
    assert [s.n_workers for s in summaries] == [3, 2, 4, 1]
    gaps = pred.y_hat_male - pred.y_hat_female
    for s in summaries:
        member_gaps = gaps[index.j_of == s.job_geo]
        assert s.median_gap_usd == np.median(member_gaps)
        assert s.mean_gap_usd == pytest.approx(np.mean(member_gaps), rel=1e-12)


# ------------------------------------------------------------------- raises

def make_summary(job_geo, effect_mean, significant, label="jobA|geo0"):
    from payequity.report import GroupGapSummary
    return GroupGapSummary(job_geo=job_geo, label=label,
                           effect_mean=effect_mean, effect_sd=0.01,
                           ci_low=effect_mean - 0.01, ci_high=effect_mean + 0.01,
                           significant=significant, n_workers=2, n_female=1,
                           median_gap_usd=float("nan"), mean_gap_usd=float("nan"))


def test_no_significant_groups_no_raises():
    records, index = two_group_data()
    pairs = predictions([pair("w%03d" % i, 100.0, 90.0, female)
                         for i, female in enumerate(records.female)])
    summaries = [make_summary(j, -0.05, False) for j in range(index.n_job_geo)]
    assert raise_recommendations(pairs, summaries, records) == []


def test_disadvantaged_female_gets_prediction_difference():
    records, index = two_group_data()
    # worker 0 female in jobA: y_f 100, y_m 110
    pairs = predictions([pair("w000", 100.0, 110.0, True),
                         pair("w001", 110.0, 100.0, False),
                         pair("w002", 100.0, 100.0, True)])
    summaries = [make_summary(0, -0.08, True),
                 make_summary(1, -0.08, False, label="jobB|geo0")]
    raises = raise_recommendations(pairs, summaries, records)
    assert raises == [("w000", pytest.approx(10.0))]


def test_significant_positive_effect_mirrors_to_male():
    records, index = two_group_data()
    pairs = predictions([pair("w000", 110.0, 100.0, True),
                         pair("w001", 100.0, 110.0, False),   # male, disadvantaged
                         pair("w002", 110.0, 100.0, True)])
    summaries = [make_summary(0, 0.08, True),
                 make_summary(1, 0.0, False, label="jobB|geo0")]
    raises = raise_recommendations(pairs, summaries, records)
    assert raises == [("w001", pytest.approx(10.0))]


def test_raises_are_never_negative():
    records, index = two_group_data()
    # female in a significant-negative group but predicted HIGHER
    pairs = predictions([pair("w000", 120.0, 110.0, True),
                         pair("w001", 110.0, 100.0, False),
                         pair("w002", 100.0, 100.0, True)])
    summaries = [make_summary(0, -0.08, True),
                 make_summary(1, -0.08, False, label="jobB|geo0")]
    raises = raise_recommendations(pairs, summaries, records)
    assert raises == []  # max(0, 110 - 120) = 0, omitted


# -------------------------------------------------------------- fit metrics

def test_perfect_predictions_give_r2_one():
    xs = [0.2, -0.4, 0.9, 1.4]
    records = [make_record(i, job="jobA", female=False, recent_perf=x,
                           past_perf=0.0, time_in_job=0.0, salary=math.exp(x))
               for i, x in enumerate(xs)]
    records = workforce(records)
    G, J = records.index.n_gjs_geo, records.index.n_job_geo
    rows = [natural_row(G, J, beta2=1.0)]
    r2, rmse = fit_metrics(records, counterfactual_predictions(FakeDraws(G, J, rows), records))
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert rmse == pytest.approx(0.0, abs=1e-12)


def test_constant_prediction_at_mean_gives_r2_zero():
    salaries = [math.exp(10.0), math.exp(10.5), math.exp(11.0)]
    records = [make_record(i, job="jobA", female=False, recent_perf=0.0,
                           past_perf=0.0, time_in_job=0.0, salary=s)
               for i, s in enumerate(salaries)]
    records = workforce(records)
    G, J = records.index.n_gjs_geo, records.index.n_job_geo
    mean_log = float(np.mean(records.log_salary))
    rows = [natural_row(G, J, beta0_j=[mean_log])]
    r2, rmse = fit_metrics(records, counterfactual_predictions(FakeDraws(G, J, rows), records))
    assert r2 == pytest.approx(0.0, abs=1e-12)
    assert rmse == pytest.approx(np.std(records.log_salary), rel=1e-10)


def test_constant_observations_rejected():
    records = workforce([make_record(i, job="jobA", salary=50000.0) for i in range(3)])
    G, J = records.index.n_gjs_geo, records.index.n_job_geo
    pred = counterfactual_predictions(FakeDraws(G, J, [natural_row(G, J)]), records)
    with pytest.raises(ContractViolation):
        fit_metrics(records, pred)


# ------------------------------------------------------------ serialization

def full_report_fixture():
    records, index = two_group_data()
    G, J = index.n_gjs_geo, index.n_job_geo
    rng = np.random.default_rng(1)
    rows = [natural_row(G, J, beta0_g=[10.0 + 0.01 * rng.standard_normal()],
                        beta1_g=[-0.1], beta0_j=rng.normal(0, 0.1, J))
            for _ in range(30)]
    draws = FakeDraws(G, J, rows)
    return build_gap_report(draws, records), records, index


def test_report_assembles_all_sections():
    report, records, index = full_report_fixture()
    assert len(report.summaries) == index.n_job_geo
    assert report.adjusted_cents_to_dollar > 0
    assert isinstance(report.raises, list)
    assert report.rmse >= 0.0


def test_text_header_shows_four_decimals():
    report, _, _ = full_report_fixture()
    text = format_report_text(report)
    header_line = text.split("\n")[1]
    assert "adjusted cents-to-the-dollar:" in header_line
    value = header_line.split(":")[1].strip()
    whole, frac = value.split(".")
    assert len(frac) == 4


def test_group_csv_columns(tmp_path):
    report, _, _ = full_report_fixture()
    path = tmp_path / "groups.csv"
    write_group_csv(report.summaries, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["job_geo", "n", "n_female", "effect_mean", "effect_sd",
                       "ci_low", "ci_high", "significant", "median_gap_usd"]
    assert len(rows) == 1 + len(report.summaries)


def test_report_json_roundtrip(tmp_path):
    report, _, _ = full_report_fixture()
    path = tmp_path / "report.json"
    write_report_json(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["adjusted_cents_to_dollar"] == pytest.approx(
        report.adjusted_cents_to_dollar)
    assert loaded["n_groups"] == len(report.summaries)
    assert len(loaded["groups"]) == len(report.summaries)
    assert {"job_geo", "n", "effect_mean", "significant"} <= set(loaded["groups"][0])


# ------------------------------------------------------------ block sizes

def interleaved_three_gjs_data():
    """23 workers in 7 job-geo groups under two GJS-geos, interleaved in
    file order: two single-worker groups (one female, one male), one
    all-female group and four mixed ones."""
    sizes = {"jobA": 1, "jobB": 1, "jobC": 2, "jobD": 3, "jobE": 4, "jobF": 5, "jobG": 7}
    jobs = [job for job, size in sizes.items() for _ in range(size)]
    jobs = [jobs[i] for i in np.random.default_rng(15).permutation(len(jobs))]
    rng = np.random.default_rng(16)
    rows = [make_record(i, job=job, gjs="E3" if job < "jobE" else "E4",
                        female=(job in ("jobA", "jobC") or
                                (job != "jobB" and bool(rng.integers(2)))),
                        recent_perf=rng.normal(), past_perf=rng.normal(),
                        time_in_job=rng.uniform(0, 5))
            for i, job in enumerate(jobs)]
    records = workforce(rows)
    return records, records.index


def random_draws(index, n_draws, seed):
    """Draws whose female effects are mostly negative, so that some
    groups come out significant and get raises."""
    G, J = index.n_gjs_geo, index.n_job_geo
    rng = np.random.default_rng(seed)
    rows = [natural_row(G, J, beta0_g=rng.normal(10.0, 0.1, G),
                        beta1_g=rng.normal(-0.08, 0.02, G),
                        beta0_j=rng.normal(0.0, 0.2, J), beta1_j=rng.normal(0.0, 0.03, J),
                        beta2=rng.normal(0.05, 0.01), beta3=rng.normal(0.02, 0.01),
                        beta4=rng.normal(0.01, 0.005))
            for _ in range(n_draws)]
    return FakeDraws(G, J, rows)


@pytest.mark.parametrize("data", [two_group_data, interleaved_three_gjs_data])
@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_block_size_does_not_change_a_bit(monkeypatch, data, per_block):
    # One worker or group per block, and blocks of 2 and 3, which leave a
    # ragged last block of workers on both workforces and of groups on
    # the 7-group one.
    records, index = data()
    n_draws = 30
    draws = random_draws(index, n_draws, seed=per_block)
    expected_pred = counterfactual_predictions(draws, records)
    expected = build_gap_report(draws, records)
    assert max(records.n, index.n_job_geo) * n_draws < report._BLOCK_VALUES
    assert expected.raises and any(s.significant for s in expected.summaries)

    monkeypatch.setattr(report, "_BLOCK_VALUES", per_block * n_draws)
    pred = counterfactual_predictions(draws, records)
    for field in ("y_hat_female", "y_hat_male", "mean_log"):
        assert getattr(pred, field).tobytes() == getattr(expected_pred, field).tobytes()
    # every summary field, the raise list, cents-to-the-dollar and the fit
    assert build_gap_report(draws, records) == expected


def test_report_memory_does_not_grow_with_draws_times_workers():
    # 20,000 workers in 4,000 job-geo groups under 20 GJS-geos, 400 draws:
    # one (draws, workers) float64 matrix is 64 MB, and the group
    # effects alone 12.8 MB
    n, J, G, n_draws = 20_000, 4_000, 20, 400
    rng = np.random.default_rng(17)
    job = ["job%04d" % (i % J) for i in range(n)]
    gjs = ["gjs%02d" % (i % J % G) for i in range(n)]
    wf = Workforce.from_columns(
        ["w%05d" % i for i in range(n)], ["geo0"] * n, gjs, job,
        rng.random(n) < 0.4, rng.normal(size=n), rng.normal(size=n),
        rng.uniform(0, 5, n), rng.lognormal(11.0, 0.3, n))
    assert (wf.index.n_gjs_geo, wf.index.n_job_geo) == (G, J)
    matrix = rng.normal(0.0, 0.05, (n_draws, 2 * G + 2 * J + 12))
    matrix[:, :G] += 11.0
    draws = FakeDraws(G, J, matrix)
    full_matrix = n_draws * n * 8

    tracemalloc.start()
    try:
        pred = counterfactual_predictions(draws, wf)
        summaries = group_gap_summaries(draws, wf, predictions=pred)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(summaries) == J and np.all(pred.y_hat_female > 0.0)
    assert peak < full_matrix / 4, "traced peak %.1f MB" % (peak / 1e6)
