import numpy as np
import pytest

from payequity.factors import build_factor_index, summarize_imbalance
from payequity.synthetic import SynthConfig, generate_synthetic

from test_records import make_record, workforce


def test_dense_indices_follow_first_appearance():
    records = [
        make_record(0, gjs="E3", geo="west", job="jobA"),
        make_record(1, gjs="E4", geo="west", job="jobB"),
        make_record(2, gjs="E3", geo="west", job="jobA"),
        make_record(3, gjs="E3", geo="east", job="jobA"),
    ]
    idx = workforce(records).index
    assert idx.gjs_geo_levels == [("E3", "west"), ("E4", "west"), ("E3", "east")]
    assert idx.job_geo_levels == [("jobA", "west"), ("jobB", "west"), ("jobA", "east")]
    assert list(idx.g_of) == [0, 1, 0, 2]
    assert list(idx.j_of) == [0, 1, 0, 2]


def test_group_sizes_and_gender_counts():
    records = [
        make_record(0, job="jobA", female=True),
        make_record(1, job="jobA", female=False),
        make_record(2, job="jobA", female=True),
        make_record(3, job="jobB", female=False),
    ]
    idx = workforce(records).index
    assert list(idx.group_sizes) == [3, 1]
    assert idx.gender_counts[0].tolist() == [2, 1]
    assert idx.gender_counts[1].tolist() == [0, 1]
    assert list(idx.gender_variant()) == [True, False]


def test_same_job_name_in_two_geos_is_two_groups():
    records = [
        make_record(0, geo="west", job="jobA"),
        make_record(1, geo="east", job="jobA"),
    ]
    idx = workforce(records).index
    assert idx.n_job_geo == 2


def test_gjs_geo_of_job_geo_majority_rule():
    records = [
        make_record(0, gjs="E3", job="jobA"),
        make_record(1, gjs="E3", job="jobA"),
        make_record(2, gjs="E4", job="jobA"),  # nesting violation, minority
        make_record(3, gjs="E4", job="jobB"),
    ]
    idx = workforce(records).index
    mapping = idx.gjs_geo_of_job_geo()
    assert mapping[0] == 0  # jobA sits with E3 (2 of 3 workers)
    assert mapping[1] == 1


def test_empty_records_rejected():
    with pytest.raises(ValueError):
        build_factor_index([], [], [], [])


def test_imbalance_summary_exact_counts():
    records = [
        make_record(0, job="jobA", female=True),
        make_record(1, job="jobA", female=False),
        make_record(2, job="jobB", female=True),
    ]
    summary = summarize_imbalance(workforce(records))
    jg = summary.factors["job_geo"]
    assert jg.n_levels == 2
    assert jg.pct_single_gender == pytest.approx(50.0)
    assert jg.pct_single_worker == pytest.approx(50.0)
    table = summary.format_table()
    assert "job_geo" in table and "geo" in table


def test_reference_profile_imbalance_close_to_targets():
    # the default synthetic profile aims at roughly 68% single-gender
    # and 41% single-worker job-geo groups
    records, _ = generate_synthetic(SynthConfig())
    summary = summarize_imbalance(records)
    jg = summary.factors["job_geo"]
    assert abs(jg.pct_single_gender - 68.2) <= 3.0
    assert abs(jg.pct_single_worker - 40.9) <= 3.0


def test_index_aligns_with_records_for_synthetic_data():
    records, _ = generate_synthetic(SynthConfig(n_geos=2, n_gjs=2, n_jobs=4, seed=5))
    idx = records.index
    assert idx.n_workers == records.n
    for i, (gjs, job, geo) in enumerate(zip(records.gjs, records.job, records.geo)):
        assert idx.gjs_geo_levels[idx.g_of[i]] == (gjs, geo)
        assert idx.job_geo_levels[idx.j_of[i]] == (job, geo)
    assert int(idx.group_sizes.sum()) == records.n
    assert int(idx.gender_counts.sum()) == records.n
