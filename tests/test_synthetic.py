import math

import numpy as np
import pytest

from payequity.errors import ConfigError
from payequity.synthetic import (GroundTruth, GroupSizeLaw, SynthConfig,
                                 generate_synthetic)


def small_config(**overrides):
    base = dict(n_geos=2, n_gjs=2, n_jobs=4,
                group_size_law=GroupSizeLaw(exponent=1.0, max_size=5),
                seed=11)
    base.update(overrides)
    return SynthConfig(**base)


def test_determinism_same_seed():
    a, ta = generate_synthetic(small_config())
    b, tb = generate_synthetic(small_config())
    assert a == b
    assert ta.values == tb.values


def test_different_seed_changes_data():
    a, _ = generate_synthetic(small_config(seed=1))
    b, _ = generate_synthetic(small_config(seed=2))
    assert a != b


def test_every_job_geo_cell_is_populated():
    records, _ = generate_synthetic(small_config())
    idx = records.index
    assert idx.n_job_geo == 2 * 4  # full job x geo crossing
    assert idx.n_gjs_geo == 2 * 2
    assert (np.asarray(idx.group_sizes) >= 1).all()


def test_group_sizes_respect_law_bounds():
    records, _ = generate_synthetic(small_config())
    idx = records.index
    assert np.asarray(idx.group_sizes).max() <= 5


def test_log_salary_matches_generating_equation():
    # with residual scale driven to zero, log salary must equal the
    # linear predictor assembled from the stored ground truth
    cfg = small_config(residual_scale=1e-12)
    wf, truth = generate_synthetic(cfg)
    for i in range(min(40, wf.n)):
        gjs, job, geo = wf.gjs[i], wf.job[i], wf.geo[i]
        eta = (truth[f"beta0_g[{gjs}|{geo}]"]
               + truth[f"beta0_j[{job}|{geo}]"]
               + (truth[f"beta1_g[{gjs}|{geo}]"]
                  + truth[f"beta1_j[{job}|{geo}]"]) * (1.0 if wf.female[i] else 0.0)
               + truth["beta2"] * wf.recent[i]
               + truth["beta3"] * wf.past[i]
               + truth["beta4"] * wf.tenure[i])
        assert wf.log_salary[i] == pytest.approx(eta, abs=1e-6)
        assert wf.salary[i] == pytest.approx(math.exp(eta), rel=1e-6)


def test_truth_contains_every_group_and_fixed_effect():
    records, truth = generate_synthetic(small_config())
    idx = records.index
    for g in range(idx.n_gjs_geo):
        assert f"beta0_g[{idx.gjs_geo_label(g)}]" in truth.values
        assert f"beta1_g[{idx.gjs_geo_label(g)}]" in truth.values
    for j in range(idx.n_job_geo):
        assert f"beta0_j[{idx.job_geo_label(j)}]" in truth.values
        assert f"beta1_j[{idx.job_geo_label(j)}]" in truth.values
    for key in ("beta2", "beta3", "beta4", "sigma_resid",
                "mu0_g", "mu1_g", "mu0_j", "mu1_j"):
        assert key in truth.values


def test_total_female_effect_helper():
    _, truth = generate_synthetic(small_config())
    key_g = next(k for k in truth.values if k.startswith("beta1_g["))
    key_j = next(k for k in truth.values if k.startswith("beta1_j["))
    lab_g = key_g[len("beta1_g["):-1]
    lab_j = key_j[len("beta1_j["):-1]
    assert truth.total_female_effect(lab_g, lab_j) == pytest.approx(
        truth[key_g] + truth[key_j])


def test_truth_roundtrip(tmp_path):
    _, truth = generate_synthetic(small_config())
    path = tmp_path / "truth.txt"
    truth.write(path)
    again = GroundTruth.read(path)
    assert set(again.values) == set(truth.values)
    for k, v in truth.values.items():
        assert again[k] == pytest.approx(v, rel=1e-15)


def test_female_rate_is_respected():
    records, _ = generate_synthetic(SynthConfig(
        n_geos=3, n_gjs=2, n_jobs=10,
        group_size_law=GroupSizeLaw(exponent=0.0, max_size=40),
        female_rate=0.3, seed=4))
    rate = np.mean(records.female)
    assert abs(rate - 0.3) < 0.05


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_geos=0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(n_jobs=2, n_gjs=5).validate()
    with pytest.raises(ConfigError):
        SynthConfig(female_rate=1.0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(residual_scale=0.0).validate()


def test_size_law_probabilities_normalized_and_monotone():
    law = GroupSizeLaw(exponent=1.0, max_size=6)
    p = law.probabilities()
    assert p.sum() == pytest.approx(1.0)
    assert (np.diff(p) < 0).all()  # heavier mass on small sizes
    flat = GroupSizeLaw(exponent=0.0, max_size=6).probabilities()
    assert np.allclose(flat, 1.0 / 6.0)
