import math

import numpy as np
import pytest
import scipy.stats

from payequity.errors import ConfigError, ContractViolation, NumericOverflowError
from payequity.model import (HierarchicalModel, ModelSpec, build_layout,
                             natural_param_names)
from payequity.records import Workforce
from payequity.synthetic import (GroupSizeLaw, PopulationTruth, SynthConfig,
                                 generate_synthetic)

from test_records import make_record, take, workforce


def tiny_fixture(n_records=10, seed=7):
    """G=2, J=3-ish toy workforce used across the density tests."""
    cfg = SynthConfig(
        n_geos=1, n_gjs=2, n_jobs=3,
        group_size_law=GroupSizeLaw(exponent=0.0, max_size=5),
        true_hyperparams=PopulationTruth(mu0_g=0.0),
        seed=seed)
    records, _ = generate_synthetic(cfg)
    records = take(records, range(min(n_records, records.n)))
    return records, records.index


def state_at_prior_scale(layout, spec, rng):
    """Random state with each block drawn at its own prior scale.

    Keeps finite-difference checks and oracle comparisons in the region
    the sampler actually visits. A raw N(0,1) draw puts beta4 five
    hundred prior sds out, which only stresses float cancellation.
    """
    v = rng.standard_normal(layout.dim)
    v[layout.fixed] = rng.standard_normal(3) * np.array(spec.fixed_effect_prior_scales)
    v[layout.log_sigma_resid] = rng.standard_normal(1) * 0.5
    return v


def oracle_log_posterior(v, model):
    """Naive reimplementation with scipy.stats, no shared code paths."""
    lay = model.layout
    spec = model.spec
    norm = scipy.stats.norm
    halfnorm = scipy.stats.halfnorm

    z0g = v[lay.z_intercept_g]
    z1g = v[lay.z_slope_g]
    z0j = v[lay.z_intercept_j]
    z1j = v[lay.z_slope_j]
    mu0g, mu1g, mu0j, mu1j = v[lay.hyper_mu]
    ls0g, ls1g, ls0j, ls1j = v[lay.hyper_log_sigma]
    b2, b3, b4 = v[lay.fixed]
    ls_res = v[lay.log_sigma_resid][0]

    total = 0.0
    for z in (z0g, z1g, z0j, z1j):
        total += norm.logpdf(z).sum()
    total += norm.logpdf([mu0g, mu1g, mu0j, mu1j],
                         scale=spec.hyperprior_mu_scale).sum()
    # half-Normal prior on each scale, plus the log-scale Jacobian
    for ls in (ls0g, ls1g, ls0j, ls1j):
        total += halfnorm.logpdf(math.exp(ls),
                                 scale=spec.hyperprior_sigma_scale) + ls
    for b, s in zip((b2, b3, b4), spec.fixed_effect_prior_scales):
        total += norm.logpdf(b, scale=s)
    total += halfnorm.logpdf(math.exp(ls_res),
                             scale=spec.residual_sigma_prior_scale) + ls_res

    beta0_g = mu0g + math.exp(ls0g) * z0g
    beta1_g = mu1g + math.exp(ls1g) * z1g
    beta0_j = mu0j + math.exp(ls0j) * z0j
    beta1_j = mu1j + math.exp(ls1j) * z1j
    sigma = math.exp(ls_res)
    wf = model.wf
    g_of, j_of = wf.index.g_of, wf.index.j_of
    eta = (beta0_g[g_of] + beta0_j[j_of]
           + wf.female * (beta1_g[g_of] + beta1_j[j_of])
           + b2 * wf.recent + b3 * wf.past + b4 * wf.tenure)
    total += norm.logpdf(wf.log_salary, loc=eta, scale=sigma).sum()
    return total


@pytest.fixture(scope="module")
def tiny_model():
    records, _ = tiny_fixture()
    return HierarchicalModel(records, ModelSpec())


def test_log_posterior_matches_scipy_oracle(tiny_model):
    rng = np.random.default_rng(0)
    for _ in range(25):
        v = state_at_prior_scale(tiny_model.layout, tiny_model.spec, rng)
        mine = tiny_model.log_posterior(v)
        ref = oracle_log_posterior(v, tiny_model)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-8)


def test_gradient_matches_central_differences(tiny_model):
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    for _ in range(30):
        v = state_at_prior_scale(tiny_model.layout, tiny_model.spec, rng)
        grad = tiny_model.grad_log_posterior(v)
        for k in range(tiny_model.layout.dim):
            vp = v.copy(); vp[k] += h
            vm = v.copy(); vm[k] -= h
            fd = (tiny_model.log_posterior(vp) - tiny_model.log_posterior(vm)) / (2 * h)
            rel = abs(grad[k] - fd) / max(abs(fd), 1.0)
            worst = max(worst, rel)
    assert worst < 1e-5


def test_logp_and_grad_agrees_with_separate_calls(tiny_model):
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = state_at_prior_scale(tiny_model.layout, tiny_model.spec, rng)
        lp, g = tiny_model.logp_and_grad(v)
        assert lp == pytest.approx(tiny_model.log_posterior(v), rel=1e-12)
        np.testing.assert_allclose(g, tiny_model.grad_log_posterior(v),
                                   rtol=1e-10, atol=1e-10)


def test_record_permutation_leaves_density_unchanged():
    records, index = tiny_fixture()
    model_a = HierarchicalModel(records, ModelSpec())
    rng = np.random.default_rng(3)
    perm = rng.permutation(records.n)
    shuffled = take(records, perm)
    index_b = shuffled.index
    model_b = HierarchicalModel(shuffled, ModelSpec())
    # indices may be numbered differently; compare through natural names
    names_a = natural_param_names(index)
    names_b = natural_param_names(index_b)
    v = state_at_prior_scale(model_a.layout, model_a.spec, rng)
    # map model_a's state onto model_b's coordinate order
    lay_a, lay_b = model_a.layout, model_b.layout
    v_b = np.empty_like(v)
    for block in ("z_intercept_g", "z_slope_g"):
        src = v[getattr(lay_a, block)]
        dst = np.empty(lay_b.G)
        for g_b, (gjs, geo) in enumerate(index_b.gjs_geo_levels):
            g_a = index.gjs_geo_levels.index((gjs, geo))
            dst[g_b] = src[g_a]
        v_b[getattr(lay_b, block)] = dst
    for block in ("z_intercept_j", "z_slope_j"):
        src = v[getattr(lay_a, block)]
        dst = np.empty(lay_b.J)
        for j_b, (job, geo) in enumerate(index_b.job_geo_levels):
            j_a = index.job_geo_levels.index((job, geo))
            dst[j_b] = src[j_a]
        v_b[getattr(lay_b, block)] = dst
    tail = lay_a.hyper_mu.start
    v_b[tail:] = v[tail:]
    assert model_b.log_posterior(v_b) == pytest.approx(
        model_a.log_posterior(v), rel=1e-12)


def per_worker_logp_and_grad(v, model):
    """Log density and gradient summed worker by worker.

    Written from the model's definition with plain numpy: one residual
    per worker, accumulated into the groups with np.add.at.  Shares no
    code with the model's cell statistics.
    """
    lay, spec, wf = model.layout, model.spec, model.wf
    g_of, j_of = wf.index.g_of, wf.index.j_of
    f = wf.female.astype(float)
    X = np.column_stack([wf.recent, wf.past, wf.tenure])
    z = [v[block] for block in lay.random_effects()]
    mu = v[lay.hyper_mu]
    ls = v[lay.hyper_log_sigma]
    scales = np.exp(ls)
    beta = v[lay.fixed]
    ls_res = v[lay.log_sigma_resid][0]
    var = math.exp(2.0 * ls_res)
    b0g, b1g, b0j, b1j = (m + s * zk for m, s, zk in zip(mu, scales, z))
    resid = wf.log_salary - (b0g[g_of] + b0j[j_of] + f * (b1g[g_of] + b1j[j_of]) + X @ beta)

    half_log_2pi = 0.5 * math.log(2.0 * math.pi)
    s_mu, s_sig, s_res = (spec.hyperprior_mu_scale, spec.hyperprior_sigma_scale,
                          spec.residual_sigma_prior_scale)
    s_fixed = np.array(spec.fixed_effect_prior_scales)
    logp = (np.sum(-half_log_2pi - ls_res - 0.5 * resid ** 2 / var)
            + sum(np.sum(-half_log_2pi - 0.5 * zk ** 2) for zk in z)
            + np.sum(-half_log_2pi - math.log(s_mu) - 0.5 * (mu / s_mu) ** 2)
            + np.sum(math.log(2.0) - half_log_2pi - math.log(s_sig)
                     - 0.5 * (scales / s_sig) ** 2 + ls)
            + np.sum(-half_log_2pi - np.log(s_fixed) - 0.5 * (beta / s_fixed) ** 2)
            + math.log(2.0) - half_log_2pi - math.log(s_res)
            - 0.5 * var / s_res ** 2 + ls_res)

    w = resid / var                     # d logp / d eta, per worker
    per_group = []
    for of, size, weight in ((g_of, lay.G, w), (g_of, lay.G, f * w),
                             (j_of, lay.J, w), (j_of, lay.J, f * w)):
        total = np.zeros(size)
        np.add.at(total, of, weight)
        per_group.append(total)
    grad = np.empty(lay.dim)
    for k, block in enumerate(lay.random_effects()):
        grad[block] = scales[k] * per_group[k] - z[k]
    grad[lay.hyper_mu] = np.array([t.sum() for t in per_group]) - mu / s_mu ** 2
    grad[lay.hyper_log_sigma] = (scales * np.array([t @ zk for t, zk in zip(per_group, z)])
                                 + 1.0 - (scales / s_sig) ** 2)
    grad[lay.fixed] = X.T @ w - beta / s_fixed ** 2
    grad[lay.log_sigma_resid] = -wf.n + np.sum(resid ** 2) / var + 1.0 - var / s_res ** 2
    return float(logp), grad


def assert_matches_per_worker(model, v, rel):
    lp, grad = model.logp_and_grad(v)
    lp_ref, grad_ref = per_worker_logp_and_grad(v, model)
    assert lp == pytest.approx(lp_ref, rel=rel, abs=0.0)
    assert np.max(np.abs(grad - grad_ref)) <= rel * np.max(np.abs(grad_ref))


def test_cell_density_matches_per_worker_oracle_on_tiny_fixture(tiny_model):
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = state_at_prior_scale(tiny_model.layout, tiny_model.spec, rng)
        assert_matches_per_worker(tiny_model, v, 1e-12)


def test_cell_density_exact_when_jobs_do_not_nest():
    # job0|geo0 has workers under two GJS-geos (E3 and E4)
    rng = np.random.default_rng(12)
    rows = [make_record(i, gjs=gjs, job=job, geo=geo, female=bool(fem),
                        recent_perf=float(rng.standard_normal()),
                        past_perf=float(rng.standard_normal()),
                        time_in_job=float(rng.exponential(3.0)),
                        salary=float(np.exp(11.0 + 0.3 * rng.standard_normal())))
            for i, (gjs, job, geo, fem) in enumerate([
                ("E3", "job0", "geo0", 0), ("E3", "job0", "geo0", 1),
                ("E4", "job0", "geo0", 0), ("E4", "job0", "geo0", 1),
                ("E4", "job0", "geo0", 1), ("E3", "job1", "geo0", 0),
                ("E3", "job1", "geo0", 1), ("E4", "job2", "geo1", 0),
                ("E3", "job2", "geo1", 1), ("E4", "job2", "geo1", 0)])]
    wf = workforce(rows)
    pairs = set(zip(wf.index.j_of.tolist(), wf.index.g_of.tolist()))
    assert len(pairs) > wf.index.n_job_geo          # some job-geo sits under two GJS-geos
    model = HierarchicalModel(wf, ModelSpec())
    assert model.cells.n.size == len(set(zip(wf.index.g_of.tolist(), wf.index.j_of.tolist(),
                                             wf.female.tolist())))
    for _ in range(10):
        assert_matches_per_worker(model, state_at_prior_scale(model.layout, model.spec, rng),
                                  1e-12)


def test_cell_density_with_single_gender_groups_and_one_worker_cells():
    rng = np.random.default_rng(13)
    layout = [("job0", 1), ("job0", 1), ("job0", 1),     # all-female group
              ("job1", 0),                               # one man alone
              ("job2", 1), ("job2", 0),                  # one worker per cell
              ("job3", 0), ("job3", 0)]                  # all-male group
    rows = [make_record(i, job=job, female=bool(fem),
                        recent_perf=float(rng.standard_normal()),
                        past_perf=float(rng.standard_normal()),
                        time_in_job=float(rng.exponential(3.0)),
                        salary=float(np.exp(11.0 + 0.3 * rng.standard_normal())))
            for i, (job, fem) in enumerate(layout)]
    model = HierarchicalModel(workforce(rows), ModelSpec())
    assert sorted(model.cells.n.tolist()) == [1, 1, 1, 2, 3]
    for _ in range(10):
        assert_matches_per_worker(model, state_at_prior_scale(model.layout, model.spec, rng),
                                  1e-12)


def test_cell_density_survives_a_high_salary_level_and_a_tiny_residual_scale():
    # Log salaries near 22.5 with residuals near 1e-3, evaluated at the
    # generating values: raw (uncentered) sums of squares would lose
    # about eight digits to cancellation here.
    wf, truth = generate_synthetic(SynthConfig(
        n_geos=2, n_gjs=2, n_jobs=4, group_size_law=GroupSizeLaw(exponent=0.0, max_size=8),
        residual_scale=1e-3, seed=14))
    shifted = Workforce.from_columns(wf.worker_id, wf.geo, wf.gjs, wf.job, wf.female,
                                     wf.recent, wf.past, wf.tenure, wf.salary,
                                     log_salary=wf.log_salary + 12.0)
    model = HierarchicalModel(shifted, ModelSpec())
    lay, index = model.layout, shifted.index
    # unit scales and zero means, so each z block holds natural effects
    v = np.zeros(lay.dim)
    g_labels = [index.gjs_geo_label(g) for g in range(lay.G)]
    j_labels = [index.job_geo_label(j) for j in range(lay.J)]
    v[lay.z_intercept_g] = [truth[f"beta0_g[{g}]"] + 12.0 for g in g_labels]
    v[lay.z_slope_g] = [truth[f"beta1_g[{g}]"] for g in g_labels]
    v[lay.z_intercept_j] = [truth[f"beta0_j[{j}]"] for j in j_labels]
    v[lay.z_slope_j] = [truth[f"beta1_j[{j}]"] for j in j_labels]
    v[lay.fixed] = [truth["beta2"], truth["beta3"], truth["beta4"]]
    rng = np.random.default_rng(15)
    for k in range(5):
        v[lay.log_sigma_resid] = math.log(1e-3) + 0.1 * k
        state = v + 1e-4 * k * rng.standard_normal(lay.dim)
        assert_matches_per_worker(model, state, 1e-9)


def test_prior_dominates_far_from_origin(tiny_model):
    # pushing any z coordinate out by 10 then 100 must keep dropping
    # the density roughly quadratically
    v0 = np.zeros(tiny_model.layout.dim)
    lp0 = tiny_model.log_posterior(v0)
    v10 = v0.copy(); v10[0] = 10.0
    v100 = v0.copy(); v100[0] = 100.0
    lp10 = tiny_model.log_posterior(v10)
    lp100 = tiny_model.log_posterior(v100)
    assert lp10 < lp0
    assert lp100 < lp10
    drop_10 = lp0 - lp10
    drop_100 = lp0 - lp100
    assert drop_100 / drop_10 > 50.0  # ~quadratic growth in the tail


def test_overflow_attributed_to_offending_block(tiny_model):
    v = np.zeros(tiny_model.layout.dim)
    v[tiny_model.layout.hyper_log_sigma][:] = [800.0, 0.0, 0.0, 0.0]
    # direct write through a slice view
    v[tiny_model.layout.hyper_log_sigma.start] = 800.0
    with pytest.raises(NumericOverflowError) as exc:
        tiny_model.log_posterior(v)
    assert exc.value.block == "hyper_log_sigma"


def test_nonfinite_state_rejected(tiny_model):
    v = np.zeros(tiny_model.layout.dim)
    v[0] = np.nan
    with pytest.raises((NumericOverflowError, ContractViolation)):
        tiny_model.log_posterior(v)
    lp, g = tiny_model.logp_and_grad(v)
    assert lp == -math.inf
    assert np.all(g == 0.0)


def natural_by_hand(v, G, J):
    """Natural-scale blocks reconstructed from the raw vector by offset."""
    z0g = v[:G]; z1g = v[G:2*G]; z0j = v[2*G:2*G+J]; z1j = v[2*G+J:2*G+2*J]
    mu = v[2*G+2*J:2*G+2*J+4]
    ls = v[2*G+2*J+4:2*G+2*J+8]
    return {
        "beta0_g": mu[0] + np.exp(ls[0]) * z0g,
        "beta1_g": mu[1] + np.exp(ls[1]) * z1g,
        "beta0_j": mu[2] + np.exp(ls[2]) * z0j,
        "beta1_j": mu[3] + np.exp(ls[3]) * z1j,
        "sigma0_g": math.exp(ls[0]),
        "beta2": v[2*G+2*J+8],
        "sigma_resid": math.exp(v[-1]),
    }


def test_to_natural_independent_reconstruction(tiny_model):
    layout = tiny_model.layout
    rng = np.random.default_rng(5)
    v = rng.standard_normal(layout.dim)
    nat = tiny_model.to_natural_matrix(v[None, :])[0]
    G, J = layout.G, layout.J
    hand = natural_by_hand(v, G, J)
    np.testing.assert_allclose(nat[:G], hand["beta0_g"])
    np.testing.assert_allclose(nat[G:2*G], hand["beta1_g"])
    np.testing.assert_allclose(nat[2*G:2*G+J], hand["beta0_j"])
    np.testing.assert_allclose(nat[2*G+J:2*G+2*J], hand["beta1_j"])
    assert nat[2*G+2*J+4] == pytest.approx(hand["sigma0_g"])
    assert nat[-1] == pytest.approx(hand["sigma_resid"])
    assert nat[2*G+2*J+8] == pytest.approx(hand["beta2"])


def test_to_natural_matrix_matches_scalar_path(tiny_model):
    rng = np.random.default_rng(6)
    draws = rng.standard_normal((8, tiny_model.layout.dim))
    mat = tiny_model.to_natural_matrix(draws)
    names = natural_param_names(tiny_model.index)
    assert mat.shape == (8, len(names))
    for row in range(8):
        G, J = tiny_model.layout.G, tiny_model.layout.J
        hand = natural_by_hand(draws[row], G, J)
        np.testing.assert_allclose(mat[row, :G], hand["beta0_g"])
        np.testing.assert_allclose(mat[row, 2*G:2*G+J], hand["beta0_j"])
        assert mat[row, names.index("sigma_resid")] == pytest.approx(hand["sigma_resid"])


def test_natural_param_names_layout():
    records, index = tiny_fixture()
    names = natural_param_names(index)
    G, J = index.n_gjs_geo, index.n_job_geo
    assert len(names) == 2 * G + 2 * J + 12
    assert names[0].startswith("beta0_g[")
    assert names[G].startswith("beta1_g[")
    assert names[-1] == "sigma_resid"
    assert names[-4:-1] == ["beta2", "beta3", "beta4"]
    assert len(set(names)) == len(names)


def test_layout_dimension_bookkeeping():
    records, index = tiny_fixture()
    layout = build_layout(index)
    counts = layout.count_breakdown()
    assert counts["total"] == layout.dim
    slices = layout.block_slices()
    covered = sorted(
        i for s in slices.values() for i in range(s.start, s.stop))
    assert covered == list(range(layout.dim))


def test_model_spec_file_roundtrip(tmp_path):
    spec = ModelSpec(hyperprior_mu_scale=2.5,
                     fixed_effect_prior_scales=(0.5, 0.4, 0.01))
    path = tmp_path / "model.cfg"
    spec.to_file(path)
    again = ModelSpec.from_file(path)
    assert again == spec
    path2 = tmp_path / "bad.cfg"
    path2.write_text("hyperprior_mu_scale=1.0\nmystery_knob=3\n")
    with pytest.raises(ConfigError):
        ModelSpec.from_file(path2)


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(hyperprior_mu_scale=0.0).validate()
    with pytest.raises(ConfigError):
        ModelSpec(fixed_effect_prior_scales=(1.0, -1.0, 0.001)).validate()


def test_mismatched_index_rejected():
    # columns of different lengths cannot make a Workforce, so a model
    # can never see an index that disagrees with its data
    records, _ = tiny_fixture()
    with pytest.raises(ContractViolation):
        Workforce.from_columns(records.worker_id, records.geo, records.gjs, records.job,
                               records.female, records.recent, records.past,
                               records.tenure, records.salary[:-1])
