import json
import math

import numpy as np
import pytest

from payequity.errors import (ConfigError, ContractViolation, IntegrityError)
from payequity.hmc import (ChainState, DualAveraging, PosteriorDraws,
                           SamplerConfig, AcceptStats, _window_boundaries,
                           adapt_warmup, find_initial_step, hmc_transition,
                           leapfrog, run_chains)
from payequity.model import ModelSpec
from payequity.synthetic import GroupSizeLaw, SynthConfig, generate_synthetic


class GaussianTarget:
    """Multivariate normal stand-in for the model interface."""

    def __init__(self, cov):
        self.cov = np.asarray(cov, dtype=float)
        self.prec = np.linalg.inv(self.cov)
        self.dim = self.cov.shape[0]

    def logp_and_grad(self, v):
        g = -self.prec @ v
        return 0.5 * float(v @ g), g


def fresh_chain(dim, seed=0, step=0.25, inv_mass=None):
    return ChainState(
        position=np.zeros(dim),
        step_size=step,
        inv_mass_diag=np.ones(dim) if inv_mass is None else np.asarray(inv_mass, float),
        rng=np.random.Generator(np.random.Philox(key=seed)),
        logp=0.0,
        accept_stats=AcceptStats(),
    )


# ----------------------------------------------------------------- leapfrog

def test_leapfrog_free_particle_moves_linearly():
    # zero gradient: q advances by eps * n * p, momentum unchanged
    q0 = np.array([1.0, -2.0])
    p0 = np.array([0.5, 2.0])
    q, p, logp, diverged = leapfrog(q0, p0, 0.1, 10, lambda q: (0.0, np.zeros_like(q)))
    assert not diverged and logp == 0.0
    np.testing.assert_allclose(q, q0 + 1.0 * p0, atol=1e-12)
    np.testing.assert_allclose(p, p0, atol=1e-12)


def test_leapfrog_is_reversible():
    target = GaussianTarget([[1.0, 0.7], [0.7, 2.0]])
    rng = np.random.default_rng(3)
    q0 = rng.standard_normal(2)
    p0 = rng.standard_normal(2)
    q1, p1, _, d1 = leapfrog(q0, p0, 0.15, 25, target.logp_and_grad)
    q2, p2, _, d2 = leapfrog(q1, -p1, 0.15, 25, target.logp_and_grad)
    assert not (d1 or d2)
    np.testing.assert_allclose(q2, q0, atol=1e-8)
    np.testing.assert_allclose(-p2, p0, atol=1e-8)


def test_leapfrog_energy_error_is_second_order():
    # halving the step size should cut the energy error by about 4x
    target = GaussianTarget([[1.0, 0.0], [0.0, 1.0]])
    q0 = np.array([1.3, -0.4])
    p0 = np.array([0.6, 1.1])

    def energy_err(eps, n):
        q, p, _, _ = leapfrog(q0, p0, eps, n, target.logp_and_grad)
        h = lambda qq, pp: -target.logp_and_grad(qq)[0] + 0.5 * pp @ pp
        return abs(h(q, p) - h(q0, p0))

    e_coarse = energy_err(0.2, 50)     # total time 10
    e_fine = energy_err(0.1, 100)      # same total time
    ratio = e_coarse / e_fine
    assert 2.5 < ratio < 6.5


def test_leapfrog_flags_nonfinite_as_divergent():
    # gradient that explodes off the cliff at |q| > 2
    def logp_and_grad(q):
        if np.any(np.abs(q) > 2.0):
            return -math.inf, np.array([np.nan])
        return -5e5 * float(q @ q), -q * 1e6
    q, p, logp, diverged = leapfrog(np.array([1.0]), np.array([10.0]), 5.0, 8, logp_and_grad)
    assert diverged and logp == -math.inf


def test_leapfrog_rejects_bad_args():
    with pytest.raises(ContractViolation):
        leapfrog(np.zeros(1), np.zeros(1), 0.0, 5, lambda q: (0.0, q))
    with pytest.raises(ContractViolation):
        leapfrog(np.zeros(1), np.zeros(1), 0.1, 0, lambda q: (0.0, q))


# --------------------------------------------------------------- transition

def test_tiny_step_accepts_nearly_always():
    target = GaussianTarget(np.eye(3))
    chain = fresh_chain(3, seed=1, step=1e-4)
    chain.logp = target.logp_and_grad(chain.position)[0]
    for _ in range(50):
        hmc_transition(chain, target, 8)
    assert chain.accept_stats.mean_accept > 0.999
    assert chain.accept_stats.divergences == 0


def test_transition_is_deterministic_given_rng_state():
    target = GaussianTarget([[1.0, 0.5], [0.5, 1.0]])
    a = fresh_chain(2, seed=42)
    b = fresh_chain(2, seed=42)
    for chain in (a, b):
        chain.logp = target.logp_and_grad(chain.position)[0]
        for _ in range(20):
            hmc_transition(chain, target, 16)
    np.testing.assert_array_equal(a.position, b.position)
    assert a.logp == b.logp
    assert a.accept_stats.divergences == b.accept_stats.divergences


def test_divergent_transition_rejected_and_counted():
    # enormous step on a stiff target explodes immediately
    target = GaussianTarget([[1e-8]])
    chain = fresh_chain(1, seed=2, step=100.0)
    chain.logp = target.logp_and_grad(chain.position)[0]
    start = chain.position.copy()
    for _ in range(5):
        hmc_transition(chain, target, 4)
    assert chain.accept_stats.divergences == 5
    np.testing.assert_array_equal(chain.position, start)


class CountingTarget(GaussianTarget):
    """GaussianTarget that counts its density evaluations."""

    def __init__(self, cov):
        super().__init__(cov)
        self.calls = 0

    def logp_and_grad(self, v):
        self.calls += 1
        return super().logp_and_grad(v)


def test_transition_evaluates_once_per_step_plus_start_gradient():
    # the chain's generator draws the step jitter first, so a twin
    # generator with the same key gives the step count of each transition
    target = CountingTarget([[1.0, 0.3], [0.3, 0.5]])
    for seed, n_steps in ((4, 1), (5, 2), (6, 8), (7, 16)):
        chain = fresh_chain(2, seed=seed, step=0.05)
        chain.logp = target.logp_and_grad(chain.position)[0]
        twin = np.random.Generator(np.random.Philox(key=seed))
        steps = max(1, int(round(n_steps * twin.uniform(0.8, 1.2))))
        target.calls = 0
        hmc_transition(chain, target, n_steps)
        assert chain.accept_stats.divergences == 0
        assert target.calls == steps + 1


def test_accepted_state_logp_equals_fresh_evaluation():
    target = GaussianTarget([[1.0, 0.6], [0.6, 2.0]])
    chain = fresh_chain(2, seed=8, step=0.2)
    chain.logp = target.logp_and_grad(chain.position)[0]
    moved = 0
    for _ in range(20):
        before = chain.position
        hmc_transition(chain, target, 8)
        if chain.position is not before:
            moved += 1
            assert chain.logp == target.logp_and_grad(chain.position)[0]
    assert moved > 10


def test_gaussian_moments_recovered():
    cov = np.array([[1.0, 0.8], [0.8, 2.0]])
    target = GaussianTarget(cov)
    chain = fresh_chain(2, seed=7, step=0.4)
    chain.logp = target.logp_and_grad(chain.position)[0]
    draws = np.empty((4000, 2))
    for i in range(4000):
        hmc_transition(chain, target, 16)
        draws[i] = chain.position
    sample_cov = np.cov(draws[500:].T)
    np.testing.assert_allclose(sample_cov, cov, atol=0.35)
    np.testing.assert_allclose(draws[500:].mean(axis=0), [0.0, 0.0], atol=0.15)


# --------------------------------------------------------------- adaptation

def test_dual_averaging_converges_toward_target():
    # toy model: acceptance falls linearly in log step size
    da = DualAveraging(initial_step=1.0, target_accept=0.8)
    step = 1.0
    for _ in range(300):
        accept = min(1.0, max(0.0, 0.5 - 1.2 * math.log(step)))
        step = da.update(accept)
    final_accept = min(1.0, max(0.0, 0.5 - 1.2 * math.log(da.frozen_step)))
    assert abs(final_accept - 0.8) < 0.05


def test_find_initial_step_scales_with_target_width():
    rng = np.random.Generator(np.random.Philox(key=5))
    wide = GaussianTarget([[100.0]])
    narrow = GaussianTarget([[0.01]])
    ones = np.ones(1)
    eps_wide = find_initial_step(wide, np.array([0.0]), ones, rng)
    rng2 = np.random.Generator(np.random.Philox(key=5))
    eps_narrow = find_initial_step(narrow, np.array([0.0]), ones, rng2)
    assert eps_wide > eps_narrow


def test_adapt_warmup_learns_scales_and_step():
    # axis scales 1 and 10 -> inverse mass should spread by about 100x
    target = GaussianTarget(np.diag([1.0, 100.0]))
    chain = fresh_chain(2, seed=11, step=0.5)
    chain.logp = target.logp_and_grad(chain.position)[0]
    adapt_warmup(chain, target, 600, leapfrog_steps=16, target_accept=0.8)
    ratio = chain.inv_mass_diag[1] / chain.inv_mass_diag[0]
    assert 100.0 / 3.0 < ratio < 100.0 * 3.0
    # post-warmup acceptance should settle near the target
    for _ in range(300):
        hmc_transition(chain, target, 16)
    assert abs(chain.accept_stats.mean_accept - 0.8) < 0.12


def test_window_boundaries_shapes():
    bounds, init, term = _window_boundaries(1000)
    assert all(b <= 1000 - term for b in bounds)
    assert bounds == sorted(bounds)
    assert len(bounds) >= 1
    # tiny warmup falls back to a single window
    bounds_small, init_small, term_small = _window_boundaries(60)
    assert len(bounds_small) == 1
    assert init_small + term_small < 60


# ------------------------------------------------------------- full driver

def small_workforce(seed=9):
    cfg = SynthConfig(n_geos=1, n_gjs=2, n_jobs=4,
                      group_size_law=GroupSizeLaw(exponent=0.0, max_size=8),
                      residual_scale=0.25, seed=seed)
    records, _ = generate_synthetic(cfg)
    return records, records.index


@pytest.fixture(scope="module")
def small_run():
    records, index = small_workforce()
    config = SamplerConfig(n_chains=2, n_warmup=150, n_samples=100,
                           leapfrog_steps=16, base_seed=123)
    draws = run_chains(records, ModelSpec(), config,
                       data_digest="abc123")
    return records, index, config, draws


def test_run_chains_shapes_and_metadata(small_run):
    records, index, config, draws = small_run
    dim = 2 * index.n_gjs_geo + 2 * index.n_job_geo + 12
    assert len(draws.chains) == 2
    for c in draws.chains:
        assert c.shape == (100, dim)
        assert np.all(np.isfinite(c))
    assert draws.pooled().shape == (200, dim)
    assert len(draws.param_names) == dim
    assert draws.data_digest == "abc123"
    assert len(draws.accept_rates) == 2
    # sigma columns are positive on the natural scale
    for name in ("sigma0_g", "sigma1_j", "sigma_resid"):
        assert all((col > 0).all() for col in draws.column(name))


def test_run_chains_deterministic(small_run):
    records, index, config, draws = small_run
    again = run_chains(records, ModelSpec(), config,
                       data_digest="abc123")
    for a, b in zip(draws.chains, again.chains):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(draws.logps[0], again.logps[0])


def test_run_chains_seed_changes_output(small_run):
    records, index, config, draws = small_run
    other = run_chains(records, ModelSpec(),
                       SamplerConfig(n_chains=2, n_warmup=150, n_samples=100,
                                     leapfrog_steps=16, base_seed=124))
    assert not np.array_equal(draws.chains[0], other.chains[0])


def test_save_load_roundtrip(small_run, tmp_path):
    records, index, config, draws = small_run
    out = tmp_path / "draws"
    draws.save(out)
    again = PosteriorDraws.load(out)
    for a, b in zip(draws.chains, again.chains):
        np.testing.assert_array_equal(a, b)
    assert again.param_names == draws.param_names
    assert again.data_digest == draws.data_digest
    assert again.divergences == draws.divergences


def test_load_detects_corruption(small_run, tmp_path):
    records, index, config, draws = small_run
    out = tmp_path / "draws"
    draws.save(out)
    victim = out / "draws_chain00.npy"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError):
        PosteriorDraws.load(out)


def test_load_rejects_metadata_that_disagrees_with_the_files(small_run, tmp_path):
    records, index, config, draws = small_run
    out = tmp_path / "draws"
    draws.save(out)
    meta = json.loads((out / "metadata.json").read_text())
    meta["config"]["n_samples"] = 99        # the files hold 100 draws per chain
    (out / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(IntegrityError, match="draws_chain00.npy does not hold"):
        PosteriorDraws.load(out)


def test_load_gives_one_array_with_chains_as_row_views(small_run, tmp_path):
    records, index, config, draws = small_run
    draws.save(tmp_path / "draws")
    again = PosteriorDraws.load(tmp_path / "draws")
    pooled = again.pooled()
    np.testing.assert_array_equal(pooled, np.vstack(draws.chains))
    assert pooled is again.pooled()
    assert all(np.shares_memory(c, pooled) for c in again.chains)


def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(n_warmup=10).validate()
    with pytest.raises(ConfigError):
        SamplerConfig(n_chains=0).validate()
    with pytest.raises(ConfigError):
        SamplerConfig(target_accept=1.5).validate()
    with pytest.raises(ConfigError):
        SamplerConfig(leapfrog_steps=0).validate()


def test_sampler_config_file_roundtrip(tmp_path):
    cfg = SamplerConfig(n_chains=3, n_warmup=250, n_samples=500,
                        leapfrog_steps=48, target_accept=0.85, base_seed=9)
    path = tmp_path / "sampler.cfg"
    with open(path, "w") as fh:
        fh.write("n_chains=3\nn_warmup=250\nn_samples=500\n"
                 "leapfrog_steps=48\ntarget_accept=0.85\nbase_seed=9\n")
    assert SamplerConfig.from_file(path) == cfg
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_chains=2\nturbo=yes\n")
    with pytest.raises(ConfigError):
        SamplerConfig.from_file(bad)
