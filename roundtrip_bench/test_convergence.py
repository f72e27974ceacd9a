"""The benchmark's R-hat and bulk ESS against closed forms.

    python3 -m pytest roundtrip_bench
"""

import numpy as np

import convergence

CHAINS, DRAWS, PARAMS = 4, 2000, 40


def ar1(rho, rng, shape=(CHAINS, DRAWS, PARAMS)):
    """Stationary AR(1) chains with unit innovations."""
    e = rng.standard_normal(shape)
    x = np.empty(shape)
    x[:, 0] = e[:, 0] / np.sqrt(1.0 - rho ** 2)
    for t in range(1, shape[1]):
        x[:, t] = rho * x[:, t - 1] + e[:, t]
    return x


def test_iid_normal_draws_give_ess_near_n():
    d = convergence.diagnose(np.random.default_rng(0).standard_normal((CHAINS, DRAWS, PARAMS)))
    n = CHAINS * DRAWS
    assert abs(d.ess_bulk.mean() / n - 1.0) < 0.05
    assert np.all(np.abs(d.ess_bulk / n - 1.0) < 0.25)
    assert np.all(d.rhat < 1.01)
    assert d.converged(CHAINS)


def test_ar1_draws_give_ess_near_n_times_1_minus_rho_over_1_plus_rho():
    rng = np.random.default_rng(1)
    for rho in (0.5, 0.9):
        d = convergence.diagnose(ar1(rho, rng))
        expected = CHAINS * DRAWS * (1.0 - rho) / (1.0 + rho)
        assert abs(d.ess_bulk.mean() / expected - 1.0) < 0.1, rho


def test_two_shifted_chains_give_rhat_far_above_one():
    x = np.random.default_rng(2).standard_normal((2, DRAWS, PARAMS))
    x[1] += 5.0
    d = convergence.diagnose(x)
    assert np.all(d.rhat > 1.5)
    assert np.all(d.rhat_bulk > 1.5)
    assert np.all(d.ess_bulk < 10.0)
    assert not d.converged(2)


def test_chains_differing_only_in_scale_are_caught_by_the_tail_rhat():
    x = np.random.default_rng(3).standard_normal((2, DRAWS, PARAMS))
    x[1] *= 4.0
    d = convergence.diagnose(x)
    assert np.all(d.rhat_bulk < 1.05)
    assert np.all(d.rhat > 1.1)


def test_a_parameter_that_never_moves_is_not_converged():
    x = np.random.default_rng(4).standard_normal((CHAINS, DRAWS, 3))
    x[:, :, 1] = 0.5
    d = convergence.diagnose(x)
    assert np.isinf(d.rhat[1]) and d.ess_bulk[1] == 0.0
    assert not d.converged(CHAINS)
