"""Hamiltonian Monte Carlo with warmup adaptation.

Static-path HMC: diagonal mass matrix, leapfrog integration with a
uniformly jittered step count (+/-20%), Metropolis correction, dual
averaging of the step size toward a target acceptance rate, and
expanding memoryless windows for mass estimation (step-size-only
buffers at both ends of warmup).

Any object exposing ``logp_and_grad(v) -> (logp, grad)`` can be
sampled; non-finite values are treated as divergences and rejected,
never raised.  Chains derive their generators from base_seed XOR
chain index on a counter-based bit stream, so runs are reproducible
regardless of execution order.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .errors import AdaptationError, ConfigError, ContractViolation, IntegrityError, SamplerRunError
from .kvconfig import parse_float, parse_int, read_kv

DIVERGENCE_ENERGY = 1000.0


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int = 2
    n_warmup: int = 1000
    n_samples: int = 3000
    leapfrog_steps: int = 32
    target_accept: float = 0.8
    base_seed: int = 0

    def validate(self) -> None:
        if self.n_chains < 1:
            raise ConfigError("n_chains must be >= 1")
        if self.n_warmup < 20:
            raise ConfigError("n_warmup must be >= 20 for adaptation")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.leapfrog_steps < 1:
            raise ConfigError("leapfrog_steps must be >= 1")
        if not (0.0 < self.target_accept < 1.0):
            raise ConfigError("target_accept must be in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_file(cls, path: str | Path) -> "SamplerConfig":
        raw = read_kv(path)
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(raw) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown sampler config keys: {', '.join(unknown)}")
        kwargs = {}
        for key, default in defaults.items():
            if key not in raw:
                continue
            if isinstance(default, int):
                kwargs[key] = parse_int(raw[key], key)
            else:
                kwargs[key] = parse_float(raw[key], key)
        config = cls(**kwargs)
        config.validate()
        return config


@dataclass
class AcceptStats:
    n: int = 0
    accept_sum: float = 0.0
    divergences: int = 0

    @property
    def mean_accept(self) -> float:
        return self.accept_sum / self.n if self.n else 0.0


@dataclass
class ChainState:
    position: np.ndarray
    step_size: float
    inv_mass_diag: np.ndarray
    rng: np.random.Generator
    logp: float = -math.inf
    iteration: int = 0
    last_accept_prob: float = 0.0
    accept_stats: AcceptStats = field(default_factory=AcceptStats)


def leapfrog(position, momentum, step_size, n_steps, logp_and_grad, inv_mass_diag=None):
    """Leapfrog integration under kinetic energy 0.5 * p' M^-1 p.

    logp_and_grad(q) returns (log density, gradient) at q.  Returns
    (position', momentum', logp', diverged), where logp' is the log
    density at position', from the evaluation that gave its gradient.
    A non-finite position or gradient anywhere along the trajectory
    sets diverged and stops integrating; the partial state is returned
    for the caller to reject, with logp' = -inf.
    """
    if step_size <= 0.0 or n_steps < 1:
        raise ContractViolation("leapfrog needs step_size > 0 and n_steps >= 1")
    q = np.array(position, dtype=float)
    p = np.array(momentum, dtype=float)
    inv_m = np.ones_like(q) if inv_mass_diag is None else np.asarray(inv_mass_diag, dtype=float)

    with np.errstate(over="ignore", invalid="ignore"):
        _, g = logp_and_grad(q)
        if not np.all(np.isfinite(g)):
            return q, p, -math.inf, True
        p = p + 0.5 * step_size * g
        for step in range(n_steps):
            q = q + step_size * inv_m * p
            if not np.all(np.isfinite(q)):
                return q, p, -math.inf, True
            logp, g = logp_and_grad(q)
            if not np.all(np.isfinite(g)):
                return q, p, -math.inf, True
            if step < n_steps - 1:
                p = p + step_size * g
                if not np.all(np.isfinite(p)):
                    return q, p, -math.inf, True
        p = p + 0.5 * step_size * g
    return q, p, logp, False


def _kinetic(p: np.ndarray, inv_mass_diag: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * float(np.dot(p * p, inv_mass_diag))


def hmc_transition(state: ChainState, model, n_steps: int) -> ChainState:
    """One Metropolis-corrected HMC transition, mutating state in place.

    Draw order on the chain RNG is fixed (jitter, momentum, accept
    uniform) so runs are bitwise reproducible.  Divergent trajectories
    (non-finite state or energy error beyond DIVERGENCE_ENERGY) are
    always rejected and counted.
    """
    rng = state.rng
    jitter = rng.uniform(0.8, 1.2)
    steps = max(1, int(round(n_steps * jitter)))
    sd = 1.0 / np.sqrt(state.inv_mass_diag)
    p0 = rng.standard_normal(state.position.shape[0]) * sd
    u = rng.random()

    h0 = -state.logp + _kinetic(p0, state.inv_mass_diag)
    q1, p1, logp1, diverged = leapfrog(
        state.position, p0, state.step_size, steps, model.logp_and_grad, state.inv_mass_diag)

    accept_prob = 0.0
    if not diverged:
        h1 = -logp1 + _kinetic(p1, state.inv_mass_diag)
        delta_h = h1 - h0
        if not math.isfinite(delta_h) or delta_h > DIVERGENCE_ENERGY:
            diverged = True
        else:
            accept_prob = 1.0 if delta_h <= 0.0 else math.exp(-delta_h)
            if u < accept_prob:
                state.position = q1
                state.logp = logp1

    state.last_accept_prob = accept_prob
    state.iteration += 1
    state.accept_stats.n += 1
    state.accept_stats.accept_sum += accept_prob
    state.accept_stats.divergences += int(diverged)
    return state


class DualAveraging:
    """Step-size adaptation toward a target acceptance statistic."""

    def __init__(self, initial_step: float, target_accept: float,
                 gamma: float = 0.05, t0: float = 10.0, kappa: float = 0.75):
        self.mu = math.log(10.0 * initial_step)
        self.target = target_accept
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.t = 0
        self.h_sum = 0.0
        self.log_step = math.log(initial_step)
        self.log_step_avg = math.log(initial_step)

    def update(self, accept_prob: float) -> float:
        self.t += 1
        eta = 1.0 / (self.t + self.t0)
        self.h_sum = (1.0 - eta) * self.h_sum + eta * (self.target - accept_prob)
        self.log_step = self.mu - math.sqrt(self.t) / self.gamma * self.h_sum
        w = self.t ** (-self.kappa)
        self.log_step_avg = w * self.log_step + (1.0 - w) * self.log_step_avg
        return math.exp(self.log_step)

    @property
    def frozen_step(self) -> float:
        return math.exp(self.log_step_avg)


def find_initial_step(model, position, inv_mass_diag, rng, initial: float = 1.0):
    """Double or halve the step until one leapfrog step's acceptance
    crosses 0.5, reusing a single momentum draw for every probe."""
    dim = position.shape[0]
    sd = 1.0 / np.sqrt(inv_mass_diag)
    p0 = rng.standard_normal(dim) * sd
    logp0, _ = model.logp_and_grad(position)
    if not math.isfinite(logp0):
        raise AdaptationError("cannot initialize step size from a non-finite state")
    h0 = -logp0 + _kinetic(p0, inv_mass_diag)

    def energy_error(eps: float) -> float:
        _, p1, logp1, diverged = leapfrog(
            position, p0, eps, 1, model.logp_and_grad, inv_mass_diag)
        if diverged or not math.isfinite(logp1):
            return math.inf
        return (-logp1 + _kinetic(p1, inv_mass_diag)) - h0

    log_half = math.log(0.5)
    eps = initial
    err = energy_error(eps)
    direction = 1.0 if -err > log_half else -1.0
    for _ in range(100):
        accept_above_half = -err > log_half
        if direction > 0 and not accept_above_half:
            break
        if direction < 0 and accept_above_half:
            break
        eps *= 2.0 ** direction
        if eps < 1e-12:
            raise AdaptationError("initial step size collapsed below 1e-12")
        if eps > 1e7:
            break
        err = energy_error(eps)
    return eps


def _window_boundaries(n_warmup: int, init: int = 75, term: int = 50, base: int = 25):
    """Iteration counts (1-based) at which the mass matrix is rebuilt,
    plus the init/term buffer widths actually used.

    The terminal buffer grows with n_warmup so the step size always
    gets a decent stretch of adaptation against the final mass matrix.
    """
    term = max(term, n_warmup // 5)
    if n_warmup < init + term + base:
        init = max(1, int(0.15 * n_warmup))
        term = max(1, int(0.10 * n_warmup))
        if n_warmup - init - term < 2:
            return [], init, term
        return [n_warmup - term], init, term
    bounds = []
    pos = init
    width = base
    while True:
        end = pos + width
        if end + 2 * width > n_warmup - term:
            bounds.append(n_warmup - term)
            break
        bounds.append(end)
        pos = end
        width *= 2
    return bounds, init, term


def adapt_warmup(chain: ChainState, model, n_warmup: int,
                 leapfrog_steps: int = 32, target_accept: float = 0.8) -> ChainState:
    """Run n_warmup adaptation transitions on the chain.

    Step size dual-averages toward target_accept throughout; the
    diagonal inverse mass is re-estimated from the positions of each
    expanding window as the regularized sample variance, after which
    the window buffer is discarded and step-size adaptation restarts
    around a fresh probe.  The step size is frozen to the averaged
    iterate on exit.
    """
    if n_warmup < 20:
        raise ContractViolation("adaptation needs n_warmup >= 20")
    bounds, init_buffer, term_buffer = _window_boundaries(n_warmup)
    rebuild_at = set(bounds)
    mass_lo, mass_hi = init_buffer, n_warmup - term_buffer

    chain.step_size = find_initial_step(
        model, chain.position, chain.inv_mass_diag, chain.rng, initial=chain.step_size)
    averager = DualAveraging(chain.step_size, target_accept)
    window: list[np.ndarray] = []

    for it in range(1, n_warmup + 1):
        hmc_transition(chain, model, leapfrog_steps)
        chain.step_size = averager.update(chain.last_accept_prob)
        if chain.step_size < 1e-12:
            raise AdaptationError(f"step size collapsed below 1e-12 at warmup iteration {it}")
        if mass_lo < it <= mass_hi:
            window.append(chain.position.copy())
        if it in rebuild_at and len(window) >= 2:
            stack = np.vstack(window)
            n = stack.shape[0]
            var = np.var(stack, axis=0, ddof=1)
            # Shrink toward the previous per-coordinate estimate in log
            # space.  Additive shrinkage toward any absolute constant
            # misbehaves here because true coordinate variances span
            # six orders of magnitude: a near-zero target freezes
            # coordinates whose early windows underestimate their
            # spread, while a unit target leaves genuinely tiny-variance
            # coordinates (the tightly shrunk fixed effect) looking
            # mobile, and their inflated inverse mass throttles the
            # step size for the whole vector.  A multiplicative blend
            # respects scale and forgets the starting point within a
            # window or two.
            w = n / (n + 5.0)
            chain.inv_mass_diag = np.exp(
                w * np.log(np.maximum(var, 1e-300))
                + (1.0 - w) * np.log(chain.inv_mass_diag))
            window.clear()
            # keep the current step (the metric change is incremental)
            # and restart averaging around it; a fresh one-step probe
            # here tends to land far above the stable region for long
            # trajectories and the segment then opens with a rejection
            # storm it cannot average away
            averager = DualAveraging(chain.step_size, target_accept)

    chain.step_size = averager.frozen_step
    if chain.step_size < 1e-12:
        raise AdaptationError("adapted step size collapsed below 1e-12")
    return chain


class PosteriorDraws:
    """Natural-scale draws of every chain plus run metadata.

    draws: one (n_chains * n_samples, P) array, chain after chain, which
    is the only copy of the draws; chains are row views of it. logps:
    list of (n_samples,) arrays of unnormalized log-posterior values at
    each draw.
    """

    def __init__(self, draws, logps, param_names, config, seeds,
                 divergences, warmup_divergences, accept_rates,
                 duration_s, G, J, data_digest=None):
        self._draws = np.asarray(draws, dtype=float)
        self.logps = [np.asarray(l, dtype=float) for l in logps]
        self.param_names = list(param_names)
        self.config = config
        self.seeds = list(seeds)
        self.divergences = list(divergences)
        self.warmup_divergences = list(warmup_divergences)
        self.accept_rates = list(accept_rates)
        self.duration_s = duration_s
        self.G = G
        self.J = J
        self.data_digest = data_digest
        n = config.n_samples
        if self._draws.shape != (config.n_chains * n, len(self.param_names)):
            raise ContractViolation(
                f"draw matrix shape {self._draws.shape} does not match config/layout")
        if len(self.logps) != config.n_chains or any(l.shape != (n,) for l in self.logps):
            raise ContractViolation("logp vector shape mismatch")
        self.chains = [self._draws[c * n:(c + 1) * n] for c in range(config.n_chains)]

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def n_samples(self) -> int:
        return self.chains[0].shape[0]

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def pooled(self) -> np.ndarray:
        """All chains' draws as one (n_chains * n_samples, P) array, not a copy."""
        return self._draws

    def column(self, name: str) -> list[np.ndarray]:
        k = self.param_names.index(name)
        return [c[:, k] for c in self.chains]

    # -- persistence -------------------------------------------------------

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        file_digests = {}
        for c, (draws, logp) in enumerate(zip(self.chains, self.logps)):
            dname, lname = f"draws_chain{c:02d}.npy", f"logp_chain{c:02d}.npy"
            np.save(out / dname, draws)
            np.save(out / lname, logp)
            file_digests[dname] = _sha256_file(out / dname)
            file_digests[lname] = _sha256_file(out / lname)
        meta = {
            "param_names": self.param_names,
            "G": self.G,
            "J": self.J,
            "config": self.config.to_dict(),
            "seeds": self.seeds,
            "divergences": self.divergences,
            "warmup_divergences": self.warmup_divergences,
            "accept_rates": self.accept_rates,
            "duration_s": self.duration_s,
            "data_digest": self.data_digest,
            "file_digests": file_digests,
        }
        with open(out / "metadata.json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, in_dir: str | Path) -> "PosteriorDraws":
        """Read a draw directory, checking every file against its digest.

        A missing, unreadable or malformed metadata.json, or a draw file
        that does not match its recorded digest, raises IntegrityError.
        """
        src = Path(in_dir)
        meta_path = src / "metadata.json"
        if not meta_path.exists():
            raise IntegrityError(f"no metadata.json under {src}")
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            config = SamplerConfig(**meta["config"])
            n = config.n_samples
            draws = np.empty((config.n_chains * n, len(meta["param_names"])))
            logps = [np.empty(n) for _ in range(config.n_chains)]
            for c in range(config.n_chains):
                for kind, target in (("draws", draws[c * n:(c + 1) * n]), ("logp", logps[c])):
                    name = f"{kind}_chain{c:02d}.npy"
                    _read_npy_into(src / name, target, meta["file_digests"].get(name))
            return cls(
                draws=draws, logps=logps, param_names=meta["param_names"],
                config=config, seeds=meta["seeds"], divergences=meta["divergences"],
                warmup_divergences=meta["warmup_divergences"],
                accept_rates=meta["accept_rates"], duration_s=meta["duration_s"],
                G=meta["G"], J=meta["J"], data_digest=meta.get("data_digest"),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise IntegrityError(
                f"malformed metadata.json under {src}: {type(exc).__name__}: {exc}") from exc


def _read_npy_into(path: Path, out: np.ndarray, digest: str | None) -> None:
    """Read the .npy file at path into the C-contiguous array out.

    The file is read once: its bytes are hashed as they are read, and a
    digest other than the recorded one raises IntegrityError, as does a
    file that does not hold an array of out's shape and dtype.
    """
    if not path.exists():
        raise IntegrityError(f"missing draw file {path.name}")
    h = hashlib.sha256()
    filled = False
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                           (2, 0): np.lib.format.read_array_header_2_0}[version]
            header = read_header(fh)
        except (ValueError, KeyError):
            header = None
        header_end = fh.tell()
        fh.seek(0)
        h.update(fh.read(header_end))
        if header == (out.shape, False, out.dtype):
            view = memoryview(out).cast("B")
            filled = fh.readinto(view) == out.nbytes
            h.update(view)
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    found = h.hexdigest()
    if found != digest:
        raise IntegrityError(
            f"{path.name} digest {found[:12]}... does not match metadata")
    if not filled:
        raise IntegrityError(
            f"{path.name} does not hold a {out.shape} {out.dtype} array as metadata.json says")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_chains(wf, spec, config: SamplerConfig,
               data_digest: str | None = None, progress: bool = False) -> PosteriorDraws:
    """Sample the hierarchical model of Workforce wf with config.n_chains
    independent chains.

    Chains run sequentially here; each one's generator is Philox keyed
    by base_seed XOR chain index, so the result is identical to any
    parallel schedule.  Initial positions are Normal(0, sd=0.1) in the
    unconstrained space.  Only post-warmup draws are kept, transformed
    to natural scale.
    """
    from .model import HierarchicalModel, natural_param_names

    config.validate()
    model = HierarchicalModel(wf, spec)
    lay = model.layout
    names = natural_param_names(wf.index)
    t_start = time.monotonic()

    n = config.n_samples
    draws = np.empty((config.n_chains * n, len(names)))
    logps = []
    seeds, divergences, warmup_div, accept_rates = [], [], [], []
    for c in range(config.n_chains):
        seed = config.base_seed ^ c
        seeds.append(seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        position = None
        logp0 = -math.inf
        for _ in range(20):
            candidate = rng.normal(0.0, 0.1, lay.dim)
            lp, _ = model.logp_and_grad(candidate)
            if math.isfinite(lp):
                position, logp0 = candidate, lp
                break
        if position is None:
            raise SamplerRunError(f"chain {c}: no finite starting point in 20 tries")

        state = ChainState(
            position=position, step_size=1.0,
            inv_mass_diag=np.ones(lay.dim), rng=rng, logp=logp0)
        try:
            adapt_warmup(state, model, config.n_warmup,
                         leapfrog_steps=config.leapfrog_steps,
                         target_accept=config.target_accept)
        except AdaptationError as exc:
            raise SamplerRunError(f"chain {c}: {exc}") from exc
        warmup_div.append(state.accept_stats.divergences)
        state.accept_stats = AcceptStats()

        raw = np.empty((config.n_samples, lay.dim))
        lp_track = np.empty(config.n_samples)
        tick = max(1, config.n_samples // 10)
        for i in range(config.n_samples):
            hmc_transition(state, model, config.leapfrog_steps)
            raw[i] = state.position
            lp_track[i] = state.logp
            if progress and (i + 1) % tick == 0:
                print(f"chain {c}: sampling {i + 1}/{config.n_samples} "
                      f"(accept {state.accept_stats.mean_accept:.2f})",
                      file=sys.stderr)
        model.to_natural_matrix(raw, out=draws[c * n:(c + 1) * n])
        logps.append(lp_track)
        divergences.append(state.accept_stats.divergences)
        accept_rates.append(state.accept_stats.mean_accept)
        if progress:
            print(f"chain {c}: done, step {state.step_size:.3g}, "
                  f"{state.accept_stats.divergences} divergences",
                  file=sys.stderr)

    return PosteriorDraws(
        draws=draws, logps=logps, param_names=names, config=config,
        seeds=seeds, divergences=divergences, warmup_divergences=warmup_div,
        accept_rates=accept_rates, duration_s=time.monotonic() - t_start,
        G=lay.G, J=lay.J, data_digest=data_digest,
    )
