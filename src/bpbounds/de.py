"""Density evolution oracle: ground-truth decodable thresholds for BI-SO
channels via sampled (population) density evolution over LLR messages.

Populations track the LLR distribution conditioned on the zero input.
Check nodes use the tanh rule with saturation at |m| = 40 (tanh(20) already
rounds to 1 in double precision, so saturation is indistinguishable from a
genuinely noise-free message); exact zeros representing erasures are
preserved, which keeps BEC populations exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .binary_bounds import bisect
from .channels import (Bec, BiAwgn, BiLaplace, BiRayleigh, Bsc, BscMixture,
                       ChannelFamily, UnsupportedChannelError)
from .ensembles import DegreeEnsemble

__all__ = [
    "LLR_MAX", "DeConfig", "LlrPopulation",
    "initial_llr_sampler", "rayleigh_amplitude_marginal_sampler",
    "new_population", "de_step", "population_pe", "de_decodable",
    "de_threshold",
]

LLR_MAX = 40.0
DE_BISECT_STEPS = 13


@dataclass(frozen=True)
class DeConfig:
    population_size: int = 200_000
    max_iter: int = 500
    target_pe: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.population_size <= 0 or self.max_iter <= 0 or self.target_pe <= 0:
            raise ValueError("DE configuration values must be positive")


@dataclass
class LlrPopulation:
    """A population of LLR samples plus the RNG stream that owns the run."""
    samples: np.ndarray
    seed: int
    rng: np.random.Generator = field(repr=False)


# ---------------------------------------------------------------------------
# channel LLR samplers (conditioned on the zero input)
# ---------------------------------------------------------------------------

def initial_llr_sampler(ch):
    """Return sampler(rng, n) drawing initial LLRs given X = 0.

    Erasures are exact zeros; noise-free observations are +inf (saturated
    inside de_step).  Asymmetric channels are unsupported: density evolution
    here relies on the all-zero codeword convention of symmetric channels.
    """
    if isinstance(ch, Bsc):
        p = ch.p
        if p == 0.0:
            return lambda rng, n: np.full(n, np.inf)
        mag = math.log((1.0 - p) / p) if p < 0.5 else 0.0

        def sample_bsc(rng, n):
            return np.where(rng.random(n) < p, -mag, mag)
        return sample_bsc

    if isinstance(ch, Bec):
        eps = ch.eps

        def sample_bec(rng, n):
            return np.where(rng.random(n) < eps, 0.0, np.inf)
        return sample_bec

    if isinstance(ch, BiAwgn):
        sigma = ch.sigma

        def sample_awgn(rng, n):
            return 2.0 * rng.normal(1.0, sigma, n) / (sigma * sigma)
        return sample_awgn

    if isinstance(ch, BiLaplace):
        lam = ch.lam

        def sample_laplace(rng, n):
            y = rng.laplace(1.0, lam, n)
            return (np.abs(y + 1.0) - np.abs(y - 1.0)) / lam
        return sample_laplace

    if isinstance(ch, BiRayleigh):
        sigma = ch.sigma

        def sample_rayleigh(rng, n):
            # amplitude density 2 a exp(-a^2); the receiver observes a
            a = rng.rayleigh(scale=1.0 / math.sqrt(2.0), size=n)
            y = rng.normal(a, sigma)
            return 2.0 * a * y / (sigma * sigma)
        return sample_rayleigh

    if isinstance(ch, BscMixture):
        weights = np.array([w for w, _ in ch.atoms])
        mags = np.array([math.log((1.0 - p) / p) if 0.0 < p < 0.5 else
                         (np.inf if p == 0.0 else 0.0) for _, p in ch.atoms])
        ps = np.array([p for _, p in ch.atoms])

        def sample_mix(rng, n):
            which = rng.choice(len(weights), size=n, p=weights)
            flips = rng.random(n) < ps[which]
            m = mags[which]
            return np.where(flips, -m, m)
        return sample_mix

    raise UnsupportedChannelError(
        f"density evolution supports symmetric channels only, got {type(ch).__name__}")


def rayleigh_amplitude_marginal_sampler(sigma: float, grid_pts: int = 2401):
    """LLR sampler for Rayleigh fading when the amplitude is NOT observed.

    The receiver sees only y, so the LLR uses the amplitude-marginalized
    densities.  Not part of the standard channel set (the BiRayleigh model
    observes the amplitude); provided because the two models have noticeably
    different decodable thresholds and are easy to conflate.
    """
    from scipy.integrate import quad

    s2 = sigma * sigma

    def dens0(y):
        f = lambda a: 2.0 * a * math.exp(-a * a - (y - a) ** 2 / (2.0 * s2))
        val, _ = quad(f, 0.0, 8.0, epsabs=1e-12, limit=200)
        return val / math.sqrt(2.0 * math.pi * s2)

    ys = np.linspace(-12.0, 12.0, grid_pts)
    d0 = np.array([dens0(y) for y in ys])
    with np.errstate(divide="ignore"):
        llr = np.log(d0) - np.log(d0[::-1])   # p(y|1) = p(-y|0)

    def sample(rng, n):
        a = rng.rayleigh(scale=1.0 / math.sqrt(2.0), size=n)
        y = rng.normal(a, sigma)
        return np.interp(y, ys, llr)
    return sample


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------

def new_population(sampler, cfg: DeConfig, seed: int | None = None) -> LlrPopulation:
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    samples = np.clip(sampler(rng, cfg.population_size), -LLR_MAX, LLR_MAX)
    return LlrPopulation(samples=samples, seed=seed, rng=rng)


def _degree_groups(pairs, rng, n):
    """(k, sel, count) per degree k drawn for n edges, k ascending; a single
    degree draws nothing and selects every edge with slice(None)."""
    if len(pairs) == 1:
        return [(pairs[0][0], slice(None), n)]
    which = rng.choice(len(pairs), size=n, p=[w for _, w in pairs])
    masks = [(k, which == i) for i, (k, _) in enumerate(pairs)]
    return [(k, m, c) for k, m in masks if (c := np.count_nonzero(m))]


def _check_stage(msgs: np.ndarray, e: DegreeEnsemble, rng) -> np.ndarray:
    n = msgs.size
    tanhs = np.tanh(msgs / 2.0)
    out = np.empty(n)
    for k, sel, cnt in _degree_groups(e.rho, rng, n):
        prod = tanhs[rng.integers(0, n, cnt)]
        for _ in range(k - 2):
            prod *= tanhs[rng.integers(0, n, cnt)]
        with np.errstate(divide="ignore"):
            np.arctanh(prod, out=prod)
        prod *= 2.0
        out[sel] = np.clip(prod, -LLR_MAX, LLR_MAX, out=prod)
    return out


def de_step(pop: LlrPopulation, e: DegreeEnsemble, sampler) -> LlrPopulation:
    """One DE iteration: check stage (tanh rule over k-1 resampled messages,
    k ~ rho) then variable stage (fresh channel draw plus k-1 check outputs,
    k ~ lambda).  Degrees are edge-perspective.  Draws on pop.rng, in order:
    the rho-degree choice, k-1 integer draws per check degree k ascending,
    the channel draw, then the lambda-degree choice and its draws likewise."""
    rng = pop.rng
    n = pop.samples.size
    checks = _check_stage(pop.samples, e, rng)
    out = np.clip(sampler(rng, n), -LLR_MAX, LLR_MAX)
    for k, sel, cnt in _degree_groups(e.lam, rng, n):
        acc = out[sel]          # a view of out for slice(None), else a copy
        for _ in range(k - 1):
            acc += checks[rng.integers(0, n, cnt)]
        out[sel] = acc
    np.clip(out, -LLR_MAX, LLR_MAX, out=out)
    return LlrPopulation(samples=out, seed=pop.seed, rng=rng)


def population_pe(pop: LlrPopulation) -> float:
    """Error fraction Pr(m < 0) + Pr(m = 0)/2 (ties guessed by a coin)."""
    m, n = pop.samples, pop.samples.size
    return float(np.count_nonzero(m < 0.0) / n + 0.5 * np.count_nonzero(m == 0.0) / n)


def de_decodable(ch, e: DegreeEnsemble, cfg: DeConfig,
                 seed: int | None = None):
    """Run sampled DE; decodable iff the error fraction falls below target_pe.

    Early exit on a clear stall: once the smoothed error drift over a
    30-iteration window falls below 0.01% while the error is still far above
    target, the run is declared stuck.
    """
    sampler = ch if callable(ch) else initial_llr_sampler(ch)
    pop = new_population(sampler, cfg, seed)
    history = []
    for it in range(1, cfg.max_iter + 1):
        pop = de_step(pop, e, sampler)
        pe = population_pe(pop)
        history.append(pe)
        if pe < cfg.target_pe:
            return True, it
        if it >= 60 and pe > 50.0 * cfg.target_pe:
            recent = float(np.mean(history[-10:]))
            older = float(np.mean(history[-40:-30]))
            if older - recent < 1e-4 * recent:
                return False, it
    return False, cfg.max_iter


def de_threshold(family: ChannelFamily, e: DegreeEnsemble, cfg: DeConfig,
                 lo: float, hi: float, steps: int = DE_BISECT_STEPS):
    """Bisect the family parameter ``steps`` times on the DE verdict, step i
    with seed cfg.seed + i.  The caller vouches for the bracket (lo
    decodable, hi not); no verdict is checked at its ends.

    Returns (value, lo, hi) with value the final midpoint.
    """
    seeds = itertools.count(cfg.seed)
    lo, hi = bisect(
        lambda t: de_decodable(family.build(t), e, cfg, seed=next(seeds))[0],
        lo, hi, steps)
    return 0.5 * (lo + hi), lo, hi
