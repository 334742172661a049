"""Density evolution oracle: discretized DE (Richardson & Urbanke, IEEE
Trans. IT 2001; Chung, Forney, Richardson & Urbanke, IEEE Comm. Lett. 2001).

A symmetric LLR density given X = 0, a(-l) = e^-l a(l), is stored by
magnitude: masses m_k on |L| = k DELTA, the mass at kD split 1 : e^-kD
between +kD and -kD.  A check output's magnitude depends on the input
magnitudes only, at most a few bins below the smaller: one banded matrix
does every pair, each product's mass split linearly between its neighbouring
bins (nearest-bin rounding moved the (3,6) BSC threshold from 0.0841 to 0.0852).
The variable node is rfft, a power per lambda degree, irfft.  Channels enter
as exact bin masses.  A run is ``binary_bounds.run_recursion`` on densities:
every verdict is deterministic and ends on the bounds' reasons.  A search's
runs start warm from its failing end (``search_verdict``): sound as DE keeps
degradation (Modern Coding Theory, ch. 4), and the grid's T does up to ~2e-9.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .binary_bounds import (WITNESS_MARGIN, IterationLimits, bisect, cb_ratio_samples,
                            run_recursion)
from .channels import (BIRAYLEIGH_SIGMA_MAX, PROB_TOL, Bec, BiAwgn, BiLaplace, BiRayleigh,
                       Bsc, BscMixture, ChannelFamily, UnsupportedChannelError)
from .ensembles import DegreeEnsemble, lambda_eval, rho_eval

__all__ = [
    "LLR_MAX", "LLR_BINS", "DE_MAX_ITER", "DeVerdict", "channel_density",
    "rayleigh_amplitude_marginal_density", "de_decodable", "de_threshold",
]

LLR_MAX = 15.0
LLR_BINS = 75                 # a grid twice as fine moves no acceptance
DELTA = LLR_MAX / LLR_BINS    # threshold by more than 1e-3
DE_BISECT_STEPS = 13
# a DE run's default cap: the (3,6) bsc and biawgn searches' longest probes take
# 173 and 243 steps; a probe nearer its threshold can need more (ROADMAP item 11)
DE_MAX_ITER = 2_000

_K = LLR_BINS
_MAGS = np.arange(_K + 1) * DELTA
_NEG = 1.0 / (1.0 + np.exp(_MAGS))                  # share of m_k at -kD
_PE = np.where(_MAGS > 0.0, _NEG, 0.5)              # Pr(L < 0) + Pr(L = 0)/2
_BHAT = 1.0 / np.cosh(_MAGS / 2.0)                  # E[e^(-L/2)] per bin
_TANH = np.tanh(_MAGS / 2.0)
_WIDTHS = np.diff(np.append(_TANH, 1.0))            # |tanh(L/2)| cells


class DeVerdict(NamedTuple):
    """A DE run's verdict and the ``run_recursion`` reason that ended it:
    "decoded" (decodable), "witness" or "max_iter" (not); see ``de_decodable``."""
    decodable: bool
    iterations: int
    reason: str
    pe: tuple         # error probability after each iteration


def _split(pos, weights):
    """Masses ``weights`` at bin positions ``pos`` in [0, K], each split
    linearly between its neighbouring bins: (lo, hi, w_lo, w_hi)."""
    lo = np.floor(pos).astype(np.intp)
    w_hi = weights * (pos - lo)
    return lo, np.minimum(lo + 1, _K), weights - w_hi, w_hi


def _atoms(mags, weights) -> np.ndarray:
    """Atoms at |L| = mags, split between their neighbouring bins; +inf and
    beyond LLR_MAX land on LLR_MAX."""
    lo, hi, w_lo, w_hi = _split(np.clip(np.asarray(mags, dtype=float) / DELTA, 0.0, _K),
                                np.asarray(weights, dtype=float))
    return np.bincount(lo, w_lo, minlength=_K + 1) + np.bincount(hi, w_hi, minlength=_K + 1)


def _magnitudes(signed: np.ndarray) -> np.ndarray:
    """Fold masses on L = -K D .. K D into magnitudes."""
    m = signed[_K:].copy()
    m[1:] += signed[_K - 1::-1]
    return m


def _cells(cdf) -> np.ndarray:
    """Bin k takes the cells (k -+ 1/2) D of signed CDF ``cdf`` and mirrors."""
    edges = np.concatenate(([-np.inf], (np.arange(-_K, _K) + 0.5) * DELTA, [np.inf]))
    return _magnitudes(np.diff(cdf(edges)))


def channel_density(ch) -> np.ndarray:
    """Magnitude masses of the channel's LLR density given X = 0: atoms
    split like check outputs, BEC's at 0 and LLR_MAX, continuous parts by
    their CDF at the bin edges.  Asymmetric channels are refused."""
    if isinstance(ch, (Bsc, BscMixture)):
        atoms = ((1.0, ch.p),) if isinstance(ch, Bsc) else ch.atoms
        return _atoms([math.log((1.0 - p) / p) if p else math.inf for _, p in atoms],
                      [w for w, _ in atoms])
    if isinstance(ch, Bec):
        return _atoms([0.0, math.inf], [ch.eps, 1.0 - ch.eps])
    if isinstance(ch, BiAwgn):
        mu = 2.0 / ch.sigma ** 2            # LLR ~ N(mu, 2 mu)
        s = 2.0 * math.sqrt(mu)             # at x = -+inf, erfc gives 0 and 2
        return _cells(lambda x: np.array([0.5 * math.erfc((mu - t) / s) for t in x.tolist()]))
    if isinstance(ch, BiLaplace):
        # atoms 1/2 and e^-2u/2 at +-2u, u = 1/lam, and on (-2u, 2u) a cell
        # (a, b) gets e^-u (e^(b/2) - e^(a/2)) / 2
        u = 1.0 / ch.lam
        return _atoms([2.0 * u], [0.5 + 0.5 * math.exp(-2.0 * u)]) + _cells(
            lambda x: 0.5 * (np.exp(np.clip(x / 2.0, -u, u) - u) - math.exp(-2.0 * u)))
    if isinstance(ch, BiRayleigh):
        # density e^(L/2 - r|L|) / (2cr), c = 2/sigma^2, r = sqrt(1/c + 1/4)
        # (tests/test_channels.py): masses (r -+ 1/2) / 2r on L < 0 and L > 0
        r = math.sqrt(ch.sigma ** 2 / 2.0 + 0.25)
        rm = ch.sigma ** 2 / 2.0 / (r + 0.5)        # r - 1/2 without cancelling
        return _cells(lambda x: np.where(
            x <= 0.0, rm / (2 * r) * np.exp((r + 0.5) * np.minimum(x, 0.0)),
            1.0 - (r + 0.5) / (2 * r) * np.exp(-rm * np.maximum(x, 0.0))))
    raise UnsupportedChannelError(
        f"density evolution supports symmetric channels only, got {type(ch).__name__}")


def _log_marginal(y, s2: float):
    """log p(y | X = +1), y = a + N(0, s2), a ~ 2a e^-a^2 integrated out:
    e^(-y^2/(2 s2)) (1 - sqrt(pi) z erfcx(z)) / A, A = 1 + 1/(2 s2),
    z = -y / (2 s2 sqrt(A)); for z < 0 as e^(-y^2/(2 s2 + 1)) (e^(-z^2) -
    sqrt(pi) z erfc(z)) / A."""
    from scipy.special import erfc, erfcx
    a = 1.0 + 0.5 / s2
    z = -y / (2.0 * s2 * math.sqrt(a))
    zp, zn = np.maximum(z, 0.0), np.minimum(z, 0.0)
    pos = -y * y / (2.0 * s2) + np.log(1.0 - math.sqrt(math.pi) * zp * erfcx(zp))
    neg = -y * y / (2.0 * s2 + 1.0) + np.log(np.exp(-zn * zn)
                                           - math.sqrt(math.pi) * zn * erfc(zn))
    return np.where(z >= 0.0, pos, neg) - math.log(a * math.sqrt(2.0 * math.pi * s2))


def rayleigh_amplitude_marginal_density(sigma: float) -> np.ndarray:
    """``channel_density`` of Rayleigh fading with the amplitude NOT observed
    (BiRayleigh observes it): each cell of a fine y grid puts its mass in the
    bin of its LLR log p(y|+1) - log p(-y|+1)."""
    if not 0.0 < sigma <= BIRAYLEIGH_SIGMA_MAX:     # NaN fails
        raise ValueError(f"Rayleigh sigma must lie in (0, {BIRAYLEIGH_SIGMA_MAX:g}], got {sigma}")
    s2 = sigma * sigma
    y = np.linspace(-12.0, 12.0, 24001)
    logp = _log_marginal(y, s2)
    bins = np.clip(np.rint((logp - _log_marginal(-y, s2)) / DELTA), -_K, _K)
    signed = np.bincount(bins.astype(np.intp) + _K, np.exp(logp), minlength=2 * _K + 1)
    return _magnitudes(signed / signed.sum())


@functools.lru_cache(maxsize=None)
def _check_bands() -> np.ndarray:
    """W: row d (K+1) + i, column j >= i is pair (i, j)'s share at bin i - d, diagonal halved."""
    i, j = np.triu_indices(_K + 1)
    lo, hi, w_lo, w_hi = _split((2.0 / DELTA) * np.arctanh(_TANH[i] * _TANH[j]),
                                np.where(i == j, 0.5, 1.0))
    nz = np.concatenate((w_lo, w_hi)) != 0.0        # both shares; v = i leaves 0 at i + 1
    d, i, j, w = (np.concatenate(x)[nz] for x in ((i - lo, i - hi), (i, i), (j, j), (w_lo, w_hi)))
    assert np.all((0 <= d) & (d <= i)), "a check share above its smaller input or below bin 0"
    bands = np.zeros((d.max() + 1, _K + 1, _K + 1))   # D bands, as many as the shares need
    np.add.at(bands, (d, i, j), w)
    bands.flags.writeable = False
    return bands.reshape(-1, _K + 1)


def _check_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (W b) + b (W a) by one GEMM, or 2a (W a) by one GEMV for a square (``rho_eval``
    passes a twice).  In rows of K + 2, band d's bin i >= d falls in column i - d."""
    w = _check_bands()
    if a is b:
        z = (2.0 * a) * (w @ a).reshape(-1, _K + 1)
    else:
        wa, wb = (np.array((a, b)) @ w.T).reshape(2, -1, _K + 1)
        z = a * wb + b * wa
    return np.concatenate((z.ravel(), np.zeros(len(z)))).reshape(-1, _K + 2)[:, :_K + 1].sum(0)


def _signed(m: np.ndarray, n: int) -> np.ndarray:
    """Masses on L = jD at index j mod n: every degree's sum lands at 0."""
    s = np.zeros(n)
    s[:_K + 1] = m * (1.0 - _NEG)
    s[0] = m[0]
    s[n - _K:] = (m[1:] * _NEG[1:])[::-1]
    return s


def _variable_stage(c, chan_f, e: DegreeEnsemble, n: int) -> np.ndarray:
    s = np.fft.irfft(chan_f * lambda_eval(e, np.fft.rfft(_signed(c, n))), n)
    s[1:_K] += s[n - 1:n - _K:-1]               # fold in place
    s[_K] = s[_K:n - _K + 1].sum()
    m = np.maximum(s[:_K + 1], 0.0)             # FFT rounding
    return m / m.sum()


def _degradation_profile(m: np.ndarray) -> np.ndarray:
    """Integrals from each bin to 1 of the CDF (1 less the mass above) in
    |tanh(L/2)|: b is degraded from a iff profile(b) >= profile(a) (ch. 4)."""
    cdf = 1.0 - np.append(np.cumsum(m[:0:-1])[::-1], 0.0)
    return np.cumsum((cdf * _WIDTHS)[::-1])[::-1]


@functools.lru_cache(maxsize=16)
def _ub_cb_samples(e: DegreeEnsemble):
    # built once per ensemble, not once per DE probe: a 201-point grid and
    # Brent fits, about 0.2 ms on (3,6), against 13 probes per threshold search
    return cb_ratio_samples("ub-cb", e)


def _ub_cb_radius(cb0: float, e: DegreeEnsemble) -> float:
    """Messages with Bhattacharyya B below this decode: B' <= cb0 g(B), the
    ub-cb step, drives B to 0 if cb0 < x / g(x) on (0, B].  The last of CB*'s
    samples before one at or below cb0 (a coarse scan misses the dip)."""
    xs, vs, limit = _ub_cb_samples(e)
    hit = np.flatnonzero(vs <= cb0)
    if cb0 >= limit or (hit.size and hit[0] == 0):
        return 0.0
    return xs[hit[0] - 1] if hit.size else math.inf


def _witness_density(a: np.ndarray, margin: float = WITNESS_MARGIN) -> np.ndarray:
    """``a`` clipped at 0 and scaled to 1 - margin, the margin at LLR_MAX."""
    star = np.maximum(a, 0.0)
    star *= (1.0 - margin) / star.sum()
    star[_K] += margin
    return star


def de_decodable(ch, e: DegreeEnsemble, limits: IterationLimits | None = None,
                 warm: list | None = None) -> DeVerdict:
    """Run discretized DE from ``ch``, a channel or its ``channel_density``, on
    ``run_recursion`` with the message Bhattacharyya B as measure: "decoded"
    once B is below ``_ub_cb_radius`` (a proof); "witness" at a repeated
    density or a density m* (1e-9 of its mass at LLR_MAX, or if that fails
    1e-4) no more degraded than m_n with T(m*) no less degraded than m* and
    B(m*) not below the radius, a proof where T keeps the degradation order
    (the grid breaks it by ~2e-9 near LLR_MAX); "max_iter" once
    ``limits.max_iter`` steps (default DE_MAX_ITER) ran out.  ``warm``: ``search_verdict``."""
    if isinstance(ch, np.ndarray) and not (ch.shape == (_K + 1,) and np.all(ch >= 0.0)
                                           and abs(ch.sum() - 1.0) <= PROB_TOL):   # NaN fails
        raise ValueError(f"a DE density is {_K + 1} finite masses >= 0 summing to 1")
    chan = ch if isinstance(ch, np.ndarray) else channel_density(ch)
    n = 1 << (2 * _K * max(k for k, _ in e.lam)).bit_length()
    chan_f = np.fft.rfft(_signed(chan, n))
    top = _degradation_profile(chan)
    start = warm[0] if warm and np.all(_degradation_profile(warm[0]) <= top) else chan
    verdict, states, its, reason = run_recursion(
        lambda m: _variable_stage(rho_eval(e, m, _check_product), chan_f, e, n),
        lambda m: float(m @ _BHAT), start, limits or IterationLimits(DE_MAX_ITER),
        lambda m: m, _witness_density, decoded_below=_ub_cb_radius(float(chan @ _BHAT), e),
        order=_degradation_profile, steady=True, ceiling=math.inf if start is chan else top,
        retry=lambda a: _witness_density(a, 1e-4))
    if warm is not None and verdict != "decodable":
        warm[:] = states[-1:]
    return DeVerdict(verdict == "decodable", its, reason,
                     tuple(float(m @ _PE) for m in states[1:]))


def search_verdict(family: ChannelFamily, e: DegreeEnsemble, limits, settle=lambda t: None):
    """theta -> decodable for bisection (each probe below every failing one before
    it): ``settle(theta)``, else DE from the last failing run's final density if
    below the channel (BiRayleigh's can lie 5e-9 above), a witness below it too."""
    warm = []
    return lambda t: (settle(t) or de_decodable(family.build(t), e, limits, warm))[0]


def de_threshold(family: ChannelFamily, e: DegreeEnsemble, limits: IterationLimits | None,
                 lo: float, hi: float, steps: int = DE_BISECT_STEPS):
    """(midpoint, lo, hi) after ``steps`` bisections on the DE verdict of a
    bracket the caller vouches for (lo decodable, hi not)."""
    lo, hi = bisect(search_verdict(family, e, limits), lo, hi, steps)
    return 0.5 * (lo + hi), lo, hi
