"""Iterative and non-iterative decodability bounds for binary LDPC ensembles.

All bounds track scalar noise measures of the depth-2l support tree channel
and certify decodability when the tracked measure is driven to zero:

* ``ub_cb_step``   -- CB upper bound (check inputs replaced by BECs); valid
  for non-symmetric binary channels as well via the reverse-channel view.
* ``lb_cb_step``   -- CB lower bound (check inputs replaced by BSCs).
* ``ub_sb_step``   -- SB upper bound (BEC check stage, BSC variable stage),
  rational in the channel's SB; ``ub_sb_sigma`` inverts it by Newton.
* ``two_dim_check_step`` / ``two_dim_var_step`` -- the joint (CB, SB) upper
  bound built from the moment-constrained extremal families; both wrap one
  float kernel, which ``iterate_bound`` runs on (cb, sb) tuples.
* ``ub_sb_star``   -- non-iterative bound: any BI-SO channel whose SB does
  not exceed that of a decodable BSC is itself decodable.

Every check stage is one of two kernels: ``_bec_check`` (1 - rho(1 - x),
for ub-cb, ub-sb and the SB half of ub-cbsb) and ``_mixture_check_cb`` (the
CB of BSC-or-perfect inputs, for the CB half of ub-cbsb and, at q = 1,
lb-cb).  Both sum expm1/log1p forms, the mixture's weights from lgamma: neither
cancels at small inputs nor overflows at any degree.  A float takes ``math``
(Brent's CB*, the recursions but ub-sb's), an ndarray numpy (CB*'s grid, ub-sb).

The two-dimensional step output is projected back onto the feasible
region SB <= CB <= sqrt(SB).  The projection keeps a valid bound: the true
pair satisfies those inequalities, so min(sb, cb) still dominates the true
SB and min(cb, sqrt(sb)) the true CB.

Every variable-node SB is computed exactly, by enumerating the outcome
counts of i.i.d. BSC draws, so each computed SB is the true one of its
replacement channels.  The enumeration has one term budget, ``ENUM_CAP``;
a combination past it raises ValueError rather than being approximated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .brent import minimize_bounded
from .channels import BscMixture, NoisePair
from .ensembles import DegreeEnsemble, lambda2, lambda_eval, rho_prime1
from .extremal import AtomicBscFamily, _upper_atoms

__all__ = [
    "BOUND_KINDS", "IterationLimits", "BoundTrajectory",
    "ub_cb_step", "lb_cb_step", "ub_sb_step", "ub_sb_sigma",
    "two_dim_check_step", "phi_variable_sb", "two_dim_var_step",
    "iterate_bound", "ub_sb_star",
    "SequenceMapperChannel", "sequence_mapper_cb",
    "sb_matched_bsc_replacement",
]

BOUND_KINDS = ("ub-cb", "lb-cb", "ub-sb", "ub-cbsb")

ENUM_CAP = 1 << 20       # exact-enumeration budget in terms (2^20: 20 distinct BSCs)
DECODE_EPS = 1e-10        # a recursion whose measure falls below this decodes
WITNESS_PERIOD = 4        # a fixed-point witness is tried on steps 1, 5, 9, ...
WITNESS_MARGIN = 1e-9     # relative drop below s_n, past ulp drift at a fixed point
_TINY_T = 2.0 ** -500     # ~3e-151: t^2 is still a full-precision normal


@dataclass(frozen=True)
class IterationLimits:
    max_iter: int = 10_000

    def __post_init__(self):
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")


class BoundTrajectory(NamedTuple):
    """States of one bound run: (cb, sb) pairs, None for the measure a
    one-dimensional bound does not track, or CB vectors for "zm"."""
    kind: str             # a BOUND_KINDS entry or "zm"
    states: list          # of (cb | None, sb | None), or CbVector
    verdict: str          # "decodable" | "not-decodable" | "inconclusive"
    iterations: int
    reason: str           # "decoded" | "witness" | "max_iter"


# ---------------------------------------------------------------------------
# elementary transfer functions
# ---------------------------------------------------------------------------

def _bec_check(x, e: DegreeEnsemble):
    """1 - rho(1 - x) as -sum rho_k expm1((k - 1) log1p(-x)), by numpy for an
    ndarray: the direct form cancels at small x (x = 1e-12 lost about 1e-4)."""
    if isinstance(x, np.ndarray):
        t = np.log1p(-x, out=np.full(x.shape, -math.inf), where=x < 1.0)
        return -sum(w * np.expm1((k - 1) * t) for k, w in e.rho)
    t = math.log1p(-x) if x < 1.0 else -math.inf
    return -sum(w * math.expm1((k - 1) * t) for k, w in e.rho)


@functools.lru_cache(maxsize=None)
def _log_binomials(n: int):               # (i, n - i, log C(n, i)) for i = 1..n
    lg = math.lgamma
    return tuple((i, n - i, lg(n + 1.0) - lg(i + 1.0) - lg(n - i + 1.0))
                 for i in range(1, n + 1))


def _mixture_check_cb(t, q: float, e: DegreeEnsemble):
    """CB of a check node whose i.i.d. inputs are each a BSC of index t with
    probability q, else perfect: E sqrt(-expm1(I log1p(-t^2))) over
    I ~ Bin(k - 1, q), k ~ rho.  q = 1 is lb-cb's BSC check, t = 1 a BEC.
    t^2 underflows below 1.5e-154; there the value is t E sqrt(I) to
    rounding, scaled exactly from t = 2^-500.  An ndarray t (q = 1 only,
    lb-cb's CB* grid) takes numpy's ufuncs."""
    if isinstance(t, np.ndarray):
        lt = np.log1p(-t * t, out=np.full(t.shape, -math.inf), where=t < 1.0)
        v = sum(w * np.sqrt(-np.expm1((k - 1) * lt)) for k, w in e.rho)
        return np.where(t < _TINY_T, t * (_mixture_check_cb(_TINY_T, q, e) / _TINY_T), v)
    if 0.0 < t < _TINY_T:
        return t * (_mixture_check_cb(_TINY_T, q, e) / _TINY_T)
    lt = math.log1p(-t * t) if t < 1.0 else -math.inf
    if q >= 1.0:
        return sum(w * math.sqrt(-math.expm1((k - 1) * lt)) for k, w in e.rho)
    if q <= 0.0:
        return 0.0
    lq, lp = math.log(q), math.log1p(-q)
    exp, sqrt, expm1 = math.exp, math.sqrt, math.expm1     # the ub-cbsb hot loop
    out = 0.0
    for k, w in e.rho:
        acc = 0.0
        for i, j, c in _log_binomials(k - 1):
            acc += exp(c + i * lq + j * lp) * sqrt(-expm1(i * lt))
        out += w * acc
    return out


def ub_cb_step(cb, e: DegreeEnsemble, cb0: float):
    """One iteration of the CB upper bound, cb0 * lambda(1 - rho(1 - cb))."""
    g = cb0 * lambda_eval(e, _bec_check(cb, e))
    return np.minimum(g, 1.0) if isinstance(g, np.ndarray) else min(1.0, g)


def lb_cb_step(cb, e: DegreeEnsemble, cb0: float):
    """One iteration of the CB lower bound: every check input a BSC of index cb."""
    g = cb0 * lambda_eval(e, _mixture_check_cb(cb, 1.0, e))
    return np.minimum(g, 1.0) if isinstance(g, np.ndarray) else min(1.0, g)


def grid_samples(f, lo: float):
    """(xs, f(xs)) sorted by x: f of a log grid on [lo, 1], as one ndarray, and
    of the floats where Brent's method seeks the least point of the cells around
    every grid local minimum, to 1e-7 of the cell end (tighter, at 1e-12 or
    1e-8, it chased rounding noise: a 1-ulp change moved SB*'s evaluation count).
    Brent's method is ``brent.minimize_bounded``, scipy's bounded
    ``minimize_scalar`` to the bit without loading ``scipy.optimize``."""
    xs = np.geomspace(lo, 1.0, 201)
    v = np.asarray(f(xs), dtype=float)
    left, right = np.append(math.inf, v[:-1]), np.append(v[1:], math.inf)
    cells = [(xs[max(i - 1, 0)], xs[min(i + 1, 200)])
             for i in np.flatnonzero(np.isfinite(v) & (v < left) & (v <= right))]
    fits = [minimize_bounded(f, *c, xatol=1e-7 * c[1]) for c in cells]
    px = np.append(xs, [x for x, _ in fits])
    order = np.argsort(px, kind="stable")
    return px[order], np.append(v, [fx for _, fx in fits])[order]


def cb_ratio_samples(kind: str, e: DegreeEnsemble):
    """(xs, vs, limit): x / g(x) by ``grid_samples``, g the ub-cb or lb-cb
    step at cb0 = 1 (an underflowed g counts as +inf), and its x -> 0 limit
    1 / (lambda_2 rho'(1)), resp. 1 / (lambda_2 sum rho_k sqrt(k-1)).
    x <- cb0 g(x) from x0 drives x to zero iff cb0 < x / g(x) on (0, x0]."""
    step = ub_cb_step if kind == "ub-cb" else lb_cb_step

    def ratio(x):                 # the grid's ndarray, or Brent's float
        g = step(x, e, 1.0)
        if isinstance(x, np.ndarray):
            with np.errstate(divide="ignore", over="ignore"):   # g = 0 or tiny: +inf
                return x / g
        return x / g if g > 0.0 else math.inf

    slope = lambda2(e) * (rho_prime1(e) if kind == "ub-cb" else
                          sum(w * math.sqrt(k - 1) for k, w in e.rho))
    xs, vs = grid_samples(ratio, 1e-5)
    return xs, vs, (1.0 / slope if slope > 0.0 else math.inf)


# ---------------------------------------------------------------------------
# exact SB of a variable-node combination of BSCs
# ---------------------------------------------------------------------------

def _bsc_outcomes(w: float, a: float):
    """(probability, LLR) outcomes of a BSC atom of weight w and index
    a = 2 sqrt(p(1-p)): none if perfect (SB 0, not renormalised), one of
    LLR 0 if useless, no zero-probability flip."""
    if a <= 0.0:
        return []
    if a >= 1.0:
        return [(w, 0.0)]
    s = math.sqrt((1.0 - a) * (1.0 + a))
    p = a * a / (2.0 * (1.0 + s))          # = (1 - s) / 2, which cancels at small a
    mag = 2.0 * math.log((1.0 + s) / a)    # = log((1-p)/p), stable for tiny a
    return [(w * (1.0 - p), mag), (w * p, -mag)] if p > 0.0 else [(w, mag)]


@functools.lru_cache(maxsize=64)
def _compositions(n: int, m: int):
    """Count vectors of n draws over m >= 1 outcomes, with log multinomials."""
    bars = np.array(list(itertools.combinations(range(n + m - 1), m - 1)),
                    dtype=np.int64).reshape(math.comb(n + m - 1, n), m - 1)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n + m - 1))
    counts = np.diff(edges, axis=1) - 1
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    return counts.astype(float), log_fact[n] - log_fact[counts].sum(axis=1)


def _draw_terms(outs, n):
    """Log-weight log(n!/prod(K_i!) prod(q_i^K_i)) and LLR K.l of every count
    vector K of n i.i.d. draws over the outcome arrays ``outs`` = (q, l)."""
    q, l = outs
    if not q.size:
        return q, l                           # every draw perfect: SB 0
    counts, log_coef = _compositions(n, q.size)
    return log_coef + counts @ np.log(q), counts @ l


def _outcomes(atoms, total: float = 1.0):
    """(probability, LLR) outcomes of one draw from the (weight, a) ``atoms``
    as two arrays (q, l): weights over ``total``, indices clipped to [0, 1],
    zero weights dropped, as ``_normalised`` does; a no-op on a family's."""
    flat = np.array([x for w, a in atoms if w > 0.0
                     for o in _bsc_outcomes(w / total, min(max(a, 0.0), 1.0)) for x in o])
    return flat[0::2], flat[1::2]


def _upper_outcomes(cb: float, sb: float):
    """``_outcomes`` of dP**'s atoms ``_upper_atoms(cb, sb)``, normalised."""
    atoms = _upper_atoms(cb, sb)
    return _outcomes(atoms, sum(w for w, _ in atoms))


def _sb_of_draws(first, outs, n: int) -> float:
    """Exact SB = sum w * 2 / (1 + e^L) of a sum of independent LLR draws: the
    (log-weight, LLR) terms ``first`` outer-combined with the ``_draw_terms`` of
    n i.i.d. draws over the outcome arrays ``outs``; ValueError past ``ENUM_CAP``.
    e^L overflows to inf for a large L: run it under np.errstate(over="ignore")."""
    logw, llr = first
    if n > 0:
        terms = len(logw) * math.comb(n + outs[0].size - 1, n)
        if terms > ENUM_CAP:
            raise ValueError(f"exact SB needs {terms} terms, past the enumeration "
                             f"budget ENUM_CAP = {ENUM_CAP}")
        lw, ll = _draw_terms(outs, n)
        logw = (logw[:, None] + lw).ravel()
        llr = (llr[:, None] + ll).ravel()
    return float((np.exp(logw) * 2.0 / (1.0 + np.exp(llr))).sum())


def _bsc_arrays(x):
    """(P(flipped), |LLR|) of the BSC whose SB is x in [0, 1], elementwise:
    p = x / (2 (1 + sqrt(1 - x))), which is (1 - sqrt(1 - x)) / 2 without
    its cancellation at small x, and |LLR| = log((1 - p) / p), 0 at x = 1
    and log 4 (not +inf) at x = 0."""
    r = 1.0 + np.sqrt(1.0 - x)
    return x / (2.0 * r), 2.0 * np.log(r / np.sqrt(np.where(x > 0.0, x, 1.0)))


@functools.lru_cache(maxsize=32)
def _draw_counts(lam):
    """(lambda_k, flips j, keeps k - 1 - j, log C(k - 1, j), (k - 1 - 2j) / 2)
    of every way a degree-k node's k - 1 check draws can flip, all degrees
    in flat arrays."""
    rows = []
    for k, w in lam:
        counts, log_coef = _compositions(k - 1, 2)     # row j: (j, k - 1 - j)
        flips, keeps = counts.T
        rows.append((np.full(k, w), flips, keeps, log_coef, 0.5 * (keeps - flips)))
    return tuple(np.concatenate(c) for c in zip(*rows))


def _ub_sb_terms(sb, e: DegreeEnsemble):
    """(w, a, live) of ub-sb's variable stage at check inputs of SB sb: each
    check output is the BSC of SB u = ``_bec_check(sb)``, crossover p and
    |LLR| l, and a term of degree k with j flipped draws has weight
    w = lambda_k C(k - 1, j) p^j (1 - p)^(k - 1 - j) and a = sinh^2(L / 2)
    at L = (k - 1 - 2j) l; ``live`` is False where u is 0."""
    u = np.minimum(1.0, _bec_check(np.clip(np.atleast_1d(sb), 0.0, 1.0), e))
    p, l = _bsc_arrays(u)
    live = p > 0.0                        # else a perfect check output
    q = np.where(live, p, 0.5)[..., None]  # keeps the weights of dead rows finite
    lam, flips, keeps, log_coef, half = _draw_counts(e.lam)
    w = lam * np.exp(log_coef + keeps * np.log1p(-q) + flips * np.log(q))
    with np.errstate(over="ignore"):      # sinh overflows to inf: the term is 0
        a = np.square(np.sinh(half * l[..., None]))
    return w, a, live


def _node_sb(s, w, a):
    """(G, G') at channel SB s: G(s) = s sum w / (1 + s a), the node's SB,
    and its derivative sum w / (1 + s a)^2; NaN where s = 0 meets a = inf."""
    d = 1.0 + s[..., None] * a
    r = w / d
    return s * r.sum(axis=-1), (r / d).sum(axis=-1)


def ub_sb_step(sb, e: DegreeEnsemble, sb0):
    """One iteration of the SB upper bound, broadcast over arrays of sb and sb0.

    Check stage: inputs replaced by BECs of equal SB, u = ``_bec_check(sb)``.
    Variable stage: channel and check outputs replaced by BSCs of equal SB,
    combined exactly.  For a symmetric LLR L, SB = E[2 / (1 + e^L)] =
    E[1 - tanh(L / 2)] = E[1 - tanh^2(L / 2)].  A check sum of magnitude m
    and the channel's LLR l0 (SB s0 = 1 - tanh^2(l0 / 2)) agree in sign with
    probability (1 + tanh(m / 2) tanh(l0 / 2)) / 2, and averaging
    1 - tanh^2 of their sum over the signs gives s0 / (1 + s0 sinh^2(m / 2)).
    So a node's SB is s0 sum w / (1 + s0 a) over the terms of
    ``_ub_sb_terms``: rational in s0, with no term cap and no exp per
    channel, and increasing and concave in s0.  The binomial weights
    come from lgamma, so they neither overflow nor underflow to all-zero up
    to ``MAX_DEGREE``; an overflowing a_j is inf, its term 0.  They can sum
    to 1 + 1e-15, so the result is clamped at sb0.  A scalar call (the ub-sb
    recursion's) takes the ndarray path and returns a float, equal to the
    matching element of an array call.
    """
    sb, sb0 = np.asarray(sb, dtype=float), np.asarray(sb0, dtype=float)
    s = np.minimum(np.maximum(np.atleast_1d(sb0), 0.0), 1.0)
    w, a, live = _ub_sb_terms(sb, e)
    with np.errstate(invalid="ignore"):   # s = 0 meets a = inf: masked below
        g = np.minimum(s, _node_sb(s, w, a)[0])
    # a perfect channel or check output makes the node's SB 0
    out = np.where(live & (s > 0.0), g, 0.0)
    return float(out[0]) if sb.ndim == sb0.ndim == 0 else out


def ub_sb_sigma(x, e: DegreeEnsemble):
    """sigma(x), the least sb0 with ``ub_sb_step(x, e, sb0) >= x``,
    elementwise over x in (0, 1]; +inf where F(x; 1) < x.

    Newton's method on G(s) = x, G(s) = s sum w / (1 + s a) the step's
    rational form, from s = x.  Where G(x) >= x, sigma is x, as F <= sb0.
    Else x is below the root, as G increases, and G is concave, so each
    step rises towards the root without passing it, by at least one ulp,
    until G(s) >= x: 3-9 steps.  A scalar x returns a float."""
    x = np.asarray(x, dtype=float)
    w, a, _ = _ub_sb_terms(x, e)
    xs = s = np.atleast_1d(x)
    root = _node_sb(np.ones_like(xs), w, a)[0] >= xs
    while True:
        g, dg = _node_sb(s, w, a)
        low = (g < xs) & root
        if not low.any():
            break
        with np.errstate(divide="ignore", over="ignore"):   # only in entries that keep s
            s = np.where(low, np.maximum(s + (xs - g) / dg, np.nextafter(s, 2.0)), s)
    out = np.where(root, np.minimum(s, 1.0), math.inf)
    return float(out[0]) if x.ndim == 0 else out


# ---------------------------------------------------------------------------
# the two-dimensional (CB, SB) upper bound
# ---------------------------------------------------------------------------

def _project_feasible(cb: float, sb: float):
    # inward projection onto SB <= CB <= sqrt(SB); see module docstring
    cb = min(1.0, max(0.0, cb))
    sb = min(1.0, max(0.0, sb))
    sb = min(sb, cb)
    cb = min(cb, math.sqrt(sb))
    return cb, sb


# The ub-cbsb float kernel: _cbsb_check, then _cbsb_var (given the channel's CB
# cb0 and one-draw _draw_terms terms0, under np.errstate(over="ignore")), maps
# (cb, sb) to (cb', sb'); iterate_bound runs it, the public steps below wrap it.

def _cbsb_check(cb: float, sb: float, e: DegreeEnsemble):
    if cb <= 0.0 or sb <= 0.0:
        return 0.0, 0.0
    # q as cb * (cb / sb): cb / sb >= 1, so q does not underflow with cb^2
    cbp = _mixture_check_cb(min(1.0, sb / cb), min(1.0, cb * (cb / sb)), e)
    return _project_feasible(cbp, _bec_check(sb, e))


def _cbsb_var(cb: float, sb: float, e: DegreeEnsemble, cb0: float, terms0):
    if cb <= 0.0 and sb <= 0.0:
        return 0.0, 0.0
    outs = _upper_outcomes(cb, sb)
    sbp = sum(w * _sb_of_draws(terms0, outs, k - 1) for k, w in e.lam)
    return _project_feasible(cb0 * lambda_eval(e, cb), sbp)


def two_dim_check_step(pair: NoisePair, e: DegreeEnsemble) -> NoisePair:
    """Joint check-node step: SB via BEC replacement, CB via the two-atom
    moment-matched maximizer, whose inputs are each a BSC of index
    t = sb / cb with probability q = cb^2 / sb and perfect otherwise."""
    if pair.cb is None or pair.sb is None:
        raise ValueError("two_dim_check_step needs a full NoisePair")
    return NoisePair(*_cbsb_check(pair.cb, pair.sb, e))


def phi_variable_sb(ch0: AtomicBscFamily, chin: AtomicBscFamily,
                    d_minus_1: int) -> float:
    """SB of a variable node fed by one ch0 draw and d_minus_1 chin draws.

    The chin draws are i.i.d., so only how many of them land on each
    (atom, sign) outcome matters: the exact sum runs over those count
    vectors, C(d_minus_1 + m - 1, m - 1) of them for m outcomes, times the
    ch0 outcomes.  Past ``ENUM_CAP`` terms it raises ValueError; for
    three-atom families (six outcomes) that is d_minus_1 >= 27.
    """
    if d_minus_1 < 0:
        raise ValueError("d_minus_1 must be >= 0")
    with np.errstate(over="ignore"):
        return _sb_of_draws(_draw_terms(_outcomes(ch0.atoms), 1), _outcomes(chin.atoms),
                            d_minus_1)


def two_dim_var_step(pair0: NoisePair, pair: NoisePair, e: DegreeEnsemble) -> NoisePair:
    """Joint variable-node step.

    CB multiplies (BSC replacement is exact there); SB is bounded through the
    three-atom upper families for both the channel and the incoming messages.
    The degree average uses lambda_k, since variable-node degrees follow
    lambda.
    """
    if None in (pair0.cb, pair0.sb, pair.cb, pair.sb):
        raise ValueError("two_dim_var_step needs full NoisePairs")
    terms0 = _draw_terms(_upper_outcomes(pair0.cb, pair0.sb), 1)
    with np.errstate(over="ignore"):
        return NoisePair(*_cbsb_var(pair.cb, pair.sb, e, pair0.cb, terms0))


# ---------------------------------------------------------------------------
# the iteration driver and the threshold bisection
# ---------------------------------------------------------------------------

def run_recursion(step, measure, start, limits: IterationLimits, to_array, from_array,
                  decoded_below: float | None = None, order=None, steady: bool = False,
                  retry=None, ceiling=math.inf):
    """Iterate ``state = step(state)`` from ``start``, judged by ``measure``:
    the one loop of every bound, Z_m (``zm_iterate``) and DE (``de_decodable``).

    Returns (verdict, states, len(states) - 1, reason): "decodable" once the
    measure is below ``decoded_below`` ("decoded"; default ``DECODE_EPS``,
    DE's is its ub-cb radius), "not-decodable" at a repeated state (compared
    where two measures in a row are equal) or a fixed-point witness
    ("witness"), "inconclusive" at ``max_iter`` ("max_iter").  Tried,
    uncounted, on step 1 and every WITNESS_PERIOD-th step after: s* =
    from_array((1 - WITNESS_MARGIN) s_n + k (s_n - s_{n-1})), ``from_array``
    projecting onto the feasible states (``to_array`` is its inverse) and
    k = 3 r / (1 - r) for the Aitken ratio r of the measure (3 on step 1 and
    for r < 0), is a witness if measure(s*) >= ``decoded_below``, s* <= s_n
    and step(s*) >= s* in ``order`` (default ``to_array``, DE's the
    degradation profile).  No try is made while r >= 1: the run is not
    settling.  ``steady`` (DE) also wants r > 0 and, unless the last try
    step's r was outside (0, 1), within 5% of 1 - r of it: DE's r climbs
    through 1 on decodable runs, and each try on the way up costs a step.
    DE's ``retry`` projects s* again if it fails; witnesses lie below ``ceiling``.
    For a monotone step (ub-cb, lb-cb, ub-sb, Z_m, ub-cbsb on regular
    ensembles, DE) no later state falls below s*: a proof.  Otherwise
    (ub-cbsb with lambda_2 > 0) the witness can only end a run early,
    lowering an inner bound's threshold; it never certifies a channel.
    """
    decoded_below = DECODE_EPS if decoded_below is None else decoded_below
    order = order or to_array
    states, mus, r_last = [start], [measure(start)], -1.0
    for it in range(1, limits.max_iter + 1):
        states.append(step(states[-1]))
        mus.append(measure(states[-1]))
        if mus[-1] < decoded_below:
            return "decodable", states, it, "decoded"
        if (mus[-1] == mus[-2] and np.array_equal(to_array(states[-1]), to_array(states[-2]))
                and np.all(order(states[-1]) <= ceiling)):
            return "not-decodable", states, it, "witness"
        if it % WITNESS_PERIOD != 1:
            continue
        last = mus[-2] - mus[-3] if it > 1 else 0.0
        r = (mus[-1] - mus[-2]) / last if last else -1.0
        wobbly = steady and (r <= 0.0 or 0.0 < r_last < 1.0 and abs(r - r_last) > 0.05 * (1.0 - r))
        r_last = r
        if r >= 1.0 or wobbly:      # not settling on a fixed point
            continue
        k = 3.0 * r / (1.0 - r) if r >= 0.0 else 3.0
        cur = to_array(states[-1])
        x = (1.0 - WITNESS_MARGIN) * cur + k * (cur - to_array(states[-2]))
        for star in (project(x) for project in (from_array, retry) if project):
            s = order(star)
            if (measure(star) >= decoded_below and np.all(s <= order(states[-1]))
                    and np.all(s <= ceiling) and np.all(order(step(star)) >= s)):
                return "not-decodable", states, it, "witness"
    return "inconclusive", states, limits.max_iter, "max_iter"


def bisect(decodable, lo: float, hi: float, steps: int):
    """Bisect ``steps`` times: lo moves up where ``decodable(mid)``, else hi."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if decodable(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def check_cbsb_budget(e: DegreeEnsemble) -> None:
    """ValueError if a ub-cbsb variable-node SB could need more than
    ``ENUM_CAP`` terms: 6 C(d + 4, 5) at the largest lambda degree d (one
    channel draw, d - 1 message draws, six outcomes each), so d >= 28."""
    d = max(k for k, _ in e.lam)
    terms = 6 * math.comb(d + 4, 5)
    if terms > ENUM_CAP:
        raise ValueError(
            f"ub-cbsb at lambda degree {d} needs up to {terms} terms per "
            f"variable-node SB, past the exact enumeration budget "
            f"ENUM_CAP = {ENUM_CAP}")


def iterate_bound(kind: str, start: NoisePair, e: DegreeEnsemble,
                  limits: IterationLimits | None = None) -> BoundTrajectory:
    """Run a bound recursion from the uncoded channel's noise measures.

    Tracks CB (ub-cb, lb-cb), SB (ub-sb) or max(CB, SB) (ub-cbsb): decodable
    below ``DECODE_EPS``, not-decodable at a fixed-point witness of
    ``run_recursion`` (a start at a nonzero fixed point ends after one
    iteration), inconclusive at ``max_iter``; ``reason`` says which.

    ub-cbsb computes every variable-node SB exactly: ``check_cbsb_budget``
    refuses, before the first step, an ensemble past ``ENUM_CAP``.  The
    one-dimensional bounds accept every degree up to ``MAX_DEGREE``.
    ub-cbsb steps (cb, sb) float tuples by the float kernel.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    limits = limits or IterationLimits()

    if kind == "ub-cbsb":
        if start.cb is None or start.sb is None:
            raise ValueError("ub-cbsb needs a full NoisePair start")
        check_cbsb_budget(e)
        terms0 = _draw_terms(_upper_outcomes(start.cb, start.sb), 1)
        with np.errstate(over="ignore"):
            verdict, states, its, reason = run_recursion(
                lambda s: _cbsb_var(*_cbsb_check(*s, e), e, start.cb, terms0), max,
                (start.cb, start.sb), limits, np.array,
                lambda a: _project_feasible(*a.tolist()))
        return BoundTrajectory(kind, states, verdict, its, reason)

    coord = "sb" if kind == "ub-sb" else "cb"
    x0 = getattr(start, coord)
    if x0 is None:
        raise ValueError(f"{kind} needs start.{coord}")
    step = {"ub-cb": ub_cb_step, "lb-cb": lb_cb_step, "ub-sb": ub_sb_step}[kind]
    verdict, states, its, reason = run_recursion(lambda x: step(x, e, x0), float, x0, limits,
                                                 np.atleast_1d, lambda a: float(a.clip(0, 1)[0]))
    states = [(None, x) for x in states] if coord == "sb" else [(x, None) for x in states]
    return BoundTrajectory(kind, states, verdict, its, reason)


def ub_sb_star(p_star: float) -> float:
    """Non-iterative SB threshold from a decodable BSC crossover p_star.

    Every BI-SO channel with SB <= 4 p* (1 - p*) is certified decodable by
    the same ensemble.
    """
    if not 0.0 <= p_star <= 0.5:
        raise ValueError("p_star must lie in [0, 1/2]")
    return 4.0 * p_star * (1.0 - p_star)


# ---------------------------------------------------------------------------
# exact CB of a small bit-to-sequence channel, and the SB-matched replacement
# ---------------------------------------------------------------------------

MAX_COORDS = 12
MAX_ATOMS = 3
MAX_OUTPUT_CELLS = 1 << 21


@dataclass(frozen=True)
class SequenceMapperChannel:
    """A bit X mapped (possibly randomly) to a word, sent over per-coordinate
    BSC mixtures whose mixture labels are observed.

    ``words0``/``words1`` list (probability, bit-tuple) branches given X = 0
    and X = 1; the prior on X may be non-uniform.
    """
    prior0: float
    words0: tuple          # of (prob, word tuple)
    words1: tuple
    coords: tuple          # of BscMixture

    def __post_init__(self):
        if not 0.0 < self.prior0 < 1.0:
            raise ValueError("prior0 must lie strictly inside (0, 1)")
        n = len(self.coords)
        if n == 0 or n > MAX_COORDS:
            raise ValueError(f"need between 1 and {MAX_COORDS} coordinates")
        if any(len(c.atoms) > MAX_ATOMS for c in self.coords):
            raise ValueError(f"coordinate mixtures may have at most {MAX_ATOMS} atoms")
        cells = 1
        for c in self.coords:
            cells *= 2 * len(c.atoms)
        if cells > MAX_OUTPUT_CELLS:
            raise ValueError("instance too large for exact output enumeration")
        for words in (self.words0, self.words1):
            if abs(sum(p for p, _ in words) - 1.0) > 1e-12:
                raise ValueError("branch probabilities must sum to 1")
            if any(len(word) != n for _, word in words):
                raise ValueError("every word must have one bit per coordinate")


def _joint_output_weights(ch: SequenceMapperChannel, words) -> np.ndarray:
    """P(output cell | X) over the product space of (bit, atom) observations."""
    shapes = [2 * len(c.atoms) for c in ch.coords]
    acc = np.zeros(shapes) if len(shapes) > 1 else np.zeros(shapes[0])
    for prob, word in words:
        factor = np.array([1.0])
        for bit, mixture in zip(word, ch.coords):
            lik = []
            for w, p in mixture.atoms:
                # output cells ordered (atom, z=bit-received): z == sent w.p. 1-p
                lik.append(w * ((1.0 - p) if bit == 0 else p))       # z = 0
                lik.append(w * (p if bit == 0 else (1.0 - p)))       # z = 1
            factor = np.multiply.outer(factor, np.array(lik))
        acc = acc + prob * factor.reshape(acc.shape)
    return acc


def sequence_mapper_cb(ch: SequenceMapperChannel) -> float:
    """Exact CB = 2 sum_y sqrt(P(X=0, y) P(X=1, y)) by output enumeration."""
    a0 = _joint_output_weights(ch, ch.words0)
    a1 = _joint_output_weights(ch, ch.words1)
    return float(2.0 * math.sqrt(ch.prior0 * (1.0 - ch.prior0))
                 * np.sum(np.sqrt(a0 * a1)))


def sb_matched_bsc_replacement(ch: SequenceMapperChannel, coord: int = 0):
    """Replace one coordinate's mixture by the BSC matching E[4p(1-p)].

    Returns (cb_before, cb_after); the replacement never decreases the exact
    CB of the bit-to-sequence channel, for uniform or non-uniform priors.
    """
    mixture = ch.coords[coord]
    beta = sum(w * 4.0 * p * (1.0 - p) for w, p in mixture.atoms)
    p_match = float(_bsc_arrays(min(beta, 1.0))[0])
    replaced = list(ch.coords)
    replaced[coord] = BscMixture(((1.0, p_match),))
    after = SequenceMapperChannel(ch.prior0, ch.words0, ch.words1, tuple(replaced))
    return sequence_mapper_cb(ch), sequence_mapper_cb(after)
