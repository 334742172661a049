"""Iterative CB-vector bound and stability conditions for Z_m LDPC ensembles.

The state is the vector of pairwise Bhattacharyya parameters CB(0 -> x).
The step is lambda(rho(v)), evaluated as DE evaluates it: ``rho_eval``'s
powers are circular convolutions (``channels.circ_conv``, an upper bound on
the true check-node vector), lambda's component-wise products, and the
result is clipped entry-wise to 1.

The convolution bound is loose for m = 2, where the scalar recursion
``ub_cb_step`` is exact in the same bounding sense and strictly tighter; the
step therefore dispatches to it at m = 2, making the pipeline coincide with
the one-dimensional CB bound there.
"""

from __future__ import annotations

import numpy as np

from .binary_bounds import BoundTrajectory, IterationLimits, run_recursion, ub_cb_step
from .channels import CbVector, circ_conv
from .ensembles import DegreeEnsemble, lambda2, lambda_eval, rho_eval, rho_prime1

__all__ = [
    "cb_vec_convolve", "cb_vec_pointwise", "zm_bound_step", "zm_iterate",
    "sufficient_stability", "necessary_stability_violated", "gfq_stability",
    "convergence_rate",
]


def _require_same_m(u: CbVector, v: CbVector):
    if u.m != v.m:
        raise ValueError(f"alphabet sizes differ: {u.m} vs {v.m}")


def cb_vec_convolve(u: CbVector, v: CbVector) -> CbVector:
    """``circ_conv`` of two CB vectors; entries may exceed 1 and are not clipped."""
    _require_same_m(u, v)
    return CbVector(circ_conv(u.v, v.v))


def cb_vec_pointwise(u: CbVector, v: CbVector) -> CbVector:
    """Component-wise product (the variable-node combination)."""
    _require_same_m(u, v)
    return CbVector(u.v * v.v)


def zm_bound_step(v: CbVector, v0: CbVector, e: DegreeEnsemble) -> CbVector:
    """One iteration v' = min(1, v0 . lambda(rho(v))) of the vector bound.

    For m = 2 the scalar CB recursion is used instead (tighter; see module
    docstring), keeping entry 0 at min(1, v0[0]).
    """
    _require_same_m(v, v0)
    if v.m == 2:
        return CbVector(np.array([
            min(1.0, float(v0.v[0])),
            ub_cb_step(float(v.v[1]), e, float(v0.v[1])),
        ]))
    return CbVector(np.minimum(1.0, v0.v * lambda_eval(e, rho_eval(e, v.v, circ_conv))))


def zm_iterate(v0: CbVector, e: DegreeEnsemble,
               limits: IterationLimits | None = None) -> BoundTrajectory:
    """Iterate the vector bound from v = v0: a ``BoundTrajectory`` of kind
    "zm" whose states are CB vectors, "decodable" once max_{x != 0}
    v[x] < ``DECODE_EPS`` ("decoded": pairwise errors then vanish),
    "not-decodable" at a fixed-point witness ("witness", a proof: the step is
    monotone), "inconclusive" at max_iter ("max_iter").
    """
    if not v0.v.max() <= 1.0 + 1e-9:     # NaN fails too
        raise ValueError("initial CB vector entries must lie in [0, 1]")
    verdict, states, its, reason = run_recursion(
        lambda v: zm_bound_step(v, v0, e), CbVector.max_off_zero, v0,
        limits or IterationLimits(), lambda v: v.v, lambda a: CbVector(np.clip(a, 0, 1)))
    return BoundTrajectory("zm", states, verdict, its, reason)


def sufficient_stability(e: DegreeEnsemble, v: CbVector) -> bool:
    """True iff lambda_2 rho'(1) v[x] < 1 for every x != 0 (code is stable)."""
    coef = lambda2(e) * rho_prime1(e)
    return bool(np.all(coef * v.v[1:] < 1.0))


def necessary_stability_violated(e: DegreeEnsemble, v: CbVector) -> bool:
    """True iff some x != 0 has lambda_2 rho'(1) v[x] > 1 (error floor certain)."""
    coef = lambda2(e) * rho_prime1(e)
    return bool(np.any(coef * v.v[1:] > 1.0))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def gfq_stability(e: DegreeEnsemble, v: CbVector, q: int):
    """GF(q) stability pair: both predicates on the off-zero average.

    Uniform nonzero edge weights average the pairwise error pattern, so the
    scalar (sum_{x != 0} v[x]) / (q - 1) replaces each individual entry.
    """
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if v.m != q:
        raise ValueError(f"CB vector has m={v.m}, expected q={q}")
    coef = lambda2(e) * rho_prime1(e)
    avg = float(v.v[1:].sum()) / (q - 1)
    return coef * avg < 1.0, coef * avg > 1.0


def convergence_rate(e: DegreeEnsemble, v0: CbVector) -> float:
    """Asymptotic per-iteration contraction factor near the zero fixed point:
    lambda_2 rho'(1) max_{x != 0} v0[x] (zero means superexponential decay)."""
    return lambda2(e) * rho_prime1(e) * v0.max_off_zero()
