"""Extremal BSC mixtures for moment-constrained node optimization.

Any BI-SO channel is a probabilistic mixture of BSCs indexed by
a = 2 sqrt(p(1-p)).  Maximizing a node's output noise measure subject to
first- and second-moment constraints E[a] <= CB_in, E[a^2] <= SB_in is a
linear program over that mixture weight.  This module carries the closed-form
solutions:

* ``check_node_maximizer`` -- the exact two-atom maximizer dP* for the check
  node transfer sqrt(a^2(1-b^2) + b^2), with its dual certificate.
* ``variable_node_pointwise_maximizer`` / ``s_envelope`` -- the b-dependent
  maximizer of the variable node SB transfer r_b(a) = a^2 b^2 / (a^2(1-b^2)+b^2)
  and its optimal value.
* ``variable_node_upper_family`` -- the b-independent three-atom family dP**
  whose r_b integral dominates the envelope for every b.  dP** always matches
  the second moment exactly but may overshoot E[a]; it bounds, it is not
  necessarily feasible.
* ``lp_oracle`` -- a brute-force grid LP used to verify all of the above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AtomicBscFamily", "check_transfer", "variable_transfer",
    "check_node_maximizer", "check_node_dual", "variable_node_upper_family",
    "s_envelope", "variable_node_pointwise_maximizer", "lp_oracle",
]

WEIGHT_TOL = 1e-12
DEGENERATE_TOL = 1e-14   # t - cb below this collapses dP** to a single BSC


@dataclass(frozen=True)
class AtomicBscFamily:
    """Finite list of (weight, a) atoms over the BSC index a = 2 sqrt(p(1-p))."""
    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(w), float(a)) for w, a in self.atoms)
        if not atoms:
            raise ValueError("family needs at least one atom")
        total = sum(w for w, _ in atoms)
        # negated comparisons, so that a NaN weight fails them too
        if not (all(w >= -WEIGHT_TOL for w, _ in atoms) and abs(total - 1.0) <= WEIGHT_TOL):
            raise ValueError("weights must be finite, nonnegative and sum to 1")
        if any(not -WEIGHT_TOL <= a <= 1.0 + WEIGHT_TOL for _, a in atoms):
            raise ValueError("BSC indices must lie in [0, 1]")
        object.__setattr__(self, "atoms", _normalised(atoms))

    def moment_a(self) -> float:
        return sum(w * a for w, a in self.atoms)

    def moment_a2(self) -> float:
        return sum(w * a * a for w, a in self.atoms)


def _normalised(atoms) -> tuple:
    """Weights over their total, indices clipped to [0, 1], zero weights
    dropped: the family's atoms, and the ub-cbsb kernel's (unvalidated)."""
    total = sum([w for w, _ in atoms])
    return tuple([(w / total, min(max(a, 0.0), 1.0)) for w, a in atoms if w > 0.0])


def check_transfer(a, b):
    """Output CB of a degree-3 check node with BSC inputs indexed a and b."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(a * a * (1.0 - b * b) + b * b)


def variable_transfer(a, b):
    """Output SB of a degree-3 variable node with BSC inputs indexed a and b."""
    a = np.asarray(a, dtype=float)
    num = a * a * b * b
    den = a * a * (1.0 - b * b) + b * b
    with np.errstate(invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return out


def check_node_maximizer(cb_in: float, sb_in: float) -> AtomicBscFamily:
    """Two-atom maximizer dP*: mass at a = 0 and at a = t = SB_in/CB_in.

    Matches both moments exactly: E[a] = CB_in, E[a^2] = SB_in.
    """
    if cb_in <= 0.0:
        return AtomicBscFamily(((1.0, 0.0),))
    t = sb_in / cb_in
    w = cb_in / t          # = cb_in^2 / sb_in
    return AtomicBscFamily(((1.0 - w, 0.0), (w, t)))


def check_node_dual(cb_in: float, sb_in: float, b: float):
    """Dual certificate (y0, y1, y2) for the check node LP at fixed b.

    Feasible (y0 + a y1 + a^2 y2 >= check_transfer(a, b) on [0, 1]) with zero
    gap against ``check_node_maximizer``.
    """
    t = sb_in / cb_in
    root = math.sqrt(t * t * (1.0 - b * b) + b * b)
    y0 = b
    y1 = 2.0 / t * ((t * t * (1.0 - b * b) + 2.0 * b * b) / (2.0 * root) - b)
    y2 = (b - b * b / root) / (t * t)
    return y0, y1, y2


def variable_node_upper_family(cb_in: float, sb_in: float) -> AtomicBscFamily:
    """The b-independent upper-bounding family dP** on {CB_in, sqrt(SB_in), t}.

    The middle-atom weight f is zero unless the small cubic
    eta(w) = w^3 - 2 t w^2 + (t - c)^2 w is positive somewhere on
    [2 sqrt(tc), t + c]; then f lifts the family just enough to dominate the
    envelope there.  E[a^2] = SB_in holds for every f.
    """
    return AtomicBscFamily(_upper_atoms(cb_in, sb_in))


def _upper_atoms(cb_in: float, sb_in: float) -> tuple:
    """dP**'s (weight, a) atoms before ``_normalised``."""
    c = cb_in
    if c <= DEGENERATE_TOL:
        return ((1.0, 0.0),)
    t = sb_in / c
    if t - c <= DEGENERATE_TOL:
        # BSC-consistent input: the family collapses to the single BSC
        return ((1.0, c),)
    gate = 2.0 * math.sqrt(t * c) - t + math.sqrt(c * (2.0 * t - c))
    if gate >= 0.0:
        f = 0.0
    else:
        def eta(w):
            return w ** 3 - 2.0 * t * w ** 2 + (t - c) ** 2 * w

        w0 = 2.0 * math.sqrt(t * c)
        eta_slope = 3.0 * w0 * w0 - 4.0 * t * w0 + (t - c) ** 2
        if eta_slope <= 0.0:
            ws = w0
        else:
            ws = (2.0 * t - math.sqrt(4.0 * t * t - 3.0 * (t - c) ** 2)) / 3.0
        f = eta(ws) / (2.0 * t * (t - c) ** 2)
    return (((1.0 - f) * t / (t + c), c),
            (f, math.sqrt(sb_in)),
            ((1.0 - f) * c / (t + c), t))


def s_envelope(cb_in: float, sb_in: float, b: float) -> float:
    """Optimal variable-node SB over feasible mixtures, as a function of b.

    Three pieces with breakpoints at b^2 = CB_in^2/(1+CB_in^2) and
    b^2 = t^2/(1+t^2), t = SB_in/CB_in.
    """
    c = cb_in
    if c <= 0.0 or b <= 0.0:
        return 0.0
    t = sb_in / c
    b2 = b * b
    if b2 * (1.0 + c * c) <= c * c:
        return c * c * b2 / (c * c * (1.0 - b2) + b2)
    if b2 * (1.0 + t * t) <= t * t:
        return 0.5 * c * math.sqrt(b2 / (1.0 - b2))
    return sb_in * b2 / (t * t * (1.0 - b2) + b2)


def variable_node_pointwise_maximizer(cb_in: float, sb_in: float,
                                      b: float) -> AtomicBscFamily:
    """The b-dependent maximizer attaining ``s_envelope`` exactly."""
    c = cb_in
    if c <= 0.0:
        return AtomicBscFamily(((1.0, 0.0),))
    t = sb_in / c
    b2 = b * b
    if b2 * (1.0 + c * c) <= c * c:
        return AtomicBscFamily(((1.0, c),))
    if b2 * (1.0 + t * t) <= t * t:
        a_t = math.sqrt(b2 / (1.0 - b2))
        w = c / a_t
        return AtomicBscFamily(((w, a_t), (1.0 - w, 0.0)))
    w = c * c / sb_in
    return AtomicBscFamily(((w, t), (1.0 - w, 0.0)))


def lp_oracle(transfer, cb_in: float, sb_in: float, grid_n: int = 200) -> float:
    """Maximize sum w_i transfer(a_i) over the grid a_i = i/grid_n subject to
    sum w = 1, sum w a <= cb_in, sum w a^2 <= sb_in and w >= 0.

    Three constraints mean an optimal vertex has at most three atoms, so all
    <=3-point supports are enumerated outright (no simplex).  Used as the
    independent oracle against the closed forms above; accuracy is O(1/grid_n)
    because the true atoms need not lie on the grid.
    """
    if grid_n < 50:
        raise ValueError("grid_n must be >= 50")
    if cb_in < 0.0 or sb_in < 0.0:
        raise ValueError("moment bounds must be nonnegative")
    a = np.arange(grid_n + 1) / grid_n
    f = np.asarray(transfer(a), dtype=float)
    best = -np.inf

    # single atoms: both moment constraints may stay slack
    ok = (a <= cb_in + WEIGHT_TOL) & (a * a <= sb_in + WEIGHT_TOL)
    if ok.any():
        best = float(f[ok].max())

    # two atoms with exactly one moment constraint tight
    for mom, lim, other, olim in ((a, cb_in, a * a, sb_in),
                                  (a * a, sb_in, a, cb_in)):
        m1 = mom[:, None]
        m2 = mom[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            w2 = (lim - m1) / (m2 - m1)
            w1 = 1.0 - w2
            val = w1 * f[:, None] + w2 * f[None, :]
            feas = ((w1 >= -WEIGHT_TOL) & (w2 >= -WEIGHT_TOL)
                    & (w1 * other[:, None] + w2 * other[None, :] <= olim + 1e-9)
                    & np.isfinite(val))
        if feas.any():
            best = max(best, float(val[feas].max()))

    # three atoms with both moments tight: Cramer on the Vandermonde system
    for i in range(grid_n - 1):
        ai = a[i]
        aj = a[i + 1:, None]
        ak = a[None, i + 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            w1 = (aj * ak - cb_in * (aj + ak) + sb_in) / ((aj - ai) * (ak - ai))
            w2 = (ai * ak - cb_in * (ai + ak) + sb_in) / ((aj - ai) * (aj - ak))
            w3 = (ai * aj - cb_in * (ai + aj) + sb_in) / ((ak - ai) * (ak - aj))
            feas = ((aj < ak) & (w1 >= -WEIGHT_TOL) & (w2 >= -WEIGHT_TOL)
                    & (w3 >= -WEIGHT_TOL))
        if feas.any():
            val = w1 * f[i] + w2 * f[i + 1:, None] + w3 * f[None, i + 1:]
            best = max(best, float(val[feas].max()))
    return best
