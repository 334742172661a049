"""Threshold searches and decodable-region sweeps.

Bisection assumes the decodability verdict is monotone in the channel
parameter (every supported family's noise measures increase with it); the
assumption is checked at the family's two ends, which take the same verdict
as every other probe, and a violation raises ``NonMonotoneError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from . import de as de_mod
from .binary_bounds import (IterationLimits, bisect, cb_ratio_samples,
                            check_cbsb_budget, grid_samples, iterate_bound,
                            ub_sb_sigma, ub_sb_star)
from .channels import (CHANNEL_FAMILIES, NoisePair, cb_of, sb_of)
from .ensembles import DegreeEnsemble, lambda2, rho_prime1

__all__ = [
    "SEARCH_BOUNDS", "ThresholdResult", "RegionGrid", "NonMonotoneError",
    "measure_threshold", "channel_threshold", "region_sweep",
]

SEARCH_BOUNDS = ("ub-cb", "lb-cb", "ub-sb", "ub-cbsb", "ub-sb-star", "de")
DEFAULT_BISECT_STEPS = 24


class NonMonotoneError(RuntimeError):
    """Decodability verdicts do not straddle at the probed bracket ends."""

    def __init__(self, family: str, lo, hi, lo_ok: bool, hi_ok: bool, sb_defeated: bool = False):
        if not lo_ok and not hi_ok:
            detail = "no decodable parameter in the bracket; the bound certifies nothing" + (
                " (lambda_2 rho'(1) >= 1 defeats the SB-based recursions)" if sb_defeated else "")
        elif lo_ok and hi_ok:
            detail = "the entire bracket is decodable"
        else:
            detail = "verdicts are non-monotone in the parameter"
        super().__init__(
            f"{detail} for {family}: decodable({lo})={lo_ok}, "
            f"decodable({hi})={hi_ok}")
        self.brackets = (lo, hi)
        self.verdicts = (lo_ok, hi_ok)


@dataclass(frozen=True)
class ThresholdResult:
    """Final bisection bracket [lo, hi] and its midpoint ``value``;
    ``iterations`` counts bisection steps, not the initial bracket probes."""
    parameter: str
    lo: float
    hi: float
    value: float
    source: str
    iterations: int

    def to_dict(self) -> dict:
        return {"schema": "bpbounds.threshold/1", **asdict(self)}


@dataclass
class RegionGrid:
    """Decodable-region sample: feasible (cb, sb) points with verdicts.

    A True point is certified decodable by the two-dimensional bound; a
    False one is proved undecodable if its reason is "lb-cb-star" (CB at or
    above lb-cb's CB*, where BP fails), else only "not certified".
    """
    points: list           # of (cb, sb, decodable, iterations, reason)
    overlays: dict         # ub_cb / ub_sb / ub_sb_star lines

    def to_csv(self, fh) -> None:
        fh.write("cb,sb,decodable,iterations,reason\n")
        for cb, sb, dec, it, reason in self.points:
            fh.write(f"{cb:.12g},{sb:.12g},{int(dec)},{it},{reason}\n")

    def overlays_json(self) -> str:
        return json.dumps({"schema": "bpbounds.region-overlays/1", **self.overlays},
                          sort_keys=True)


def _steps_for(lo: float, hi: float, tol: float | None, kind: str) -> int:
    """Fewest halvings (at most 60) that bring [lo, hi] to width tol or less;
    with tol None, DE_BISECT_STEPS for "de" (each probe a DE run) and
    DEFAULT_BISECT_STEPS for every other kind."""
    if tol is None:
        return de_mod.DE_BISECT_STEPS if kind == "de" else DEFAULT_BISECT_STEPS
    if not tol > 0:                 # NaN fails too
        raise ValueError("tol must be positive")
    steps = 0
    width = hi - lo
    while width > tol and steps < 60:
        width *= 0.5
        steps += 1
    return steps


def _sb_star(e: DegreeEnsemble) -> float:
    """SB* = min over x in (0, 1] of sigma(x), the least sb0 with
    F(x; sb0) >= x for F = ``ub_sb_step`` (+inf if none): F increases in x
    and sb0 and F(x; sb0) <= sb0, so the recursion from sb0 decodes iff
    sb0 < SB*.  sigma is ``ub_sb_sigma``, Newton's method on F's rational
    form in sb0: vectorised on the log grid of ``grid_samples``, scalar at
    each point of its Brent refinement.  F's slope at x = 0 is rho'(1)
    (lambda_2 + lambda_3 sb0 / 2), so SB* = 0 if lambda_2 rho'(1) >= 1, and
    sigma tends to 2 (1 - lambda_2 rho'(1)) / (lambda_3 rho'(1)) as x -> 0.
    sigma(x) can stay near x down to x ~ 4 / rho'(1)^2, where a degree-3
    node's channel stops outweighing its inputs: the grid starts 400 times
    lower."""
    slope = lambda2(e) * rho_prime1(e)
    if slope >= 1.0:
        return 0.0
    lam3 = sum(w for k, w in e.lam if k == 3)
    limit = 2.0 * (1.0 - slope) / (lam3 * rho_prime1(e)) if lam3 > 0.0 else math.inf
    _, vs = grid_samples(lambda x: ub_sb_sigma(x, e), min(1e-5, 0.01 / rho_prime1(e) ** 2))
    return min(float(vs.min()), limit, 1.0)


def measure_threshold(kind: str, e: DegreeEnsemble,
                      limits: IterationLimits | None = None) -> float:
    """Supremum of the scalar channel measure the bound still decodes.

    Every kind is computed directly, with no recursion: ub-cb and lb-cb
    return CB* (for ub-cb, the exact BEC threshold), ub-sb returns SB*, and
    ub-sb-star returns 4 p*(1-p*) with p* the midpoint of DE's final bracket
    on the BSC family, each DE run capped by ``limits``.  That midpoint is an
    estimate, not a crossover DE certified decodable, so the ub-sb-star value
    is not a proven inner bound.
    """
    if kind == "ub-sb-star":
        return ub_sb_star(channel_threshold("de", "bsc", e, limits=limits).value)
    if kind in ("ub-cb", "lb-cb"):         # CB* = inf x / g(x), at most 1
        _, vs, limit = cb_ratio_samples(kind, e)
        return min(float(vs.min()), limit, 1.0)
    if kind == "ub-sb":
        return _sb_star(e)
    raise ValueError(f"measure_threshold does not support kind {kind!r}")


def _cbsb_verdict(cb: float, run, stars) -> tuple[bool, int, str]:
    """(decodable, iterations, reason) of a channel or region point whose CB
    is ``cb``: BP's band verdict, shared by ub-cbsb and DE.

    ``stars`` = (CB* of ub-cb, CB* of lb-cb) settles cb below the first as
    decodable ("ub-cb-star": ub-cb's recursion decodes there, and its CB
    dominates ub-cbsb's and BP's) and cb at or above the second as not
    ("lb-cb-star": BP itself fails there).  Only in between is ``run()``
    called: the ub-cbsb recursion, returning the same triple, or None for DE."""
    if cb < stars[0]:
        return True, 0, "ub-cb-star"
    if cb >= stars[1]:
        return False, 0, "lb-cb-star"
    return run()


def _cbsb_run(cb: float, sb: float, e: DegreeEnsemble,
              limits: IterationLimits | None) -> tuple[bool, int, str]:
    traj = iterate_bound("ub-cbsb", NoisePair(cb=cb, sb=sb), e, limits)
    return traj.verdict == "decodable", traj.iterations, traj.reason


def _channel_verdict(kind: str, family, theta: float, e: DegreeEnsemble,
                     limits: IterationLimits | None, star) -> bool:
    ch = family.build(theta)
    # the channel's closed-form measure against the measure threshold
    if kind in ("ub-cb", "lb-cb"):
        return cb_of(ch) < star
    if kind == "ub-sb":
        return sb_of(ch) < star
    if kind == "ub-sb-star":
        return sb_of(ch) <= star
    cb = cb_of(ch)
    return _cbsb_verdict(cb, lambda: _cbsb_run(cb, sb_of(ch), e, limits), star)[0]


def channel_threshold(kind: str, family_name: str, e: DegreeEnsemble,
                      tol: float | None = None,
                      limits: IterationLimits | None = None,
                      p_star: float | None = None) -> ThresholdResult:
    """Bisect the channel-family parameter to width ``tol`` against a verdict.

    ub-cb and lb-cb compare the channel's CB with the closed-form CB*, ub-sb
    its SB with SB*, and "ub-sb-star" its SB with 4 p*(1-p*), p* the given
    ``p_star`` or else the midpoint of DE's final bracket on the BSC family:
    an estimate, not a certified decodable crossover, so that threshold is
    not a proven inner bound.  "lb-cb" yields an *outer* bound: parameters
    above its threshold are certainly undecodable, nothing below certified.
    "ub-cbsb" and "de" take ``_cbsb_verdict``'s band verdict at every probe,
    the family's ends included: CB* settles the channel where it can, and
    only between ub-cb's and lb-cb's CB* does the ub-cbsb recursion or a DE
    run decide (DE's warm, with two witnesses, as in ``de.search_verdict``).

    ``limits`` caps that recursion or DE run (DE's default DE_MAX_ITER);
    ub-sb-star's DE runs at DE's default.  ``tol`` None bisects
    DE_BISECT_STEPS (13) times for "de" and DEFAULT_BISECT_STEPS (24) for
    every other kind; ``iterations`` counts the bisection steps.
    """
    if kind not in SEARCH_BOUNDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {SEARCH_BOUNDS}")
    family = CHANNEL_FAMILIES[family_name]
    lo, hi = family.lo, family.hi
    if kind in ("ub-cbsb", "de"):
        star = (measure_threshold("ub-cb", e), measure_threshold("lb-cb", e))
    elif kind == "ub-sb-star" and p_star is not None:
        star = ub_sb_star(p_star)
    else:
        star = measure_threshold(kind, e)

    decodable = (de_mod.search_verdict(family, e, limits, lambda t: _cbsb_verdict(
        cb_of(family.build(t)), lambda: None, star)) if kind == "de"
        else lambda t: _channel_verdict(kind, family, t, e, limits, star))

    lo_probe = max(lo, 1e-9)
    hi_ok, lo_ok = decodable(hi), decodable(lo_probe)      # DE warm-starts downward
    if not lo_ok or hi_ok:
        sb_defeated = kind in ("ub-sb", "ub-cbsb") and lambda2(e) * rho_prime1(e) >= 1.0
        raise NonMonotoneError(family_name, lo_probe, hi, lo_ok, hi_ok, sb_defeated)

    steps = _steps_for(lo, hi, tol, kind)
    lo, hi = bisect(decodable, lo, hi, steps)
    return ThresholdResult(family.param, lo, hi, 0.5 * (lo + hi), kind, steps)


# ---------------------------------------------------------------------------
# decodable-region sweep
# ---------------------------------------------------------------------------

def region_sweep(e: DegreeEnsemble, n_cb: int, n_sb: int,
                 limits: IterationLimits | None = None,
                 p_star: float | None = None) -> RegionGrid:
    """Verdict of the two-dimensional bound on a feasible (cb, sb) grid.

    For each of n_cb values of cb the feasible band sb in [cb^2, cb] is
    sampled at n_sb points, each decided by ``_cbsb_verdict`` after one
    ub-cbsb budget check.  Overlay lines carry the one-dimensional
    thresholds; ub_sb_star uses the supplied p_star or runs the DE oracle.
    """
    if n_cb < 2 or n_sb < 2:
        raise ValueError("grid counts must be >= 2")
    check_cbsb_budget(e)
    stars = (measure_threshold("ub-cb", e), measure_threshold("lb-cb", e))
    points = []
    for i in range(n_cb):
        cb = i / (n_cb - 1)
        for j in range(n_sb):
            sb = cb * cb + (cb - cb * cb) * j / (n_sb - 1)
            points.append((cb, sb, *_cbsb_verdict(cb, lambda: _cbsb_run(cb, sb, e, limits),
                                                  stars)))
    overlays = {
        "ub_cb": stars[0],
        "ub_sb": measure_threshold("ub-sb", e),
        "ub_sb_star": (ub_sb_star(p_star) if p_star is not None
                       else measure_threshold("ub-sb-star", e)),
    }
    return RegionGrid(points=points, overlays=overlays)
