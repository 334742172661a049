import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import bpbounds.binary_bounds as bb_mod
from bpbounds import DegreeEnsemble, measure_threshold, regular_ensemble
from bpbounds.brent import minimize_bounded


def _test_functions(rng, n):
    """n smooth functions on [0, 1], some with several local minima."""
    out = []
    for _ in range(n):
        c, w = rng.uniform(0.05, 0.95), rng.uniform(1.0, 50.0)
        p = rng.choice([0.3, 1.0, 2.0, 7.0])
        out += [lambda x, c=c, w=w: (x - c) ** 2 + 0.01 * math.cos(w * x),
                lambda x, c=c, p=p: x ** p - c,
                lambda x, c=c, w=w: math.tanh(w * (x - c)) + 1e-3 * math.sin(40.0 * x)]
    return out


class TestAgainstScipy:
    # the port must return scipy's floats, not merely close ones
    def test_minimize_bounded(self):
        rng = np.random.default_rng(41)
        for f in _test_functions(rng, 100):
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            for xatol in (1e-7 * hi, 1e-5, 1e-12):
                fit = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                      options={"xatol": xatol})
                assert minimize_bounded(f, lo, hi, xatol) == (fit.x, fit.fun)


STAR_ENSEMBLES = [regular_ensemble(3, 6), regular_ensemble(4, 8), regular_ensemble(6, 12),
                  regular_ensemble(3, 30),
                  DegreeEnsemble(((2, 0.15), (3, 0.85)), ((6, 1.0),)),
                  DegreeEnsemble(((2, 0.05), (3, 0.6), (10, 0.35)), ((5, 0.3), (7, 0.7)))]


@pytest.mark.parametrize("e", STAR_ENSEMBLES, ids=range(len(STAR_ENSEMBLES)))
def test_cb_star_and_sb_star_equal_scipy_brent(monkeypatch, e):
    # CB* and SB* through scipy's minimize_scalar, as they were computed
    # before the port, and through the port: bit for bit
    got = [measure_threshold(kind, e) for kind in ("ub-cb", "lb-cb", "ub-sb")]
    calls = []

    def scipy_minimize(f, a, b, xatol):
        fit = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": xatol})
        calls.append("min")
        return fit.x, fit.fun

    monkeypatch.setattr(bb_mod, "minimize_bounded", scipy_minimize)
    assert got == [measure_threshold(kind, e) for kind in ("ub-cb", "lb-cb", "ub-sb")]
    assert calls


GRID_ENSEMBLES = STAR_ENSEMBLES + [regular_ensemble(5, 10)]


def _ulps_allowed(e):
    # numpy's log1p/expm1 and math's can differ by an ulp each, so the check
    # output u differs by a few ulps; lambda(u) = sum lambda_k u^(k-1) scales
    # a relative error by up to k - 1, and x / g rounds once more
    return 2 * (max(k for k, _ in e.lam) - 1) + 1


@pytest.mark.parametrize("kind", ["ub-cb", "lb-cb"])
@pytest.mark.parametrize("e", GRID_ENSEMBLES, ids=range(len(GRID_ENSEMBLES)))
def test_cb_ratio_grid_matches_scalar_ratio(kind, e):
    # the 201-point grid is one ndarray call; every sample, grid or Brent's,
    # lies within a few ulps of the scalar ratio x / g(x) at its x
    step = bb_mod.ub_cb_step if kind == "ub-cb" else bb_mod.lb_cb_step
    xs, vs, _ = bb_mod.cb_ratio_samples(kind, e)
    assert xs.size > 201
    for x, v in zip(xs.tolist(), vs.tolist()):
        want = x / step(x, e, 1.0)
        assert abs(v - want) <= _ulps_allowed(e) * math.ulp(want), (x, v, want)


@pytest.mark.parametrize("e", GRID_ENSEMBLES, ids=range(len(GRID_ENSEMBLES)))
def test_cb_star_equals_the_scalar_grid(monkeypatch, e):
    # CB* from the ndarray grid and from a grid of per-point scalar calls:
    # bit for bit, since the least sample is a Brent point on the float path
    got = [measure_threshold(kind, e) for kind in ("ub-cb", "lb-cb")]
    grid_samples = bb_mod.grid_samples

    def scalar_grid(f, lo):
        return grid_samples(lambda x: [f(v) for v in x.tolist()]
                            if isinstance(x, np.ndarray) else f(x), lo)

    monkeypatch.setattr(bb_mod, "grid_samples", scalar_grid)
    assert got == [measure_threshold(kind, e) for kind in ("ub-cb", "lb-cb")]
