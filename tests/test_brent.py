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
