import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq, minimize_scalar

import bpbounds.binary_bounds as bb_mod
import bpbounds.search as search_mod
from bpbounds import DegreeEnsemble, measure_threshold, regular_ensemble
from bpbounds.brent import brentq, minimize_bounded


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
    # the ports must return scipy's floats, not merely close ones
    def test_minimize_bounded(self):
        rng = np.random.default_rng(41)
        for f in _test_functions(rng, 100):
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            for xatol in (1e-7 * hi, 1e-5, 1e-12):
                fit = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                      options={"xatol": xatol})
                assert minimize_bounded(f, lo, hi, xatol) == (fit.x, fit.fun)

    def test_brentq(self):
        rng = np.random.default_rng(42)
        signs = set()
        for f in _test_functions(rng, 100):
            for xtol in (1e-15, 2e-12, 1e-6):
                try:
                    want = scipy_brentq(f, 0.0, 1.0, xtol=xtol)
                except ValueError:          # f(0) and f(1) share a sign
                    want = None
                assert brentq(f, 0.0, 1.0, xtol) == want
                signs.add(want is None)
        assert signs == {True, False}

    def test_brentq_refuses_to_stop_short(self):
        with pytest.raises(RuntimeError, match="converge"):
            brentq(lambda x: x ** 7 - 0.3, 0.0, 1.0, 1e-15, maxiter=2)


STAR_ENSEMBLES = [regular_ensemble(3, 6), regular_ensemble(4, 8), regular_ensemble(6, 12),
                  regular_ensemble(3, 30),
                  DegreeEnsemble(((2, 0.15), (3, 0.85)), ((6, 1.0),)),
                  DegreeEnsemble(((2, 0.05), (3, 0.6), (10, 0.35)), ((5, 0.3), (7, 0.7)))]


@pytest.mark.parametrize("e", STAR_ENSEMBLES, ids=range(len(STAR_ENSEMBLES)))
def test_cb_star_and_sb_star_equal_scipy_brent(monkeypatch, e):
    # CB* and SB* through scipy's minimize_scalar and brentq, as they were
    # computed before the ports, and through the ports: bit for bit
    got = [measure_threshold(kind, e) for kind in ("ub-cb", "lb-cb", "ub-sb")]
    calls = []

    def scipy_minimize(f, a, b, xatol):
        fit = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": xatol})
        calls.append("min")
        return fit.x, fit.fun

    def scipy_root(f, a, b, xtol):
        calls.append("root")
        try:
            return scipy_brentq(f, a, b, xtol=xtol)
        except ValueError:
            return None

    monkeypatch.setattr(bb_mod, "minimize_bounded", scipy_minimize)
    monkeypatch.setattr(search_mod, "brentq", scipy_root)
    assert got == [measure_threshold(kind, e) for kind in ("ub-cb", "lb-cb", "ub-sb")]
    assert {"min", "root"} <= set(calls)
