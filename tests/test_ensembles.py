import functools
import operator

import numpy as np
import pytest

from bpbounds import (DegreeEnsemble, regular_ensemble, lambda_eval, rho_eval,
                      lambda2, rho_prime1, design_rate, ensemble_from_json,
                      ensemble_to_json)
from bpbounds.channels import circ_conv


def test_regular_36_polynomials():
    e = regular_ensemble(3, 6)
    assert lambda_eval(e, 0.5) == pytest.approx(0.25)
    assert rho_eval(e, 0.5) == pytest.approx(0.03125, abs=1e-15)
    assert lambda_eval(e, 1.0) == 1.0
    assert rho_eval(e, 1.0) == 1.0


def test_lambda2_and_rho_prime():
    e = regular_ensemble(3, 6)
    assert lambda2(e) == 0.0
    assert rho_prime1(e) == 5.0
    e2 = DegreeEnsemble(((2, 0.5), (3, 0.5)), ((4, 0.4), (6, 0.6)))
    assert lambda2(e2) == pytest.approx(0.5)
    assert rho_prime1(e2) == pytest.approx(0.4 * 3 + 0.6 * 5)


def test_design_rate():
    assert design_rate(regular_ensemble(3, 6)) == pytest.approx(0.5)
    assert design_rate(regular_ensemble(2, 3)) == pytest.approx(1.0 / 3.0)
    e = DegreeEnsemble(((3, 1.0),), ((3, 1.0),))
    assert design_rate(e) == pytest.approx(0.0)


def test_eval_edges():
    e = DegreeEnsemble(((3, 0.5), (4, 0.5)), ((6, 1.0),))
    assert lambda_eval(e, 0.0) == 0.0   # no degree-2 mass


def test_monotone_on_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        degs = rng.choice(np.arange(2, 12), size=3, replace=False)
        mass = rng.dirichlet(np.ones(3))
        e = DegreeEnsemble(tuple(zip(degs.tolist(), mass.tolist())), ((6, 1.0),))
        xs = np.sort(rng.uniform(0, 1, 10))
        vals = [lambda_eval(e, x) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


RHO_MIX = DegreeEnsemble(((3, 1.0),), ((2, 0.1), (5, 0.2), (6, 0.3), (11, 0.25), (33, 0.15)))


def _naive_rho(e, x, mul):
    return sum(w * functools.reduce(mul, [x] * (k - 1)) for k, w in e.rho)


@pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 0.73, 0.999, 1.0])
def test_rho_eval_scalar_matches_naive_products(x):
    # repeated squaring reassociates the power; for associative products
    # only rounding may differ
    assert rho_eval(RHO_MIX, x) == pytest.approx(_naive_rho(RHO_MIX, x, operator.mul),
                                                 rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m", [3, 8, 64])
def test_rho_eval_convolution_matches_naive_products(m):
    rng = np.random.default_rng(m)
    v = rng.uniform(0.0, 1.0, m)
    v = 0.5 * (v + np.roll(v[::-1], 1))
    np.testing.assert_allclose(rho_eval(RHO_MIX, v, circ_conv),
                               _naive_rho(RHO_MIX, v, circ_conv), rtol=1e-13, atol=0.0)


def test_validation():
    with pytest.raises(ValueError):
        DegreeEnsemble(((1, 1.0),), ((6, 1.0),))        # degree < 2
    with pytest.raises(ValueError):
        DegreeEnsemble(((3, 0.6), (3, 0.4)), ((6, 1.0),))   # duplicate degree
    with pytest.raises(ValueError):
        DegreeEnsemble(((3, 0.7),), ((6, 1.0),))        # masses below 1
    with pytest.raises(ValueError):
        DegreeEnsemble(((20_000, 1.0),), ((6, 1.0),))   # degree cap


@pytest.mark.parametrize("lam", [((3.5, 1.0),), (("3", 1.0),), ((3, True),),
                                 ((True, 1.0),), ((3, "1.0"),), ((float("inf"), 1.0),),
                                 (3,), 5, ((3, 1.0, 0.0),)])
def test_malformed_pairs_refused(lam):
    # 3.5 ran as degree 3, and "3", "1.0" and a True mass were taken as
    # numbers; inf and sides that are not pairs raised OverflowError or TypeError
    with pytest.raises(ValueError):
        DegreeEnsemble(lam, ((6, 1.0),))


def test_integral_degrees_accepted():
    want = regular_ensemble(3, 6)
    assert DegreeEnsemble(((3.0, 1.0),), ((np.int64(6), np.float64(1.0)),)) == want
    assert type(DegreeEnsemble(((np.int32(3), 1),), ((6, 1),)).lam[0][0]) is int


@pytest.mark.parametrize("build", [
    lambda: DegreeEnsemble(((3, float("nan")),), ((6, 1.0),)),
    lambda: DegreeEnsemble(((3, 1.0),), ((5, 0.5), (6, float("nan")))),
    lambda: ensemble_from_json('{"lambda": [[3, NaN]], "rho": [[6, 1.0]]}'),
], ids=["lambda", "rho", "json"])
def test_nan_mass_refused(build):
    with pytest.raises(ValueError):
        build()


def test_json_round_trip():
    e = DegreeEnsemble(((2, 0.3), (3, 0.7)), ((5, 0.5), (6, 0.5)))
    again = ensemble_from_json(ensemble_to_json(e))
    assert again == e


def test_json_mass_tolerance():
    ensemble_from_json('{"lambda": [[3, 1.0000000005]], "rho": [[6, 1.0]]}')
    with pytest.raises(ValueError):
        ensemble_from_json('{"lambda": [[3, 1.01]], "rho": [[6, 1.0]]}')
    with pytest.raises(ValueError):
        ensemble_from_json('{"lambda": [[3, 1.0]]}')


def test_empty_distribution_is_refused():
    with pytest.raises(ValueError, match="lambda distribution is empty"):
        DegreeEnsemble((), ((6, 1.0),))
