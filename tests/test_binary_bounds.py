import functools
import itertools
import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bpbounds import (AtomicBscFamily, BscMixture, DegreeEnsemble,
                      IterationLimits, MscChannel, NoisePair,
                      SequenceMapperChannel, cb_vector_of, iterate_bound,
                      lb_cb_step, measure_threshold, phi_variable_sb,
                      regular_ensemble, sb_matched_bsc_replacement,
                      sequence_mapper_cb, two_dim_check_step,
                      two_dim_var_step, ub_cb_step, ub_sb_star, ub_sb_step,
                      variable_node_upper_family, zm_iterate)
from bpbounds.binary_bounds import (DECODE_EPS, ENUM_CAP, WITNESS_MARGIN, WITNESS_PERIOD,
                                    _bec_check, _bsc_outcomes, _cbsb_check,
                                    _mixture_check_cb, _project_feasible,
                                    run_recursion, ub_sb_sigma)
from bpbounds.ensembles import lambda_eval, rho_eval


@pytest.fixture(scope="module")
def e36():
    return regular_ensemble(3, 6)


@functools.lru_cache(maxsize=None)
def _exact_bsc(a):
    """(P(flip), |LLR|) of the BSC of index a = 2 sqrt(p (1 - p)), in 40 digits."""
    with mpmath.workdps(40):
        p = (1 - mpmath.sqrt(1 - mpmath.mpf(a) ** 2)) / 2
        return float(p), float(mpmath.log((1 - p) / p))


def _bsc(a):
    return AtomicBscFamily(((1.0, a),))


def _sign_pattern_sb(avals):
    """Reference SB of a BSC combination: every one of the 2^d sign patterns."""
    vals = [a for a in avals if a < 1.0]
    if any(a <= 0.0 for a in vals):
        return 0.0
    pm = [_exact_bsc(a) for a in vals]
    total = 0.0
    for signs in itertools.product((0, 1), repeat=len(pm)):
        w, m = 1.0, 0.0
        for (p, mag), s in zip(pm, signs):
            w, m = (w * p, m - mag) if s else (w * (1.0 - p), m + mag)
        if m < 700.0:
            total += w * 2.0 / (1.0 + math.exp(m))
    return total


def _monte_carlo_phi(fam0, famin, d_minus_1, seed, n=1_000_000):
    """Monte Carlo SB of one fam0 draw plus d_minus_1 famin draws, with its
    standard error."""
    rng = np.random.default_rng(seed)
    llr = np.zeros(n)
    for fam in [fam0] + [famin] * d_minus_1:
        w = np.array([x for x, _ in fam.atoms])
        a = np.array([x for _, x in fam.atoms])
        pick = rng.choice(a.size, size=n, p=w)
        pm = [_exact_bsc(ai) if ai > 0 else (0.0, np.inf) for ai in a]
        p = np.array([x for x, _ in pm])[pick]
        mag = np.array([x for _, x in pm])[pick]
        llr += np.where(rng.random(n) < p, -mag, mag)
    vals = 2.0 / (1.0 + np.exp(np.clip(llr, -700, 700)))
    return float(np.mean(vals)), float(np.std(vals)) / math.sqrt(n)


def _ordered_pick_phi(ch0, chin, d_minus_1):
    """Reference phi_variable_sb: every ordered atom pick, each one a BSC combination."""
    out = 0.0
    for picks in itertools.product(chin.atoms, repeat=d_minus_1):
        w_in = math.prod(w for w, _ in picks)
        for w0, a0 in ch0.atoms:
            out += w_in * w0 * _sign_pattern_sb([a0] + [a for _, a in picks])
    return out


class TestCbSteps:
    def test_ub_below_threshold_converges(self, e36):
        cb = cb0 = 0.4293
        for _ in range(20_000):
            cb = ub_cb_step(cb, e36, cb0)
            if cb < 1e-10:
                break
        assert cb < 1e-10

    def test_ub_above_threshold_stalls(self, e36):
        cb = cb0 = 0.44
        for _ in range(2_000):
            cb = ub_cb_step(cb, e36, cb0)
        assert cb > 1e-2

    def test_zero_fixed_point(self, e36):
        assert ub_cb_step(0.0, e36, 0.5) == 0.0
        assert lb_cb_step(0.0, e36, 0.5) == 0.0

    def test_lb_edges(self, e36):
        assert lb_cb_step(1.0, e36, 0.37) == pytest.approx(0.37)

    def test_lb_check_stage_does_not_cancel_at_tiny_cb(self):
        # 1 - (1 - cb^2)^(k-1) computed directly rounds near cb = 1e-8, and
        # on (2, 4), where lambda_2 = 1, lb-cb then stalled at a false fixed
        # point there for every cb0 in 0.41-0.55, below 1/sqrt(3)
        e = regular_ensemble(2, 4)
        for cb in (1e-6, 1e-8, 3e-9, 1e-12):
            want = pytest.approx(math.sqrt(3.0) * cb, rel=1e-9)
            assert _mixture_check_cb(cb, 1.0, e) == want
            assert lb_cb_step(cb, e, 1.0) == want
        for cb0 in (0.41, 0.45, 0.5, 0.55, 0.57):
            assert iterate_bound("lb-cb", NoisePair(cb=cb0), e).verdict == "decodable"
        assert iterate_bound("lb-cb", NoisePair(cb=0.58), e).verdict != "decodable"

    def test_lb_step_does_not_cancel_at_tiny_cb(self):
        # two BSC check inputs: sqrt(1 - (1 - c^2)^2) = c sqrt(2 - c^2); the
        # plain product rounded these to 0.0 and 1.49e-8
        e = regular_ensemble(3, 3)
        for c in (3e-9, 1e-8):
            assert _mixture_check_cb(c, 1.0, e) == pytest.approx(c * math.sqrt(2.0 - c * c),
                                                                 rel=1e-12)
            assert lb_cb_step(c, e, 1.0) == pytest.approx(c * c * (2.0 - c * c), rel=1e-12)

    @pytest.mark.parametrize("e", [regular_ensemble(3, 6), regular_ensemble(6, 12),
                                   DegreeEnsemble(((2, 0.15), (3, 0.85)), ((6, 1.0),))],
                             ids=["3-6", "6-12", "lambda-2"])
    def test_array_call_matches_scalar_calls(self, e):
        # CB*'s grid calls both steps on an ndarray: elementwise within a few
        # ulps of the float path (numpy's log1p/expm1 against math's, the
        # error scaled by the variable degree), and at x = 1e-300, where t^2
        # underflows, lb-cb's check stage is scaled from 2^-500 as on floats
        xs = np.array([0.0, 1e-300, 1e-160, 1e-5, 0.3, 1.0])
        ulps = 2 * (max(k for k, _ in e.lam) - 1) + 1
        for step in (ub_cb_step, lb_cb_step):
            for cb0 in (1.0, 0.4):
                got = step(xs, e, cb0)
                assert isinstance(got, np.ndarray) and got.shape == xs.shape
                for x, g in zip(xs.tolist(), got.tolist()):
                    want = step(x, e, cb0)
                    assert abs(g - want) <= ulps * math.ulp(want), (step.__name__, x, g, want)
        tiny = np.array([1e-300, 1e-160])
        assert _mixture_check_cb(tiny, 1.0, e).tolist() == [
            _mixture_check_cb(t, 1.0, e) for t in tiny.tolist()]
        if e.lam[0][0] == 2:                # lambda_2 > 0: g(1e-300) is not 0
            assert (ub_cb_step(tiny, e, 1.0) > 0.0).all()
            assert (lb_cb_step(tiny, e, 1.0) > 0.0).all()

    def test_lb_below_ub_pointwise(self, e36):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cb, cb0 = rng.uniform(0, 1, 2)
            assert lb_cb_step(cb, e36, cb0) <= ub_cb_step(cb, e36, cb0) + 1e-15

    def test_steps_monotone_in_inputs(self, e36):
        rng = np.random.default_rng(1)
        for step in (ub_cb_step, lb_cb_step, ub_sb_step):
            for _ in range(200):
                a, b = sorted(rng.uniform(0, 1, 2))
                x0 = rng.uniform(0, 1)
                assert step(a, e36, x0) <= step(b, e36, x0) + 1e-15
                assert step(a, e36, x0 * 0.5) <= step(a, e36, x0) + 1e-15

    def test_two_dim_steps_monotone_in_inputs(self, e36):
        # monotonicity in each measure justifies bisection on the parameter
        rng = np.random.default_rng(7)
        for _ in range(150):
            cb_a = rng.uniform(1e-2, 0.98)
            sb_a = rng.uniform(cb_a * cb_a, cb_a)
            cb_b = rng.uniform(cb_a, 1.0)
            sb_b = rng.uniform(max(sb_a, cb_b * cb_b), cb_b)
            out_a = two_dim_check_step(NoisePair(cb_a, sb_a), e36)
            out_b = two_dim_check_step(NoisePair(cb_b, sb_b), e36)
            assert out_a.cb <= out_b.cb + 1e-12
            assert out_a.sb <= out_b.sb + 1e-12
            ch0 = NoisePair(0.5, 0.3)
            var_a = two_dim_var_step(ch0, out_a, e36)
            var_b = two_dim_var_step(ch0, out_b, e36)
            assert var_a.cb <= var_b.cb + 1e-12
            assert var_a.sb <= var_b.sb + 1e-12


class TestBscCombinationSb:
    """phi_variable_sb on single-atom families: one BSC of index a0 and
    d - 1 of index a."""

    def test_single_input_is_a_squared(self):
        # p = (1 - sqrt(1 - a^2)) / 2 cancels: it gave 1.61 a^2 at a = 1e-8
        # and 0.50 a^2 at a = 1e-9, an SB below the truth
        for a in (0.1, 0.5, 0.9, 1e-7, 1e-8, 1e-9, 1e-12):
            assert phi_variable_sb(_bsc(a), _bsc(0.5), 0) == pytest.approx(a * a, rel=1e-12,
                                                                           abs=0.0)

    def test_perfect_input_wins(self):
        assert phi_variable_sb(_bsc(0.0), _bsc(0.7), 2) == 0.0
        assert phi_variable_sb(_bsc(0.7), _bsc(0.0), 2) == 0.0

    def test_useless_input_dropped(self):
        a = 0.37
        assert phi_variable_sb(_bsc(a), _bsc(1.0), 1) == pytest.approx(a * a, abs=1e-12)

    def test_matches_monte_carlo_oracle(self):
        mc, se = _monte_carlo_phi(_bsc(0.3), _bsc(0.5), 5, seed=2, n=400_000)
        assert abs(phi_variable_sb(_bsc(0.3), _bsc(0.5), 5) - mc) < 4 * se

    def test_matches_sign_pattern_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            d = int(rng.integers(1, 11))
            a0, a = rng.choice([0.0, 1e-9, 0.2, 0.45, 0.8, 0.999, 1.0], size=2)
            assert phi_variable_sb(_bsc(a0), _bsc(a), d - 1) == pytest.approx(
                _sign_pattern_sb([a0] + [a] * (d - 1)), rel=1e-12, abs=1e-300)


def _mp_node_sb(sb0, sb, check_deg, n):
    """SB of a variable node fed by the BSC of SB sb0 and n BSCs of SB
    u = 1 - (1 - sb)^(check_deg - 1), each input's BEC check output, in 40
    digits: a sum over the channel sign and the number of flipped inputs."""
    with mpmath.workdps(40):
        def bsc(x):                     # (P(flip), |LLR|) of the BSC of SB x
            p = (1 - mpmath.sqrt(1 - x)) / 2
            return p, mpmath.log((1 - p) / p)

        p0, l0 = bsc(mpmath.mpf(sb0))
        p, ll = bsc(1 - (1 - mpmath.mpf(sb)) ** (check_deg - 1))
        total = mpmath.mpf(0)
        for j in range(n + 1):
            w = mpmath.binomial(n, j) * p ** j * (1 - p) ** (n - j)
            lj = (n - 2 * j) * ll
            total += w * 2 * ((1 - p0) / (1 + mpmath.exp(l0 + lj))
                              + p0 / (1 + mpmath.exp(lj - l0)))
        return float(total)


class TestUbSbStep:
    def test_zero(self, e36):
        assert ub_sb_step(0.0, e36, 0.0) == 0.0

    @pytest.mark.parametrize("k", [2, 3, 6, 25, 2000])
    def test_variable_stage_matches_combination(self, k):
        # against a 40-digit sum over the channel sign and the number of
        # flipped inputs; the inputs keep the output SB near 0.02 even at
        # k = 2000
        e = regular_ensemble(k, 2 * k)
        a_in = 0.1 ** (1.0 / (k - 1))
        sb = 1.0 - (1.0 - a_in * a_in) ** (1.0 / (2 * k - 1))
        sb0 = 0.3
        want = _mp_node_sb(sb0, sb, 2 * k, k - 1)
        assert 1e-3 < want < 1.0
        assert ub_sb_step(sb, e, sb0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lam", [((3, 1.0),), ((2, 0.15), (3, 0.85)),
                                     ((2, 0.05), (3, 0.45), (4, 0.5))])
    def test_slope_at_zero(self, lam):
        # F(x; sb0) / x -> rho'(1) (lambda_2 + lambda_3 sb0 / 2) as x -> 0: the
        # check stage no longer cancels there (x = 1e-12 rounded u by 1e-4)
        e = DegreeEnsemble(lam, ((6, 1.0),))
        l2, l3 = (sum(w for k, w in e.lam if k == d) for d in (2, 3))
        for sb0 in (0.05, 0.3, 0.9):
            for x in (1e-9, 1e-12, 1e-15):
                assert ub_sb_step(x, e, sb0) / x == pytest.approx(
                    5.0 * (l2 + l3 * sb0 / 2.0), rel=1e-6)

    @pytest.mark.parametrize("e, x, sb0", [
        (DegreeEnsemble(((3, 0.5), (2000, 0.5)), ((6, 0.5), (2000, 0.5))), 0.3, 1e-300),
        (regular_ensemble(4, 8), 0.19987196386572526, 8.554672535565615e-245),
        (regular_ensemble(6, 12), 0.7322538337604526, 1e-300)])
    def test_never_exceeds_the_channel_sb(self, e, x, sb0):
        # the lgamma binomial weights sum to 1 + 1e-15 here, which put F up
        # to 3.3e-13 (relative) above sb0; no node output exceeds its channel
        assert ub_sb_step(x, e, sb0) <= sb0
        assert ub_sb_step(np.array([x]), e, np.array([sb0]))[0] <= sb0

    def test_threshold_frozen(self, e36):
        # frozen from the scratch bisection of this recursion: 0.263465
        lo, hi = 0.0, 1.0
        for _ in range(20):
            mid = (lo + hi) / 2
            s = mid
            ok = False
            for _ in range(5_000):
                sn = ub_sb_step(s, e36, mid)
                if sn < 1e-10:
                    ok = True
                    break
                if abs(sn - s) < 1e-13:
                    break
                s = sn
            lo, hi = (mid, hi) if ok else (lo, mid)
        assert (lo + hi) / 2 == pytest.approx(0.263465, abs=5e-5)


def _side(draw):
    degrees = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True))
    masses = draw(st.lists(st.floats(0.01, 1.0), min_size=len(degrees),
                           max_size=len(degrees)))
    return tuple((k, m / sum(masses)) for k, m in zip(degrees, masses))


@st.composite
def ensembles_to_12(draw):
    return DegreeEnsemble(_side(draw), _side(draw))


class TestUbSbSigma:
    @settings(max_examples=300, deadline=None)
    @given(e=ensembles_to_12(), x=st.floats(-6.0, 0.0).map(lambda t: 10.0 ** t))
    def test_least_root(self, e, x):
        # sigma(x) is a root, F(x; sigma) >= x, and no float a few roundings
        # of F below it is one.  F's relative slope k = s F'(s) / F(s) is at
        # most 1, and near 1 - lambda_2 rho'(1) at small x, so one rounding
        # of F moves the least root by about 1 / k ulps: the margin is at
        # least 8 / k ulps, by the secant of F over [sigma / 2, sigma], k2,
        # which lies between k and 2 k (each term s w / (1 + s a) is concave)
        sigma = ub_sb_sigma(x, e)
        assert isinstance(sigma, float) and not math.isnan(sigma)
        assert (sigma == math.inf) == (ub_sb_step(x, e, 1.0) < x)
        if sigma < math.inf:
            f = ub_sb_step(x, e, sigma)
            assert f >= x
            k2 = 2.0 * (1.0 - ub_sb_step(x, e, 0.5 * sigma) / f)
            assert ub_sb_step(x, e, sigma * (1.0 - 16.0 * 2.0 ** -52 / k2)) < x

    @pytest.mark.parametrize("e", [regular_ensemble(3, 6), regular_ensemble(4, 8),
                                   regular_ensemble(5, 10), regular_ensemble(6, 12),
                                   DegreeEnsemble(((2, 0.15), (3, 0.85)), ((6, 1.0),)),
                                   DegreeEnsemble(((2, 0.05), (3, 0.45), (4, 0.5)), ((6, 1.0),)),
                                   DegreeEnsemble(((2, 0.1), (4, 0.9)), ((6, 1.0),))],
                             ids=["3-6", "4-8", "5-10", "6-12", "lambda-3-limit",
                                  "irregular-c", "irregular-d"])
    def test_sb_star_misses_no_dip(self, e):
        # SB* = min sigma on a 201-point grid refined by Brent's method: no
        # point of a 20,000-point grid dips below it
        xs = np.geomspace(1e-7, 1.0, 20_000)
        assert ub_sb_sigma(xs, e).min() >= measure_threshold("ub-sb", e) - 1e-15

    @pytest.mark.parametrize("e", [regular_ensemble(3, 6), regular_ensemble(4, 8),
                                   regular_ensemble(6, 12),
                                   DegreeEnsemble(((2, 0.3), (3, 0.7)), ((6, 1.0),))],
                             ids=["3-6", "4-8", "6-12", "lambda-0.3-0.7"])
    def test_vectorised_equals_scalar(self, e):
        # SB*'s grid and Brent's refinement both run _ub_sb_terms' ndarray
        # check stage, so a float x gives its array element to the bit
        xs = np.geomspace(1e-6, 1.0, 50)
        assert ub_sb_sigma(xs, e).tolist() == [ub_sb_sigma(float(x), e) for x in xs]

    def test_perfect_channel_and_overflowing_terms(self, e36):
        # sb0 = 0 gives 0; at x = 1e-300 and degree 2000 sinh^2 overflows
        # to inf and its terms vanish, with no NaN and no warning
        wide = DegreeEnsemble(((3, 0.5), (2000, 0.5)), ((6, 0.5), (2000, 0.5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in (e36, wide, regular_ensemble(2000, 4000)):
                for x in (1e-300, 1e-12, 0.3, 1.0):
                    assert ub_sb_step(x, e, 0.0) == 0.0
                    for sb0 in (1e-300, 1e-8, 0.5, 1.0):
                        assert 0.0 <= ub_sb_step(x, e, sb0) <= 1.0
                sigma = ub_sb_sigma(1e-300, e)
                assert (sigma == math.inf) == (ub_sb_step(1e-300, e, 1.0) < 1e-300)
            for e in (e36, wide):
                assert 0.0 < ub_sb_sigma(1e-300, e) < 1.0


class TestTwoDimCheckStep:
    def test_bsc_consistent_reduces_to_bsc_form(self, e36):
        cb = 0.45
        out = two_dim_check_step(NoisePair(cb, cb * cb), e36)
        assert out.cb == pytest.approx(math.sqrt(1 - (1 - cb * cb) ** 5), abs=1e-12)

    def test_bec_consistent_reduces_to_bec_form(self, e36):
        eps = 0.37
        out = two_dim_check_step(NoisePair(eps, eps), e36)
        assert out.cb == pytest.approx(1 - (1 - eps) ** 5, abs=1e-12)
        assert out.sb == pytest.approx(1 - (1 - eps) ** 5, abs=1e-12)

    def test_degenerate_zero(self, e36):
        out = two_dim_check_step(NoisePair(0.0, 0.0), e36)
        assert (out.cb, out.sb) == (0.0, 0.0)

    def test_feasible_pair_closure_random(self, e36):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            cb = rng.uniform(1e-3, 1)
            sb = rng.uniform(cb * cb, cb)
            out = two_dim_check_step(NoisePair(cb, sb), e36)
            assert out.sb <= out.cb + 1e-12
            assert out.cb * out.cb <= out.sb + 1e-12


IRREGULAR_RHO = DegreeEnsemble(((3, 1.0),), ((2, 0.2), (7, 0.5), (40, 0.3)))


def _mp_mixture_check_cb(t, q, e):
    """E over I ~ Bin(k - 1, q), k ~ rho, of sqrt(1 - (1 - t^2)^I), in 40
    digits (1 - (1 - t^2)^I by expm1/log1p: t^2 may lie below 1e-40)."""
    with mpmath.workdps(40):
        t, q = mpmath.mpf(t), mpmath.mpf(q)
        return sum(w * sum(mpmath.binomial(k - 1, i) * q ** i * (1 - q) ** (k - 1 - i)
                           * mpmath.sqrt(-mpmath.expm1(i * mpmath.log1p(-t * t)))
                           for i in range(1, k))
                   for k, w in e.rho)


class TestCheckKernels:
    @pytest.mark.parametrize("e", [regular_ensemble(3, 6), IRREGULAR_RHO])
    def test_bec_check_ends_and_small_x(self, e):
        assert _bec_check(0.0, e) == 0.0
        assert _bec_check(1.0, e) == 1.0
        slope = sum(w * (k - 1) for k, w in e.rho)
        for x in (1e-9, 1e-12, 1e-15, 1e-300):
            assert _bec_check(x, e) == pytest.approx(slope * x, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("e", [regular_ensemble(3, 6), IRREGULAR_RHO])
    @settings(max_examples=200, deadline=None)
    @given(t=st.one_of(st.sampled_from([5e-324, 1e-300, 1e-160, 1e-150, 1.0]),
                       st.floats(5e-324, 1.0)),
           q=st.one_of(st.sampled_from([0.0, 1e-20, 1.0]), st.floats(1e-20, 1.0)))
    @example(t=0.4, q=0.0).via("perfect inputs")
    @example(t=0.4, q=1.0).via("lb-cb's BSC check")
    @example(t=1.0, q=0.37).via("BEC inputs")
    @example(t=1e-160, q=1.0).via("t^2 underflows")
    def test_mixture_check_matches_mpmath(self, e, t, q):
        # t^2 underflows below 1.5e-154 (the kernel then scales t E sqrt(I)),
        # and values below 2.2e-308 are subnormal: both roundings of one
        # value may differ by a unit of that grid, math.ulp(0.0).
        # exp(I log q) carries I |log q| rounding units (1e-13 near
        # q = 1e-300); ub-cbsb's q = cb^2 / sb stays above cb, and the
        # recursions stop at DECODE_EPS = 1e-10
        assert _mixture_check_cb(t, q, e) == pytest.approx(
            float(_mp_mixture_check_cb(t, q, e)), rel=1e-13, abs=math.ulp(0.0))

    @pytest.mark.parametrize("k", [1031, 10_000])
    def test_mixture_check_weights_do_not_overflow(self, k):
        # float(math.comb(k - 1, i)) raised OverflowError from k = 1031
        e = regular_ensemble(3, k)
        q, t = 0.5, 1e-3
        got = _mixture_check_cb(t, q, e)
        assert got == pytest.approx(float(_mp_mixture_check_cb(t, q, e)), rel=1e-11, abs=0.0)


class TestPhiVariableSb:
    def test_zero_extra_inputs_gives_channel_sb(self):
        fam = variable_node_upper_family(0.4, 0.2)
        assert phi_variable_sb(fam, fam, 0) == pytest.approx(0.2, abs=1e-12)

    def test_single_atom_families_match_direct_combination(self):
        from bpbounds import AtomicBscFamily
        f0 = AtomicBscFamily(((1.0, 0.45),))
        fin = AtomicBscFamily(((1.0, 0.3),))
        got = phi_variable_sb(f0, fin, 2)
        assert got == pytest.approx(_sign_pattern_sb([0.45, 0.3, 0.3]), abs=1e-15)

    def test_monte_carlo_oracle(self):
        # mixture channel itself, 1e6 samples, agreement within 3 sigma
        fam0 = variable_node_upper_family(0.3, 0.15)
        famin = variable_node_upper_family(0.3, 0.15)
        exact = phi_variable_sb(fam0, famin, 2)
        mc, se = _monte_carlo_phi(fam0, famin, 2, seed=42)
        assert abs(exact - mc) < 3 * se

    @pytest.mark.parametrize("d_minus_1", [1, 2, 3, 4])
    def test_matches_ordered_pick_reference(self, d_minus_1):
        rng = np.random.default_rng(d_minus_1)
        fams = [AtomicBscFamily(((0.3, 0.0), (0.5, 0.6), (0.2, 1.0))),
                AtomicBscFamily(((0.6, 1.0), (0.4, 0.35)))]
        for _ in range(6):
            cb = rng.uniform(1e-3, 1.0)
            fams.append(variable_node_upper_family(cb, rng.uniform(cb * cb, cb)))
        fams.append(variable_node_upper_family(0.05, 0.045))   # middle atom lifted
        assert len(fams[-1].atoms) == 3
        for ch0, chin in zip(fams, fams[1:] + fams[:1]):
            assert phi_variable_sb(ch0, chin, d_minus_1) == pytest.approx(
                _ordered_pick_phi(ch0, chin, d_minus_1), rel=1e-12, abs=1e-300)

    def test_degree_24_matches_monte_carlo_oracle(self):
        # 6 outcomes per draw: 6 * C(28, 5) = 589,680 terms, inside the budget
        fam = AtomicBscFamily(((0.3, 0.9), (0.3, 0.97), (0.4, 0.995)))
        exact = phi_variable_sb(fam, fam, 23)
        assert exact > 0.1
        mc, se = _monte_carlo_phi(fam, fam, 23, seed=24)
        assert abs(exact - mc) < 3 * se

    def test_exact_up_to_the_budget_then_refused(self):
        # three atoms, six outcomes per draw: 6 * C(d_minus_1 + 5, 5) terms,
        # 1,019,466 at d_minus_1 = 26 and 1,208,256 at 27 against 2^20
        fam = AtomicBscFamily(((0.3, 0.9), (0.3, 0.97), (0.4, 0.995)))
        assert 0.0 < phi_variable_sb(fam, fam, 26) < 1.0
        with pytest.raises(ValueError, match=f"1208256 terms.*{ENUM_CAP}"):
            phi_variable_sb(fam, fam, 27)


class TestTwoDimVarStep:
    def test_exact_up_to_the_budget_then_refused(self):
        # (0.01, 0.005) makes dP** three atoms, six outcomes per draw: at
        # lambda degree d, 6 * C(d + 4, 5) terms, 1,019,466 at d = 27 and
        # 1,208,256 at d = 28 against 2^20
        pair = NoisePair(0.01, 0.005)
        assert len(variable_node_upper_family(pair.cb, pair.sb).atoms) == 3
        assert 0.0 < two_dim_var_step(pair, pair, regular_ensemble(27, 54)).sb < 1.0
        with pytest.raises(ValueError, match=f"1208256 terms.*{ENUM_CAP}"):
            two_dim_var_step(pair, pair, regular_ensemble(28, 56))

    def test_zero_input(self, e36):
        out = two_dim_var_step(NoisePair(0.5, 0.3), NoisePair(0.0, 0.0), e36)
        assert (out.cb, out.sb) == (0.0, 0.0)

    def test_bsc_consistent_matches_sb_combination(self, e36):
        c0, c = 0.5, 0.35
        out = two_dim_var_step(NoisePair(c0, c0 * c0), NoisePair(c, c * c), e36)
        assert out.cb == pytest.approx(c0 * c * c, abs=1e-15)
        assert out.sb == pytest.approx(_sign_pattern_sb([c0, c, c]), abs=1e-12)

    def test_feasible_pair_closure_random(self, e36):
        rng = np.random.default_rng(4)
        for _ in range(300):
            cb0 = rng.uniform(1e-3, 1)
            sb0 = rng.uniform(cb0 * cb0, cb0)
            cb = rng.uniform(1e-3, 1)
            sb = rng.uniform(cb * cb, cb)
            out = two_dim_var_step(NoisePair(cb0, sb0), NoisePair(cb, sb), e36)
            assert out.sb <= out.cb + 1e-12
            assert out.cb * out.cb <= out.sb + 1e-12


class TestIterateBound:
    def test_ub_cb_verdicts(self, e36):
        assert iterate_bound("ub-cb", NoisePair(cb=0.42), e36).verdict == "decodable"
        assert iterate_bound("ub-cb", NoisePair(cb=0.44), e36).verdict == "not-decodable"

    def test_two_dim_bsc_verdicts(self, e36):
        p = 0.070
        pair = NoisePair(2 * math.sqrt(p * (1 - p)), 4 * p * (1 - p))
        assert iterate_bound("ub-cbsb", pair, e36).verdict == "decodable"
        p = 0.073
        pair = NoisePair(2 * math.sqrt(p * (1 - p)), 4 * p * (1 - p))
        assert iterate_bound("ub-cbsb", pair, e36).verdict == "not-decodable"

    def test_zero_start_decodes_immediately(self, e36):
        traj = iterate_bound("ub-cbsb", NoisePair(0.0, 0.0), e36)
        assert traj.verdict == "decodable"
        assert traj.iterations == 1

    @pytest.mark.parametrize("kind,start", [
        ("ub-cb", NoisePair(cb=1.0)), ("lb-cb", NoisePair(cb=1.0)),
        ("ub-sb", NoisePair(sb=1.0)), ("ub-cbsb", NoisePair(1.0, 1.0))])
    def test_fixed_point_start_stalls_after_one_iteration(self, e36, kind, start):
        # the first iterate is compared with the start itself, for every kind
        traj = iterate_bound(kind, start, e36)
        assert traj.verdict == "not-decodable"
        assert traj.iterations == 1

    def test_two_dim_cb_below_ub_cb_trajectory(self, e36):
        # the joint bound improves on the CB-only bound iteration by iteration
        p = 0.12
        pair = NoisePair(2 * math.sqrt(p * (1 - p)), 4 * p * (1 - p))
        joint = iterate_bound("ub-cbsb", pair, e36, IterationLimits(max_iter=50))
        only = iterate_bound("ub-cb", NoisePair(cb=pair.cb), e36,
                             IterationLimits(max_iter=50))
        for (cb2, _), (cb1, _) in zip(joint.states, only.states):
            assert cb2 <= cb1 + 1e-12

    def test_ub_cbsb_refuses_lambda_degree_28_before_any_step(self, monkeypatch):
        import bpbounds.binary_bounds as bb

        traj = iterate_bound("ub-cbsb", NoisePair(0.05, 0.02), regular_ensemble(27, 54))
        assert traj.verdict == "decodable"

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(bb, "_cbsb_check", no_step)      # the float kernel
        monkeypatch.setattr(bb, "_cbsb_var", no_step)
        p = 0.01                                  # BSC-consistent: single-atom families
        pair = NoisePair(2 * math.sqrt(p * (1 - p)), 4 * p * (1 - p))
        with pytest.raises(ValueError, match=f"lambda degree 28.*{ENUM_CAP}"):
            iterate_bound("ub-cbsb", pair, regular_ensemble(28, 56))

    def test_unknown_kind(self, e36):
        with pytest.raises(ValueError):
            iterate_bound("nope", NoisePair(0.1, 0.05), e36)

    def test_ub_cbsb_runs_to_a_verdict_at_check_degree_1100(self):
        # the float binomials of the old check step overflowed here
        e = regular_ensemble(3, 1100)
        for p, verdict in ((1e-5, "decodable"), (1e-3, "not-decodable")):
            pair = NoisePair(2 * math.sqrt(p * (1 - p)), 4 * p * (1 - p))
            assert iterate_bound("ub-cbsb", pair, e).verdict == verdict


class TestUbSbStar:
    def test_values(self):
        assert ub_sb_star(0.0837) == pytest.approx(0.30677724, abs=1e-8)
        assert ub_sb_star(0.0) == 0.0
        assert ub_sb_star(0.5) == 1.0
        with pytest.raises(ValueError):
            ub_sb_star(0.6)


def _repetition_instance(prior0=0.5):
    coords = (BscMixture(((0.5, 0.05), (0.5, 0.25))),
              BscMixture(((1.0, 0.1),)),
              BscMixture(((1.0, 0.2),)))
    words0 = ((1.0, (0, 0, 0)),)
    words1 = ((1.0, (1, 1, 1)),)
    return SequenceMapperChannel(prior0, words0, words1, coords)


class TestSbMatchedReplacement:
    def test_pure_bsc_is_identity(self):
        ch = SequenceMapperChannel(
            0.5, ((1.0, (0, 0)),), ((1.0, (1, 1)),),
            (BscMixture(((1.0, 0.1),)), BscMixture(((1.0, 0.2),))))
        before, after = sb_matched_bsc_replacement(ch, 0)
        assert after == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize("atoms", [((0.5, 1e-20), (0.5, 2e-20)),
                                       ((0.5, 1e-17), (0.5, 2e-17))])
    def test_tiny_crossovers_do_not_cancel(self, atoms):
        # (1 - sqrt(1 - beta)) / 2 read 0 and twice the crossover here
        ch = SequenceMapperChannel(0.5, ((1.0, (0,)),), ((1.0, (1,)),),
                                   (BscMixture(atoms),))
        before, after = sb_matched_bsc_replacement(ch, 0)
        with mpmath.workdps(40):
            beta = sum(4 * mpmath.mpf(w) * p * (1 - mpmath.mpf(p)) for w, p in atoms)
            p = (1 - mpmath.sqrt(1 - beta)) / 2
            expect = float(2 * mpmath.sqrt(p * (1 - p)))
        assert after == pytest.approx(expect, rel=1e-13)
        assert after > before

    def test_repetition_mapper(self):
        before, after = sb_matched_bsc_replacement(_repetition_instance(), 0)
        assert after >= before - 1e-12

    def test_non_uniform_prior(self):
        before, after = sb_matched_bsc_replacement(_repetition_instance(0.7), 0)
        assert after >= before - 1e-12

    def test_deterministic_mapper_cb_factorizes(self):
        # independent oracle: for deterministic mappers the exact CB equals
        # 2 sqrt(pi0 pi1) prod_i E[a_i] over coordinates where the words differ
        ch = _repetition_instance(0.6)
        expect = 2 * math.sqrt(0.6 * 0.4)
        for mix in ch.coords:
            expect *= sum(w * 2 * math.sqrt(p * (1 - p)) for w, p in mix.atoms)
        assert sequence_mapper_cb(ch) == pytest.approx(expect, abs=1e-12)

    def test_randomized_mappers_random_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            coords = []
            for _ in range(n):
                k = int(rng.integers(1, 4))
                w = rng.dirichlet(np.ones(k))
                coords.append(BscMixture(tuple(
                    (w[j], rng.uniform(0.0, 0.5)) for j in range(k))))
            def words(n_words):
                ws = rng.dirichlet(np.ones(n_words))
                return tuple((ws[i], tuple(int(b) for b in rng.integers(0, 2, n)))
                             for i in range(n_words))
            ch = SequenceMapperChannel(rng.uniform(0.1, 0.9), words(2), words(2),
                                       tuple(coords))
            coord = int(rng.integers(0, n))
            before, after = sb_matched_bsc_replacement(ch, coord)
            assert after >= before - 1e-12

    def test_oversize_rejected(self):
        coords = tuple(BscMixture(((0.5, 0.1), (0.3, 0.2), (0.2, 0.3)))
                       for _ in range(12))
        words0 = ((1.0, (0,) * 12),)
        words1 = ((1.0, (1,) * 12),)
        with pytest.raises(ValueError):
            SequenceMapperChannel(0.5, words0, words1, coords)

    def test_mixture_tree_dominated_by_sb_matched_bsc_tree(self):
        # replacing every coordinate in turn only raises the exact CB, so the
        # all-mixture tree is dominated by the all-BSC (SB-matched) tree
        mix = BscMixture(((0.4, 0.02), (0.6, 0.22)))
        n = 4
        words0 = ((0.5, (0, 0, 0, 0)), (0.5, (1, 1, 0, 0)))
        words1 = ((0.5, (1, 1, 1, 1)), (0.5, (0, 0, 1, 1)))
        ch = SequenceMapperChannel(0.5, words0, words1, (mix,) * n)
        cb_values = [sequence_mapper_cb(ch)]
        for coord in range(n):
            before, after = sb_matched_bsc_replacement(ch, coord)
            assert after >= before - 1e-12
            coords = list(ch.coords)
            beta = sum(w * 4 * p * (1 - p) for w, p in coords[coord].atoms)
            p_match = (1 - math.sqrt(1 - beta)) / 2
            coords[coord] = BscMixture(((1.0, p_match),))
            ch = SequenceMapperChannel(0.5, words0, words1, tuple(coords))
            cb_values.append(sequence_mapper_cb(ch))
        assert all(b >= a - 1e-12 for a, b in zip(cb_values, cb_values[1:]))


# ---------------------------------------------------------------------------
# Test-only references: the ub-cbsb variable kernel before the channel draw's
# terms were built once per family (two np.add.outer per group from a zeros
# seed, integer count vectors, np.sum) and the upper family with its
# constructor's normalisation, which the kernels reproduce bit for bit; the
# check step before its one stable kernel, which subtracted 1 - rho(1 - sb)
# and weighted by float binomials, and a 40-digit check step.
# ---------------------------------------------------------------------------

def _ref_compositions(n, m):
    bars = np.array(list(itertools.combinations(range(n + m - 1), m - 1)),
                    dtype=np.int64).reshape(math.comb(n + m - 1, n), m - 1)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n + m - 1))
    counts = np.diff(edges, axis=1) - 1
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    return counts, log_fact[n] - log_fact[counts].sum(axis=1)


def _ref_phi_variable_sb(ch0, chin, d_minus_1):
    groups = [([o for w, a in atoms for o in _bsc_outcomes(w, a)], n)
              for atoms, n in [(ch0.atoms, 1), (chin.atoms, d_minus_1)] if n > 0]
    logw, llr = np.zeros(1), np.zeros(1)
    for outs, n in groups:
        if not outs:
            return 0.0
        counts, log_coef = _ref_compositions(n, len(outs))
        q, l = np.array(outs).T
        logw = np.add.outer(logw, log_coef + counts @ np.log(q)).ravel()
        llr = np.add.outer(llr, counts @ l).ravel()
    with np.errstate(over="ignore"):
        return float(np.sum(np.exp(logw) * 2.0 / (1.0 + np.exp(llr))))


def _ref_two_dim_check_step(pair, e):
    cb, sb = pair.cb, pair.sb
    if cb <= 0.0 or sb <= 0.0:
        return NoisePair(0.0, 0.0)
    sbp = 1.0 - rho_eval(e, 1.0 - sb)
    if sb <= cb * cb * (1.0 + 1e-13):
        lt = math.log1p(-cb * cb) if cb < 1.0 else -math.inf
        cbp = sum(w * math.sqrt(-math.expm1((k - 1) * lt)) for k, w in e.rho)
    else:
        t2 = min(1.0, (sb / cb) ** 2)
        q = min(1.0, cb * cb / sb)
        cbp = 0.0
        for k, w in e.rho:
            acc = 0.0
            for i in range(1, k):
                acc += (math.comb(k - 1, i)
                        * math.sqrt(max(0.0, 1.0 - (1.0 - t2) ** i))
                        * (1.0 - q) ** (k - 1 - i) * q ** i)
            cbp += w * acc
    return NoisePair(*_project_feasible(cbp, sbp))


def _mp_two_dim_check_step(cb, sb, e):
    """two_dim_check_step in 40 digits: SB 1 - rho(1 - sb), CB the mixture
    check of t = sb / cb and q = cb^2 / sb; then the feasible projection."""
    with mpmath.workdps(40):
        cb, sb = mpmath.mpf(cb), mpmath.mpf(sb)
        sbp = -sum(w * mpmath.expm1((k - 1) * mpmath.log1p(-sb)) for k, w in e.rho)
        cbp = _mp_mixture_check_cb(min(1, sb / cb), min(1, cb * cb / sb), e)
        sbp = min(sbp, 1, cbp)
        cbp = min(cbp, 1, mpmath.sqrt(sbp))
        return float(cbp), float(sbp)


def _ref_family(atoms):
    """The family constructor's normalisation, in an object with ``atoms``."""
    atoms = tuple((float(w), float(a)) for w, a in atoms)
    total = sum(w for w, _ in atoms)
    return SimpleNamespace(atoms=tuple((w / total, min(max(a, 0.0), 1.0))
                                       for w, a in atoms if w > 0.0))


def _ref_variable_node_upper_family(cb_in, sb_in):
    c = cb_in
    if c <= 1e-14:
        return _ref_family(((1.0, 0.0),))
    t = sb_in / c
    if t - c <= 1e-14:
        return _ref_family(((1.0, c),))
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
    return _ref_family((((1.0 - f) * t / (t + c), c), (f, math.sqrt(sb_in)),
                        ((1.0 - f) * c / (t + c), t)))


def _random_atoms(rng):
    """Raw (weight, a) atoms: upper families, single atoms, and mixtures
    with perfect (a = 0) and useless (a = 1) atoms."""
    kind = rng.integers(4)
    if kind == 0:
        cb = rng.uniform(1e-3, 1.0)
        return _ref_variable_node_upper_family(cb, rng.uniform(cb * cb, cb)).atoms
    if kind == 1:
        return ((1.0, float(rng.choice([0.0, 1.0, rng.uniform()]))),)
    k = int(rng.integers(2, 4))
    a = rng.uniform(size=k)
    a[rng.random(k) < 0.3] = 0.0
    a[rng.random(k) < 0.3] = 1.0
    return tuple(zip(rng.dirichlet(np.ones(k)).tolist(), a.tolist()))


def _ref_ub_sb_step(sb, e, sb0):
    """ub_sb_step before it was broadcast: plain Python, 1 - rho(1 - sb) and
    the BSC crossovers (1 - sqrt(1 - x)) / 2 computed directly."""
    u = 1.0 - rho_eval(e, 1.0 - sb)
    ch = _bsc_outcomes(1.0, math.sqrt(max(0.0, sb0)))
    inp = _bsc_outcomes(1.0, math.sqrt(max(0.0, u)))
    out = 0.0
    for k, w in e.lam:
        n = k - 1
        terms = [(1.0, n * l) for _, l in inp]
        if len(inp) == 2:
            (q0, l0), (q1, l1) = inp
            lgn, lq0, lq1 = math.lgamma(n + 1.0), math.log(q0), math.log(q1)
            terms = [(math.exp(lgn - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0)
                               + (n - j) * lq0 + j * lq1), (n - j) * l0 + j * l1)
                     for j in range(n + 1)]
        out += w * sum(qc * q * 2.0 / (1.0 + math.exp(lc + l))
                       for qc, lc in ch for q, l in terms if lc + l < 700.0)
    return min(1.0, out)


def _recursion(step, start, limits):
    """ub-cbsb's run of ``step`` through the driver, on NoisePair states."""
    verdict, states, its, reason = run_recursion(
        step, lambda p: max(p.cb, p.sb), start, limits,
        lambda p: np.array([p.cb, p.sb]),
        lambda a: NoisePair(*_project_feasible(*map(float, a))))
    return SimpleNamespace(states=[(p.cb, p.sb) for p in states], verdict=verdict,
                           iterations=its, reason=reason)


def _public_ub_cbsb(start, e, limits):
    return _recursion(lambda p: two_dim_var_step(start, two_dim_check_step(p, e), e),
                      start, limits)


def _ref_ub_cbsb(start, e, limits):
    """ub-cbsb stepped by the reference kernels above."""
    fam0 = _ref_variable_node_upper_family(start.cb, start.sb)

    def step(pair):
        pair = _ref_two_dim_check_step(pair, e)
        if pair.cb <= 0.0 and pair.sb <= 0.0:
            return NoisePair(0.0, 0.0)
        famin = _ref_variable_node_upper_family(pair.cb, pair.sb)
        sbp = sum(w * _ref_phi_variable_sb(fam0, famin, k - 1) for k, w in e.lam)
        return NoisePair(*_project_feasible(start.cb * lambda_eval(e, pair.cb), sbp))
    return _recursion(step, start, limits)


def _ref_tuple_ub_cbsb(start, e, limits):
    """``iterate_bound("ub-cbsb", ...)`` with its variable-node SB taken the
    tuple way: dP** as a normalised family of (weight, a) tuples, its draws
    as a list of (probability, LLR) tuples (``_ref_phi_variable_sb``), and
    the check step, ``run_recursion`` call and projections of ``iterate_bound``."""
    fam0 = _ref_variable_node_upper_family(start.cb, start.sb)

    def step(state):
        cb, sb = _cbsb_check(*state, e)
        if cb <= 0.0 and sb <= 0.0:
            return 0.0, 0.0
        famin = _ref_variable_node_upper_family(cb, sb)
        sbp = sum(w * _ref_phi_variable_sb(fam0, famin, k - 1) for k, w in e.lam)
        return _project_feasible(start.cb * lambda_eval(e, cb), sbp)
    verdict, states, its, reason = run_recursion(
        step, max, (start.cb, start.sb), limits, np.array,
        lambda a: _project_feasible(*a.tolist()))
    return SimpleNamespace(states=states, verdict=verdict, iterations=its, reason=reason)


# lambda-degree mix, ub-cbsb BSC threshold p* of each ensemble (tol 1e-4)
CBSB_ENSEMBLES = {
    "(3,6)": (regular_ensemble(3, 6), 0.0710),
    "(4,8)": (regular_ensemble(4, 8), 0.0696),
    "(6,12)": (regular_ensemble(6, 12), 0.0578),
    "0.3x+0.7x^2,x^5": (DegreeEnsemble(((2, 0.3), (3, 0.7)), ((6, 1.0),)), 0.0470),
}


class TestAgainstReferenceKernels:
    def test_family_constructor_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            atoms = _random_atoms(rng)
            assert AtomicBscFamily(atoms).atoms == _ref_family(atoms).atoms
        for _ in range(2000):
            cb = rng.uniform(0.0, 1.0)
            sb = rng.uniform(cb * cb, cb)
            assert (variable_node_upper_family(cb, sb).atoms
                    == _ref_variable_node_upper_family(cb, sb).atoms)

    def test_phi_variable_sb_bit_identical(self):
        rng = np.random.default_rng(12)
        for _ in range(3000):
            a0, a1 = _random_atoms(rng), _random_atoms(rng)
            d_minus_1 = int(rng.integers(0, 9))
            got = phi_variable_sb(AtomicBscFamily(a0), AtomicBscFamily(a1), d_minus_1)
            assert got == _ref_phi_variable_sb(_ref_family(a0), _ref_family(a1),
                                               d_minus_1)

    @pytest.mark.parametrize("name", sorted(CBSB_ENSEMBLES))
    def test_two_dim_check_step_matches_mpmath(self, name):
        # the old kernel's cancellation rounded tiny inputs' outputs to 0 or
        # off by up to 74%: (0, 0) at (1e-9, 1.5e-17), below the truth
        e, _ = CBSB_ENSEMBLES[name]
        rng = np.random.default_rng(13)
        pairs = []
        for _ in range(1000):
            cb = rng.uniform(0.0, 1.0)
            pairs.append((cb, cb * cb if rng.random() < 0.2 else rng.uniform(cb * cb, cb)))
        for _ in range(200):
            cb = 10.0 ** rng.uniform(-12.0, -6.0)
            pairs.append((cb, cb ** rng.uniform(1.0, 2.0)))
        pairs += [(1e-9, 1.5e-17), (1e-12, 1e-24), (1e-12, 1e-12), (0.37, 0.37)]
        for cb, sb in pairs:
            got = two_dim_check_step(NoisePair(cb, sb), e)
            want = _mp_two_dim_check_step(cb, sb, e)
            assert (got.cb, got.sb) == pytest.approx(want, rel=1e-13, abs=0.0), (cb, sb)

    @pytest.mark.parametrize("name", sorted(CBSB_ENSEMBLES))
    def test_ub_cbsb_trajectories_match_old_check_kernel(self, name):
        # the old check kernel's rounding moves states by far less than 1e-6
        # and no verdict or iteration count
        e, p_star = CBSB_ENSEMBLES[name]
        rng = np.random.default_rng(14)
        starts = []
        for i in range(10):
            # near the threshold, on the BSC curve or towards the BEC side
            p = p_star * math.exp(rng.uniform(-0.05, 0.05))
            cb = 2 * math.sqrt(p * (1 - p))
            sb = cb * cb * (1.0 + (i % 2) * rng.uniform(0.0, 0.05))
            starts.append(NoisePair(cb, min(sb, cb)))
        for start in starts:
            traj = iterate_bound("ub-cbsb", start, e)
            ref = _ref_ub_cbsb(start, e, IterationLimits())
            assert (traj.verdict, traj.iterations) == (ref.verdict, ref.iterations)
            assert np.array(traj.states) == pytest.approx(np.array(ref.states), rel=1e-6,
                                                          abs=0.0)

    @pytest.mark.parametrize("name", ["(3,6)", "(4,8)", "0.3x+0.7x^2,x^5", "(3,1100)"])
    def test_ub_cbsb_equals_the_public_steps_through_the_driver(self, name):
        # iterate_bound runs the float kernel on (cb, sb) tuples; the public
        # steps wrap the same kernel and, on NoisePairs, take the driver's
        # array path every step: both must give the same run, bit for bit
        e = regular_ensemble(3, 1100) if name == "(3,1100)" else CBSB_ENSEMBLES[name][0]
        rng = np.random.default_rng(17)
        reasons = set()
        for i in range(12 if name == "(3,1100)" else 40):
            cb = 10.0 ** rng.uniform(-3.0, -0.05)
            sb = cb * cb + (cb - cb * cb) * rng.choice([0.0, rng.uniform(), 1.0])
            start = NoisePair(cb, sb)
            limits = IterationLimits(max_iter=int(rng.choice([3, 40, 3000])))
            traj = iterate_bound("ub-cbsb", start, e, limits)
            ref = _public_ub_cbsb(start, e, limits)
            assert (traj.states, traj.verdict, traj.reason, traj.iterations) == (
                ref.states, ref.verdict, ref.reason, ref.iterations)
            reasons.add(traj.reason)
        assert reasons == {"decoded", "witness", "max_iter"}

    @pytest.mark.parametrize("name", ["(3,6)", "(4,8)", "0.3x+0.7x^2,x^5"])
    def test_ub_cbsb_equals_the_tuple_variable_node_path(self, name):
        # dP**'s draws are built as (q, l) arrays in one pass: the same float
        # operations as the tuple families, so the same runs, bit for bit
        e, p_star = CBSB_ENSEMBLES[name]
        rng = np.random.default_rng(18)
        reasons = set()
        for i in range(40):
            if i % 2:
                cb = 10.0 ** rng.uniform(-3.0, -0.05)
            else:                                 # near the BSC threshold
                p = p_star * math.exp(rng.uniform(-0.1, 0.1))
                cb = 2 * math.sqrt(p * (1 - p))
            sb = cb * cb + (cb - cb * cb) * rng.choice([0.0, rng.uniform(), 1.0])
            start = NoisePair(cb, sb)
            limits = IterationLimits(max_iter=int(rng.choice([3, 40, 3000])))
            traj = iterate_bound("ub-cbsb", start, e, limits)
            ref = _ref_tuple_ub_cbsb(start, e, limits)
            assert (traj.states, traj.verdict, traj.reason, traj.iterations) == (
                ref.states, ref.verdict, ref.reason, ref.iterations)
            reasons.add(traj.reason)
        assert reasons == {"decoded", "witness", "max_iter"}

    @pytest.mark.parametrize("k", list(range(2, 26)) + [2000])
    def test_ub_sb_step_matches_plain_python_reference(self, k):
        # x and sb0 from 1e-2 up: below that the reference's own 1 - rho(1-x)
        # and (1 - sqrt(1 - x)) / 2 lose digits to cancellation.  Both sum
        # lgamma differences, so each log-weight carries about one rounding
        # of lgamma(k): 7e-15 at k = 25, 1.8e-12 at k = 2000 (where both
        # differ from a 40-digit mpmath sum by up to 1.4e-12)
        e = DegreeEnsemble(((k, 1.0),), ((6, 1.0),))
        rel = 1e-12 + 2.0 * np.spacing(math.lgamma(k))
        rng = np.random.default_rng(15 + k)
        xs = np.append(10.0 ** rng.uniform(-2.0, 0.0, 60), [0.0, 1.0, 0.3, 1.0, 0.0])
        sb0s = np.append(10.0 ** rng.uniform(-2.0, 0.0, 60), [0.3, 0.3, 0.0, 1.0, 0.0])
        got = ub_sb_step(xs, e, sb0s)
        for x, sb0, g in zip(xs, sb0s, got):
            want = _ref_ub_sb_step(float(x), e, float(sb0))
            assert g == pytest.approx(want, rel=rel, abs=1e-300), (x, sb0)

    @pytest.mark.parametrize("k", [2, 3, 7, 25, 2000])
    def test_ub_sb_step_broadcast_equals_scalar_calls(self, k):
        e = DegreeEnsemble(((2, 0.1), (k + 1, 0.9)), ((6, 0.5), (9, 0.5)))
        rng = np.random.default_rng(16 + k)
        xs = np.append(10.0 ** rng.uniform(-12.0, 0.0, 12), [0.0, 1.0])
        sb0s = np.append(10.0 ** rng.uniform(-12.0, 0.0, 9), [0.0, 1.0])
        grid = ub_sb_step(xs[:, None], e, sb0s[None, :])
        assert grid.shape == (xs.size, sb0s.size)
        for i, x in enumerate(xs):
            row = ub_sb_step(x, e, sb0s)
            for j, sb0 in enumerate(sb0s):
                scalar = ub_sb_step(float(x), e, float(sb0))
                assert type(scalar) is float
                assert scalar == grid[i, j] == row[j]


def _stall_rule_recursion(step, measure, start, limits, *adapters):
    """The driver before the fixed-point witness: "not-decodable" once one
    step moves the measure by less than 1e-13 (the removed ``stall_eps``)."""
    state, states, prev = start, [start], measure(start)
    for it in range(1, limits.max_iter + 1):
        state = step(state)
        states.append(state)
        mu = measure(state)
        if mu < DECODE_EPS:
            return "decodable", states, it, "decoded"
        if abs(mu - prev) < 1e-13:
            return "not-decodable", states, it, "stall"
        prev = mu
    return "inconclusive", states, limits.max_iter, "max_iter"


def _witness_starts(kind, name, rng, n):
    """n starts of ``kind`` on CBSB_ENSEMBLES[name], each a factor
    exp(+-10^U(-3, -0.7)) off its threshold: many runs are long ones."""
    e, p_star = CBSB_ENSEMBLES[name]

    def near(x):
        return min(1.0, x * math.exp(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-3.0, -0.7)))

    if kind in ("ub-cb", "lb-cb"):
        return [NoisePair(cb=near(measure_threshold(kind, e))) for _ in range(n)]
    if kind == "ub-sb":
        star = measure_threshold(kind, e) or 0.01     # 0 when lambda_2 rho'(1) >= 1
        return [NoisePair(sb=near(star)) for _ in range(n)]
    starts = []
    for _ in range(n):
        p = near(p_star)
        cb = 2 * math.sqrt(p * (1 - p))
        starts.append(NoisePair(cb, min(cb, cb * cb * (1.0 + rng.uniform(0.0, 0.1)))))
    return starts


def _ungated_run_recursion(step, measure, start, limits, to_array, from_array):
    """The driver before the witness gate: a witness try on step 1 and every
    WITNESS_PERIOD-th step after, whatever the Aitken ratio r."""
    plain = isinstance(start, (float, tuple))
    states, mus = [start], [measure(start)]
    for it in range(1, limits.max_iter + 1):
        states.append(step(states[-1]))
        mus.append(measure(states[-1]))
        if mus[-1] < DECODE_EPS:
            return "decodable", states, it, "decoded"
        if (states[-1] == states[-2] if plain
                else not (to_array(states[-1]) - to_array(states[-2])).any()):
            return "not-decodable", states, it, "witness"
        if it % WITNESS_PERIOD == 1:
            cur = to_array(states[-1])
            last = mus[-2] - mus[-3] if it > 1 else 0.0
            r = (mus[-1] - mus[-2]) / last if last else -1.0
            k = 3.0 * r / (1.0 - r) if 0.0 <= r < 1.0 else 3.0
            star = from_array((1.0 - WITNESS_MARGIN) * cur + k * (cur - to_array(states[-2])))
            s = to_array(star)
            if (measure(star) >= DECODE_EPS and np.all(s <= cur)
                    and np.all(to_array(step(star)) >= s)):
                return "not-decodable", states, it, "witness"
    return "inconclusive", states, limits.max_iter, "max_iter"


def _counting(driver, steps):
    """``driver`` with every step it takes, witness steps too, appended to ``steps``."""
    def run(step, *args):
        return driver(lambda s: steps.append(1) or step(s), *args)
    return run


class TestWitnessGate:
    # the driver makes no witness try while the Aitken ratio r >= 1; on
    # these runs that changes no verdict, reason, state or iteration count
    LIMITS = IterationLimits(max_iter=3000)

    @pytest.mark.parametrize("name", ["(3,6)", "(4,8)", "0.3x+0.7x^2,x^5"])
    @pytest.mark.parametrize("kind", ["ub-cb", "lb-cb", "ub-sb", "ub-cbsb"])
    def test_same_runs_as_the_ungated_driver(self, monkeypatch, kind, name):
        import bpbounds.binary_bounds as bb

        e, _ = CBSB_ENSEMBLES[name]
        starts = _witness_starts(kind, name, np.random.default_rng(31), 24)
        gated, ungated = [], []
        monkeypatch.setattr(bb, "run_recursion", _counting(run_recursion, gated))
        got = [iterate_bound(kind, s, e, self.LIMITS) for s in starts]
        monkeypatch.setattr(bb, "run_recursion", _counting(_ungated_run_recursion, ungated))
        for start, traj in zip(starts, got):
            ref = iterate_bound(kind, start, e, self.LIMITS)
            assert (traj.verdict, traj.reason, traj.iterations, traj.states) == (
                ref.verdict, ref.reason, ref.iterations, ref.states)
        if kind == "ub-sb" and name.startswith("0.3x"):   # SB* = 0: every run ends at step 1
            assert len(gated) == len(ungated)
        else:
            assert len(gated) < len(ungated)

    @pytest.mark.parametrize("ens", ["(3,6)", "0.3x+0.7x^2,x^5"])
    @pytest.mark.parametrize("m", [8, 64])
    def test_zm_same_runs_as_the_ungated_driver(self, monkeypatch, m, ens):
        import bpbounds.zm as zm_mod

        e, _ = CBSB_ENSEMBLES[ens]
        rng = np.random.default_rng(32 + m)
        starts = []
        for _ in range(16):
            eps = 10.0 ** rng.uniform(-4.0, -1.5)
            p = np.append(1.0 - eps, eps * rng.dirichlet(np.ones(m - 1)))
            starts.append(cb_vector_of(MscChannel(p)))
        got = [zm_iterate(v0, e, self.LIMITS) for v0 in starts]
        monkeypatch.setattr(zm_mod, "run_recursion", _ungated_run_recursion)
        for v0, traj in zip(starts, got):
            ref = zm_iterate(v0, e, self.LIMITS)
            assert (traj.verdict, traj.reason, traj.iterations) == \
                (ref.verdict, ref.reason, ref.iterations)
            assert len(traj.states) == len(ref.states)
            for a, b in zip(traj.states, ref.states):
                assert np.array_equal(a.v, b.v)

    def test_fewer_kernel_steps_on_a_long_decodable_run(self, monkeypatch, e36):
        import bpbounds.binary_bounds as bb

        start = NoisePair(0.430533, 0.330775)
        gated, ungated = [], []
        monkeypatch.setattr(bb, "run_recursion", _counting(run_recursion, gated))
        traj = iterate_bound("ub-cbsb", start, e36)
        monkeypatch.setattr(bb, "run_recursion", _counting(_ungated_run_recursion, ungated))
        ref = iterate_bound("ub-cbsb", start, e36)
        assert (traj.verdict, traj.reason, traj.iterations) == ("decodable", "decoded", 921)
        assert traj.states == ref.states
        assert len(gated) < len(ungated)


class TestFixedPointWitness:
    LIMITS = IterationLimits(max_iter=3000)

    @pytest.mark.parametrize("name", sorted(CBSB_ENSEMBLES))
    @pytest.mark.parametrize("kind", ["ub-cb", "lb-cb", "ub-sb", "ub-cbsb"])
    def test_never_ends_a_run_the_stall_rule_decoded(self, monkeypatch, kind, name):
        # 4 kinds x 4 ensembles x 32 starts = 512 runs
        import bpbounds.binary_bounds as bb

        e, _ = CBSB_ENSEMBLES[name]
        starts = _witness_starts(kind, name, np.random.default_rng(21), 32)
        got = [iterate_bound(kind, s, e, self.LIMITS) for s in starts]
        monkeypatch.setattr(bb, "run_recursion", _stall_rule_recursion)
        decoded = 0
        for start, traj in zip(starts, got):
            ref = iterate_bound(kind, start, e, self.LIMITS)
            if ref.verdict == "decodable":
                decoded += 1
                assert (traj.verdict, traj.reason) == ("decodable", "decoded")
                assert (traj.states, traj.iterations) == (ref.states, ref.iterations)
            else:
                assert traj.verdict != "decodable"
        if not (kind == "ub-sb" and name.startswith("0.3x")):   # SB* = 0 there
            assert 0 < decoded < len(starts)

    @pytest.mark.parametrize("m", [3, 8, 64])
    def test_zm_never_ends_a_run_the_stall_rule_decoded(self, monkeypatch, m):
        import bpbounds.zm as zm_mod

        e = regular_ensemble(3, 6)
        rng = np.random.default_rng(22 + m)
        starts = []
        for _ in range(24):
            eps = 10.0 ** rng.uniform(-4.0, -0.5)
            p = np.append(1.0 - eps, eps * rng.dirichlet(np.ones(m - 1)))
            starts.append(cb_vector_of(MscChannel(p)))
        got = [zm_iterate(v0, e, self.LIMITS) for v0 in starts]
        monkeypatch.setattr(zm_mod, "run_recursion", _stall_rule_recursion)
        decoded = 0
        for v0, traj in zip(starts, got):
            ref = zm_iterate(v0, e, self.LIMITS)
            if ref.verdict == "decodable":
                decoded += 1
                assert traj.verdict == "decodable"
                assert traj.iterations == ref.iterations and len(traj.states) == len(ref.states)
                for a, b in zip(traj.states, ref.states):
                    assert np.array_equal(a.v, b.v)
            else:
                assert traj.verdict != "decodable"
        assert 0 < decoded < len(starts)

    def test_slow_linear_approach_decodes(self):
        # F(x) < x all the way to 0 at 0.999 SB*, converging at rate about
        # 0.9995: the stall rule called this not-decodable after 40,536
        # steps, at x = 4e-10, once a step moved x by less than 1e-13
        e = DegreeEnsemble(((2, 0.15), (3, 0.85)), ((6, 1.0),))
        traj = iterate_bound("ub-sb", NoisePair(sb=0.999 * 2 / 17), e,
                             IterationLimits(max_iter=10**6))
        assert (traj.verdict, traj.reason) == ("decodable", "decoded")
        assert traj.iterations > 40_536

    @pytest.mark.parametrize("kind", ["float", "tuple", "array"])
    def test_a_repeated_state_ends_the_run_on_any_step(self, kind):
        # step 2 repeats step 1, off the witness steps 1, 5, 9, ...: float and
        # tuple states are compared as they are, others through to_array
        wrap = {"float": float, "tuple": lambda x: (x, x),
                "array": lambda x: SimpleNamespace(v=np.array([x]))}[kind]
        unwrap = lambda s: np.atleast_1d(getattr(s, "v", s))
        verdict, _, its, reason = run_recursion(
            lambda s: wrap(0.5), lambda s: unwrap(s)[0], wrap(0.7), IterationLimits(),
            unwrap, lambda a: wrap(float(a.clip(0, 1)[0])))
        assert (verdict, its, reason) == ("not-decodable", 2, "witness")

    def test_reasons(self, e36):
        assert iterate_bound("ub-cb", NoisePair(cb=0.42), e36).reason == "decoded"
        assert iterate_bound("ub-cb", NoisePair(cb=0.44), e36).reason == "witness"
        short = iterate_bound("ub-cb", NoisePair(cb=0.4294), e36, IterationLimits(max_iter=3))
        assert (short.verdict, short.reason, short.iterations) == ("inconclusive", "max_iter", 3)

    def test_ends_a_not_decodable_run_sooner(self, monkeypatch, e36):
        import bpbounds.binary_bounds as bb

        start = NoisePair(0.52, 0.2704 * 1.05)
        traj = iterate_bound("ub-cbsb", start, e36)
        monkeypatch.setattr(bb, "run_recursion", _stall_rule_recursion)
        ref = iterate_bound("ub-cbsb", start, e36)
        assert (traj.verdict, traj.reason) == ("not-decodable", "witness")
        assert ref.verdict == "not-decodable"
        assert traj.iterations < ref.iterations
        assert traj.states == ref.states[:traj.iterations + 1]

    @pytest.mark.parametrize("dv", [3, 4, 6])
    @settings(max_examples=60, deadline=None)
    @given(fracs=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           shrink=st.floats(0.0, 1.0))
    @example(fracs=[0.03125, 0.0, 0.03125, 0.5, 0.0, 1.0], shrink=1.0).via(
        "(3,6): (0.03125, 0.01611328125) <= (0.03125, 0.03125) steps to SB 3.291e-4 > 3.123e-4")
    def test_ub_cbsb_step_monotone_on_regular_ensembles(self, dv, fracs, shrink):
        # the witness would be a proof if the step were monotone componentwise;
        # the pinned pair shows it is not at dv = 3 (ROADMAP item 9)
        e = regular_ensemble(dv, 2 * dv)
        cb0, s0, cb_a, sa, cb_up, sb_up = fracs
        sb0 = cb0 * cb0 + s0 * (cb0 - cb0 * cb0)
        sb_a = cb_a * cb_a + sa * (cb_a - cb_a * cb_a)
        # the upper point, at a distance scaled by shrink^4 (often very close)
        cb_b = cb_a + (1.0 - cb_a) * cb_up * shrink ** 4
        lo = max(sb_a, cb_b * cb_b)
        sb_b = lo + (cb_b - lo) * sb_up * shrink ** 4
        start = NoisePair(cb0, sb0)

        def step(cb, sb):
            return two_dim_var_step(start, two_dim_check_step(NoisePair(cb, sb), e), e)

        out_a, out_b = step(cb_a, sb_a), step(cb_b, sb_b)
        assert out_a.cb <= out_b.cb + 1e-12
        assert out_a.sb <= out_b.sb + 1e-12


_BSC = BscMixture(((1.0, 0.1),))
_WORDS0, _WORDS1 = ((1.0, (0,)),), ((1.0, (1,)),)


@pytest.mark.parametrize("call, message", [
    (lambda: two_dim_check_step(NoisePair(cb=0.5), regular_ensemble(3, 6)),
     "two_dim_check_step needs a full NoisePair"),
    (lambda: phi_variable_sb(AtomicBscFamily(((1.0, 0.5),)), AtomicBscFamily(((1.0, 0.5),)), -1),
     "d_minus_1 must be >= 0"),
    (lambda: two_dim_var_step(NoisePair(0.5, 0.3), NoisePair(cb=0.5), regular_ensemble(3, 6)),
     "two_dim_var_step needs full NoisePairs"),
    (lambda: iterate_bound("ub-cbsb", NoisePair(cb=0.5), regular_ensemble(3, 6)),
     "ub-cbsb needs a full NoisePair start"),
    (lambda: iterate_bound("ub-sb", NoisePair(cb=0.5), regular_ensemble(3, 6)),
     "ub-sb needs start.sb"),
    (lambda: SequenceMapperChannel(1.0, _WORDS0, _WORDS1, (_BSC,)),
     "prior0 must lie strictly inside"),
    (lambda: SequenceMapperChannel(0.5, ((1.0, ()),), ((1.0, ()),), ()),
     "need between 1 and 12 coordinates"),
    (lambda: SequenceMapperChannel(0.5, _WORDS0, _WORDS1,
                                   (BscMixture(((0.25, 0.1),) * 3 + ((0.25, 0.2),)),)),
     "coordinate mixtures may have at most 3 atoms"),
    (lambda: SequenceMapperChannel(0.5, ((0.5, (0,)),), _WORDS1, (_BSC,)),
     "branch probabilities must sum to 1"),
    (lambda: SequenceMapperChannel(0.5, _WORDS0, ((1.0, (1, 1)),), (_BSC,)),
     "every word must have one bit per coordinate"),
], ids=["check-step-pair", "d-minus-1", "var-step-pairs", "ub-cbsb-start", "ub-sb-start",
        "prior0", "no-coords", "four-atoms", "branch-sum", "word-length"])
def test_input_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
