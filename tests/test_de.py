import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

import bpbounds.de as de_mod
from bpbounds import (Bec, BiAwgn, BiLaplace, BiRayleigh, Bnsc, Bsc,
                      BscMixture, CHANNEL_FAMILIES, DE_MAX_ITER, DegreeEnsemble,
                      DeVerdict, IterationLimits, cb_of, channel_density, channel_threshold,
                      de_decodable, de_threshold, lambda_eval, measure_threshold,
                      rayleigh_amplitude_marginal_density, regular_ensemble,
                      rho_eval)
from bpbounds.channels import BIAWGN_SIGMA_MAX, UnsupportedChannelError
from bpbounds.de import DELTA, LLR_BINS, LLR_MAX


@pytest.fixture(scope="module")
def e36():
    return regular_ensemble(3, 6)


IRREGULAR = DegreeEnsemble(((2, 0.3), (3, 0.7)), ((6, 1.0),))   # lambda_2 rho'(1) = 1.5
X7 = DegreeEnsemble(((2, 0.25), (3, 0.35), (8, 0.4)), ((7, 1.0),))   # lambda up to x^7


def pe_of_density(m):
    return float(m @ de_mod._PE)


def bhattacharyya(m):
    return float(m @ de_mod._BHAT)


def de_step(m, e, ch):
    """One discretized DE iteration from message density m."""
    chan = channel_density(ch) if not isinstance(ch, np.ndarray) else ch
    n = 1 << (2 * LLR_BINS * max(k for k, _ in e.lam)).bit_length()
    chan_f = np.fft.rfft(de_mod._signed(chan, n))
    return de_mod._variable_stage(rho_eval(e, m, de_mod._check_product), chan_f, e, n)


class TestBecThreshold:
    def test_regular_36(self, e36):
        assert measure_threshold("ub-cb", e36) == pytest.approx(0.42944, abs=1e-4)

    def test_linear_recursion(self):
        e = DegreeEnsemble(((2, 1.0),), ((2, 1.0),))
        # x' = eps * x decays for every eps < 1, so the threshold is 1; the
        # closed form takes the x -> 0 limit 1 / (lambda_2 rho'(1)) = 1, and
        # only the rounding of 1 - (1 - x) on its grid keeps it off 1 exactly
        assert measure_threshold("ub-cb", e) == pytest.approx(1.0, abs=1e-9)

    def test_stability_consistency(self, e36):
        # at the BEC threshold the stability product must not exceed 1
        from bpbounds import lambda2, rho_prime1
        eps = measure_threshold("ub-cb", e36)
        assert lambda2(e36) * rho_prime1(e36) * eps <= 1.0 + 1e-9


DENSITY_CHANNELS = [Bsc(0.0), Bsc(0.11), Bsc(0.5), Bec(0.37), BiAwgn(0.83),
                    BiAwgn(0.05), BiLaplace(0.7), BiLaplace(0.05), BiRayleigh(0.66),
                    BiRayleigh(0.05), BscMixture(((0.5, 0.03), (0.5, 0.2)))]


class TestChannelDensities:
    @pytest.mark.parametrize("ch", DENSITY_CHANNELS, ids=repr)
    def test_masses_form_a_density(self, ch):
        m = channel_density(ch)
        assert m.shape == (LLR_BINS + 1,) and np.all(m >= 0.0)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ch", DENSITY_CHANNELS, ids=repr)
    def test_bhattacharyya_matches_the_channel(self, ch):
        # split atoms interpolate f = sech(L/2) linearly and cells take it
        # at their centre: either errs by at most DELTA^2 / 8 max|f''| =
        # DELTA^2 / 32; LLR_MAX carries sech(LLR_MAX/2) for a noise-free message
        assert bhattacharyya(channel_density(ch)) == pytest.approx(
            cb_of(ch), abs=DELTA ** 2 / 32.0 + 1.0 / math.cosh(LLR_MAX / 2.0))

    def test_bsc_atom_is_split_linearly(self):
        mag = math.log(0.9 / 0.1) / DELTA
        m = channel_density(Bsc(0.1))
        k = math.floor(mag)
        assert m[k] == pytest.approx(k + 1 - mag) and m[k + 1] == pytest.approx(mag - k)
        assert np.count_nonzero(m) == 2

    def test_bec_atoms(self):
        m = channel_density(Bec(0.3))
        assert m[0] == 0.3 and m[-1] == 0.7 and np.count_nonzero(m) == 2

    def test_bilaplace_end_atoms(self):
        # lam = 2 DELTA / 2: the ends +-2/lam sit on bins exactly, with
        # masses 1/2 and e^(-2/lam)/2 beside the continuous part's cells
        lam = 1.0 / (5 * DELTA)
        m = channel_density(BiLaplace(lam))
        cells = m.copy()
        cells[10] -= 0.5 * (1.0 + math.exp(-2.0 / lam))
        assert cells.sum() == pytest.approx(0.5 * (1.0 - math.exp(-2.0 / lam)), abs=1e-12)
        assert np.all(cells[11:] == 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(UnsupportedChannelError):
            channel_density(Bnsc(0.0, 0.2))

    @pytest.mark.parametrize("sigma", [1e-3, 0.88, 1.5, BIAWGN_SIGMA_MAX])
    def test_biawgn_cells_match_scipy_ndtr(self, sigma):
        # the CDF by the stdlib's erfc, as it was by ndtr: a mass is the
        # difference of two CDF values in [0, 1], each within one ulp of 1.0
        # (at most 0.75 ulp, at sigma = 1.5)
        mu = 2.0 / sigma ** 2
        want = de_mod._cells(lambda x: ndtr((x - mu) / math.sqrt(2.0 * mu)))
        np.testing.assert_allclose(channel_density(BiAwgn(sigma)), want,
                                   rtol=0.0, atol=np.spacing(1.0))

    @pytest.mark.parametrize("sigma", [0.4, 0.644, 1.0, 2.5])
    def test_marginal_rayleigh_closed_form_matches_quadrature(self, sigma):
        # p(y | +1) = int_0^inf 2a e^(-a^2) N(y; a, sigma^2) da
        s2 = sigma * sigma
        for y in (-3.0, -0.7, 0.0, 0.4, 1.5, 4.0):
            f = lambda a: 2.0 * a * math.exp(-a * a - (y - a) ** 2 / (2.0 * s2))
            want = quad(f, 0.0, 12.0, epsabs=0.0, epsrel=1e-12, limit=200)[0] \
                / math.sqrt(2.0 * math.pi * s2)
            got = math.exp(float(de_mod._log_marginal(np.array(y), s2)))
            assert got == pytest.approx(want, rel=1e-9)

    def test_marginal_rayleigh_is_degraded_from_observed(self):
        # not observing the amplitude degrades the channel, but both decide
        # by the sign of y, so their uncoded error probabilities agree
        obs = channel_density(BiRayleigh(0.644))
        unobs = rayleigh_amplitude_marginal_density(0.644)
        assert unobs.sum() == pytest.approx(1.0, abs=1e-12)
        assert bhattacharyya(unobs) > bhattacharyya(obs) + 0.01
        assert pe_of_density(unobs) == pytest.approx(pe_of_density(obs), abs=1e-3)


def _ref_check_stage(m, e):
    """The check stage as it was before ``rho_eval`` took it over."""
    squares, out = [m], np.zeros_like(m)
    for k, w in e.rho:
        n, i, acc = k - 1, 0, None
        while n:
            if i == len(squares):
                squares.append(de_mod._check_product(squares[-1], squares[-1]))
            if n & 1:
                acc = squares[i] if acc is None else de_mod._check_product(acc, squares[i])
            n, i = n >> 1, i + 1
        out += w * acc
    return out


def _ref_check_product(a, b):
    """The check output from its definition: every pair (i, j) puts a_i b_j at
    v = (2 / DELTA) atanh(t_i t_j), t_k = tanh(k DELTA / 2), split linearly
    between floor(v) and the bin above it."""
    t = np.tanh(np.arange(LLR_BINS + 1) * DELTA / 2.0)
    v = (2.0 / DELTA) * np.arctanh(np.outer(t, t))
    lo = np.floor(v).astype(np.intp)
    out = np.zeros(LLR_BINS + 1)
    np.add.at(out, lo, np.outer(a, b) * (1.0 - (v - lo)))
    np.add.at(out, np.minimum(lo + 1, LLR_BINS), np.outer(a, b) * (v - lo))
    return out


class TestCheckKernel:
    # a bin sums up to 5 x 76 nonnegative terms, in another order than the
    # reference's: 16 ulps was the most in 600 random products
    RTOL = 32 * np.finfo(float).eps

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 5.0])
    def test_matches_the_definition(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        for _ in range(10):
            a, b = rng.dirichlet(np.full(LLR_BINS + 1, alpha), size=2)
            for x, y in ((a, b), (b, a), (a, a)):
                np.testing.assert_allclose(de_mod._check_product(x, y), _ref_check_product(x, y),
                                           rtol=self.RTOL, atol=0.0)

    def test_mass_is_kept(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.dirichlet(np.full(LLR_BINS + 1, 0.3), size=2) * rng.uniform(0.1, 1.0, (2, 1))
            for x, y in ((a, b), (a, a)):
                assert abs(de_mod._check_product(x, y).sum() - x.sum() * y.sum()) <= 1e-15

    def test_bands_hold_every_share_below_the_smaller_input(self):
        w = de_mod._check_bands()[0].reshape(-1, LLR_BINS + 1, LLR_BINS + 1)
        d, i, j = np.nonzero(w)
        assert np.all(j >= i) and np.all(d <= i)
        assert not w.flags.writeable

    def test_cached_indices_and_matrices_are_read_only(self):
        arrays = (de_mod._check_bands()[1], de_mod._fold_bins(512), de_mod._AT, de_mod._OF,
                  de_mod._SHARE, de_mod._PROFILE_A, de_mod._PROFILE_C)
        assert not any(a.flags.writeable for a in arrays)

    def test_rho_eval_squares_reach_the_kernel_as_one_object(self, e36, monkeypatch):
        # rho = x^5: x * x, x^2 * x^2, then x * x^4
        calls, kernel = [], de_mod._check_product
        def spy(a, b):
            calls.append(a is b)
            return kernel(a, b)
        monkeypatch.setattr(de_mod, "_check_product", spy)
        got = de_decodable(Bsc(0.07), e36)
        assert calls == [True, True, False] * got.iterations


def _ref_signed(m, n):
    """``_signed`` as slices: bin k's share 1 / (1 + e^-kD) at +kD, the rest at -kD."""
    s = np.zeros(n)
    s[:LLR_BINS + 1] = m * (1.0 - de_mod._NEG)
    s[0] = m[0]
    s[n - LLR_BINS:] = (m[1:] * de_mod._NEG[1:])[::-1]
    return s


def _ref_variable_stage(c, chan_f, e, n):
    """The variable stage with its irfft output folded by slices: index n - k
    onto bin k, and everything from K to n - K onto bin K."""
    s = np.fft.irfft(chan_f * lambda_eval(e, np.fft.rfft(_ref_signed(c, n))), n)
    s[1:LLR_BINS] += s[n - 1:n - LLR_BINS:-1]
    s[LLR_BINS] = s[LLR_BINS:n - LLR_BINS + 1].sum()
    m = np.maximum(s[:LLR_BINS + 1], 0.0)
    return m / m.sum()


def _ref_degradation_profile(m):
    """The profile by its definition: from each bin up, the integral of the
    CDF (1 less the mass above) over the |tanh(L/2)| cells."""
    widths = np.diff(np.append(np.tanh(np.arange(LLR_BINS + 1) * DELTA / 2.0), 1.0))
    cdf = 1.0 - np.append(np.cumsum(m[:0:-1])[::-1], 0.0)
    return np.cumsum((cdf * widths)[::-1])[::-1]


class TestStepKernels:
    # bin K sums n - 2K + 1 terms in order, the reference pairwise, and the
    # normalization carries that to every bin: 16 eps was the most in 5400 stages
    RTOL = 32 * np.finfo(float).eps

    @pytest.mark.parametrize("dv, n", [(3, 512), (4, 1024), (8, 2048)])
    def test_variable_stage_matches_the_slice_fold(self, dv, n):
        e = regular_ensemble(dv, 2 * dv)
        assert 1 << (2 * LLR_BINS * dv).bit_length() == n
        rng = np.random.default_rng(dv)
        for ch in (Bsc(0.08), BiAwgn(0.9), BiLaplace(0.6), Bec(0.4)):
            chan = channel_density(ch)
            assert np.array_equal(de_mod._signed(chan, n), _ref_signed(chan, n))
            chan_f = np.fft.rfft(de_mod._signed(chan, n))
            for c in [chan, *rng.dirichlet(np.full(LLR_BINS + 1, 0.3), size=20)]:
                np.testing.assert_allclose(de_mod._variable_stage(c, chan_f, e, n),
                                           _ref_variable_stage(c, chan_f, e, n),
                                           rtol=self.RTOL, atol=0.0)

    def test_degradation_profile_matches_its_definition(self):
        rng = np.random.default_rng(7)
        top, erased = np.zeros(LLR_BINS + 1), np.zeros(LLR_BINS + 1)
        top[-1] = erased[0] = 1.0
        heavy_top = rng.dirichlet(np.full(LLR_BINS + 1, 0.3)) * 0.1
        heavy_top[-1] += 0.9
        densities = [top, erased, heavy_top, *rng.dirichlet(np.full(LLR_BINS + 1, 0.05), size=20),
                     *rng.dirichlet(np.full(LLR_BINS + 1, 2.0), size=20)]
        for m in densities:
            np.testing.assert_allclose(de_mod._degradation_profile(m), _ref_degradation_profile(m),
                                       rtol=0.0, atol=1e-15)


_BLAS_THREADS_RUN = """
import json
from bpbounds import DegreeEnsemble, channel_threshold, de_decodable, regular_ensemble, Bsc
x7 = DegreeEnsemble(((2, 0.25), (3, 0.35), (8, 0.4)), ((7, 1.0),))
out = [(r.lo, r.hi) for r in (channel_threshold("de", f, e) for f, e in (
    ("bsc", regular_ensemble(3, 6)), ("biawgn", regular_ensemble(3, 6)), ("bsc", x7)))]
print(json.dumps([out, de_decodable(Bsc(0.0841), regular_ensemble(3, 6))]))
"""


def test_de_is_bit_identical_under_one_and_two_blas_threads():
    # the check kernel is a GEMV or a GEMM; a BLAS that split one sum across
    # threads would move the densities' last bits, and with them witness steps
    path = os.pathsep.join(filter(None, (os.path.dirname(os.path.dirname(de_mod.__file__)),
                                         os.environ.get("PYTHONPATH"))))
    runs = [subprocess.run([sys.executable, "-c", _BLAS_THREADS_RUN], capture_output=True,
                           text=True, check=True, env={**os.environ, "PYTHONPATH": path,
                                                       "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])[0][0] == [0.08404541015625, 0.0841064453125]


class TestRefusedInput:
    def test_nan_density(self, e36):
        with pytest.raises(ValueError, match="summing to 1"):
            de_decodable(np.full(LLR_BINS + 1, math.nan), e36)

    def test_density_of_mass_two(self, e36):
        with pytest.raises(ValueError, match="summing to 1"):
            de_decodable(2.0 * channel_density(Bsc(0.05)), e36)

    def test_negative_mass(self, e36):
        m = channel_density(Bsc(0.05))
        m[[0, -1]] += (-0.1, 0.1)
        with pytest.raises(ValueError, match=">= 0"):
            de_decodable(m, e36)

    def test_density_of_the_wrong_length(self, e36):
        with pytest.raises(ValueError, match="76 finite masses"):
            de_decodable(np.full(10, 0.1), e36)

    @pytest.mark.parametrize("sigma", [0.0, math.nan, -0.5, 2e150])
    def test_marginal_rayleigh_sigma_outside_its_range(self, sigma):
        with pytest.raises(ValueError, match="sigma must lie in"):
            rayleigh_amplitude_marginal_density(sigma)


class TestDeStep:
    @pytest.mark.parametrize("ch", [Bsc(0.05), BiAwgn(0.9), Bec(0.4)], ids=repr)
    def test_check_stage_is_rho_eval(self, ch):
        # the binned check product is not associative (a left-to-right power
        # moves single bins by up to 94% of their mass on Bsc(0.05)), so the
        # squaring order is part of every DE output and is pinned bit for bit
        e = DegreeEnsemble(((3, 1.0),), ((2, 0.1), (5, 0.2), (6, 0.3), (11, 0.25), (33, 0.15)))
        m = channel_density(ch)
        assert np.array_equal(rho_eval(e, m, de_mod._check_product), _ref_check_stage(m, e))

    def test_all_perfect_stays_perfect(self, e36):
        # LLR_MAX itself errs with probability e^-15 / (1 + e^-15), so a
        # little mass leaves it
        assert de_step(channel_density(Bec(0.0)), e36, Bec(0.0))[-1] > 1.0 - 1e-6
        got = de_decodable(Bec(0.0), e36)
        assert got.decodable and got.iterations == 1 and got.pe[0] < 1e-6

    def test_all_erased_stays_erased(self, e36):
        got = de_decodable(Bec(1.0), e36)
        assert got == DeVerdict(False, 1, "witness", (0.5,))

    def test_below_threshold_bsc_converges(self, e36):
        assert de_decodable(Bsc(0.07), e36).decodable

    def test_above_threshold_bsc_stuck(self, e36):
        assert not de_decodable(Bsc(0.12), e36).decodable

    @pytest.mark.parametrize("ch", [BiAwgn(0.9), Bsc(0.08), BiLaplace(0.6)], ids=repr)
    def test_sign_split_is_the_symmetry_identity(self, e36, ch):
        # storing magnitudes is exact only if the variable stage's signed
        # output obeys a(-l) = e^-l a(l) before it is folded
        m = channel_density(ch)
        for _ in range(3):
            m = de_step(m, e36, ch)
        n = 512
        c = rho_eval(e36, m, de_mod._check_product)
        chan_f = np.fft.rfft(de_mod._signed(channel_density(ch), n))
        s = np.fft.irfft(chan_f * np.fft.rfft(de_mod._signed(c, n)) ** 2, n)
        t = np.arange(1, 3 * LLR_BINS)
        assert np.allclose(s[n - t], np.exp(-t * DELTA) * s[t], rtol=0.0, atol=1e-15)

    def test_step_keeps_a_density(self, e36):
        m = channel_density(BiAwgn(0.95))
        for _ in range(20):
            m = de_step(m, IRREGULAR, BiAwgn(0.95))
            assert np.all(m >= 0.0) and m.sum() == pytest.approx(1.0, abs=1e-12)


class TestStopRules:
    def test_verdict_fields(self, e36):
        got = de_decodable(Bsc(0.07), e36)
        assert isinstance(got, tuple) and got[1] == got.iterations
        assert len(got.pe) == got.iterations
        assert all(type(x) is float for x in got.pe)

    def test_bhattacharyya_is_the_decodable_rule(self, e36):
        got = de_decodable(Bsc(0.07), e36)
        assert got.decodable and got.reason == "decoded"

    def test_witness(self, e36):
        got = de_decodable(Bsc(0.12), e36)
        assert got.reason == "witness" and not got.decodable

    def test_bec_far_above_threshold_ends_on_a_witness(self, e36):
        # the first probe of the bec search: the witness check passes or fails
        # at rounding level from step to step, so the first contracting
        # window's try must be made (waiting for a steady r ran 2,000 steps)
        got = de_decodable(Bec(0.5423583984375), e36)
        assert (got.decodable, got.reason) == (False, "witness") and got.iterations < 20

    def test_max_iter(self, e36):
        got = de_decodable(Bsc(0.0841), e36, IterationLimits(7))
        assert got == DeVerdict(False, 7, "max_iter", got.pe) and len(got.pe) == 7

    def test_bec_just_above_the_exact_threshold_is_not_decodable(self, e36):
        # ub-cb proves the exact BEC threshold 0.429439; a radius past the
        # dip of x / g(x) (see the next test) calls this channel decodable
        # after one iteration
        got = de_decodable(Bec(0.4296), e36)
        assert not got.decodable and got.reason == "witness"

    def test_radius_stops_below_a_narrow_dip(self, e36):
        # a hair above CB*, cb0 exceeds x / g(x) only in a narrow dip around
        # its minimiser x_m; a coarse crossing scan misses the dip and lets
        # every message decode
        from bpbounds.binary_bounds import cb_ratio_samples
        xs, vs, _ = cb_ratio_samples("ub-cb", e36)
        x_m, cb_star = xs[vs.argmin()], vs.min()
        for cb0 in (cb_star * (1.0 + 1e-6), cb_star * (1.0 + 1e-5), 0.4296):
            assert de_mod._ub_cb_radius(cb0, e36) < x_m

    def test_radius_is_within_a_grid_step_of_the_first_crossing(self, e36):
        from bpbounds import ub_cb_step
        cb_star = measure_threshold("ub-cb", e36)
        assert de_mod._ub_cb_radius(0.9 * cb_star, e36) == math.inf
        for cb0 in (0.4296, 0.5, 0.7):
            r = de_mod._ub_cb_radius(cb0, e36)
            assert all(ub_cb_step(x, e36, cb0) < x for x in np.geomspace(1e-6, r, 2000))
            # CB*'s log grid steps by 10^(5/200) < 1.06
            assert any(ub_cb_step(x, e36, cb0) >= x for x in np.geomspace(r, 1.06 * r, 2000))
        # lambda_2 rho'(1) cb0 >= 1: no message decodes by ub-cb
        assert de_mod._ub_cb_radius(0.7, IRREGULAR) == 0.0

    def test_radius_samples_are_built_once_per_search(self, e36, monkeypatch):
        from bpbounds.binary_bounds import cb_ratio_samples
        builds = []

        def counted(kind, e):
            builds.append((kind, e))
            return cb_ratio_samples(kind, e)

        monkeypatch.setattr(de_mod, "cb_ratio_samples", counted)
        de_mod._ub_cb_samples.cache_clear()
        de_threshold(CHANNEL_FAMILIES["bsc"], e36, None, lo=0.07, hi=0.1, steps=3)
        assert builds == [("ub-cb", e36)]

    def test_deterministic(self, e36):
        assert de_decodable(BiAwgn(0.8814), e36) == de_decodable(BiAwgn(0.8814), e36)

    @pytest.mark.parametrize("family, e", [("bsc", regular_ensemble(3, 6)),
                                           ("biawgn", regular_ensemble(3, 6)),
                                           ("bsc", IRREGULAR)],
                             ids=["bsc-36", "biawgn-36", "bsc-irregular"])
    def test_witness_never_ends_a_run_that_decodes(self, monkeypatch, family, e):
        import bpbounds.binary_bounds as bb

        # the discretized step keeps the degradation order only up to ~2e-9
        # (see test_step_keeps_the_degradation_order), so the witness is
        # checked against runs without it on the probes nearest threshold
        value = channel_threshold("de", family, e).value
        fam = CHANNEL_FAMILIES[family]
        probes = [value + d * (fam.hi - fam.lo) * 2.0 ** -13 for d in (0.5, 1.5, 4.0)]
        verdicts = [de_decodable(fam.build(t), e) for t in probes]
        assert all(v.reason == "witness" for v in verdicts)
        monkeypatch.setattr(bb, "WITNESS_PERIOD", 10 ** 9)
        for t, v in zip(probes, verdicts):
            long = de_decodable(fam.build(t), e, IterationLimits(3000))
            assert not long.decodable, t


def _ref_de_decodable(ch, e, limits, target_pe=1e-5):
    """``de_decodable`` as its own loop, before it ran on ``run_recursion``:
    tries on steps 4, 8, ... once the Aitken ratio r of B is in (0, 1) and
    steady, a witness m_n + 2r/(1 - r) (m_n - m_{n-1}); decodable also once Pe
    fell below ``target_pe``, and a witness needed Pe(m*) > target_pe."""
    period, margin = 4, 1e-9        # the loop's own WITNESS_PERIOD and WITNESS_MARGIN
    chan = channel_density(ch)
    n = 1 << (2 * LLR_BINS * max(k for k, _ in e.lam)).bit_length()
    chan_f = np.fft.rfft(de_mod._signed(chan, n))
    pe, bs, m, r_try = [], [bhattacharyya(chan)], chan, -1.0
    radius = de_mod._ub_cb_radius(bs[0], e)

    def step(m):
        return de_mod._variable_stage(rho_eval(e, m, de_mod._check_product), chan_f, e, n)

    for it in range(1, limits.max_iter + 1):
        new = step(m)
        pe.append(pe_of_density(new))
        bs.append(bhattacharyya(new))
        if bs[-1] < radius or pe[-1] < target_pe:
            return DeVerdict(True, it, "bhattacharyya" if bs[-1] < radius else "target_pe",
                             tuple(pe))
        witness = np.array_equal(new, m)
        if it % period == 0 and not witness:
            last = bs[-2] - bs[-3]
            r = (bs[-1] - bs[-2]) / last if last else -1.0
            if 0.0 < r < 1.0 and abs(r - r_try) <= 0.05 * (1.0 - r):
                star = np.maximum(new + 2.0 * r / (1.0 - r) * (new - m), 0.0)
                star *= (1.0 - margin) / star.sum()
                star[LLR_BINS] += margin
                prof = de_mod._degradation_profile(star)
                witness = bool(pe_of_density(star) > target_pe
                               and np.all(prof <= de_mod._degradation_profile(new))
                               and np.all(de_mod._degradation_profile(step(star)) >= prof))
            r_try = r
        if witness:
            return DeVerdict(False, it, "witness", tuple(pe))
        m = new
    return DeVerdict(False, limits.max_iter, "max_iter", tuple(pe))


@pytest.mark.parametrize("family", ["bsc", "biawgn", "bec", "bilc", "rayleigh"])
@pytest.mark.parametrize("e", [regular_ensemble(3, 6), X7], ids=["36", "irregular-x7"])
def test_stop_rule_matches_the_target_pe_rule(monkeypatch, family, e):
    # every probe of a threshold search keeps the old loop's verdict, a
    # witness stays a witness, and no run newly ends on max_iter; a probe
    # that ran cold (not from its bracket's failing end) also keeps the Pe
    # trajectory, and a decodable one its iteration count
    runs = []

    def both(ch, e, limits=None, warm=None):
        cold = not warm
        got = de_decodable(ch, e, limits, warm)
        runs.append((got, _ref_de_decodable(ch, e, limits or IterationLimits(DE_MAX_ITER)),
                     cold))
        return got

    monkeypatch.setattr(de_mod, "de_decodable", both)
    channel_threshold("de", family, e)
    if len(runs) < 10:
        # CB* settles most of a search's probes on some families (4 DE runs
        # on (3,6) bec): bisect DE over the CB bracket for more near-threshold runs
        de_threshold(CHANNEL_FAMILIES[family], e, None,
                     channel_threshold("ub-cb", family, e).lo,
                     channel_threshold("lb-cb", family, e).hi)
    assert len(runs) >= 10 and any(cold for _, _, cold in runs)
    for got, ref, cold in runs:
        n = min(got.iterations, ref.iterations) if cold else 0
        assert got.decodable == ref.decodable and got.pe[:n] == ref.pe[:n]
        if ref.decodable:
            assert got.reason == "decoded" and (not cold or got.iterations == ref.iterations)
        if ref.reason == "witness":
            assert got.reason == "witness"
        assert got.reason != "max_iter" or ref.reason == "max_iter"


class TestWarmStart:
    # a search's DE run at theta starts from the final density of a failing
    # run at a larger theta: sound if the channel densities are ordered along
    # the family and a warm witness lies below the probe's own channel
    @pytest.mark.parametrize("family", ["bsc", "biawgn", "bilc", "rayleigh", "bec"])
    def test_channel_density_is_ordered_along_the_family(self, family):
        fam = CHANNEL_FAMILIES[family]
        prof = [de_mod._degradation_profile(channel_density(fam.build(t)))
                for t in np.linspace(fam.lo, fam.hi, 400)]
        assert min(float(np.min(b - a)) for a, b in zip(prof, prof[1:])) >= -1e-15

    def test_warm_witness_above_the_channel_is_refused(self, e36, monkeypatch):
        # half of each step's output erased: the step's fixed point is more
        # degraded than the channel.  A cold run, whose witness needs no
        # check against the channel, ends on it; a run started warm from the
        # channel itself differs only by that check, and finds no witness
        stage = de_mod._variable_stage

        def half_erased(*args):
            m = 0.5 * stage(*args)
            m[0] += 0.5
            return m
        monkeypatch.setattr(de_mod, "_variable_stage", half_erased)
        ch = Bsc(0.05)
        chan, final = channel_density(ch), []
        cold = de_decodable(ch, e36, IterationLimits(200), final)
        assert cold.reason == "witness"
        prof = de_mod._degradation_profile
        assert np.any(prof(final[0]) > prof(chan))
        got = de_decodable(ch, e36, IterationLimits(200), [chan])
        assert (got.decodable, got.reason) == (False, "max_iter")

    def test_warm_start_above_the_channel_is_not_taken(self, e36):
        # the final density of a failing run at p = 0.2 is not below
        # Bsc(0.02)'s channel near LLR 0: that run starts cold
        final = []
        assert not de_decodable(Bsc(0.2), e36, None, final).decodable
        prof = de_mod._degradation_profile
        assert np.any(prof(final[0]) > prof(channel_density(Bsc(0.02))))
        assert de_decodable(Bsc(0.02), e36, None, final) == de_decodable(Bsc(0.02), e36)

    def test_warm_and_cold_verdicts_agree(self, monkeypatch):
        # every DE probe of each search, and probes descending through its
        # final bracket's neighbourhood on one search verdict, run warm and
        # then cold: no warm verdict differs from its cold one
        runs = []
        decodable = de_mod.de_decodable

        def both(ch, e, limits=None, warm=None):
            got = decodable(ch, e, limits, warm)
            if warm:
                runs.append((ch, got.decodable, decodable(ch, e, limits).decodable))
            return got

        monkeypatch.setattr(de_mod, "de_decodable", both)
        for e in (regular_ensemble(3, 6), regular_ensemble(4, 8), IRREGULAR):
            for family in ("bsc", "biawgn", "bilc", "rayleigh", "bec"):
                res = channel_threshold("de", family, e)
                verdict = de_mod.search_verdict(CHANNEL_FAMILIES[family], e, None)
                width = res.hi - res.lo
                for t in res.hi + width * np.array([4.0, 1.5, 0.5, -0.25, -0.5, -1.5, -3.0]):
                    verdict(float(t))
        assert len(runs) >= 200, len(runs)
        assert [(ch, warm) for ch, warm, cold in runs if warm != cold] == []


class TestMonotonicity:
    # bisection assumes DE verdicts are monotone in the channel parameter;
    # pairs are drawn within 3% of each threshold, where verdicts change
    CENTERS = {("bsc", "36"): 0.0841, ("biawgn", "36"): 0.8814,
               ("bsc", "irregular"): 0.0654, ("biawgn", "irregular"): 0.8117}

    @pytest.mark.parametrize("family", ["bsc", "biawgn"])
    @pytest.mark.parametrize("ens", ["36", "irregular"])
    @settings(max_examples=12, deadline=None)
    @given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    def test_worse_channel_never_decodes_alone(self, family, ens, u, v):
        e = regular_ensemble(3, 6) if ens == "36" else IRREGULAR
        c = self.CENTERS[family, ens]
        t1, t2 = sorted((c * (0.97 + 0.06 * u), c * (0.97 + 0.06 * v)))
        build = CHANNEL_FAMILIES[family].build
        if de_decodable(build(t2), e).decodable:
            assert de_decodable(build(t1), e).decodable

    @pytest.mark.parametrize("e", [regular_ensemble(3, 6), IRREGULAR],
                             ids=["36", "irregular"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.0, 0.5),
           kind=st.sampled_from(["erasure", "check", "bsc-pair"]),
           chan=st.sampled_from([Bsc(0.01), Bsc(0.09), BiAwgn(0.5), BiAwgn(0.85)]))
    def test_step_keeps_the_degradation_order(self, e, seed, t, kind, chan):
        # b is degraded from a (part erased, one more check input, or a
        # noisier BSC); the step must keep b's profile above a's.  Split
        # rounding and the fold onto LLR_MAX are not degradations, and break
        # the order by up to 1.9e-9 near LLR_MAX (measured on 2,000 pairs)
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.full(LLR_BINS + 1, 0.3))
        if kind == "erasure":
            b = (1.0 - t) * a
            b[0] += t
        elif kind == "check":
            b = de_mod._check_product(a, rng.dirichlet(np.full(LLR_BINS + 1, 0.3)))
        else:
            a, b = channel_density(Bsc(t * rng.uniform())), channel_density(Bsc(t))
        prof = de_mod._degradation_profile
        assert np.all(prof(b) - prof(a) >= -1e-15)
        assert np.all(prof(de_step(b, e, chan)) - prof(de_step(a, e, chan)) >= -1e-8)


class TestDeThreshold:
    def test_bec_agrees_with_exact_recursion(self, e36):
        value, lo, hi = de_threshold(CHANNEL_FAMILIES["bec"], e36, None,
                                     lo=0.3, hi=0.6)
        assert value == pytest.approx(measure_threshold("ub-cb", e36), abs=0.005)

    def test_bec_cell_contains_the_exact_threshold(self, e36):
        res = channel_threshold("de", "bec", e36)
        assert res.lo < measure_threshold("ub-cb", e36) < res.hi

    def test_irregular_ensemble_bec_agreement(self):
        # exercises several degrees on both node sides
        e = DegreeEnsemble(((2, 0.4), (3, 0.6)), ((5, 0.5), (6, 0.5)))
        exact = measure_threshold("ub-cb", e)
        value, _, _ = de_threshold(CHANNEL_FAMILIES["bec"], e, None,
                                   lo=exact - 0.1, hi=exact + 0.1)
        assert value == pytest.approx(exact, abs=0.005)

    def test_bracket_semantics(self, e36):
        value, lo, hi = de_threshold(CHANNEL_FAMILIES["bsc"], e36, None,
                                     lo=0.04, hi=0.14)
        assert lo <= value <= hi
        assert hi - lo == pytest.approx(0.10 * 2 ** -13, abs=1e-9)

    def test_outer_bound_exceeds_de(self, e36):
        # the CB lower-bound recursion yields an outer threshold: channels
        # decodable in reality must sit below it
        lb_star = measure_threshold("lb-cb", e36)
        p_de, _, _ = de_threshold(CHANNEL_FAMILIES["bsc"], e36, None,
                                  lo=0.04, hi=0.14)
        assert 2 * math.sqrt(p_de * (1 - p_de)) <= lb_star + 0.01

    @pytest.mark.parametrize("family, e, lo, hi", [
        ("bsc", regular_ensemble(4, 8), 0.0767822265625, 0.07684326171875),
        ("biawgn", regular_ensemble(4, 8), 0.8386352539062498, 0.8389953613281249),
        ("bsc", X7, 0.0968017578125, 0.09686279296875),
        ("biawgn", X7, 0.9272216796875, 0.927581787109375)],
        ids=["bsc-48", "biawgn-48", "bsc-x7", "biawgn-x7"])
    def test_default_bracket_is_pinned(self, family, e, lo, hi):
        # bit for bit, as CI pins the five (3,6) brackets: these run the
        # variable stage at n = 1024 and 2048
        res = channel_threshold("de", family, e)
        assert (res.lo, res.hi) == (lo, hi)

    def test_default_36_searches_take_at_most_3153_steps(self, e36, monkeypatch):
        # README's figure, witness steps included, so that a faster step
        # cannot hide more work; at most, as last bits can move a step count
        steps, stage = [], de_mod._variable_stage

        def counted(*args):
            steps.append(1)
            return stage(*args)

        monkeypatch.setattr(de_mod, "_variable_stage", counted)
        for family in ("bsc", "biawgn", "bilc", "rayleigh", "bec"):
            channel_threshold("de", family, e36)
        assert len(steps) <= 3153

    def test_density_builder_family(self, e36):
        # a family may build bin masses directly, as the amplitude-
        # unobserved Rayleigh channel does
        fam = dataclasses.replace(CHANNEL_FAMILIES["bsc"],
                                  build=lambda p: channel_density(Bsc(p)))
        assert de_threshold(fam, e36, None, 0.04, 0.14) == \
            de_threshold(CHANNEL_FAMILIES["bsc"], e36, None, 0.04, 0.14)


# ---------------------------------------------------------------------------
# Test-only cross-check: sampled (population) DE, the kernel the discretized
# one replaced.  Populations track LLRs given the zero input, saturated at
# +-40; check nodes use the tanh rule, variable nodes sum.
# ---------------------------------------------------------------------------

def _sampler(ch):
    """sampler(rng, n) drawing channel LLRs given X = 0."""
    if isinstance(ch, (Bsc, BscMixture)):
        atoms = ((1.0, ch.p),) if isinstance(ch, Bsc) else ch.atoms
        ps = np.array([p for _, p in atoms])
        with np.errstate(divide="ignore"):
            mags = np.log((1.0 - ps) / ps)

        def sample(rng, n):
            which = rng.choice(len(atoms), size=n, p=[w for w, _ in atoms])
            return np.where(rng.random(n) < ps[which], -mags[which], mags[which])
        return sample
    if isinstance(ch, Bec):
        return lambda rng, n: np.where(rng.random(n) < ch.eps, 0.0, np.inf)
    if isinstance(ch, BiAwgn):
        return lambda rng, n: 2.0 * rng.normal(1.0, ch.sigma, n) / ch.sigma ** 2
    if isinstance(ch, BiLaplace):
        def sample(rng, n):
            y = rng.laplace(1.0, ch.lam, n)
            return (np.abs(y + 1.0) - np.abs(y - 1.0)) / ch.lam
        return sample
    if isinstance(ch, BiRayleigh):
        def sample(rng, n):
            a = rng.rayleigh(1.0 / math.sqrt(2.0), n)
            return 2.0 * a * rng.normal(a, ch.sigma) / ch.sigma ** 2
        return sample
    sigma = ch      # amplitude-unobserved Rayleigh, by its sigma

    def sample(rng, n):
        s2 = sigma * sigma
        y = rng.normal(rng.rayleigh(1.0 / math.sqrt(2.0), n), sigma)
        return de_mod._log_marginal(y, s2) - de_mod._log_marginal(-y, s2)
    return sample


def _draw(pairs, rng, n):
    return np.array([k for k, _ in pairs])[rng.choice(len(pairs), size=n,
                                                      p=[w for _, w in pairs])]


def _sampled_step(msgs, e, sample, rng):
    n = msgs.size
    tanhs = np.tanh(msgs / 2.0)
    checks = np.empty(n)
    degs = _draw(e.rho, rng, n)
    for k in np.unique(degs):
        sel = degs == k
        prod = np.prod(tanhs[rng.integers(0, n, (k - 1, sel.sum()))], axis=0)
        with np.errstate(divide="ignore"):
            checks[sel] = 2.0 * np.arctanh(prod)
    out = np.clip(sample(rng, n), -40.0, 40.0)
    degs = _draw(e.lam, rng, n)
    for k in np.unique(degs):
        sel = degs == k
        out[sel] += checks[rng.integers(0, n, (k - 1, sel.sum()))].sum(axis=0)
    return np.clip(out, -40.0, 40.0)


CROSS_ENSEMBLES = {
    "regular-36": regular_ensemble(3, 6),
    "irregular-lambda": IRREGULAR,
    "irregular-both": DegreeEnsemble(((2, 0.25), (3, 0.35), (7, 0.4)),
                                     ((5, 0.5), (8, 0.5))),
    "zero-mass-degree": DegreeEnsemble(((2, 0.0), (3, 0.6), (4, 0.4)),
                                       ((5, 0.7), (6, 0.3), (9, 0.0))),
}

CROSS_CHANNELS = {
    "bsc": Bsc(0.08), "bec": Bec(0.4), "biawgn": BiAwgn(0.85),
    "bilc": BiLaplace(0.6), "rayleigh": BiRayleigh(0.7),
    "bsc-mixture": BscMixture(((0.5, 0.03), (0.5, 0.12))),
    "rayleigh-unobserved": 0.8,
}


class TestAgainstSampledKernel:
    N = 100_000
    ITERATIONS = 3

    @pytest.mark.parametrize("family", sorted(CROSS_CHANNELS))
    @pytest.mark.parametrize("ens", sorted(CROSS_ENSEMBLES))
    def test_error_and_bhattacharyya_agree(self, ens, family):
        # three iterations of both kernels: a sampled estimate carries 4
        # standard errors per resampling (so 4 sqrt(t + 1) after t steps),
        # the grid DELTA^2-order rounding (2e-3 allowed);
        # B is estimated as E sech(L/2), which equals E e^(-L/2) for a
        # symmetric density and has no heavy tail
        e, ch = CROSS_ENSEMBLES[ens], CROSS_CHANNELS[family]
        chan = (rayleigh_amplitude_marginal_density(ch) if family == "rayleigh-unobserved"
                else channel_density(ch))
        sample = _sampler(ch)
        rng = np.random.default_rng(2024)
        msgs = np.clip(sample(rng, self.N), -40.0, 40.0)
        m = chan
        for _ in range(self.ITERATIONS):
            msgs = _sampled_step(msgs, e, sample, rng)
            m = de_step(m, e, chan)
        pe = np.mean(msgs < 0.0) + 0.5 * np.mean(msgs == 0.0)
        b = 1.0 / np.cosh(msgs / 2.0)
        z = 4.0 * math.sqrt((self.ITERATIONS + 1) / self.N)
        assert pe_of_density(m) == pytest.approx(pe, abs=z * math.sqrt(pe * (1.0 - pe)) + 2e-3)
        assert bhattacharyya(m) == pytest.approx(b.mean(), abs=z * b.std() + 2e-3)
