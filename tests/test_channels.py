import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpbounds import (CHANNEL_FAMILIES, Bsc, Bec, BiAwgn, BiLaplace,
                      BiRayleigh, Bnsc, BscMixture, MscChannel, MscMixture, CbVector,
                      NoisePair, cb_of, sb_of, pe_of, reverse_form, msc_decompose,
                      symmetrize, cb_vector_of, cutoff_rate, pairwise_pe,
                      x_erasure_decompose, x_erasure_vector,
                      parse_channel_spec)
import bpbounds.channels as channels_mod
from bpbounds.channels import (BIAWGN_SIGMA_MAX, BIRAYLEIGH_SIGMA_MAX, PROB_TOL,
                               ChannelSpecError, NotSymmetricError,
                               UnsupportedChannelError, noise_pair_of)


class TestCbOf:
    def test_bsc_endpoints(self):
        assert cb_of(Bsc(0.0)) == 0.0
        assert cb_of(Bsc(0.5)) == 1.0

    def test_biawgn_closed_form(self):
        # frozen from exp(-1/(2 sigma^2)) at the CB*=0.4294 crossing
        assert cb_of(BiAwgn(0.7690)) == pytest.approx(0.4293395, abs=1e-6)

    def test_bec(self):
        assert cb_of(Bec(0.3)) == 0.3
        assert sb_of(Bec(0.42)) == 0.42

    def test_bnsc_z_channel(self):
        assert cb_of(Bnsc(0.0, 0.2)) == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_bilaplace_closed_form_vs_quadrature_frozen(self):
        # quadrature oracle agreed with the closed form to 1e-15
        assert cb_of(BiLaplace(0.5221)) == pytest.approx(0.4294049827, abs=1e-9)

    @pytest.mark.parametrize("lam", [1e-310, 5e-324])
    def test_bilaplace_past_one_over_lam_overflow(self, lam):
        # 1/lam overflows and (1 + lam)/lam e^(-1/lam) was inf * 0 = NaN
        assert cb_of(BiLaplace(lam)) == 0.0

    @pytest.mark.parametrize("lam", [1e-300, 0.05, 1.0, 3.0])
    def test_bilaplace_closed_form_unchanged(self, lam):
        assert cb_of(BiLaplace(lam)) == (1.0 + lam) / lam * math.exp(-1.0 / lam)

    def test_mixture_average(self):
        mix = BscMixture(((0.25, 0.0), (0.75, 0.5)))
        assert cb_of(mix) == pytest.approx(0.75)


class TestSbOf:
    def test_bsc(self):
        assert sb_of(Bsc(0.1)) == pytest.approx(0.36, abs=1e-15)

    def test_biawgn_quadrature_frozen(self):
        assert sb_of(BiAwgn(0.7460)) == pytest.approx(0.26319231, abs=1e-7)

    def test_bilaplace_closed_form(self):
        assert sb_of(BiLaplace(0.5610)) == pytest.approx(0.26319421, abs=1e-7)

    def test_birayleigh_double_integral_frozen(self):
        # frozen from a nested quadrature of the definition; Monte Carlo
        # (4e6 draws) agreed within one standard error
        assert sb_of(BiRayleigh(0.5804)) == pytest.approx(0.306833, abs=2e-3)
        assert sb_of(BiRayleigh(0.5804)) == pytest.approx(0.3068330, abs=1e-5)

    def test_bnsc_via_reverse_form(self):
        ch = Bnsc(0.1, 0.3)
        rev = reverse_form(ch)
        expect = (rev.r0 * 4 * rev.r01 * (1 - rev.r01)
                  + rev.r1 * 4 * rev.r10 * (1 - rev.r10))
        assert sb_of(ch) == pytest.approx(expect, abs=1e-15)

    def test_bilaplace_tiny_scale_does_not_overflow(self):
        # e^-u / cosh u with u = 1/lam = 1e4 overflowed cosh
        val = sb_of(BiLaplace(1e-4))
        assert math.isfinite(val) and val >= 0.0

    @pytest.mark.parametrize("build", [BiAwgn, BiRayleigh])
    def test_sigma_squared_underflow_is_noise_free(self, build):
        # sigma^2 = 0.0 in floating point divided by zero in both measures
        ch = build(1e-170)
        assert cb_of(ch) == 0.0
        assert sb_of(ch) == 0.0

    @pytest.mark.parametrize("build, top", [(BiAwgn, BIAWGN_SIGMA_MAX),
                                            (BiRayleigh, BIRAYLEIGH_SIGMA_MAX)])
    def test_sigma_range_ends_where_the_measures_finish(self, build, top):
        # BiAWGN's range ends where its SB sum is checked against 30-digit
        # integrals, BiRayleigh's before sigma ** 2 overflows; every
        # accepted sigma finishes
        for sigma in np.logspace(-170.0, math.log10(top), 400):
            ch = build(float(sigma))
            assert 0.0 <= sb_of(ch) <= cb_of(ch) + PROB_TOL
        with pytest.raises(ValueError, match="sigma must lie in"):
            build(math.nextafter(top, math.inf))

    @pytest.mark.parametrize("sigma", [1e3, 1e6, 1e8, 1e12, 1e16])
    def test_birayleigh_large_sigma(self, sigma):
        # the closed form at 40 digits; in floating point its digamma
        # difference cancels at these sigma
        with mp.workdps(40):
            r = mp.sqrt(mp.mpf(sigma) ** 2 / 2 + mp.mpf(1) / 4)
            want = float((mp.digamma((r + 1.5) / 2) - mp.digamma((r + 0.5) / 2))
                         * mp.mpf(sigma) ** 2 / (2 * r))
        got = sb_of(BiRayleigh(sigma))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert got <= cb_of(BiRayleigh(sigma)) + PROB_TOL

    def test_birayleigh_sb_at_most_cb_exactly(self):
        # rounding lifts the closed form past cb and 1 from sigma of about
        # 9e8; sb is clamped to cb there, and untouched (strictly below cb)
        # over the searched range
        for sigma in np.logspace(0.0, 150.0, 3000):
            ch = BiRayleigh(float(sigma))
            assert sb_of(ch) <= cb_of(ch) <= 1.0
        for sigma in np.linspace(1e-3, 3.0, 300):
            ch = BiRayleigh(float(sigma))
            assert sb_of(ch) < cb_of(ch)


def _soft_bit(f, points):
    """SB = 2 E[p(X=1 | V) | X=0] as mp.quad of f(v) = p(v | X=0) 2 p(X=1 | v),
    split at ``points``.  mp.quad stops on an absolute error estimate, so the
    integrand is first scaled to order 1."""
    k = 1 / max(f(mp.mpf(p)) for p in points)
    return mp.quad(lambda v: k * f(v), [-mp.inf] + sorted(set(points)) + [mp.inf]) / k


def _sb_awgn_definition(sigma):
    # Y = 1 + N(0, sigma^2), p(X=1 | y) = 1 / (1 + e^(2y / sigma^2))
    s = mp.mpf(sigma)
    scales = [s * s * 4 ** k for k in range(5)] + [s, 4 * s, 16 * s]
    return _soft_bit(lambda y: mp.npdf(y, 1, s) * 2 / (1 + mp.exp(2 * y / (s * s))),
                     [0] + scales + [-x for x in scales])


def _sb_laplace_definition(lam):
    # Y = 1 + Laplace(lam), LLR (|y + 1| - |y - 1|) / lam
    lam = mp.mpf(lam)
    scales = [lam, 16 * lam]
    return _soft_bit(lambda y: (mp.exp(-abs(y - 1) / lam) / (2 * lam)
                                * 2 / (1 + mp.exp((abs(y + 1) - abs(y - 1)) / lam))),
                     [-1, 0, 1] + scales + [-x for x in scales])


def _sb_rayleigh_definition(sigma):
    # amplitude a (density 2a e^(-a^2)) observed, Y = a + N(0, sigma^2): the
    # LLR 2aY / sigma^2 given t = a^2 ~ Exp(1) is N(ct, 2ct) with c = 2 / sigma^2,
    # and integrating t out gives the density e^(L/2 - r|L|) / (2cr),
    # r = sqrt(1/c + 1/4)
    c = 2 / mp.mpf(sigma) ** 2
    r = mp.sqrt(1 / c + mp.mpf(1) / 4)
    pts = [0, 4, 16, 64]
    return _soft_bit(lambda l: (mp.exp(l / 2 - abs(l) * r) / (2 * c * r)
                                * 2 / (1 + mp.exp(l))),
                     pts + [-x for x in pts])


def _range_points(family):
    fam = CHANNEL_FAMILIES[family]
    return [(family, x) for x in (fam.lo, 0.5 * (fam.lo + fam.hi), fam.hi)]


class TestSbOfHighPrecision:
    """sb_of against 30-digit quadrature of the SB definition, at both ends and
    the middle of each non-discrete family's range; BiAWGN's trapezoid sum
    also on both sides of its sigma = 1 change of variable and at the ends of
    the accepted sigma range, to 1e-14."""

    @pytest.mark.parametrize("family,x", _range_points("biawgn")
                             + [("biawgn", x) for x in (0.3, 0.99, 1.0, 1.01, 1e3,
                                                         BIAWGN_SIGMA_MAX)]
                             + _range_points("rayleigh") + _range_points("bilc")
                             + [("bilc", 1e-4), ("rayleigh", 0.002), ("rayleigh", 0.001)])
    def test_matches_definition(self, family, x):
        build, reference = {"biawgn": (BiAwgn, _sb_awgn_definition),
                            "rayleigh": (BiRayleigh, _sb_rayleigh_definition),
                            "bilc": (BiLaplace, _sb_laplace_definition)}[family]
        with mp.workdps(30):
            want = float(reference(x))
        rel = 1e-14 if family == "biawgn" else 1e-8
        assert sb_of(build(x)) == pytest.approx(want, rel=rel, abs=0.0)


_log_param = st.floats(math.log(1e-6), math.log(1e2)).map(math.exp)


class TestNoiseMeasureProperties:
    """Over the parameter drawn log-uniform on [1e-6, 1e2]: both measures
    exist, SB <= CB <= sqrt(SB), and SB does not fall as the noise grows
    (all within PROB_TOL, the rounding slack NoisePair allows)."""

    @pytest.mark.parametrize("family", ["biawgn", "bilc", "rayleigh"])
    @settings(deadline=None, max_examples=60)
    @given(x=_log_param, y=_log_param)
    def test_ordered_and_monotone(self, family, x, y):
        build = CHANNEL_FAMILIES[family].build
        lo, hi = noise_pair_of(build(min(x, y))), noise_pair_of(build(max(x, y)))
        for pair in (lo, hi):
            assert pair.sb <= pair.cb + PROB_TOL
            assert pair.cb <= math.sqrt(pair.sb) + PROB_TOL
        assert lo.sb <= hi.sb + PROB_TOL


class TestPeOf:
    def test_bsc(self):
        assert pe_of(Bsc(0.3)) == 0.3

    def test_bec_fair_coin(self):
        assert pe_of(Bec(0.4)) == pytest.approx(0.2)

    def test_mixture(self):
        assert pe_of(BscMixture(((0.5, 0.0), (0.5, 0.5)))) == pytest.approx(0.25)

    def test_continuous_unsupported(self):
        with pytest.raises(UnsupportedChannelError):
            pe_of(BiAwgn(1.0))


class TestReverseForm:
    def test_z_channel(self):
        rev = reverse_form(Bnsc(0.0, 0.2))
        assert rev.r0 == pytest.approx(0.6)
        assert rev.r1 == pytest.approx(0.4)
        assert rev.r01 == pytest.approx(1.0 / 6.0)
        assert rev.r10 == 0.0

    def test_bsc_case(self):
        rev = reverse_form(Bnsc(0.15, 0.15))
        assert rev.r0 == pytest.approx(0.5)
        assert rev.r1 == pytest.approx(0.5)
        assert rev.r01 == pytest.approx(0.15)
        assert rev.r10 == pytest.approx(0.15)

    def test_cb_identity_and_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p01 = rng.uniform(0, 1)
            p10 = rng.uniform(0, 1 - p01)
            ch = Bnsc(p01, p10)
            rev = reverse_form(ch)
            two_route = (rev.r0 * 2 * math.sqrt(rev.r01 * (1 - rev.r01))
                         + rev.r1 * 2 * math.sqrt(rev.r10 * (1 - rev.r10)))
            assert two_route == pytest.approx(cb_of(ch), abs=1e-12)
            # forward -> reverse -> forward
            assert 2 * rev.r1 * rev.r10 == pytest.approx(p01, abs=1e-12)
            assert 2 * rev.r0 * rev.r01 == pytest.approx(p10, abs=1e-12)


class TestCbVector:
    def test_bsc_vector(self):
        v = cb_vector_of(MscChannel(np.array([0.9, 0.1])))
        assert v.v[0] == pytest.approx(1.0)
        assert v.v[1] == pytest.approx(2 * math.sqrt(0.09), abs=1e-12)

    def test_m6_examples(self):
        v1 = cb_vector_of(MscChannel(np.array([0.5, 0.5, 0, 0, 0, 0.0])))
        np.testing.assert_allclose(v1.v, [1, 0.5, 0, 0, 0, 0.5], atol=1e-12)
        v2 = cb_vector_of(MscChannel(np.array([0.5, 0, 0.5, 0, 0, 0.0])))
        np.testing.assert_allclose(v2.v, [1, 0, 0.5, 0, 0.5, 0], atol=1e-12)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            CbVector(np.array([1.0, 0.2, 0.3]))   # v[1] != v[2]

    @pytest.mark.parametrize("v", [[1.0, math.nan], [math.nan, 0.5], [1.0, math.nan, math.nan],
                                   [1.0, math.inf], [1.0, 0.2, math.inf]])
    def test_nan_and_inf_refused(self, v):
        # every comparison with NaN is false: the checks must be negated
        with pytest.raises(ValueError):
            CbVector(np.array(v))

    @pytest.mark.parametrize("m", [2, 3, 8, 64])
    def test_matches_the_pairwise_sum(self, m):
        rng = np.random.default_rng(m)
        for p in (rng.dirichlet(np.ones(m)), rng.dirichlet(np.full(m, 0.1))):
            brute = [sum(math.sqrt(p[y] * p[(y + x) % m]) for y in range(m)) for x in range(m)]
            np.testing.assert_allclose(cb_vector_of(MscChannel(p)).v, np.minimum(brute, 1.0),
                                       rtol=1e-13, atol=1e-15)

    def test_cutoff_rate(self):
        assert cutoff_rate(CbVector(np.array([1.0, 0.0]))) == pytest.approx(1.0)
        assert cutoff_rate(CbVector(np.array([1.0, 1.0]))) == pytest.approx(0.0)
        v = CbVector(np.array([1, 0.5, 0, 0, 0, 0.5]))
        assert cutoff_rate(v) == pytest.approx(math.log2(6) - 1.0, abs=1e-12)


class TestPairwisePe:
    def test_perfect(self):
        ch = MscChannel(np.array([1.0, 0, 0, 0]))
        assert pairwise_pe(ch, 1) == 0.0

    def test_bsc(self):
        ch = MscChannel(np.array([0.8, 0.2]))
        assert pairwise_pe(ch, 1) == pytest.approx(0.2, abs=1e-15)

    def test_x_erasure(self):
        assert pairwise_pe(x_erasure_vector(5, 2), 2) == pytest.approx(0.25)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pairwise_pe(MscChannel(np.array([0.5, 0.5])), 0)


class TestXErasureDecompose:
    def test_perfect_channel(self):
        w, r, s = x_erasure_decompose(MscChannel(np.array([1.0, 0, 0])), 1)
        assert w == 0.0
        assert s is None
        np.testing.assert_allclose(r.p, [1, 0, 0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(m))
            x = int(rng.integers(1, m))
            ch = MscChannel(p)
            w, r, s = x_erasure_decompose(ch, x)
            assert w == pytest.approx(2 * pairwise_pe(ch, x), abs=1e-14)
            recon = np.zeros(m)
            if r is not None:
                recon += (1 - w) * r.p
            if s is not None:
                recon += w * 0.5 * (s.p + np.roll(s.p, x))
            np.testing.assert_allclose(recon, ch.p, atol=1e-12)

    def test_erasure_channel_itself(self):
        ch = x_erasure_vector(4, 1)
        w, r, s = x_erasure_decompose(ch, 1)
        recon = (1 - w) * (r.p if r is not None else 0) \
            + w * 0.5 * (s.p + np.roll(s.p, 1))
        np.testing.assert_allclose(recon, ch.p, atol=1e-12)

    def test_full_weight_drops_r(self):
        # uniform vector: min(p, shifted p) sums to 1, so r is undefined
        ch = MscChannel(np.full(3, 1.0 / 3.0))
        w, r, s = x_erasure_decompose(ch, 1)
        assert w == pytest.approx(1.0)
        assert r is None
        np.testing.assert_allclose(s.p, ch.p)


class TestMscDecompose:
    def test_bsc_single_atom(self):
        cond = np.array([[0.9, 0.1], [0.1, 0.9]])
        mix = msc_decompose(cond, [1, 0])
        assert len(mix.atoms) == 1
        w, atom = mix.atoms[0]
        assert w == pytest.approx(1.0)
        np.testing.assert_allclose(atom.p, [0.9, 0.1])

    def test_two_class_construction_inverts(self):
        # BSC(0.1) on outputs {0,1} w.p. 0.7, BSC(0.3) on outputs {2,3} w.p. 0.3
        cond = np.array([
            [0.7 * 0.9, 0.7 * 0.1, 0.3 * 0.7, 0.3 * 0.3],
            [0.7 * 0.1, 0.7 * 0.9, 0.3 * 0.3, 0.3 * 0.7],
        ])
        mix = msc_decompose(cond, [1, 0, 3, 2])
        got = sorted(((w, tuple(np.round(a.p, 12))) for w, a in mix.atoms))
        assert got[0][0] == pytest.approx(0.3)
        assert got[0][1] == (0.7, 0.3)
        assert got[1][0] == pytest.approx(0.7)
        assert got[1][1] == (0.9, 0.1)

    def test_msc_is_fixed_point(self):
        p = np.array([0.6, 0.25, 0.15])
        cond = np.stack([np.roll(p, x) for x in range(3)])
        mix = msc_decompose(cond, [1, 2, 0])   # cyclic shift T(y) = y + 1 mod 3
        assert len(mix.atoms) == 1
        np.testing.assert_allclose(mix.atoms[0][1].p, p, atol=1e-14)

    def test_symmetry_violation_reported(self):
        cond = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(NotSymmetricError) as err:
            msc_decompose(cond, [1, 0])
        assert err.value.x == 1

    def test_round_trip_posterior_law(self):
        # random symmetric channels built from random atom mixtures
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            weights = rng.dirichlet(np.ones(k))
            atoms = [rng.dirichlet(np.ones(m)) for _ in range(k)]
            # lay the mixture out on disjoint output blocks
            cond = np.zeros((m, k * m))
            T = np.zeros(k * m, dtype=int)
            for j, (w, p) in enumerate(zip(weights, atoms)):
                for x in range(m):
                    for i in range(m):
                        cond[x, j * m + (x + i) % m] += w * p[i]
                for y in range(m):
                    T[j * m + y] = j * m + (y + 1) % m
            mix = msc_decompose(cond, T)
            # brute-force measures on the original matrix
            for x in range(1, m):
                brute_pe = 0.5 * np.minimum(cond[0], cond[x]).sum()
                assert pairwise_pe(mix, x) == pytest.approx(brute_pe, abs=1e-10)
                brute_cb = np.sqrt(cond[0] * cond[x]).sum()
                assert cb_vector_of(mix).v[x] == pytest.approx(brute_cb, abs=1e-10)


class TestSymmetrize:
    def test_msc_input_preserved(self):
        p = np.array([0.7, 0.2, 0.1])
        cond = np.stack([np.roll(p, x) for x in range(3)])
        mix = symmetrize(cond)
        np.testing.assert_allclose(cb_vector_of(mix).v,
                                   cb_vector_of(MscChannel(p)).v, atol=1e-12)

    def test_z_channel_cb_preserved(self):
        cond = np.array([[1.0, 0.0], [0.2, 0.8]])
        mix = symmetrize(cond)
        assert cb_vector_of(mix).v[1] == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_m3_brute_force_map(self):
        rng = np.random.default_rng(9)
        cond = rng.dirichlet(np.ones(4), size=3)
        mix = symmetrize(cond)
        m, n = cond.shape
        # brute-force pairwise MAP error on the dithered channel X -> (W, Y)
        for x in range(1, m):
            brute = 0.0
            for w in range(m):
                for y in range(n):
                    brute += 0.5 * min(cond[w % m, y], cond[(x + w) % m, y]) / m
            assert pairwise_pe(mix, x) == pytest.approx(brute, abs=1e-12)

    def test_rows_that_are_not_distributions_refused(self):
        # each dithered row averages every input row, so the first three sum
        # to 1 there
        for cond in ([[0.5, 0.3], [0.7, 0.5]], [[1.2, -0.2], [0.0, 1.0]], [[0.5], [1.5]],
                     [[math.nan, 1.0], [0.5, 0.5]]):
            with pytest.raises(ValueError, match="sum to 1"):
                symmetrize(np.array(cond))


class _Report(NotSymmetricError):
    """NotSymmetricError that keeps its (x, y, |delta|) for exact comparison."""

    def __init__(self, x, y, delta):
        super().__init__(x, y, delta)
        self.report = (x, y, delta)


def _ref_msc_decompose(cond, transform):
    """``msc_decompose`` as it was before the table of T's powers."""
    def permutation_power(T, k):
        out = np.arange(T.size)
        for _ in range(k):
            out = T[out]
        return out

    cond = np.array(cond, dtype=float)
    m, n = cond.shape
    for x in range(m):
        if n >= 2:
            cond[x] = channels_mod._validated_prob_vector(cond[x])
    T = np.asarray(transform, dtype=int)
    if T.shape != (n,) or sorted(T.tolist()) != list(range(n)):
        raise ValueError("transform must be a permutation of the outputs")
    if not np.array_equal(permutation_power(T, m), np.arange(n)):
        raise ValueError("transform must satisfy T^m = identity")
    Tx = np.arange(n)
    for x in range(m):
        delta = np.abs(cond[0] - cond[x, Tx])
        if delta.max() > channels_mod.SYMMETRY_TOL:
            raise _Report(x, int(delta.argmax()), float(delta.max()))
        Tx = T[Tx]
    seen = np.zeros(n, dtype=bool)
    atoms = []
    for y0 in range(n):
        if seen[y0]:
            continue
        reps = [y0]
        seen[y0] = True
        y = int(T[y0])
        while y != y0:
            seen[y] = True
            reps.append(y)
            y = int(T[y])
        d = len(reps)
        weight = float(cond[0, reps].sum())
        for x in range(1, m):
            wx = float(cond[x, permutation_power(T, x)[reps]].sum())
            if abs(wx - weight) > channels_mod.SYMMETRY_TOL:
                raise _Report(x, reps[0], abs(wx - weight))
        if weight <= PROB_TOL:
            continue
        p = np.array([cond[0, reps[i % d]] for i in range(m)]) * (d / m)
        atoms.append((weight, MscChannel(p / p.sum())))
    return MscMixture(tuple(atoms))


def _ref_symmetrize(cond):
    """``symmetrize`` as it was before its dither was built by ``np.roll``."""
    cond = np.asarray(cond, dtype=float)
    m, n = cond.shape
    big = np.zeros((m, m * n))
    for x in range(m):
        for w in range(m):
            big[x, w * n:(w + 1) * n] = cond[(x + w) % m] / m
    T = np.zeros(m * n, dtype=int)
    for w in range(m):
        for y in range(n):
            T[w * n + y] = ((w - 1) % m) * n + y
    return _ref_msc_decompose(big, T)


def _outcome(fn, *args):
    """Atoms (weight, p) or the error a decomposition ends in, compared exactly."""
    try:
        mix = fn(*args)
    except _Report as err:
        return "not-symmetric", err.report
    except ValueError as err:
        return "value-error", str(err)
    return "mixture", [(w, ch.p.tolist()) for w, ch in mix.atoms]


def _random_symmetric(rng):
    """(cond, T, orbits): random T-orbits (sizes dividing m) laid out at random
    outputs, P(T^x(y) | x) = P(y | 0), some orbits of zero weight."""
    m = int(rng.choice([2, 3, 4, 5, 6, 8, 12, 16]))
    sizes = rng.choice([d for d in range(1, m + 1) if m % d == 0], size=int(rng.integers(1, 6)))
    layout = rng.permutation(int(sizes.sum()))
    T = np.empty(layout.size, dtype=int)
    row0 = rng.dirichlet(np.full(layout.size, 0.5))
    start, orbits = 0, []
    for d in sizes:
        orbit = layout[start:start + d]
        orbits.append(orbit)
        T[orbit] = np.roll(orbit, -1)
        if rng.random() < 0.15:
            row0[orbit] = 0.0
        start += d
    row0 = row0 / row0.sum() if row0.sum() > 0.0 else np.full(row0.size, 1.0 / row0.size)
    cond = np.empty((m, layout.size))
    Tx = np.arange(layout.size)
    for x in range(m):
        cond[x, Tx] = row0
        Tx = T[Tx]
    return cond, T, orbits


def _break_symmetry(cond, orbits, rng):
    """Move mass within a row x > 0: sometimes one large move, sometimes one
    orbit up and another down by just under SYMMETRY_TOL an entry, which only
    the per-input weight check sees."""
    m, n = cond.shape
    cond = cond.copy()
    x = int(rng.integers(1, m))
    pairs = [(a, b) for i, a in enumerate(orbits) for j, b in enumerate(orbits)
             if i != j and len(a) == len(b) >= 2 and cond[x, b].min() > 1e-9]
    if pairs and rng.random() < 0.5:
        up, down = pairs[int(rng.integers(len(pairs)))]
        step = 0.9e-10
        cond[x, up] += step
        cond[x, down] -= step
    else:
        a, b = rng.choice(n, size=2, replace=n < 2)
        amount = min(cond[x, a], 10.0 ** rng.uniform(-11, -1))
        cond[x, a] -= amount
        cond[x, b] += amount
    return cond


class TestDecompositionMatchesReference:
    def test_msc_decompose(self, monkeypatch):
        monkeypatch.setattr(channels_mod, "NotSymmetricError", _Report)
        rng = np.random.default_rng(19)
        kinds = {}
        for i in range(600):
            cond, T, orbits = _random_symmetric(rng)
            if i % 2:
                cond = _break_symmetry(cond, orbits, rng)
            got = _outcome(msc_decompose, cond, T)
            assert got == _outcome(_ref_msc_decompose, cond, T)
            kinds[got[0]] = kinds.get(got[0], 0) + 1
        assert kinds["mixture"] >= 300 and kinds["not-symmetric"] >= 150

    def test_symmetrize(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            m, n = int(rng.integers(2, 10)), int(rng.integers(2, 8))
            cond = rng.dirichlet(np.full(n, 0.5), size=m)
            if rng.random() < 0.3:
                cond[int(rng.integers(m))] = np.eye(n)[int(rng.integers(n))]
            got = _outcome(symmetrize, cond)
            assert got[0] == "mixture" and got == _outcome(_ref_symmetrize, cond)
        # the dither is not limited to small alphabets
        cond = rng.dirichlet(np.ones(32), size=24)
        assert _outcome(symmetrize, cond) == _outcome(_ref_symmetrize, cond)


@pytest.mark.parametrize("build", [
    lambda: MscChannel(np.array([math.nan, 0.5, 0.5])),
    lambda: MscMixture(((math.nan, MscChannel(np.array([0.9, 0.1]))),)),
    lambda: BscMixture(((math.nan, 0.1),)),
    lambda: BscMixture(((0.5, 0.1), (0.5, math.nan))),
    lambda: BiLaplace(math.nan),
    lambda: BiLaplace(math.inf),
], ids=["msc", "msc-mixture-weight", "bsc-mixture-weight", "bsc-mixture-crossover",
        "bilc-nan", "bilc-inf"])
def test_non_finite_parameters_refused(build):
    with pytest.raises(ValueError):
        build()


class TestNoisePair:
    def test_ordering_enforced(self):
        NoisePair(0.4, 0.2)
        with pytest.raises(ValueError):
            NoisePair(0.2, 0.4)     # sb > cb
        with pytest.raises(ValueError):
            NoisePair(0.5, 0.1)     # sb < cb^2

    def test_one_sided(self):
        assert NoisePair(cb=0.3).sb is None
        with pytest.raises(ValueError):
            NoisePair()


class TestParseChannelSpec:
    @pytest.mark.parametrize("spec,typ", [
        ("bsc:0.1", Bsc), ("bec:0.5", Bec), ("biawgn:0.8", BiAwgn),
        ("bilc:0.6", BiLaplace), ("rayleigh:0.7", BiRayleigh),
        ("bnsc:0.1,0.2", Bnsc), ("msc:0.5,0.3,0.2", MscChannel),
        ("mix:(0.4,0.1);(0.6,0.3)", BscMixture),
    ])
    def test_kinds(self, spec, typ):
        assert isinstance(parse_channel_spec(spec), typ)

    def test_error_positions(self):
        with pytest.raises(ChannelSpecError) as err:
            parse_channel_spec("bsc:oops")
        assert err.value.position == 4
        with pytest.raises(ChannelSpecError):
            parse_channel_spec("nope:1")
        with pytest.raises(ChannelSpecError):
            parse_channel_spec("bnsc:0.1")

    def test_out_of_range_is_spec_error(self):
        with pytest.raises(ChannelSpecError):
            parse_channel_spec("bsc:0.9")

    @pytest.mark.parametrize("spec,want", [
        ("bsc:0.1", Bsc(0.1)), ("bec:0.5", Bec(0.5)), ("biawgn:0.8", BiAwgn(0.8)),
        ("bilc:0.6", BiLaplace(0.6)), ("rayleigh:0.7", BiRayleigh(0.7)),
        ("bsc:nan", None), ("bnsc:0.1,0.2", Bnsc(0.1, 0.2)),
        ("mix:(0.4,0.1);(0.6,0.3)", BscMixture(((0.4, 0.1), (0.6, 0.3)))),
        ("mix:(1,0.25)", BscMixture(((1.0, 0.25),))),
    ])
    def test_result_objects(self, spec, want):
        if want is None:        # bsc:nan: NaN fails the range check
            with pytest.raises(ChannelSpecError):
                parse_channel_spec(spec)
            return
        got = parse_channel_spec(spec)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("spec,p", [
        ("msc:0.5,0.3,0.2", [0.5, 0.3, 0.2]), ("msc:1,0", [1.0, 0.0]),
        ("msc:0.999," + ",".join(["0.0005"] * 2), [0.999, 0.0005, 0.0005]),
    ])
    def test_msc_result_objects(self, spec, p):
        got = parse_channel_spec(spec)
        assert type(got) is MscChannel
        assert np.array_equal(got.p, MscChannel(np.array(p)).p)

    @pytest.mark.parametrize("spec,message,position", [
        ("bsc:oops", "expected a number for crossover, got 'oops'", 4),
        ("bec:", "expected a number for erasure probability, got ''", 4),
        ("biawgn:1,2", "expected a number for sigma, got '1,2'", 7),
        ("bilc:x", "expected a number for scale, got 'x'", 5),
        ("rayleigh:-", "expected a number for sigma, got '-'", 9),
        ("bsc:0.9", "BSC crossover must lie in [0, 1/2], got 0.9", 4),
        ("bilc:0", "BiLaplace scale must be positive and finite, got 0.0", 5),
        ("bnsc:x,0.2", "expected a number for p01, got 'x'", 5),
        ("bnsc:0.1,y", "expected a number for p10, got 'y'", 9),
        ("bnsc:0.1", "bnsc needs exactly two parameters", 5),
        ("bnsc:0.1,0.2,0.3", "bnsc needs exactly two parameters", 5),
        ("bnsc:0.7,0.7", "BNSC requires p01 + p10 <= 1 (relabel outputs)", 5),
        ("msc:0.5,zz,0.5", "expected a number for msc entry, got 'zz'", 8),
        ("msc:0.5,0.3,zz", "expected a number for msc entry, got 'zz'", 12),
        ("msc:1.0", "msc needs at least two entries", 4),
        ("msc:0.5,0.4", "entries must be nonnegative and sum to 1 within 1e-12", 4),
        ("mix:(x,0.1)", "expected a number for weight, got 'x'", 5),
        ("mix:(0.4,0.1);(0.6,q)", "expected a number for crossover, got 'q'", 19),
        ("mix:(0.4,0.1);0.5,0.1", "mixture atom must look like (w,p)", 14),
        ("mix:0.5,0.1", "mixture atom must look like (w,p)", 4),
        ("mix:(0.5)", "mixture atom needs (weight, crossover)", 4),
        ("mix:(0.4,0.1);(0.6)", "mixture atom needs (weight, crossover)", 14),
        ("mix:(0.5,0.1)", "mixture weights must be nonnegative and sum to 1", 4),
        ("mix:(1,0.7)", "mixture crossovers must lie in [0, 1/2]", 4),
        ("nope:1", "unknown channel kind 'nope'", 0),
        ("bsc0.1", "missing ':' separator", 6),
    ])
    def test_error_messages_and_positions(self, spec, message, position):
        with pytest.raises(ChannelSpecError) as err:
            parse_channel_spec(spec)
        assert type(err.value) is ChannelSpecError and isinstance(err.value, ValueError)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position
