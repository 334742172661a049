import math

import numpy as np
import pytest

import bpbounds.de as de_mod
from bpbounds import (Bec, BiAwgn, BiLaplace, BiRayleigh, Bnsc, Bsc,
                      BscMixture, CHANNEL_FAMILIES, DegreeEnsemble, DeConfig,
                      LlrPopulation, cb_of, de_decodable,
                      de_step, de_threshold, initial_llr_sampler,
                      measure_threshold, new_population, population_pe,
                      rayleigh_amplitude_marginal_sampler, regular_ensemble,
                      sb_of)
from bpbounds.channels import UnsupportedChannelError
from bpbounds.de import LLR_MAX


@pytest.fixture(scope="module")
def e36():
    return regular_ensemble(3, 6)


class TestBecThreshold:
    def test_regular_36(self, e36):
        assert measure_threshold("ub-cb", e36) == pytest.approx(0.42944, abs=1e-4)

    def test_linear_recursion(self):
        from bpbounds import DegreeEnsemble
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


class TestSamplers:
    def test_bsc_sb_identity(self):
        ch = Bsc(0.11)
        sampler = initial_llr_sampler(ch)
        rng = np.random.default_rng(0)
        m = sampler(rng, 1_000_000)
        vals = 2.0 / (1.0 + np.exp(m))
        se = np.std(vals) / 1000.0
        assert np.mean(vals) == pytest.approx(sb_of(ch), abs=4 * se)

    def test_bec_cb_identity(self):
        ch = Bec(0.37)
        sampler = initial_llr_sampler(ch)
        rng = np.random.default_rng(1)
        m = sampler(rng, 1_000_000)
        vals = np.exp(-m / 2.0)
        se = np.std(vals) / 1000.0
        assert np.mean(vals) == pytest.approx(cb_of(ch), abs=4 * se)

    def test_biawgn_cb_identity(self):
        ch = BiAwgn(0.83)
        sampler = initial_llr_sampler(ch)
        rng = np.random.default_rng(2)
        vals = np.exp(-sampler(rng, 1_000_000) / 2.0)
        se = np.std(vals) / 1000.0
        assert np.mean(vals) == pytest.approx(cb_of(ch), abs=4 * se)

    @pytest.mark.parametrize("ch", [BiLaplace(0.7), BiRayleigh(0.66),
                                    BscMixture(((0.5, 0.03), (0.5, 0.2)))])
    def test_other_samplers_cb_identity(self, ch):
        sampler = initial_llr_sampler(ch)
        rng = np.random.default_rng(3)
        m = np.clip(sampler(rng, 1_000_000), -700, 700)
        vals = np.exp(-m / 2.0)
        se = np.std(vals) / 1000.0
        assert np.mean(vals) == pytest.approx(cb_of(ch), abs=4 * se)

    def test_asymmetric_rejected(self):
        with pytest.raises(UnsupportedChannelError):
            initial_llr_sampler(Bnsc(0.0, 0.2))


class TestDeStep:
    def test_all_perfect_stays_perfect(self, e36):
        cfg = DeConfig(population_size=5_000, seed=0)
        sampler = initial_llr_sampler(Bec(0.0))
        pop = new_population(sampler, cfg)
        pop = de_step(pop, e36, sampler)
        assert population_pe(pop) == 0.0
        assert np.all(pop.samples > 0)

    def test_all_erased_stays_erased(self, e36):
        cfg = DeConfig(population_size=5_000, seed=0)
        sampler = initial_llr_sampler(Bec(1.0))
        pop = new_population(sampler, cfg)
        for _ in range(3):
            pop = de_step(pop, e36, sampler)
        assert population_pe(pop) == pytest.approx(0.5)
        assert np.all(pop.samples == 0.0)

    def test_below_threshold_bsc_converges(self, e36):
        cfg = DeConfig(population_size=50_000, max_iter=200, seed=3)
        ok, it = de_decodable(Bsc(0.07), e36, cfg)
        assert ok

    def test_above_threshold_bsc_stuck(self, e36):
        cfg = DeConfig(population_size=50_000, max_iter=200, seed=3)
        ok, _ = de_decodable(Bsc(0.12), e36, cfg)
        assert not ok

    def test_symmetric_density_condition(self, e36):
        # dP(m) = e^m dP(-m): P(m < tau) == E[e^{-m} 1{m > -tau}] within MC error
        cfg = DeConfig(population_size=200_000, seed=9)
        sampler = initial_llr_sampler(BiAwgn(0.9))
        pop = new_population(sampler, cfg)
        for _ in range(3):
            pop = de_step(pop, e36, sampler)
        m = pop.samples
        n = m.size
        for tau in (-2.0, -0.5, 0.0, 0.5, 2.0):
            lhs = np.mean(m < tau)
            w = np.exp(-m[m > -tau])
            rhs = w.sum() / n
            se = math.sqrt(max(np.var(w) / n, lhs * (1 - lhs) / n)) + 1e-6
            assert lhs == pytest.approx(rhs, abs=6 * se)


class TestDeThreshold:
    def test_bec_agrees_with_exact_recursion(self, e36):
        cfg = DeConfig(population_size=60_000, max_iter=300, seed=4)
        value, lo, hi = de_threshold(CHANNEL_FAMILIES["bec"], e36, cfg,
                                     lo=0.3, hi=0.6)
        assert value == pytest.approx(measure_threshold("ub-cb", e36), abs=0.005)

    def test_irregular_ensemble_bec_agreement(self):
        # exercises per-message degree sampling on both node sides
        from bpbounds import DegreeEnsemble
        e = DegreeEnsemble(((2, 0.4), (3, 0.6)), ((5, 0.5), (6, 0.5)))
        exact = measure_threshold("ub-cb", e)
        cfg = DeConfig(population_size=60_000, max_iter=300, seed=12)
        value, _, _ = de_threshold(CHANNEL_FAMILIES["bec"], e, cfg,
                                   lo=exact - 0.1, hi=exact + 0.1)
        assert value == pytest.approx(exact, abs=0.005)

    def test_bracket_semantics(self, e36):
        cfg = DeConfig(population_size=30_000, max_iter=200, seed=6)
        value, lo, hi = de_threshold(CHANNEL_FAMILIES["bsc"], e36, cfg,
                                     lo=0.04, hi=0.14)
        assert lo <= value <= hi
        assert hi - lo == pytest.approx(0.10 * 2 ** -13, abs=1e-9)

    def test_outer_bound_exceeds_de(self, e36):
        # the CB lower-bound recursion yields an outer threshold: channels
        # decodable in reality must sit below it
        lb_star = measure_threshold("lb-cb", e36)
        cfg = DeConfig(population_size=30_000, max_iter=200, seed=2)
        p_de, _, _ = de_threshold(CHANNEL_FAMILIES["bsc"], e36, cfg,
                                  lo=0.04, hi=0.14)
        assert 2 * math.sqrt(p_de * (1 - p_de)) <= lb_star + 0.01


# ---------------------------------------------------------------------------
# Test-only reference: the DE kernel before degree groups were taken from the
# ensemble (one np.unique per stage, a mask and a copy per degree even for a
# single degree).  The kernel must reproduce its populations bit for bit.
# ---------------------------------------------------------------------------

def _ref_degree_draws(pairs, rng, n):
    degrees = np.array([k for k, _ in pairs])
    if degrees.size == 1:
        return np.full(n, degrees[0])
    masses = np.array([w for _, w in pairs])
    return degrees[rng.choice(degrees.size, size=n, p=masses)]


def _ref_check_stage(msgs, e, rng):
    n = msgs.size
    tanhs = np.tanh(msgs / 2.0)
    out = np.empty(n)
    degs = _ref_degree_draws(e.rho, rng, n)
    for k in np.unique(degs):
        mask = degs == k
        cnt = int(mask.sum())
        prod = np.ones(cnt)
        for _ in range(int(k) - 1):
            prod *= tanhs[rng.integers(0, n, cnt)]
        with np.errstate(divide="ignore"):
            vals = 2.0 * np.arctanh(prod)
        out[mask] = np.clip(vals, -LLR_MAX, LLR_MAX)
    return out


def _ref_de_step(pop, e, sampler):
    rng = pop.rng
    n = pop.samples.size
    checks = _ref_check_stage(pop.samples, e, rng)
    out = np.clip(sampler(rng, n), -LLR_MAX, LLR_MAX)
    degs = _ref_degree_draws(e.lam, rng, n)
    for k in np.unique(degs):
        mask = degs == k
        cnt = int(mask.sum())
        acc = out[mask]
        for _ in range(int(k) - 1):
            acc = acc + checks[rng.integers(0, n, cnt)]
        out[mask] = acc
    np.clip(out, -LLR_MAX, LLR_MAX, out=out)
    return LlrPopulation(samples=out, seed=pop.seed, rng=rng)


def _ref_population_pe(pop):
    m = pop.samples
    return float(np.mean(m < 0.0) + 0.5 * np.mean(m == 0.0))


REFERENCE_ENSEMBLES = {
    "regular-36": regular_ensemble(3, 6),
    "irregular-lambda": DegreeEnsemble(((2, 0.3), (3, 0.7)), ((6, 1.0),)),
    "irregular-both": DegreeEnsemble(((2, 0.25), (3, 0.35), (7, 0.4)),
                                     ((5, 0.5), (8, 0.5))),
    # a zero-mass degree is never drawn, so its group is skipped
    "zero-mass-degree": DegreeEnsemble(((2, 0.0), (3, 0.6), (4, 0.4)),
                                       ((5, 0.7), (6, 0.3), (9, 0.0))),
}

REFERENCE_SAMPLERS = {
    "bsc": lambda: initial_llr_sampler(Bsc(0.08)),
    "bec": lambda: initial_llr_sampler(Bec(0.4)),
    "biawgn": lambda: initial_llr_sampler(BiAwgn(0.85)),
    "bilc": lambda: initial_llr_sampler(BiLaplace(0.6)),
    "rayleigh": lambda: initial_llr_sampler(BiRayleigh(0.7)),
    "bsc-mixture": lambda: initial_llr_sampler(BscMixture(((0.5, 0.03), (0.5, 0.12)))),
    "rayleigh-unobserved": lambda: rayleigh_amplitude_marginal_sampler(0.8, grid_pts=301),
}


class TestAgainstReferenceKernel:
    @pytest.mark.parametrize("family", sorted(REFERENCE_SAMPLERS))
    @pytest.mark.parametrize("ens", sorted(REFERENCE_ENSEMBLES))
    def test_populations_bit_identical(self, ens, family):
        e = REFERENCE_ENSEMBLES[ens]
        sampler = REFERENCE_SAMPLERS[family]()
        for n in (5001, 12500):
            cfg = DeConfig(population_size=n, seed=n)
            pop, ref = new_population(sampler, cfg), new_population(sampler, cfg)
            for _ in range(25):
                pop, ref = de_step(pop, e, sampler), _ref_de_step(ref, e, sampler)
                assert pop.samples.tobytes() == ref.samples.tobytes()
                pe = population_pe(pop)
                assert type(pe) is float and pe == _ref_population_pe(ref)

    @pytest.mark.parametrize("ens", ["regular-36", "irregular-both"])
    @pytest.mark.parametrize("ch", [Bsc(0.07), Bsc(0.12), BiAwgn(0.8), BiAwgn(0.95)])
    def test_de_decodable_unchanged(self, monkeypatch, ens, ch):
        e = REFERENCE_ENSEMBLES[ens]
        cfg = DeConfig(population_size=5001, max_iter=150, seed=5)
        got = de_decodable(ch, e, cfg)
        monkeypatch.setattr(de_mod, "de_step", _ref_de_step)
        monkeypatch.setattr(de_mod, "population_pe", _ref_population_pe)
        assert got == de_decodable(ch, e, cfg)
