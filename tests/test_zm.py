import json
import math

import numpy as np
import pytest

from bpbounds import (Bsc, CbVector, DegreeEnsemble, IterationLimits,
                      MscChannel, NoisePair, cb_vec_convolve,
                      cb_vec_pointwise, cb_vector_of, convergence_rate,
                      de_decodable, gfq_stability, iterate_bound,
                      necessary_stability_violated, regular_ensemble,
                      sufficient_stability, ub_cb_step, zm_bound_step,
                      parse_channel_spec, zm_iterate)
from bpbounds.cli import main


V6A = CbVector(np.array([1, 0.5, 0, 0, 0, 0.5]))
V6B = CbVector(np.array([1, 0, 0.5, 0, 0.5, 0]))


class TestConvolve:
    def test_identity(self):
        e0 = CbVector(np.array([1.0, 0, 0, 0, 0, 0]))
        out = cb_vec_convolve(V6A, e0)
        np.testing.assert_allclose(out.v, V6A.v, atol=1e-15)

    def test_m6_equality_witness(self):
        out = cb_vec_convolve(V6A, V6B)
        np.testing.assert_allclose(out.v, [1, 0.75, 0.5, 0.5, 0.5, 0.75],
                                   atol=1e-15)

    def test_commutative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            u = cb_vector_of(MscChannel(rng.dirichlet(np.ones(m))))
            v = cb_vector_of(MscChannel(rng.dirichlet(np.ones(m))))
            np.testing.assert_allclose(cb_vec_convolve(u, v).v,
                                       cb_vec_convolve(v, u).v, atol=1e-13)

    def test_mismatched_m(self):
        with pytest.raises(ValueError):
            cb_vec_convolve(V6A, CbVector(np.array([1.0, 0.5])))


class TestPointwise:
    def test_ones_identity(self):
        ones = CbVector(np.ones(6))
        np.testing.assert_allclose(cb_vec_pointwise(V6A, ones).v, V6A.v)

    def test_m6_pair(self):
        out = cb_vec_pointwise(V6A, V6B)
        np.testing.assert_allclose(out.v, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_idempotent_on_01(self):
        v = CbVector(np.array([1.0, 0, 1, 0, 1, 0]))
        np.testing.assert_allclose(cb_vec_pointwise(v, v).v, v.v)


class TestZmBoundStep:
    def test_m2_reduces_to_scalar_cb_recursion(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            cb = rng.uniform(0, 1)
            cb0 = rng.uniform(0, 1)
            degs = (int(rng.integers(2, 6)), int(rng.integers(2, 9)))
            e = regular_ensemble(*degs)
            out = zm_bound_step(CbVector(np.array([1.0, cb])),
                                CbVector(np.array([1.0, cb0])), e)
            assert out.v[1] == pytest.approx(ub_cb_step(cb, e, cb0), abs=1e-12)
            assert out.v[0] == 1.0

    def test_perfect_input_bounded_by_channel(self):
        e = regular_ensemble(3, 6)
        v0 = cb_vector_of(MscChannel(np.array([0.7, 0.1, 0.1, 0.1])))
        e0 = CbVector(np.array([1.0, 0, 0, 0]))
        out = zm_bound_step(e0, v0, e)
        assert np.all(out.v <= v0.v + 1e-15)

    def test_m6_hand_rolled_reference(self):
        # straight-line reference: rho via repeated circular convolution,
        # lambda via repeated pointwise products, then channel product + clip
        e = regular_ensemble(3, 9)
        v0 = cb_vector_of(MscChannel(np.array([0.7, 0.06, 0.06, 0.06, 0.06, 0.06])))
        v = cb_vector_of(MscChannel(np.array([0.5, 0.2, 0.05, 0.0, 0.05, 0.2])))
        m = 6
        conv = v.v.copy()
        for _ in range(9 - 2):
            nxt = np.zeros(m)
            for x in range(m):
                for z in range(m):
                    nxt[x] += conv[z] * v.v[(x - z) % m]
            conv = nxt
        lam = conv * conv
        expect = np.minimum(1.0, v0.v * lam)
        out = zm_bound_step(v, v0, e)
        np.testing.assert_allclose(out.v, expect, atol=1e-12)

    def test_irregular_hand_rolled_reference(self):
        # mixed degrees on both sides, m = 4
        e = DegreeEnsemble(((2, 0.4), (3, 0.6)), ((3, 0.5), (4, 0.5)))
        v0 = cb_vector_of(MscChannel(np.array([0.85, 0.05, 0.05, 0.05])))
        v = cb_vector_of(MscChannel(np.array([0.6, 0.15, 0.1, 0.15])))
        m = 4

        def conv_pow(vec, k):
            out = vec.copy()
            for _ in range(k - 1):
                nxt = np.zeros(m)
                for x in range(m):
                    for z in range(m):
                        nxt[x] += out[z] * vec[(x - z) % m]
                out = nxt
            return out

        rho_stage = 0.5 * conv_pow(v.v, 2) + 0.5 * conv_pow(v.v, 3)
        lam_stage = 0.4 * rho_stage + 0.6 * rho_stage ** 2
        expect = np.minimum(1.0, v0.v * lam_stage)
        out = zm_bound_step(v, v0, e)
        np.testing.assert_allclose(out.v, expect, atol=1e-12)

    def test_dominates_exact_depth2_tree(self):
        # exact CB vector of the depth-2 tree of a (2,3) ensemble vs the bound
        rng = np.random.default_rng(2)
        e = regular_ensemble(2, 3)
        for m in (2, 3, 5, 6):
            for _ in range(5):
                p = rng.dirichlet(np.ones(m))
                ch = MscChannel(p)
                v = cb_vector_of(ch)
                bound = zm_bound_step(v, v, e)
                exact = _exact_tree_cb(p, p, p)
                assert np.all(bound.v >= exact - 1e-10)

    def test_entries_clipped(self):
        e = regular_ensemble(3, 6)
        ones = CbVector(np.ones(4))
        out = zm_bound_step(ones, ones, e)
        assert out.v.max() <= 1.0


def _exact_tree_cb(p1, p5, p6):
    """CB(0 -> x) of the root of a depth-2 (2,3) support tree, by enumeration."""
    m = p1.size

    def lik(y1, y5, y6, x1):
        s = 0.0
        for x5 in range(m):
            s += p5[(y5 - x5) % m] * p6[(y6 + x1 + x5) % m]
        return p1[(y1 - x1) % m] * s / m

    out = np.zeros(m)
    for x in range(m):
        tot = 0.0
        for y1 in range(m):
            for y5 in range(m):
                for y6 in range(m):
                    tot += math.sqrt(lik(y1, y5, y6, 0) * lik(y1, y5, y6, x))
        out[x] = tot
    return out


class TestZmIterate:
    def test_perfect_channel(self):
        e = regular_ensemble(3, 6)
        traj = zm_iterate(CbVector(np.array([1.0, 0, 0, 0])), e)
        assert (traj.kind, traj.verdict, traj.reason) == ("zm", "decodable", "decoded")
        assert traj.iterations == 1

    def test_m2_thresholds_match_binary(self):
        e = regular_ensemble(3, 6)
        for cb, expect in ((0.42, "decodable"), (0.44, "not-decodable")):
            traj = zm_iterate(CbVector(np.array([1.0, cb])), e)
            assert traj.verdict == expect
            # same recursion, same stall rule: same verdict after as many steps
            binary = iterate_bound("ub-cb", NoisePair(cb=cb), e)
            assert (binary.verdict, binary.reason) == (traj.verdict, traj.reason)
            assert binary.iterations == traj.iterations

    def test_nan_start_refused(self):
        # a NaN entry past CbVector's own checks (which refuse it) must not
        # come back as a verdict
        e = regular_ensemble(3, 6)
        v0 = CbVector(np.array([1.0, 0.5]))
        object.__setattr__(v0, "v", np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="must lie in"):
            zm_iterate(v0, e)

    def test_all_ones_fixed_point(self):
        e = regular_ensemble(3, 6)
        traj = zm_iterate(CbVector(np.ones(6)), e)
        assert (traj.verdict, traj.reason) == ("not-decodable", "witness")

    def test_m6_channel(self):
        # convolution powers scale like (sum v)^(dc-1), so the d_c = 9 bound
        # certifies only rather clean channels at m = 6
        e = regular_ensemble(3, 9)
        v0 = cb_vector_of(MscChannel(np.array([0.999, 2e-4, 2e-4, 2e-4, 2e-4, 2e-4])))
        traj = zm_iterate(v0, e)
        assert traj.verdict == "decodable"
        for a, b in zip(traj.states[1:], traj.states[2:]):
            assert b.max_off_zero() <= a.max_off_zero() + 1e-12

    @pytest.mark.parametrize("spec, max_iter, reason, iterations", [
        ("msc:0.999,0.0005,0.0005", 10_000, "decoded", 3),
        ("msc:0.99,0.005,0.005", 10_000, "witness", 5),
        ("msc:0.999,0.0005,0.0005", 2, "max_iter", 2),
    ])
    def test_iterations_count_the_steps(self, capsys, spec, max_iter, reason, iterations):
        # the run record's count is its steps, and the CLI prints that count
        traj = zm_iterate(cb_vector_of(parse_channel_spec(spec)), regular_ensemble(3, 6),
                          IterationLimits(max_iter))
        assert (traj.reason, traj.iterations) == (reason, iterations)
        assert traj.iterations == len(traj.states) - 1
        assert main(["zm", "--channel", spec, "--max-iter", str(max_iter)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert (printed["reason"], printed["iterations"]) == (reason, traj.iterations)


class TestStability:
    def test_lambda2_zero_always_stable(self):
        e = regular_ensemble(3, 6)
        v = CbVector(np.ones(5))
        assert sufficient_stability(e, v)
        assert not necessary_stability_violated(e, v)
        assert convergence_rate(e, v) == 0.0

    def test_boundary(self):
        e = DegreeEnsemble(((2, 0.5), (3, 0.5)), ((6, 1.0),))   # lam2 rho'(1) = 2.5
        v_ok = CbVector(np.array([1.0, 0.39, 0.39]))
        v_bad = CbVector(np.array([1.0, 0.41, 0.41]))
        assert sufficient_stability(e, v_ok)
        assert not sufficient_stability(e, v_bad)
        assert necessary_stability_violated(e, v_bad)
        assert not necessary_stability_violated(e, v_ok)

    def test_perfect_vector(self):
        e = DegreeEnsemble(((2, 1.0),), ((3, 1.0),))
        assert sufficient_stability(e, CbVector(np.array([1.0, 0, 0])))

    def test_convergence_rate_value(self):
        e = DegreeEnsemble(((2, 0.5), (3, 0.5)), ((6, 1.0),))
        v = CbVector(np.array([1.0, 0.3]))
        assert convergence_rate(e, v) == pytest.approx(0.5 * 5 * 0.3)

    def test_rate_below_one_decodes_perturbation(self):
        e = DegreeEnsemble(((2, 0.5), (3, 0.5)), ((6, 1.0),))
        v0 = CbVector(np.array([1.0, 1e-3, 1e-3]))
        assert convergence_rate(e, v0) < 1.0
        assert zm_iterate(v0, e).verdict == "decodable"

    def test_unstable_channel_retains_error_under_de(self):
        # m = 2: necessary condition clearly violated => DE stays in error
        e = DegreeEnsemble(((2, 1.0),), ((3, 1.0),))   # lam2 rho'(1) = 2
        ch = Bsc(0.2)                                   # CB = 0.8
        from bpbounds import cb_of
        v = CbVector(np.array([1.0, cb_of(ch)]))
        assert necessary_stability_violated(e, v)
        assert not de_decodable(ch, e, IterationLimits(200)).decodable


class TestGfqStability:
    def test_q2_reduces(self):
        e = DegreeEnsemble(((2, 0.5), (3, 0.5)), ((6, 1.0),))
        v = CbVector(np.array([1.0, 0.3]))
        suff, nec = gfq_stability(e, v, 2)
        assert suff == sufficient_stability(e, v)
        assert nec == necessary_stability_violated(e, v)

    def test_uniform_offzero_matches_zm(self):
        e = DegreeEnsemble(((2, 0.5), (3, 0.5)), ((6, 1.0),))
        v = CbVector(np.array([1.0, 0.3, 0.3, 0.3, 0.3]))
        suff, nec = gfq_stability(e, v, 5)
        assert suff == sufficient_stability(e, v)
        assert nec == necessary_stability_violated(e, v)

    def test_average_vs_max(self):
        # avg 0.45 -> sufficient under the averaged test even though max
        # entry alone would fail the per-entry test
        e = DegreeEnsemble(((2, 0.4), (3, 0.6)), ((6, 1.0),))   # coef = 2.0
        v = CbVector(np.array([1.0, 0.8, 0.1, 0.1, 0.8]))
        suff, nec = gfq_stability(e, v, 5)
        assert suff and not nec
        assert not sufficient_stability(e, v)

    def test_non_prime_rejected(self):
        e = regular_ensemble(3, 6)
        with pytest.raises(ValueError):
            gfq_stability(e, CbVector(np.ones(6)), 6)

    @pytest.mark.parametrize("q, message", [
        (3, "CB vector has m=2, expected q=3"),
        (1, "q must be prime, got 1"),
        (0, "q must be prime, got 0"),
    ], ids=["m-not-q", "q-1", "q-0"])
    def test_refusals(self, q, message):
        with pytest.raises(ValueError, match=message):
            gfq_stability(regular_ensemble(3, 6), CbVector([0.0, 0.1]), q)
