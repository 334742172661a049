import math

import numpy as np
import pytest

from bpbounds import (AtomicBscFamily, check_node_maximizer, check_node_dual,
                      phi_variable_sb,
                      variable_node_upper_family, s_envelope,
                      variable_node_pointwise_maximizer, lp_oracle,
                      check_transfer, variable_transfer)


def random_valid_pair(rng, cb_lo=1e-3):
    cb = rng.uniform(cb_lo, 1.0)
    sb = rng.uniform(cb * cb, cb)
    return cb, sb


class TestCheckNodeMaximizer:
    def test_bsc_consistent_collapses(self):
        fam = check_node_maximizer(0.3, 0.09)
        assert len(fam.atoms) == 1
        w, a = fam.atoms[0]
        assert w == pytest.approx(1.0)
        assert a == pytest.approx(0.3)

    def test_bec_consistent(self):
        fam = check_node_maximizer(0.4, 0.4)
        atoms = dict((round(a, 12), w) for w, a in fam.atoms)
        assert atoms[0.0] == pytest.approx(0.6)
        assert atoms[1.0] == pytest.approx(0.4)

    def test_worked_example(self):
        fam = check_node_maximizer(0.4, 0.2)
        atoms = dict((round(a, 12), w) for w, a in fam.atoms)
        assert atoms[0.0] == pytest.approx(0.2)
        assert atoms[0.5] == pytest.approx(0.8)
        assert fam.moment_a() == pytest.approx(0.4, abs=1e-15)
        assert fam.moment_a2() == pytest.approx(0.2, abs=1e-15)

    def test_moment_exactness_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            cb, sb = random_valid_pair(rng)
            fam = check_node_maximizer(cb, sb)
            assert fam.moment_a() == pytest.approx(cb, abs=1e-12)
            assert fam.moment_a2() == pytest.approx(sb, abs=1e-12)


class TestCheckNodeDual:
    def test_b_zero(self):
        cb, sb = 0.4, 0.2
        y0, y1, y2 = check_node_dual(cb, sb, 0.0)
        assert y0 == 0.0
        assert y0 + y1 * cb + y2 * sb == pytest.approx(cb, abs=1e-12)

    def test_b_one(self):
        cb, sb = 0.4, 0.2
        y0, y1, y2 = check_node_dual(cb, sb, 1.0)
        assert y0 + y1 * cb + y2 * sb == pytest.approx(1.0, abs=1e-12)

    def test_zero_gap_worked_example(self):
        cb, sb, b = 0.4, 0.2, 0.6
        fam = check_node_maximizer(cb, sb)
        primal = sum(w * float(check_transfer(a, b)) for w, a in fam.atoms)
        y0, y1, y2 = check_node_dual(cb, sb, b)
        assert y0 + y1 * cb + y2 * sb == pytest.approx(primal, abs=1e-9)


class TestUpperFamily:
    def test_bsc_consistent_collapses(self):
        fam = variable_node_upper_family(0.3, 0.09)
        assert len(fam.atoms) == 1
        assert fam.atoms[0][1] == pytest.approx(0.3)

    def test_weights_partition(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            cb, sb = random_valid_pair(rng)
            fam = variable_node_upper_family(cb, sb)
            assert sum(w for w, _ in fam.atoms) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= 0.0 for w, _ in fam.atoms)
            # second moment matched exactly for any middle-atom weight
            assert fam.moment_a2() == pytest.approx(sb, abs=1e-12)

    def test_worked_example_atoms(self):
        # (0.4, 0.2): the gate is positive, so the middle atom carries no mass
        fam = variable_node_upper_family(0.4, 0.2)
        atoms = dict((round(a, 5), w) for w, a in fam.atoms)
        assert atoms[0.4] == pytest.approx(5.0 / 9.0)
        assert atoms[0.5] == pytest.approx(4.0 / 9.0)
        assert 0.44721 not in atoms

    def test_middle_atom_activates(self):
        # BEC-like pair with small cb: the cubic gate goes negative
        fam = variable_node_upper_family(0.04, 0.0399)
        assert len(fam.atoms) == 3
        mid = [w for w, a in fam.atoms if abs(a - math.sqrt(0.0399)) < 1e-12]
        assert mid and 0.0 < mid[0] < 1.0


class TestEnvelope:
    def test_b_zero(self):
        assert s_envelope(0.4, 0.2, 0.0) == 0.0

    def test_b_one(self):
        assert s_envelope(0.4, 0.2, 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_continuity_at_breakpoints(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cb, sb = random_valid_pair(rng, cb_lo=1e-2)
            t = sb / cb
            for bp in (math.sqrt(cb * cb / (1 + cb * cb)),
                       math.sqrt(t * t / (1 + t * t))):
                lo = s_envelope(cb, sb, bp - 1e-12)
                hi = s_envelope(cb, sb, bp + 1e-12)
                assert hi == pytest.approx(lo, abs=1e-9)


class TestPointwiseMaximizer:
    def test_small_b_single_atom(self):
        fam = variable_node_pointwise_maximizer(0.4, 0.2, 0.1)
        assert len(fam.atoms) == 1
        assert fam.atoms[0][1] == pytest.approx(0.4)

    def test_large_b_limit(self):
        val = sum(w * float(variable_transfer(a, 0.999999))
                  for w, a in variable_node_pointwise_maximizer(0.4, 0.2, 0.999999).atoms)
        assert val == pytest.approx(0.2, abs=1e-4)

    def test_matches_envelope_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            cb, sb = random_valid_pair(rng, cb_lo=1e-2)
            b = rng.uniform(0, 1)
            fam = variable_node_pointwise_maximizer(cb, sb, b)
            val = sum(w * float(variable_transfer(a, b)) for w, a in fam.atoms)
            assert val == pytest.approx(s_envelope(cb, sb, b), abs=1e-12)


class TestLpOracle:
    def test_first_moment_objective(self):
        # objective f(a) = a is maximized at the first-moment constraint
        assert lp_oracle(lambda a: a, 0.37, 0.2, 100) == pytest.approx(0.37, abs=1e-9)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            lp_oracle(lambda a: a, 0.4, 0.2, 10)
        with pytest.raises(ValueError):
            lp_oracle(lambda a: a, -0.1, 0.2, 100)

    @pytest.mark.parametrize("b", [0.3, 0.6, 0.9])
    def test_check_transfer_refinement(self, b):
        # off-grid optimum: accuracy must improve roughly like 1/grid_n
        cb, sb = 0.37, 0.17
        fam = check_node_maximizer(cb, sb)
        closed = sum(w * float(check_transfer(a, b)) for w, a in fam.atoms)
        gaps = {}
        for n in (100, 400):
            gaps[n] = abs(closed - lp_oracle(lambda a: check_transfer(a, b), cb, sb, n))
        assert gaps[100] <= 2.0 / 100
        assert gaps[400] <= 2.0 / 400

    @pytest.mark.parametrize("b", [0.3, 0.6, 0.9])
    def test_variable_transfer_refinement(self, b):
        cb, sb = 0.37, 0.17
        closed = s_envelope(cb, sb, b)
        gaps = {}
        for n in (100, 400):
            got = lp_oracle(lambda a: variable_transfer(a, b), cb, sb, n)
            gaps[n] = abs(closed - got)
            # grid solutions are feasible, so they can only fall short
            assert got <= closed + 1e-9
        assert gaps[100] <= 2.0 / 100
        assert gaps[400] <= 2.0 / 400

    def test_degree_two_upper_family_dominates_the_box(self):
        # a degree-2 variable node sees one channel draw (a BSC of index b)
        # and one message draw: the SB the ub-cbsb step takes from dP** must
        # dominate every message law in the box E[a] <= cb, E[a^2] <= sb,
        # also where it falls as sb rises at a fixed cb (so that step is
        # not monotone when lambda_2 > 0)
        rng = np.random.default_rng(31)

        def phi(cb, sb, b):
            return phi_variable_sb(AtomicBscFamily(((1.0, b),)),
                                   variable_node_upper_family(cb, sb), 1)

        falling = []
        for _ in range(300):
            cb, sb = random_valid_pair(rng)
            b = rng.uniform(0.05, 1.0)
            sb2 = min(cb, sb + 1e-3 * (cb - cb * cb))
            if phi(cb, sb2, b) < phi(cb, sb, b):
                falling.append((cb, sb, sb2, b))
        assert len(falling) >= 10
        for cb, sb, sb2, b in falling[:10]:
            for s in (sb, sb2):
                lp = lp_oracle(lambda a: variable_transfer(a, b), cb, s, 200)
                assert phi(cb, s, b) >= lp


def test_family_validation():
    with pytest.raises(ValueError):
        AtomicBscFamily((([0.5, 0.2]), ))
    with pytest.raises(ValueError):
        AtomicBscFamily(((0.5, 0.3), (0.4, 0.2)))   # weights sum to 0.9
    with pytest.raises(ValueError):
        AtomicBscFamily(((1.0, 1.5),))              # index out of range


@pytest.mark.parametrize("atoms", [
    ((math.nan, 0.5),),
    ((0.5, 0.1), (0.5, 0.2), (math.nan, 0.3)),
    ((math.inf, 0.5),),
    ((math.inf, 0.5), (-math.inf, 0.2)),
])
def test_family_refuses_non_finite_weights(atoms):
    # a NaN weight used to pass both weight checks and leave an empty family,
    # which phi_variable_sb reads as noise-free (SB 0)
    with pytest.raises(ValueError, match="finite"):
        AtomicBscFamily(atoms)


def test_empty_family_is_refused():
    with pytest.raises(ValueError, match="family needs at least one atom"):
        AtomicBscFamily(())
