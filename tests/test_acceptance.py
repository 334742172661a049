"""Acceptance suite: one test (and one summary line) per criterion.

The reference table's Rayleigh entries belong to two channels (README,
"Known discrepancy").  Its bound entries belong to ``BiRayleigh``, whose
receiver observes the fading amplitude: its CB is 1/(1 + 1/(2 sigma^2)),
which equals CB* = 0.4294 at sigma = 0.6134, the ub-cb target of criterion
2 (without the amplitude CB reaches 0.4294 near sigma = 0.536).  Its DE
entry, 0.644, belongs to the channel whose receiver does not observe the
amplitude (``rayleigh_amplitude_marginal_density``).  Criterion 5c checks
each number on its own channel.  Everything must pass at the stated
tolerances.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import record

from bpbounds import (Bec, BiAwgn, BiLaplace, BiRayleigh, Bnsc, Bsc,
                      BscMixture, CbVector,
                      MscChannel, MscMixture, NoisePair, SequenceMapperChannel,
                      cb_of, cb_vec_convolve, cb_vector_of,
                      channel_threshold, check_node_dual, check_node_maximizer,
                      check_transfer, lp_oracle, measure_threshold, msc_pe,
                      pe_of, s_envelope, sb_of,
                      sb_matched_bsc_replacement, two_dim_check_step,
                      two_dim_var_step, ub_cb_step, ub_sb_star,
                      variable_node_upper_family, variable_transfer,
                      zm_bound_step)
from bpbounds.channels import UnsupportedChannelError


# ---------------------------------------------------------------------------
# criterion 1: scalar thresholds of the one-dimensional bounds
# ---------------------------------------------------------------------------

def test_criterion1_scalar_thresholds(ens36):
    t0 = time.monotonic()
    cb_star = measure_threshold("ub-cb", ens36)
    t_cb = time.monotonic() - t0
    t0 = time.monotonic()
    sb_star = measure_threshold("ub-sb", ens36)
    t_sb = time.monotonic() - t0
    record(f"criterion 1: CB* = {cb_star:.5f} ({t_cb:.1f}s), "
           f"SB* = {sb_star:.5f} ({t_sb:.1f}s)")
    assert cb_star == pytest.approx(0.4294, abs=5e-4)
    assert sb_star == pytest.approx(0.2632, abs=5e-4)
    assert t_cb < 5.0 and t_sb < 5.0


# ---------------------------------------------------------------------------
# criteria 2-4: per-channel thresholds of the three iterative bounds
# ---------------------------------------------------------------------------

UB_CB_TARGETS = {"bec": (0.4294, 5e-4), "rayleigh": (0.6134, 2e-3),
                 "biawgn": (0.7690, 2e-3), "bilc": (0.5221, 2e-3),
                 "bsc": (0.0484, 1e-3), "zchan": (0.1844, 1e-3)}

UB_SB_TARGETS = {"bsc": (0.0708, 1e-3), "rayleigh": (0.5191, 3e-3),
                 "biawgn": (0.7460, 3e-3), "bilc": (0.5610, 3e-3)}

UB_CBSB_TARGETS = {"bec": (0.4294, 5e-4), "bsc": (0.0710, 1e-3),
                   "rayleigh": (0.6148, 3e-3), "biawgn": (0.7826, 3e-3),
                   "bilc": (0.5670, 3e-3)}

UB_SB_STAR_TARGETS = {"bsc": (0.0837, 0.005), "biawgn": (0.8001, 0.01),
                      "bilc": (0.6146, 0.01), "rayleigh": (0.5804, 0.01)}


def _check_targets(name, got, targets, seconds, budget):
    line = ", ".join(f"{fam}={got[fam]:.5f}" for fam in targets)
    record(f"criterion {name}: {line} ({seconds:.0f}s)")
    for fam, (target, tol) in targets.items():
        assert got[fam] == pytest.approx(target, abs=tol), fam
    assert seconds < budget


def test_criterion2_ub_cb_channels(ub_cb_thresholds):
    _check_targets("2 (ub-cb)", ub_cb_thresholds["values"], UB_CB_TARGETS,
                   ub_cb_thresholds["seconds"], 30.0)


def test_criterion3_ub_sb_channels(ub_sb_thresholds):
    _check_targets("3 (ub-sb)", ub_sb_thresholds["values"], UB_SB_TARGETS,
                   ub_sb_thresholds["seconds"], 60.0)


def test_criterion4_ub_cbsb_channels(ub_cbsb_thresholds):
    _check_targets("4 (ub-cbsb)", ub_cbsb_thresholds["values"], UB_CBSB_TARGETS,
                   ub_cbsb_thresholds["seconds"], 300.0)


# ---------------------------------------------------------------------------
# criterion 5: density-evolution oracle and the non-iterative bound
# ---------------------------------------------------------------------------

def test_criterion5_bec_recursion(ens36, de_thresholds):
    bec = de_thresholds["values"]["bec_exact"]
    record(f"criterion 5a: exact BEC threshold = {bec:.6f}")
    assert bec == pytest.approx(0.4294, abs=1e-4)


def test_criterion5_de(ens36, de_thresholds):
    got = de_thresholds["values"]
    record(f"criterion 5b: DE bsc={got['bsc']:.4f} biawgn={got['biawgn']:.4f} "
           f"bilc={got['bilc']:.4f} ({de_thresholds['seconds']:.0f}s)")
    assert got["bsc"] == pytest.approx(0.0837, abs=0.005)
    assert got["biawgn"] == pytest.approx(0.8790, abs=0.01)
    assert got["bilc"] == pytest.approx(0.65, abs=0.01)
    assert de_thresholds["seconds"] < 780.0


def _rayleigh_capacity(sigma):
    """Capacity in bits of binary-input Rayleigh fading with the amplitude
    observed (``BiRayleigh``: unit average energy, noise std sigma, LLR
    2ay/sigma^2), by quadrature over the amplitude density 2a exp(-a^2)."""
    def loss_at(a):   # E[ln(1 + e^-LLR) | a, x = +1]
        f = lambda y: (math.exp(-(y - a) ** 2 / (2.0 * sigma ** 2))
                       * np.logaddexp(0.0, -2.0 * a * y / sigma ** 2))
        return quad(f, a - 12.0 * sigma, a + 12.0 * sigma, limit=200)[0] \
            / (math.sqrt(2.0 * math.pi) * sigma)
    loss = quad(lambda a: 2.0 * a * math.exp(-a * a) * loss_at(a), 0.0, 8.0,
                limit=200)[0]
    return 1.0 - loss / math.log(2.0)


def test_criterion5_de_birayleigh(de_thresholds, de_rayleigh_unobserved):
    """Printed Rayleigh DE threshold 0.644 +- 0.01, on the channel it belongs to.

    The reference table's Rayleigh bound entries (criteria 2-4, 5d) fit only
    BiRayleigh, whose receiver observes the fading amplitude: its CB is
    1/(1 + 1/(2 sigma^2)) = CB* = 0.4294 at sigma = 0.6134, the ub-cb target;
    without the amplitude CB reaches 0.4294 near sigma = 0.536, which would
    break those targets.  The DE entry 0.644 instead belongs to the channel
    whose receiver does NOT observe the amplitude, and is asserted there,
    with the same bisection, DE set-up and bracket as the observed channel.
    Both thresholds sit at about the same capacity gap above rate 1/2.

    The observed channel's threshold (near 0.70) is held to bounds theory
    guarantees: at least the unobserved one (that channel is a degradation
    of the observed one, and BP thresholds are monotone under degradation),
    above the ub-cbsb and ub-sb-star targets (inner bounds), and below the
    rate-1/2 Shannon limit (capacity at least 1/2 there).
    """
    obs = de_thresholds["values"]["rayleigh"]
    unobs = de_rayleigh_unobserved["value"]
    cap_obs = _rayleigh_capacity(obs)
    record(f"criterion 5c: DE rayleigh amplitude-unobserved={unobs:.4f} "
           f"vs 0.644+-0.01 ({de_rayleigh_unobserved['seconds']:.0f}s), "
           f"amplitude-observed={obs:.4f} (capacity {cap_obs:.3f} bits)")
    assert unobs == pytest.approx(0.644, abs=0.01)
    assert obs >= unobs
    assert obs > UB_CBSB_TARGETS["rayleigh"][0]
    assert obs > UB_SB_STAR_TARGETS["rayleigh"][0]
    assert cap_obs >= 0.5


def test_criterion5_marginal_rayleigh_reproduces_printed_value(ens36):
    # the amplitude-unobserved channel brackets the printed 0.644 at probes
    # other than 5c's bisection
    from bpbounds import de_decodable, rayleigh_amplitude_marginal_density
    ok_low = de_decodable(rayleigh_amplitude_marginal_density(0.634), ens36).decodable
    ok_high = de_decodable(rayleigh_amplitude_marginal_density(0.654), ens36).decodable
    record(f"criterion 5c': amplitude-unobserved DE decodable at 0.634: "
           f"{ok_low}, at 0.654: {ok_high} (printed value sits between)")
    assert ok_low and not ok_high


def test_criterion5_ub_sb_star(ens36, de_thresholds):
    t0 = time.monotonic()
    p_star = de_thresholds["values"]["bsc"]
    star = ub_sb_star(p_star)
    targets = UB_SB_STAR_TARGETS
    got = {}
    for fam in targets:
        got[fam] = channel_threshold("ub-sb-star", fam, ens36, tol=2e-4,
                                     p_star=p_star).value
    seconds = time.monotonic() - t0
    line = ", ".join(f"{fam}={got[fam]:.4f}" for fam in targets)
    record(f"criterion 5d: SB* = {star:.4f}; {line} ({seconds:.0f}s)")
    assert star == pytest.approx(0.3068, abs=0.01)
    for fam, (target, tol) in targets.items():
        assert got[fam] == pytest.approx(target, abs=tol), fam
    assert seconds < 120.0


# ---------------------------------------------------------------------------
# criterion 6: property suites
# ---------------------------------------------------------------------------

def _random_binary_channel(rng):
    kind = rng.choice(
        ["bsc", "bec", "bnsc", "mix", "biawgn", "bilc", "rayleigh"],
        p=[0.26, 0.2, 0.26, 0.2, 0.04, 0.03, 0.01])
    if kind == "bsc":
        return Bsc(rng.uniform(0, 0.5))
    if kind == "bec":
        return Bec(rng.uniform(0, 1))
    if kind == "bnsc":
        p01 = rng.uniform(0, 1)
        return Bnsc(p01, rng.uniform(0, 1 - p01))
    if kind == "mix":
        k = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(k))
        return BscMixture(tuple((w[i], rng.uniform(0, 0.5)) for i in range(k)))
    if kind == "biawgn":
        return BiAwgn(rng.uniform(0.2, 3.0))
    if kind == "bilc":
        return BiLaplace(rng.uniform(0.2, 3.0))
    return BiRayleigh(rng.uniform(0.3, 2.0))


def test_criterion6_scalar_measure_ordering():
    rng = np.random.default_rng(100)
    n = 0
    for _ in range(1000):
        ch = _random_binary_channel(rng)
        cb, sb = cb_of(ch), sb_of(ch)
        assert sb <= cb + 1e-9
        assert cb <= math.sqrt(sb) + 1e-9
        try:
            pe = pe_of(ch)
        except UnsupportedChannelError:
            continue
        assert 2 * pe <= sb + 1e-12
        assert sb <= 4 * pe * (1 - pe) + 1e-12
        assert cb <= 2 * math.sqrt(pe * (1 - pe)) + 1e-12
        n += 1
    record(f"criterion 6a: pe/SB/CB ordering on 1000 channels ({n} discrete)")


def test_criterion6_pairwise_cb_ordering():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        k = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(k))
        mix = MscMixture(tuple(
            (w[i], MscChannel(rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3))))
            for i in range(k)))
        v = cb_vector_of(mix).v
        pe = msc_pe(mix)
        assert 2 * pe <= v[1:].sum() + 1e-12
        if pe <= 0.5:
            assert v[1:].max() <= 2 * math.sqrt(pe * (1 - pe)) + 1e-12
    record("criterion 6b: pairwise-CB vs symbol-error inequalities on 1000 MSC mixtures")


def test_criterion6_cb_vector_symmetry():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        m = int(rng.integers(2, 10))
        v = cb_vector_of(MscChannel(rng.dirichlet(np.ones(m)))).v
        for x in range(m):
            assert v[x] == pytest.approx(v[(m - x) % m], abs=1e-12)
    record("criterion 6c: CB-vector mirror symmetry on 1000 channels")


def test_criterion6_m6_equality_witness():
    u = cb_vector_of(MscChannel(np.array([0.5, 0.5, 0, 0, 0, 0.0])))
    v = cb_vector_of(MscChannel(np.array([0.5, 0, 0.5, 0, 0, 0.0])))
    conv = cb_vec_convolve(u, v).v
    # exact check-node CB vector of the pair, by direct enumeration
    p, q = np.array([0.5, 0.5, 0, 0, 0, 0.0]), np.array([0.5, 0, 0.5, 0, 0, 0.0])
    exact = np.zeros(6)
    for x in range(6):
        tot = 0.0
        for wsum in range(6):
            s1 = sum(p[y] * q[(wsum - y) % 6] for y in range(6))
            s2 = sum(p[y] * q[(wsum + x - y) % 6] for y in range(6))
            tot += math.sqrt(s1 * s2)
        exact[x] = tot
    np.testing.assert_allclose(conv, [1, 0.75, 0.5, 0.5, 0.5, 0.75], atol=1e-12)
    np.testing.assert_allclose(conv, exact, atol=1e-12)
    record("criterion 6d: m=6 convolution equality witness exact to 1e-12")


def test_criterion6_zm_m2_reduction(ens36):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        cb, cb0 = rng.uniform(0, 1, 2)
        out = zm_bound_step(CbVector(np.array([1.0, cb])),
                            CbVector(np.array([1.0, cb0])), ens36)
        worst = max(worst, abs(out.v[1] - ub_cb_step(cb, ens36, cb0)))
    assert worst <= 1e-12
    record(f"criterion 6e: zm m=2 reduction, max deviation {worst:.1e}")


def test_criterion6_upper_family_domination():
    worst = np.inf
    bs = np.linspace(0.0, 1.0, 100)
    for cb in np.linspace(0.01, 0.99, 100):
        for frac in np.linspace(0.0, 1.0, 10):
            sb = cb * cb + frac * (cb - cb * cb)
            fam = variable_node_upper_family(cb, sb)
            vals = np.zeros_like(bs)
            for w, a in fam.atoms:
                vals += w * variable_transfer(np.full_like(bs, a), bs)
            env = np.array([s_envelope(cb, sb, b) for b in bs])
            worst = min(worst, float((vals - env).min()))
    assert worst >= -1e-10
    record(f"criterion 6f: dP** domination over the envelope, min slack {worst:.1e}")


def test_criterion6_duality():
    rng = np.random.default_rng(104)
    grid = np.linspace(0.0, 1.0, 2001)
    worst_gap, worst_feas = 0.0, 0.0
    for _ in range(1000):
        cb = rng.uniform(1e-3, 1.0)
        sb = rng.uniform(cb * cb, cb)
        b = rng.uniform(0.0, 1.0)
        fam = check_node_maximizer(cb, sb)
        primal = sum(w * float(check_transfer(a, b)) for w, a in fam.atoms)
        y0, y1, y2 = check_node_dual(cb, sb, b)
        assert y1 >= -1e-12 and y2 >= -1e-12
        worst_gap = max(worst_gap, abs(primal - (y0 + y1 * cb + y2 * sb)))
        slack = y0 + grid * y1 + grid * grid * y2 - check_transfer(grid, b)
        worst_feas = min(worst_feas, float(slack.min()))
    assert worst_gap <= 1e-9
    assert worst_feas >= -1e-10
    record(f"criterion 6g: duality gap {worst_gap:.1e}, dual slack {worst_feas:.1e}")


def test_criterion6_lp_oracle_agreement():
    cb, sb = 0.37, 0.17
    for b in (0.25, 0.55, 0.85):
        fam = check_node_maximizer(cb, sb)
        closed_chk = sum(w * float(check_transfer(a, b)) for w, a in fam.atoms)
        closed_var = s_envelope(cb, sb, b)
        for n in (100, 400):
            lp_chk = lp_oracle(lambda a: check_transfer(a, b), cb, sb, n)
            lp_var = lp_oracle(lambda a: variable_transfer(a, b), cb, sb, n)
            assert abs(lp_chk - closed_chk) <= 2.0 / n
            assert abs(lp_var - closed_var) <= 2.0 / n
    record("criterion 6h: grid-LP oracle within O(1/n) of both closed forms")


def test_criterion6_concavity_in_beta():
    # the combined two-root expression must be concave in beta = 4p(1-p)
    rng = np.random.default_rng(105)

    def h(a, b, c, d, beta):
        p = (1.0 - np.sqrt(1.0 - beta)) / 2.0
        return (np.sqrt((a * (1 - p) + c * p) * (b * (1 - p) + d * p))
                + np.sqrt((a * p + c * (1 - p)) * (b * p + d * (1 - p))))

    step = 1e-4
    betas = np.linspace(step, 1.0 - step, 201)
    worst = -np.inf
    for _ in range(1000):
        a, b, c, d = rng.uniform(0.0, 3.0, 4)
        second = (h(a, b, c, d, betas + step) - 2 * h(a, b, c, d, betas)
                  + h(a, b, c, d, betas - step))
        worst = max(worst, float(second.max()))
        assert second.max() <= 1e-6
        assert (second / step ** 2).max() <= 1e-3
    record(f"criterion 6i: concavity in beta, max raw second difference {worst:.1e}")


def test_criterion6_power_weight_inequalities():
    rng = np.random.default_rng(106)
    a, b, c = rng.uniform(0.05, 3.0, size=(3, 10_000))
    lhs = (a + b) / (a * b) ** 2.5
    rhs = ((a + c) + (b + c)) / ((a + c) * (b + c)) ** 2.5
    assert np.all(lhs >= rhs - 1e-12)
    second = ((a + c) - b) / ((a + c) * b) ** 2.5 + ((b + c) - a) / ((b + c) * a) ** 2.5
    assert np.all(second >= -1e-12)
    record("criterion 6j: both power-weight inequalities on 10000 triples")


def test_criterion6_replacement_monotone():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        coords = []
        for _ in range(n):
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(k))
            coords.append(BscMixture(tuple(
                (w[j], rng.uniform(0.0, 0.5)) for j in range(k))))

        def draw_words(n_words):
            ws = rng.dirichlet(np.ones(n_words))
            return tuple((ws[i], tuple(int(x) for x in rng.integers(0, 2, n)))
                         for i in range(n_words))

        ch = SequenceMapperChannel(rng.uniform(0.1, 0.9),
                                   draw_words(int(rng.integers(1, 3))),
                                   draw_words(int(rng.integers(1, 3))),
                                   tuple(coords))
        before, after = sb_matched_bsc_replacement(ch, int(rng.integers(0, n)))
        assert after >= before - 1e-12
    record("criterion 6k: SB-matched BSC replacement never lowers CB "
           "(1000 exact instances)")


def test_criterion6_two_dim_closure(ens36):
    rng = np.random.default_rng(108)
    for _ in range(1000):
        cb = rng.uniform(1e-3, 1.0)
        sb = rng.uniform(cb * cb, cb)
        chk = two_dim_check_step(NoisePair(cb, sb), ens36)
        assert chk.sb <= chk.cb + 1e-12 and chk.cb ** 2 <= chk.sb + 1e-12
        cb0 = rng.uniform(1e-3, 1.0)
        sb0 = rng.uniform(cb0 * cb0, cb0)
        out = two_dim_var_step(NoisePair(cb0, sb0), chk, ens36)
        assert out.sb <= out.cb + 1e-12 and out.cb ** 2 <= out.sb + 1e-12
    record("criterion 6l: two-dimensional steps map valid pairs to valid pairs")


def test_criterion6_bounds_below_de(ub_cb_thresholds, ub_sb_thresholds,
                                    ub_cbsb_thresholds, de_thresholds):
    de_vals = dict(de_thresholds["values"])
    de_vals["bec"] = de_vals.pop("bec_exact")
    slack = {"bec": 1e-3}   # the exact recursion threshold carries no MC noise
    checked = 0
    for bounds in (ub_cb_thresholds, ub_sb_thresholds, ub_cbsb_thresholds):
        for fam, value in bounds["values"].items():
            if fam not in de_vals:
                continue   # no DE oracle for the asymmetric z-channel
            assert value <= de_vals[fam] + slack.get(fam, 5e-3), fam
            checked += 1
    record(f"criterion 6m: all {checked} bound thresholds sit below DE")


# ---------------------------------------------------------------------------
# criterion 7: out-of-scope items are documented, not reproduced
# ---------------------------------------------------------------------------

def test_criterion7_absences_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert "mutual-information" in readme.lower()
    assert "envelope" in readme.lower()
    import bpbounds
    assert not hasattr(bpbounds, "ub_info")
    record("criterion 7: out-of-scope items (mutual-information bound, m>2 "
           "threshold envelopes) documented as absent")
