import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import bpbounds.binary_bounds as bb_mod
import bpbounds.channels as channels_mod
import bpbounds.de as de_mod
import bpbounds.search as search_mod
from bpbounds import (CHANNEL_FAMILIES, DegreeEnsemble, DeVerdict,
                      IterationLimits, NoisePair, NonMonotoneError, cb_of,
                      channel_threshold, iterate_bound, measure_threshold,
                      regular_ensemble, region_sweep, sb_of)
from bpbounds.search import _channel_verdict


@pytest.fixture(scope="module")
def e36():
    return regular_ensemble(3, 6)


class TestMeasureThreshold:
    def test_ub_cb(self, e36):
        assert measure_threshold("ub-cb", e36) == pytest.approx(0.42944, abs=5e-4)

    def test_ub_sb(self, e36):
        # frozen from the recursion bisection oracle
        assert measure_threshold("ub-sb", e36) == pytest.approx(0.263465, abs=1e-4)

    def test_ub_sb_star_runs_de(self, e36):
        star = measure_threshold("ub-sb-star", e36)
        assert star == pytest.approx(0.3068, abs=0.02)

    def test_unknown_kind(self, e36):
        with pytest.raises(ValueError):
            measure_threshold("ub-cbsb", e36)


class TestChannelThreshold:
    def test_bracket_validity(self, e36):
        res = channel_threshold("ub-cb", "bec", e36, tol=1e-4)
        assert res.hi - res.lo <= 1e-4 + 1e-12
        assert res.lo <= res.value <= res.hi
        # re-evaluating the verdicts at the brackets reproduces them
        lo_traj = iterate_bound("ub-cb", NoisePair(cb=res.lo), e36)
        hi_traj = iterate_bound("ub-cb", NoisePair(cb=res.hi), e36)
        assert lo_traj.verdict == "decodable"
        assert hi_traj.verdict == "not-decodable"

    def test_closed_form_cross_check_biawgn(self, e36):
        cb_star = measure_threshold("ub-cb", e36)
        res = channel_threshold("ub-cb", "biawgn", e36, tol=1e-4)
        assert math.exp(-1 / (2 * res.value ** 2)) == pytest.approx(cb_star, abs=1e-3)

    def test_closed_form_cross_check_rayleigh(self, e36):
        cb_star = measure_threshold("ub-cb", e36)
        res = channel_threshold("ub-cb", "rayleigh", e36, tol=1e-4)
        assert 1 / (1 + 1 / (2 * res.value ** 2)) == pytest.approx(cb_star, abs=1e-3)

    def test_z_channel_consistency(self, e36):
        cb_star = measure_threshold("ub-cb", e36)
        res = channel_threshold("ub-cb", "zchan", e36, tol=1e-4)
        # CB of the z-channel is sqrt(p10)
        assert math.sqrt(res.value) == pytest.approx(cb_star, abs=1e-3)

    def test_ub_sb_star_with_given_p_star(self, e36):
        res = channel_threshold("ub-sb-star", "bsc", e36, tol=1e-4, p_star=0.0837)
        assert res.value == pytest.approx(0.0837, abs=5e-4)

    @pytest.mark.parametrize("fam", ["bsc", "biawgn"])
    def test_ub_sb_below_ub_sb_star(self, e36, fam):
        # the SB-matched BSC set strictly contains the pe-matched set, so the
        # non-iterative bound dominates the iterative SB bound at threshold
        iterative = channel_threshold("ub-sb", fam, e36, tol=2e-4).value
        star = channel_threshold("ub-sb-star", fam, e36, tol=2e-4,
                                 p_star=0.0837).value
        assert iterative <= star + 1e-3

    def test_non_monotone_raises(self, e36, monkeypatch):
        # a decode epsilon above 1 declares even the noisy bracket end
        # decodable; the bracket check must refuse to bisect that.  The end
        # eps = 0.5 lies between the two CB* (0.429 and 0.655), so the
        # recursion, not CB*, decides it
        monkeypatch.setitem(CHANNEL_FAMILIES, "bec",
                            dataclasses.replace(CHANNEL_FAMILIES["bec"], hi=0.5))
        monkeypatch.setattr(bb_mod, "DECODE_EPS", 2.0)
        with pytest.raises(NonMonotoneError, match="entire bracket"):
            channel_threshold("ub-cbsb", "bec", e36)

    def test_sb_recursion_defeated_by_heavy_degree_two_mass(self):
        # lambda_2 rho'(1) = 0.3 * 4.6 > 1: the SB recursion contracts for no
        # channel at all (its slope at zero is lambda_2 rho'(1) regardless of
        # the channel), and the search reports that rather than bisecting
        from bpbounds import DegreeEnsemble
        e = DegreeEnsemble(((2, 0.3), (3, 0.7)), ((5, 0.4), (6, 0.6)))
        assert measure_threshold("ub-sb", e) < 1e-4
        with pytest.raises(NonMonotoneError, match="certifies nothing") as exc:
            channel_threshold("ub-sb", "bsc", e)
        assert "lambda_2 rho'(1) >= 1" in str(exc.value)
        # the CB-only bound still works there
        res = channel_threshold("ub-cb", "bec", e, tol=1e-4)
        assert 0.3 < res.value < 0.5
        # and so does ub-cbsb, whose recursion decodes channels above CB*
        cb_only = channel_threshold("ub-cb", "bsc", e, tol=1e-2)
        assert channel_threshold("ub-cbsb", "bsc", e, tol=1e-2).lo > cb_only.hi

    def test_ub_cbsb_refused_past_the_exact_budget(self):
        # the two-dimensional bound refuses lambda degree 28 on its first probe
        e = regular_ensemble(28, 56)
        with pytest.raises(ValueError, match="lambda degree 28"):
            channel_threshold("ub-cbsb", "bsc", e)
        with pytest.raises(ValueError, match="lambda degree 28"):
            region_sweep(e, 2, 2, p_star=0.01)
        # the one-dimensional bounds still run there
        res = channel_threshold("ub-cb", "bec", e)
        assert 0.0 < res.lo < res.hi < 1.0


# the ub-cbsb answers of the benchmark's table-36, (3,6) at tol 2e-4:
# (lo, hi, bisection steps)
TABLE_36_CBSB = {
    "bec": (0.4293212890625, 0.429443359375, 13),
    "bsc": (0.0709228515625, 0.071044921875, 12),
    "rayleigh": (0.6148284912109376, 0.6150085449218751, 14),
    "biawgn": (0.7826385498046875, 0.782818603515625, 14),
    "bilc": (0.5669342041015626, 0.5671142578125, 14),
}


@pytest.fixture
def cbsb_probes(monkeypatch):
    """(family, parameter, star, verdict) of every ``_channel_verdict`` call."""
    seen = []

    def spy(kind, family, t, e, limits, star):
        verdict = _channel_verdict(kind, family, t, e, limits, star)
        seen.append((family, t, star, verdict))
        return verdict
    monkeypatch.setattr(search_mod, "_channel_verdict", spy)
    return seen


class TestUbCbsbSearch:
    @pytest.mark.parametrize("family", sorted(TABLE_36_CBSB))
    def test_table_36_brackets(self, e36, family):
        res = channel_threshold("ub-cbsb", family, e36, tol=2e-4)
        assert (res.lo, res.hi, res.iterations) == TABLE_36_CBSB[family]

    def test_bec_bracket_holds_the_exact_threshold(self, e36):
        # a recursion from just below the BEC threshold 0.4294398144 needs
        # more than max_iter steps to decode (17,250 from lo); CB* settles
        # those probes, so the bracket holds the threshold
        res = channel_threshold("ub-cbsb", "bec", e36)
        assert (res.lo, res.hi) == (0.4294397830963135, 0.42943984270095825)
        assert res.lo < 0.4294398144 < res.hi

    def test_cb_star_decisions_agree_with_the_recursion(self, e36, cbsb_probes):
        # every probe CB* decides, the family's ends included, gets the same
        # verdict from a recursion run to a conclusion
        for family in sorted(TABLE_36_CBSB):
            channel_threshold("ub-cbsb", family, e36, tol=2e-4)
        channel_threshold("ub-cbsb", "bec", e36)
        decided = set()
        ends = 0
        for family, t, star, verdict in cbsb_probes:
            ends += t in (family.hi, max(family.lo, 1e-9))
            ch = family.build(t)
            cb = cb_of(ch)
            if star[0] <= cb < star[1]:
                continue
            traj = iterate_bound("ub-cbsb", NoisePair(cb, sb_of(ch)), e36,
                                 IterationLimits(max_iter=100_000))
            assert traj.verdict == ("decodable" if verdict else "not-decodable"), (family, t)
            decided.add(verdict)
        assert decided == {True, False}
        assert ends == 2 * 6


class TestBandVerdict:
    # ub-cbsb and DE share one verdict: CB* settles a channel outside the
    # band [CB*(ub-cb), CB*(lb-cb)), and only inside it does a run decide
    @pytest.fixture
    def no_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a recursion or DE run started")
        monkeypatch.setattr(search_mod, "iterate_bound", refuse)
        monkeypatch.setattr(de_mod, "de_decodable", refuse)

    @pytest.mark.parametrize("p, verdict", [(0.01, True), (0.048, True),
                                            (0.123, False), (0.5, False)])
    def test_star_settled_probe_runs_nothing(self, e36, no_runs, p, verdict):
        stars = (measure_threshold("ub-cb", e36), measure_threshold("lb-cb", e36))
        assert _channel_verdict("ub-cbsb", CHANNEL_FAMILIES["bsc"], p, e36, None, stars) \
            is verdict

    def test_de_search_in_an_empty_band_runs_nothing(self, e36, no_runs, monkeypatch):
        # both CB* at Bsc(0.07)'s CB: CB* settles every probe of the DE
        # search, the family's ends included, and no DE run starts
        cb = cb_of(CHANNEL_FAMILIES["bsc"].build(0.07))
        monkeypatch.setattr(search_mod, "measure_threshold", lambda kind, e: cb)
        res = channel_threshold("de", "bsc", e36)
        assert res.lo < 0.07 <= res.hi and res.iterations == 13

    @pytest.mark.parametrize("family", sorted(TABLE_36_CBSB))
    def test_ub_cbsb_search_runs_no_recursion_at_star_settled_ends(
            self, e36, monkeypatch, family):
        starts = []
        iterate = search_mod.iterate_bound

        def spy(kind, start, *args):
            starts.append(start.cb)
            return iterate(kind, start, *args)
        monkeypatch.setattr(search_mod, "iterate_bound", spy)
        channel_threshold("ub-cbsb", family, e36, tol=2e-4)
        fam = CHANNEL_FAMILIES[family]
        ub, lb = measure_threshold("ub-cb", e36), measure_threshold("lb-cb", e36)
        end_cbs = [cb_of(fam.build(t)) for t in (max(fam.lo, 1e-9), fam.hi)]
        assert all(not ub <= cb < lb for cb in end_cbs)
        assert starts and all(ub <= cb < lb for cb in starts)
        assert not set(end_cbs) & set(starts)

    @pytest.fixture
    def stub_de(self, monkeypatch):
        def decodable(ch, e, limits=None, warm=None):
            return DeVerdict(ch.p < 0.084, 1, "decoded", ())
        monkeypatch.setattr(de_mod, "de_decodable", decodable)

    @pytest.mark.parametrize("tol, steps", [(None, 13), (1e-3, 9), (1e-6, 19)])
    def test_de_search_honours_tol(self, e36, stub_de, tol, steps):
        res = channel_threshold("de", "bsc", e36, tol=tol)
        assert res.iterations == steps
        assert res.hi - res.lo == 0.5 * 2.0 ** -steps
        assert res.lo < 0.084 <= res.hi


class TestStepsFor:
    @pytest.mark.parametrize("tol,steps", [
        (2e-5, 16), (1e-4, 14), (2e-4, 13), (5e-4, 11), (1.0, 0), (3.0, 0)])
    def test_fewest_halvings_that_meet_tol(self, tol, steps):
        from bpbounds.search import _steps_for
        assert _steps_for(0.0, 1.0, tol, "ub-cb") == steps
        assert 2.0 ** -steps <= tol
        assert steps == 0 or tol < 2.0 ** (1 - steps)     # one fewer would not do

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_non_positive_tol_refused(self, tol):
        from bpbounds.search import _steps_for
        with pytest.raises(ValueError, match="tol must be positive"):
            _steps_for(0.0, 1.0, tol, "ub-cb")

    def test_bracket_meets_tol(self, e36):
        res = channel_threshold("ub-cb", "bec", e36, tol=1e-4)
        assert res.iterations == 14
        assert 0.5e-4 < res.hi - res.lo <= 1e-4


class TestLbCbInconclusive:
    # lb-cb is an outer bound: a run cut short by max_iter proves nothing,
    # so it must not pull the threshold inward (its closed form runs none)
    SHORT = IterationLimits(max_iter=20)

    def test_channel_threshold(self, e36):
        full = channel_threshold("lb-cb", "bsc", e36)
        short = channel_threshold("lb-cb", "bsc", e36, limits=self.SHORT)
        assert short.value >= full.value - (full.hi - full.lo)


class TestRegionSweep:
    def test_small_grid(self, e36):
        grid = region_sweep(e36, 6, 4, p_star=0.0837)
        # feasibility of every grid point
        for cb, sb, dec, *_ in grid.points:
            assert cb * cb - 1e-12 <= sb <= cb + 1e-12
        # corners
        assert any(cb == 0 and dec for cb, sb, dec, *_ in grid.points)
        assert any(cb == 1 and sb == 1 and not dec for cb, sb, dec, *_ in grid.points)
        # overlays present
        assert grid.overlays["ub_cb"] == pytest.approx(0.42944, abs=5e-4)
        assert grid.overlays["ub_sb"] == pytest.approx(0.26346, abs=5e-4)
        assert grid.overlays["ub_sb_star"] == pytest.approx(0.30678, abs=1e-4)

    def test_vertical_line_containment(self, e36):
        # every feasible point with cb below the ub-cb threshold is decodable
        grid = region_sweep(e36, 9, 3, p_star=0.0837)
        ub_cb = grid.overlays["ub_cb"]
        for cb, sb, dec, *_ in grid.points:
            if cb <= ub_cb - 1e-6:
                assert dec, (cb, sb)

    def test_bsc_curve_flip(self, e36):
        limits = IterationLimits()
        for p, expect in ((0.0695, True), (0.0725, False)):
            pair = NoisePair(2 * math.sqrt(p * (1 - p)), 4 * p * (1 - p))
            traj = iterate_bound("ub-cbsb", pair, e36, limits)
            assert (traj.verdict == "decodable") is expect

    def test_csv_format(self, e36):
        grid = region_sweep(e36, 3, 2, p_star=0.0837)
        buf = io.StringIO()
        grid.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "cb,sb,decodable,iterations,reason"
        assert len(lines) == len(grid.points) + 1
        overlays = json.loads(grid.overlays_json())
        assert overlays["schema"] == "bpbounds.region-overlays/1"

    @pytest.mark.parametrize("e, n_cb, n_sb", [
        (regular_ensemble(4, 8), 12, 12),
        (regular_ensemble(5, 10), 8, 8),
        (regular_ensemble(6, 12), 6, 6),
        (regular_ensemble(3, 6), 21, 9),
        (DegreeEnsemble(((2, 0.3), (3, 0.7)), ((6, 1.0),)), 20, 20),
    ], ids=["4-8", "5-10", "6-12", "3-6", "irregular"])
    def test_settled_points_equal_the_recursion(self, e, n_cb, n_sb):
        # only points between the two CB* recurse; every verdict is the
        # one the recursion gives at that point
        grid = region_sweep(e, n_cb, n_sb, p_star=0.0837)
        ub, lb = measure_threshold("ub-cb", e), measure_threshold("lb-cb", e)
        for cb, sb, dec, it, reason in grid.points:
            traj = iterate_bound("ub-cbsb", NoisePair(cb, sb), e)
            assert dec == (traj.verdict == "decodable"), (cb, sb, reason)
            if cb < ub:
                assert (it, reason) == (0, "ub-cb-star")
            elif cb >= lb:
                assert (it, reason) == (0, "lb-cb-star")
            else:
                assert (it, reason) == (traj.iterations, traj.reason)

    def test_settled_below_ub_cb_star_where_the_recursion_runs_out(self, e36):
        # the one verdict the settling may change: a run cut short by
        # max_iter below CB*(ub-cb) is now certified
        short = IterationLimits(max_iter=3)
        grid = region_sweep(e36, 11, 2, limits=short, p_star=0.0837)
        cb, sb, dec, it, reason = next(p for p in grid.points if p[0] == 0.4)
        assert iterate_bound("ub-cbsb", NoisePair(cb, sb), e36, short).reason == "max_iter"
        assert (dec, it, reason) == (True, 0, "ub-cb-star")


class TestThresholdResultJson:
    def test_schema(self, e36):
        res = channel_threshold("ub-cb", "bec", e36, tol=1e-3)
        d = res.to_dict()
        assert d["schema"] == "bpbounds.threshold/1"
        assert set(d) >= {"parameter", "lo", "hi", "value", "source", "iterations"}


IRREGULAR_A = DegreeEnsemble(((2, 0.4), (3, 0.6)), ((5, 0.5), (6, 0.5)))
IRREGULAR_B = DegreeEnsemble(((2, 0.3), (3, 0.7)), ((5, 0.4), (6, 0.6)))
# lambda = 0.5x + 0.5x^9, rho = x^5: ub-cb's x / g(x) is least as x -> 0
LAMBDA_2_10 = DegreeEnsemble(((2, 0.5), (10, 0.5)), ((6, 1.0),))
# midpoints of the 16-step bisection of each CB recursion on [0, 1] (the
# default tol 2e-5), as the bisection computed them before the closed form
BISECTED_CB_STAR = [
    ("3-6", regular_ensemble(3, 6), 0.42943572998046875, 0.6553115844726562),
    ("4-8", regular_ensemble(4, 8), 0.38344573974609375, 0.6192245483398438),
    ("6-12", regular_ensemble(6, 12), 0.30745697021484375, 0.5544967651367188),
    ("irregular-a", IRREGULAR_A, 0.40605926513671875, 0.6424636840820312),
    ("irregular-b", IRREGULAR_B, 0.41799163818359375, 0.6498794555664062),
]


@pytest.fixture
def no_recursion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("iterate_bound was called")
    monkeypatch.setattr(search_mod, "iterate_bound", refuse)
    monkeypatch.setattr(bb_mod, "iterate_bound", refuse)


class TestClosedFormCbStar:
    @pytest.mark.parametrize("name, e, ub, lb", BISECTED_CB_STAR,
                             ids=[c[0] for c in BISECTED_CB_STAR])
    def test_inside_the_bisection_bracket(self, no_recursion, name, e, ub, lb):
        half = 2.0 ** -17
        assert abs(measure_threshold("ub-cb", e) - ub) <= half
        assert abs(measure_threshold("lb-cb", e) - lb) <= half

    def test_stability_limited_ensembles_hit_the_limit(self, no_recursion):
        # x / g(x) is least as x -> 0: 1 / (lambda_2 rho'(1)) for ub-cb and
        # 1 / (lambda_2 sum rho_k sqrt(k - 1)) for lb-cb
        e24 = regular_ensemble(2, 4)
        assert measure_threshold("ub-cb", e24) == pytest.approx(1 / 3, rel=1e-12)
        assert measure_threshold("lb-cb", e24) == pytest.approx(1 / math.sqrt(3), rel=1e-12)
        e22 = regular_ensemble(2, 2)
        assert measure_threshold("ub-cb", e22) == pytest.approx(1.0, abs=1e-9)
        assert measure_threshold("lb-cb", e22) == pytest.approx(1.0, abs=1e-9)
        assert measure_threshold("ub-cb", LAMBDA_2_10) == pytest.approx(0.4, rel=1e-12)

    def test_lb_cb_channel_threshold_on_2_4(self, no_recursion):
        # the recursion stalled at a rounding artefact and gave 0.408 here
        res = channel_threshold("lb-cb", "bec", regular_ensemble(2, 4), tol=1e-4)
        assert res.value == pytest.approx(1 / math.sqrt(3), abs=1e-4)

    @pytest.mark.parametrize("e", [
        regular_ensemble(40, 80),
        DegreeEnsemble(((3, 0.5), (10_000, 0.5)), ((6, 0.5), (10_000, 0.5))),
        regular_ensemble(10_000, 10_000),
    ], ids=["40-80", "degree-10000", "regular-10000"])
    def test_high_degree_ensembles(self, no_recursion, e):
        for kind in ("ub-cb", "lb-cb"):
            star = measure_threshold(kind, e)
            assert 0.0 < star < 1.0
        assert measure_threshold("ub-cb", e) < measure_threshold("lb-cb", e)
        res = channel_threshold("ub-cb", "bec", e, tol=1e-4)
        assert res.lo <= measure_threshold("ub-cb", e) <= res.hi

    @pytest.mark.parametrize("family", ["bec", "bsc", "biawgn", "bilc", "rayleigh", "zchan"])
    @pytest.mark.parametrize("kind", ["ub-cb", "lb-cb"])
    def test_channel_threshold_inverts_cb_of(self, no_recursion, e36, kind, family):
        res = channel_threshold(kind, family, e36, tol=1e-4)
        fam = CHANNEL_FAMILIES[family]
        star = measure_threshold(kind, e36)
        assert cb_of(fam.build(res.lo)) < star <= cb_of(fam.build(res.hi))

    @pytest.mark.parametrize("kind, e", [
        pytest.param(kind, e, id=f"{kind}-{name}")
        for name, e in [(c[0], c[1]) for c in BISECTED_CB_STAR] + [
            ("lambda-2-10", LAMBDA_2_10), ("40-80", regular_ensemble(40, 80)),
            ("3-10000", regular_ensemble(3, 10_000))]
        for kind in ("ub-cb", "lb-cb")
        # at an x -> 0 minimum the recursion slows without bound near CB*
        if (kind, name) != ("ub-cb", "lambda-2-10")])
    def test_recursion_straddles_an_interior_minimum(self, kind, e):
        star = measure_threshold(kind, e)
        below = iterate_bound(kind, NoisePair(cb=0.999 * star), e)
        above = iterate_bound(kind, NoisePair(cb=1.001 * star), e)
        assert below.verdict == "decodable"
        assert above.verdict == "not-decodable"


# lambda = 0.05x + 0.45x^2 + 0.5x^3 and 0.1x + 0.9x^3, rho = x^5:
# lambda_2 rho'(1) = 0.25 and 0.5, SB* an interior tangency
IRREGULAR_C = DegreeEnsemble(((2, 0.05), (3, 0.45), (4, 0.5)), ((6, 1.0),))
IRREGULAR_D = DegreeEnsemble(((2, 0.1), (4, 0.9)), ((6, 1.0),))
# midpoints of the 16-step bisection of the SB recursion on [0, 1] (the
# default tol 2e-5), as the bisection computed them before SB* was direct
BISECTED_SB_STAR = [
    ("3-6", regular_ensemble(3, 6), 0.26346588134765625),
    ("4-8", regular_ensemble(4, 8), 0.25896453857421875),
    ("5-10", regular_ensemble(5, 10), 0.23834991455078125),
    ("6-12", regular_ensemble(6, 12), 0.21767425537109375),
    ("irregular-c", IRREGULAR_C, 0.31610870361328125),
    ("irregular-d", IRREGULAR_D, 0.35980987548828125),
]
SB_FAMILIES = ["bec", "bsc", "biawgn", "bilc", "rayleigh"]


class TestDirectSbStar:
    @pytest.mark.parametrize("name, e, mid", BISECTED_SB_STAR,
                             ids=[c[0] for c in BISECTED_SB_STAR])
    def test_inside_the_bisection_bracket(self, no_recursion, name, e, mid):
        assert abs(measure_threshold("ub-sb", e) - mid) <= 2.0 ** -17

    @pytest.mark.parametrize("family", SB_FAMILIES)
    def test_channel_threshold_inverts_sb_of(self, no_recursion, e36, family):
        res = channel_threshold("ub-sb", family, e36, tol=2e-4)
        fam = CHANNEL_FAMILIES[family]
        star = measure_threshold("ub-sb", e36)
        assert sb_of(fam.build(res.lo)) < star <= sb_of(fam.build(res.hi))

    @pytest.mark.parametrize("e", [regular_ensemble(3, 6), regular_ensemble(4, 8),
                                   regular_ensemble(6, 12), IRREGULAR_C],
                             ids=["3-6", "4-8", "6-12", "irregular-c"])
    def test_recursion_straddles_sb_star(self, e):
        star = measure_threshold("ub-sb", e)
        assert iterate_bound("ub-sb", NoisePair(sb=0.999 * star), e).verdict == "decodable"
        assert iterate_bound("ub-sb", NoisePair(sb=1.001 * star), e).verdict == "not-decodable"

    @pytest.mark.parametrize("e", [
        IRREGULAR_A, IRREGULAR_B, regular_ensemble(2, 4),
        DegreeEnsemble(((2, 0.2), (3, 0.8)), ((6, 1.0),))],      # exactly 1
        ids=["irregular-a", "irregular-b", "2-4", "unit-slope"])
    def test_zero_when_lambda2_rho_prime_reaches_one(self, no_recursion, e):
        assert measure_threshold("ub-sb", e) == 0.0

    def test_lambda3_limit(self):
        # lambda = 0.15x + 0.85x^2, rho = x^5: F's slope at x = 0 is
        # 5 (0.15 + 0.85 sb0 / 2), which reaches 1 below any interior tangency
        e = DegreeEnsemble(((2, 0.15), (3, 0.85)), ((6, 1.0),))
        star = measure_threshold("ub-sb", e)
        assert star == pytest.approx(2 * (1 - 0.75) / (0.85 * 5), rel=1e-12)
        assert iterate_bound("ub-sb", NoisePair(sb=0.99 * star), e).verdict == "decodable"
        assert iterate_bound("ub-sb", NoisePair(sb=1.01 * star), e).verdict == "not-decodable"

    def test_degree_10000_bounded(self):
        import time
        import tracemalloc

        e = DegreeEnsemble(((3, 0.5), (10_000, 0.5)), ((6, 0.5), (10_000, 0.5)))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            star = measure_threshold("ub-sb", e)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"SB* = {star:.6g} at degree 10000 in {elapsed:.2f} s, peak {peak / 1e6:.0f} MB")
        assert elapsed < 120.0
        assert peak < 256e6
        # the tangency sits near x = 1e-6, far below the 1e-5 grid of CB*
        assert 1e-7 < star < 1e-5
        assert iterate_bound("ub-sb", NoisePair(sb=0.999 * star), e).verdict == "decodable"
        assert iterate_bound("ub-sb", NoisePair(sb=1.001 * star), e).verdict == "not-decodable"


# SB* before its Brent refinement got a relative xatol (refined to 1e-12)
SB_STAR_BEFORE = [("3-6", regular_ensemble(3, 6), 0.26346493697477413),
                  ("4-8", regular_ensemble(4, 8), 0.25896016810914907),
                  ("5-10", regular_ensemble(5, 10), 0.23834618777140357),
                  ("6-12", regular_ensemble(6, 12), 0.21767105933438177),
                  ("0.15x+0.85x^2", DegreeEnsemble(((2, 0.15), (3, 0.85)), ((6, 1.0),)),
                   0.11764705882352941)]


class TestSbStarRefinement:
    # Brent's refinement stops at 1e-7 of the cell end: tighter, it chased
    # rounding noise on sigma's flat minimum, and a 1-ulp change of the check
    # stage changed how many sigma evaluations SB* makes (one for the grid,
    # the rest Brent's)
    @pytest.mark.parametrize("name, e, before", SB_STAR_BEFORE[:4],
                             ids=[c[0] for c in SB_STAR_BEFORE[:4]])
    @pytest.mark.parametrize("ulps", [0, 1, -1])
    def test_builds_survive_an_ulp(self, monkeypatch, name, e, before, ulps):
        check = bb_mod._bec_check
        monkeypatch.setattr(bb_mod, "_bec_check",
                            lambda x, e: check(x, e) * (1.0 + ulps * 2.0 ** -52))
        built = []
        sigma = search_mod.ub_sb_sigma
        monkeypatch.setattr(search_mod, "ub_sb_sigma",
                            lambda *args: built.append(1) or sigma(*args))
        measure_threshold("ub-sb", e)
        assert len(built) == 10

    @pytest.mark.parametrize("name, e, before", SB_STAR_BEFORE,
                             ids=[c[0] for c in SB_STAR_BEFORE])
    def test_value_unchanged(self, name, e, before):
        assert abs(measure_threshold("ub-sb", e) - before) <= 1e-15


# channel thresholds of each bound, to 3 digits: probes are drawn within
# +-10% (log scale) of them, where a non-monotone verdict would bite
NEAR_THRESHOLD = {
    (3, 6): {
        ("ub-cb", "bsc"): 0.0485, ("lb-cb", "bsc"): 0.122,
        ("ub-sb", "bsc"): 0.0709, ("ub-cbsb", "bsc"): 0.0710,
        ("ub-cb", "biawgn"): 0.769, ("lb-cb", "biawgn"): 1.09,
        ("ub-sb", "biawgn"): 0.746, ("ub-cbsb", "biawgn"): 0.783,
        ("ub-sb", "bec"): 0.263, ("ub-cbsb", "bec"): 0.429,
        ("ub-sb", "bilc"): 0.561, ("ub-cbsb", "bilc"): 0.567,
        ("ub-sb", "rayleigh"): 0.520, ("ub-cbsb", "rayleigh"): 0.615,
    },
    (4, 8): {
        ("ub-cb", "bsc"): 0.0382, ("lb-cb", "bsc"): 0.107,
        ("ub-sb", "bsc"): 0.0696, ("ub-cbsb", "bsc"): 0.0696,
        ("ub-cb", "biawgn"): 0.722, ("lb-cb", "biawgn"): 1.02,
        ("ub-sb", "biawgn"): 0.741, ("ub-cbsb", "biawgn"): 0.755,
        ("ub-cb", "bec"): 0.383, ("lb-cb", "bec"): 0.619,
        ("ub-sb", "bec"): 0.259, ("ub-cbsb", "bec"): 0.383,
        ("ub-cb", "bilc"): 0.480, ("lb-cb", "bilc"): 0.757,
        ("ub-sb", "bilc"): 0.556, ("ub-cbsb", "bilc"): 0.558,
        ("ub-cb", "rayleigh"): 0.558, ("lb-cb", "rayleigh"): 0.902,
        ("ub-sb", "rayleigh"): 0.513, ("ub-cbsb", "rayleigh"): 0.566,
    },
}
MONOTONICITY_CASES = [
    pytest.param(ens, kind, family, centre,
                 id=f"{kind}-{family}" + ("" if ens == (3, 6) else f"-{ens[0]}-{ens[1]}"))
    for ens, table in NEAR_THRESHOLD.items()
    for (kind, family), centre in sorted(table.items())]


class TestVerdictMonotonicity:
    # bisection assumes the verdict is monotone in the channel parameter but
    # checks it only at the bracket ends
    @pytest.mark.parametrize("ens, kind, family, centre", MONOTONICITY_CASES)
    @settings(max_examples=30, deadline=None)
    @given(u1=st.floats(-0.1, 0.1), u2=st.floats(-0.1, 0.1))
    def test_worse_channel_never_decodes_alone(self, ens, kind, family, centre, u1, u2):
        e = regular_ensemble(*ens)
        t1, t2 = sorted((centre * math.exp(u1), centre * math.exp(u2)))
        fam = CHANNEL_FAMILIES[family]
        # ub-cbsb with stars (0, inf): no CB* settles a probe, the recursion
        # decides each one
        star = (measure_threshold(kind, e) if kind in ("ub-cb", "lb-cb", "ub-sb")
                else (0.0, math.inf))
        if _channel_verdict(kind, fam, t2, e, None, star):
            assert _channel_verdict(kind, fam, t1, e, None, star)


DE_BRACKET_CASES = ([("3-6", regular_ensemble(3, 6), fam)
                     for fam in ("bsc", "biawgn", "bilc", "rayleigh", "bec")]
                    # ub-sb certifies nothing here (lambda_2 rho'(1) > 1), ub-cb does
                    + [("irregular-b", IRREGULAR_B, "bsc")])


@pytest.fixture
def de_probes(monkeypatch):
    """Parameters of every DE run; any ``sb_of`` call fails the test."""
    probes = []
    decodable = de_mod.de_decodable

    def spy_decodable(ch, *args, **kwargs):
        probes.append(dataclasses.astuple(ch)[0])
        return decodable(ch, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("sb_of was called")

    monkeypatch.setattr(de_mod, "de_decodable", spy_decodable)
    monkeypatch.setattr(search_mod, "sb_of", refuse)
    monkeypatch.setattr(channels_mod, "sb_of", refuse)
    return probes


class TestDeBracket:
    # channel_threshold("de") takes ub-cbsb's band verdict: DE runs only on
    # channels whose CB lies between ub-cb's and lb-cb's CB*, and the bracket
    # is DE_BISECT_STEPS = 13 halvings of the family's range
    LIMITS = IterationLimits(200)

    @pytest.mark.parametrize("name, e, family", DE_BRACKET_CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in DE_BRACKET_CASES])
    def test_probes_stay_inside_the_cb_band(self, de_probes, name, e, family):
        fam = CHANNEL_FAMILIES[family]
        res = channel_threshold("de", family, e, limits=self.LIMITS)
        ub, lb = measure_threshold("ub-cb", e), measure_threshold("lb-cb", e)
        assert de_probes and all(ub <= cb_of(fam.build(t)) < lb for t in de_probes)
        assert len(de_probes) <= 11
        assert res.iterations == 13
        assert res.hi - res.lo == pytest.approx((fam.hi - fam.lo) * 2.0 ** -13, rel=1e-12)
        assert cb_of(fam.build(res.lo)) < lb and ub <= cb_of(fam.build(res.hi))

    def test_ub_sb_star_runs_de_inside_the_band(self, e36, de_probes):
        star = measure_threshold("ub-sb-star", e36, limits=self.LIMITS)
        assert star == pytest.approx(0.3068, abs=0.02)
        # the bsc ub-cb and lb-cb thresholds are 0.0484 and 0.1223
        assert de_probes and all(0.048 < p < 0.123 for p in de_probes)


class TestDeSearchEnds:
    # the (3,6) bilc search's hi probe ran to max_iter (2,000 steps) when
    # every DE run started cold from its channel; started warm from the
    # bracket's failing end, it ends on a witness, and the bracket holds
    def test_bilc_search_ends_no_probe_on_max_iter(self, e36, monkeypatch):
        runs = []
        decodable = de_mod.de_decodable

        def spy(ch, *args):
            runs.append((ch.lam, decodable(ch, *args)))
            return runs[-1][1]
        monkeypatch.setattr(de_mod, "de_decodable", spy)
        res = channel_threshold("de", "bilc", e36)
        assert (res.lo, res.hi) == (0.652099609375, 0.652459716796875)
        assert runs and all(v.reason != "max_iter" for _, v in runs)
        assert [v.reason for lam, v in runs if lam == res.hi] == ["witness"]
        assert sum(v.iterations for _, v in runs) < de_mod.DE_MAX_ITER


class TestDeRunCaps:
    # a search's limits cap DE's runs for "de" and for measure_threshold's
    # p*, while channel_threshold("ub-sb-star") runs DE at DE's default
    @pytest.fixture
    def caps(self, monkeypatch):
        seen = []

        def decodable(ch, e, limits=None, warm=None):
            seen.append(limits)
            return DeVerdict(ch.p < 0.084, 1, "decoded", ())
        monkeypatch.setattr(de_mod, "de_decodable", decodable)
        return seen

    def test_de_search_passes_its_limits(self, e36, caps):
        channel_threshold("de", "bsc", e36, limits=IterationLimits(3))
        assert caps and all(c == IterationLimits(3) for c in caps)

    def test_measure_threshold_passes_its_limits(self, e36, caps):
        measure_threshold("ub-sb-star", e36, limits=IterationLimits(3))
        assert caps and all(c == IterationLimits(3) for c in caps)

    def test_ub_sb_star_search_runs_de_at_its_default(self, e36, caps):
        channel_threshold("ub-sb-star", "bsc", e36, tol=1e-2, limits=IterationLimits(3))
        assert caps and all(c is None for c in caps)


class TestDeUnprovenEnd:
    # on p in [0, 0.06] lb-cb excludes no parameter, so family.hi lies in
    # the band and takes a DE run, as any probe there does
    @pytest.fixture
    def short_bsc(self, monkeypatch):
        monkeypatch.setitem(CHANNEL_FAMILIES, "bsc",
                            dataclasses.replace(CHANNEL_FAMILIES["bsc"], hi=0.06))

    def stub_de(self, monkeypatch, p_de):
        probes = []

        def decodable(ch, e, limits, warm):
            probes.append(ch.p)
            return DeVerdict(ch.p < p_de, 1, "decoded", ())
        monkeypatch.setattr(de_mod, "de_decodable", decodable)
        return probes

    def test_decodable_hi_raises(self, e36, short_bsc, monkeypatch):
        probes = self.stub_de(monkeypatch, 1.0)
        with pytest.raises(NonMonotoneError, match="entire bracket"):
            channel_threshold("de", "bsc", e36)
        assert probes == [0.06]

    def test_undecodable_hi_is_bisected_to(self, e36, short_bsc, monkeypatch):
        probes = self.stub_de(monkeypatch, 0.055)
        res = channel_threshold("de", "bsc", e36)
        assert probes[0] == 0.06 and res.hi <= 0.06
        assert res.lo < 0.055 <= res.hi
        assert res.iterations == 13
        assert res.hi - res.lo == pytest.approx(0.06 * 2.0 ** -13, rel=1e-9)
        # below the bsc ub-cb threshold 0.0484 CB* settles a probe, no DE runs
        assert len(probes) < res.iterations + 1 and all(p > 0.048 for p in probes)
