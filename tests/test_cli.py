import json
import os
import subprocess
import sys
import time
import warnings

import pytest

from bpbounds.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeasures:
    def test_bec(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--channel", "bec:0.3")
        assert code == 0
        data = json.loads(out)
        assert data["cb"] == pytest.approx(0.3)
        assert data["sb"] == pytest.approx(0.3)
        assert data["schema"] == "bpbounds.measures/1"

    def test_bsc(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--channel", "bsc:0.1")
        data = json.loads(out)
        assert data["cb"] == pytest.approx(0.6)
        assert data["sb"] == pytest.approx(0.36)
        assert data["pe"] == pytest.approx(0.1)
        assert data["measures_consistent"]

    def test_bnsc(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--channel", "bnsc:0.0,0.2")
        data = json.loads(out)
        assert data["cb"] == pytest.approx(0.44721, abs=1e-5)

    def test_msc(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--channel", "msc:0.5,0.3,0.2")
        data = json.loads(out)
        assert data["kind"] == "msc"
        assert len(data["cb_vector"]) == 3

    def test_tiny_laplace_scale(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--channel", "bilc:1e-4")
        assert code == 0
        assert json.loads(out)["sb"] == 0.0

    @pytest.mark.parametrize("spec", ["bilc:1e-310", "bilc:5e-324"])
    def test_laplace_scale_past_one_over_lam_overflow(self, capsys, spec):
        # cb printed NaN, which is not JSON, beside measures_consistent false
        code, out, _ = run_cli(capsys, "measures", "--channel", spec)
        assert code == 0 and '"cb": 0.0' in out
        data = json.loads(out, parse_constant=pytest.fail)
        assert data["sb"] == 0.0 and data["measures_consistent"] is True

    @pytest.mark.parametrize("spec", ["rayleigh:1e-170", "biawgn:1e-170"])
    def test_sigma_squared_underflow(self, capsys, spec):
        code, out, _ = run_cli(capsys, "measures", "--channel", spec)
        assert code == 0
        data = json.loads(out)
        assert data["cb"] == 0.0 and data["sb"] == 0.0

    @pytest.mark.parametrize("spec", ["biawgn:1e7", "rayleigh:1e155", "biawgn:1e155"])
    def test_sigma_past_supported_range_is_refused(self, capsys, spec):
        # past the accepted ranges (BiAWGN's ends at 1e6, where its SB sum is
        # checked; sigma ** 2 overflows from about 1.3e154) each printed a
        # traceback
        code, out, err = run_cli(capsys, "measures", "--channel", spec)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "sigma must lie in (0, 1e+" in err

    @pytest.mark.parametrize("spec", ["msc:nan,0.5,0.5", "mix:(nan,0.1)", "bilc:nan", "bilc:inf"])
    def test_non_finite_parameter_is_refused(self, capsys, spec):
        # each printed NaN measures and exited 0
        code, out, _ = run_cli(capsys, "measures", "--channel", spec)
        assert code == 2 and out == ""

    def test_small_rayleigh_sigma_is_consistent(self, capsys):
        # SB ~ 1.386 sigma^2 must stay above CB^2 ~ 4 sigma^4
        code, out, _ = run_cli(capsys, "measures", "--channel", "rayleigh:1e-3")
        assert code == 0
        data = json.loads(out)
        assert data["measures_consistent"] is True
        assert data["sb"] == pytest.approx(1.3863e-6, rel=1e-4)

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "measures", "--channel", "bsc:zap")
        assert code == 2
        assert "position" in err


class TestThreshold:
    def test_ub_cb_bec(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--bound", "ub-cb",
                               "--family", "bec", "--tol", "5e-4")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.4294, abs=1e-3)
        assert data["bound"] == "ub-cb"

    def test_ub_cbsb_bsc(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--bound", "ub-cbsb",
                               "--family", "bsc", "--tol", "5e-4")
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.0710, abs=1e-3)

    def test_de_bsc(self, capsys):
        code, out, err = run_cli(capsys, "de", "--family", "bsc")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.0837, abs=0.005)
        assert "seed" not in data and "population_size" not in data

    def test_de_seed_and_population_change_nothing(self, capsys, tmp_path):
        # both flags stay accepted and ignored: DE is deterministic
        texts = []
        for seed, pop in (("1", "12500"), ("2", "20000")):
            path = tmp_path / f"de-{seed}.json"
            code, _, err = run_cli(capsys, "de", "--family", "bsc", "--seed", seed,
                                   "--de-pop", pop, "--out", str(path))
            assert code == 0
            assert err.count("\n") == 1 and "no effect" in err
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("command", [["threshold", "--bound", "ub-cb", "--family", "bsc"],
                                         ["region", "--grid", "3x3", "--out", "r.csv"]],
                             ids=["threshold", "region"])
    @pytest.mark.parametrize("flag", ["--seed", "--de-pop"])
    def test_seed_and_population_are_refused_outside_de(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, "1"])
        assert exc.value.code == 2

    def test_de_refuses_an_asymmetric_family(self, capsys):
        code, out, err = run_cli(capsys, "de", "--family", "zchan",
                                 "--de-pop", "1000")
        assert code == 2 and out == ""
        assert "symmetric channels only" in err

    def test_de_caps_each_run_at_max_iter(self, capsys, monkeypatch):
        import bpbounds.cli as cli_mod
        from bpbounds import DE_MAX_ITER, ThresholdResult

        caps = []

        def capture(kind, family, e, tol=None, limits=None, p_star=None):
            caps.append(limits)
            return ThresholdResult("p", 0.08, 0.09, 0.085, "de", 13)

        monkeypatch.setattr(cli_mod, "channel_threshold", capture)
        assert run_cli(capsys, "de", "--family", "bsc")[0] == 0
        assert run_cli(capsys, "de", "--family", "bsc", "--max-iter", "40")[0] == 0
        assert [c.max_iter for c in caps] == [DE_MAX_ITER, 40]

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["threshold", "--bound", "ub-cbsb", "--family", "bsc"],
        ["region", "--grid", "3x3", "--p-star", "0.0837"],
        ["zm", "--channel", "msc:0.999,0.0005,0.0005"],
        ["de", "--family", "bsc"]], ids=["threshold", "region", "zm", "de"])
    def test_nonpositive_max_iter_is_refused(self, capsys, monkeypatch, tmp_path,
                                             command, max_iter):
        import bpbounds.de as de_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a DE run started")

        monkeypatch.setattr(de_mod, "de_decodable", refuse)
        code, _, err = run_cli(capsys, *command, "--max-iter", max_iter,
                               "--out", str(tmp_path / "out"))
        assert code == 2 and "max_iter must be positive" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, caps", [
        ("threshold", "ub-cbsb recursion"), ("region", "ub-cbsb recursion"),
        ("de", "DE run"), ("zm", "Z_m vector bound")])
    def test_max_iter_help_names_what_it_caps(self, capsys, monkeypatch, command, caps):
        monkeypatch.setenv("COLUMNS", "1000")       # no wrap inside a name
        with pytest.raises(SystemExit):
            main([command, "--help"])
        [line] = [x for x in capsys.readouterr().out.splitlines() if "--max-iter MAX_ITER " in x]
        assert caps in line

    @pytest.mark.parametrize("bound", ["ub-cb", "lb-cb", "ub-sb"])
    def test_max_iter_does_not_move_the_direct_bounds(self, capsys, bound):
        # their thresholds run no recursion
        argv = ["threshold", "--bound", bound, "--family", "bsc"]
        assert run_cli(capsys, *argv, "--max-iter", "1") == run_cli(capsys, *argv)

    def test_de_is_not_a_threshold_bound(self, capsys):
        # `bpbounds de` is the one DE route; threshold's --max-iter and --tol
        # meant nothing to DE
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--bound", "de", "--family", "bsc"])
        assert exc.value.code == 2
        assert "invalid choice: 'de'" in capsys.readouterr().err

    def test_non_monotone_exit_3(self, capsys, monkeypatch):
        from bpbounds import NonMonotoneError
        import bpbounds.cli as cli_mod

        def boom(*args, **kwargs):
            raise NonMonotoneError("bec", 0.0, 1.0, False, True)

        monkeypatch.setattr(cli_mod, "channel_threshold", boom)
        code, _, err = run_cli(capsys, "threshold", "--bound", "ub-cb",
                               "--family", "bec")
        assert code == 3
        assert "threshold search failed" in err

    def test_nothing_decodable_reports_the_probed_end(self, capsys):
        # p* = 0 certifies no channel: (3,6) has lambda_2 = 0 and ub-sb-star
        # runs no recursion, so lambda_2 rho'(1) is not why, and the low end
        # was probed at 1e-9, not at the family's 0
        code, out, err = run_cli(capsys, "threshold", "--bound", "ub-sb-star",
                                 "--family", "bsc", "--p-star", "0")
        assert code == 3 and out == ""
        assert "certifies nothing" in err and "lambda_2" not in err
        assert "decodable(1e-09)=False" in err and "decodable(0.0)" not in err

    @pytest.mark.parametrize("bound", ["ub-cb", "lb-cb", "ub-sb"])
    def test_degree_10000_prints_no_numpy_warning(self, capsys, tmp_path, bound):
        # g underflows on CB*'s grid (x / g overflows to +inf), and SB*'s
        # Newton step divides by 0 in entries it leaves as they are
        path = tmp_path / "ens.json"
        path.write_text('{"lambda": [[10000, 1.0]], "rho": [[10000, 1.0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "threshold", "--bound", bound,
                                   "--family", "bsc", "--ensemble", str(path))
        assert code == 0 and err == ""

    def test_ub_cbsb_past_the_exact_budget_exit_2(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('{"lambda": [[28, 1.0]], "rho": [[56, 1.0]]}')
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "threshold", "--bound", "ub-cbsb",
                               "--family", "bsc", "--ensemble", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error: ") and "lambda degree 28" in err

    def test_nan_tol_is_refused(self, capsys):
        # a NaN tol made no bisection step and printed the bracket's midpoint
        code, out, err = run_cli(capsys, "threshold", "--bound", "ub-cb",
                                 "--family", "bsc", "--tol", "nan")
        assert code == 2 and out == "" and "tol" in err

    def test_nan_ensemble_mass_is_refused(self, capsys, tmp_path):
        # the ensemble was accepted and the search then exited 3
        path = tmp_path / "ens.json"
        path.write_text('{"lambda": [[3, NaN]], "rho": [[6, 1.0]]}')
        code, out, err = run_cli(capsys, "threshold", "--bound", "ub-cb",
                                 "--family", "bec", "--ensemble", str(path))
        assert code == 2 and out == "" and "lambda masses" in err

    @pytest.mark.parametrize("text", [
        '{"lambda": [[3.5, 1.0]], "rho": [[6, 1.0]]}',
        '{"lambda": [["3", 1.0]], "rho": [[6, 1.0]]}',
        '{"lambda": [[3, true]], "rho": [[6, 1.0]]}',
        '{"lambda": [[3, "1.0"]], "rho": [[6, 1.0]]}',
        '{"lambda": [[3, 1.0]], "rho": 5}',
        '{"lambda": [[1e400, 1.0]], "rho": [[6, 1.0]]}',
        '"lambda, rho"',
    ], ids=["degree-3.5", "degree-str", "mass-bool", "mass-str", "rho-int",
            "degree-inf", "bare-str"])
    def test_malformed_ensemble_is_refused(self, capsys, tmp_path, text):
        # 3.5 ran as degree 3, "3" and true were accepted, and the rest ended
        # in a TypeError or OverflowError traceback
        path, out_path = tmp_path / "ens.json", tmp_path / "out.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "threshold", "--bound", "ub-cb",
                                 "--family", "bsc", "--ensemble", str(path),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_custom_ensemble_file(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('{"lambda": [[3, 1.0]], "rho": [[6, 1.0]]}')
        code, out, _ = run_cli(capsys, "threshold", "--bound", "ub-cb",
                               "--family", "bec", "--tol", "1e-3",
                               "--ensemble", str(path))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.4294, abs=2e-3)


class TestRegion:
    def test_writes_csv_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "region.csv"
        code, out, _ = run_cli(capsys, "region", "--grid", "4x3",
                               "--out", str(out_path), "--p-star", "0.0837")
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "cb,sb,decodable,iterations,reason"
        sidecar = json.loads((tmp_path / "region.csv.overlays.json").read_text())
        assert sidecar["ub_cb"] == pytest.approx(0.4294, abs=1e-3)
        assert sidecar["ub_sb"] == pytest.approx(0.2635, abs=1e-3)
        assert sidecar["ub_sb_star"] == pytest.approx(0.3068, abs=1e-3)

    def test_non_regular_out_prints_overlays(self, capsys, tmp_path):
        # a CSV sent to a device gets no sidecar file beside it: the
        # overlays go to stdout, and the message says so
        out_path = tmp_path / "region.csv"
        out_path.symlink_to(os.devnull)
        code, out, _ = run_cli(capsys, "region", "--grid", "4x3",
                               "--out", str(out_path), "--p-star", "0.0837")
        assert code == 0 and list(tmp_path.iterdir()) == [out_path]
        message, overlays = out.strip().splitlines()
        assert "not a regular file" in message
        assert json.loads(overlays)["ub_sb_star"] == pytest.approx(0.3068, abs=1e-3)

    def test_deterministic_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "region", "--grid", "5x3",
                                 "--out", str(path), "--p-star", "0.0837")
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_bad_grid_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "region", "--grid", "four-by-three",
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2

    def test_grid_of_one_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, out, err = run_cli(capsys, "region", "--grid", "1x5",
                                 "--out", str(out_path), "--p-star", "0.0837")
        assert code == 2 and out == "" and "grid counts must be >= 2" in err
        assert list(tmp_path.iterdir()) == []

    def test_jobs_is_refused_exit_2(self, capsys, tmp_path):
        # the serial sweep settles most points in closed form; no pool is left
        out_path = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            main(["region", "--grid", "3x2", "--jobs", "2",
                  "--out", str(out_path), "--p-star", "0.0837"])
        assert exc.value.code == 2 and not out_path.exists()
        assert "--jobs" in capsys.readouterr().err

    def test_unwritable_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "region", "--grid", "3x2",
                               "--out", "/nonexistent-dir/r.csv",
                               "--p-star", "0.0837")
        assert code == 4

    def test_missing_out_exit_2(self, capsys, tmp_path, monkeypatch):
        # argparse refuses it, as every other parse error, and nothing is written
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["region", "--grid", "3x2", "--p-star", "0.0837"])
        assert exc.value.code == 2 and list(tmp_path.iterdir()) == []
        assert "required: --out" in capsys.readouterr().err


class TestZm:
    def test_bound_action(self, capsys):
        code, out, _ = run_cli(capsys, "zm", "--channel",
                               "msc:0.999,0.00025,0.00025,0.00025,0.00025",
                               "--action", "bound")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "decodable"

    def test_perfect_channel(self, capsys):
        code, out, _ = run_cli(capsys, "zm", "--channel", "msc:1.0,0.0,0.0")
        data = json.loads(out)
        assert data["verdict"] == "decodable"

    def test_stability_action(self, capsys):
        code, out, _ = run_cli(capsys, "zm", "--channel", "msc:0.7,0.1,0.1,0.1",
                               "--action", "stability")
        data = json.loads(out)
        assert data["sufficient"] is True        # lambda2 = 0 for (3,6)
        assert data["convergence_rate"] == 0.0

    def test_binary_spec_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "zm", "--channel", "bsc:0.1")
        assert code == 2

    def test_seed_is_refused(self, capsys):
        # zm has no randomness
        with pytest.raises(SystemExit) as exc:
            main(["zm", "--channel", "msc:0.7,0.1,0.1,0.1", "--seed", "1"])
        assert exc.value.code == 2


class TestDecompose:
    def test_bsc_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0.9, 0.1], [0.1, 0.9]]")
        code, out, _ = run_cli(capsys, "decompose", "--matrix", str(path),
                               "--transform", "1,0")
        assert code == 0
        data = json.loads(out)
        assert len(data["atoms"]) == 1
        assert data["atoms"][0]["p"] == pytest.approx([0.9, 0.1])

    def test_two_class(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        cond = [[0.63, 0.07, 0.21, 0.09], [0.07, 0.63, 0.09, 0.21]]
        path.write_text(json.dumps(cond))
        code, out, _ = run_cli(capsys, "decompose", "--matrix", str(path),
                               "--transform", "1,0,3,2")
        data = json.loads(out)
        assert len(data["atoms"]) == 2

    def test_symmetrize_z_channel(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1.0, 0.0], [0.2, 0.8]]")
        code, out, _ = run_cli(capsys, "decompose", "--matrix", str(path),
                               "--symmetrize")
        data = json.loads(out)
        assert data["cb_vector"][1] == pytest.approx(0.44721, abs=1e-5)

    def test_neither_transform_nor_symmetrize_exit_2(self, capsys, tmp_path):
        path, out_path = tmp_path / "m.json", tmp_path / "out.json"
        path.write_text("[[0.9, 0.1], [0.1, 0.9]]")
        code, out, err = run_cli(capsys, "decompose", "--matrix", str(path),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and "--transform is required" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_symmetrize_refuses_rows_that_are_not_distributions(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0.5, 0.3], [0.7, 0.5]]")
        code, out, err = run_cli(capsys, "decompose", "--matrix", str(path),
                                 "--symmetrize")
        assert code == 2 and out == ""
        assert "sum to 1" in err

    @pytest.mark.parametrize("flag", ["--symmetrize", "--transform=1,0"])
    def test_json_object_is_refused(self, capsys, tmp_path, flag):
        # np.asarray raised a TypeError traceback
        path = tmp_path / "m.json"
        path.write_text('{"a": 1}')
        code, out, err = run_cli(capsys, "decompose", "--matrix", str(path), flag)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "rows of numbers" in err

    @pytest.mark.parametrize("matrix, flag", [
        ('[["0.5", "0.5"], ["0.5", "0.5"]]', "--symmetrize"),
        ('[[true, false], [false, true]]', "--transform=1,0"),
        ('[[0.9, "0.1"], [0.1, 0.9]]', "--transform=1,0"),
        ('[[0.9, 0.1], [0.1]]', "--transform=1,0"),
    ], ids=["strings", "booleans", "one-string", "ragged"])
    def test_entries_must_be_json_numbers(self, capsys, tmp_path, matrix, flag):
        # np.asarray(..., dtype=float) parsed "0.5" and true, and both ran;
        # the rule is the ensembles' (a JSON number, not a string or a bool)
        path = tmp_path / "m.json"
        path.write_text(matrix)
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "decompose", "--matrix", str(path), flag,
                                 "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "rows of numbers" in err
        assert not out_path.exists()

    def test_asymmetric_exit_5(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0.9, 0.1], [0.2, 0.8]]")
        code, _, err = run_cli(capsys, "decompose", "--matrix", str(path),
                               "--transform", "1,0")
        assert code == 5
        assert "symmetr" in err.lower()


class TestParserReuse:
    UB_CB = ["threshold", "--bound", "ub-cb", "--family", "bsc"]

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        import argparse

        main(["measures", "--channel", "bec:0.5"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(capsys, *self.UB_CB)[0] == 0
        assert built == []

    def test_options_do_not_leak_between_calls(self, capsys, monkeypatch):
        import bpbounds.cli as cli_mod
        from bpbounds import IterationLimits, ThresholdResult

        caps = []

        def capture(kind, family, e, tol=None, limits=None, p_star=None):
            caps.append(limits.max_iter)
            return ThresholdResult("p", 0.04, 0.05, 0.045, kind, 24)

        monkeypatch.setattr(cli_mod, "channel_threshold", capture)
        assert run_cli(capsys, *self.UB_CB, "--max-iter", "3")[0] == 0
        assert run_cli(capsys, *self.UB_CB)[0] == 0
        assert caps == [3, IterationLimits().max_iter]

    def test_parse_error_leaves_the_next_call_alone(self, capsys):
        first = run_cli(capsys, *self.UB_CB)
        assert first[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(self.UB_CB + ["--tol", "zap"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *self.UB_CB) == first


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "bpbounds.cli", "measures",
                           "--channel", "bec:0.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cb"] == 0.5


SCIPY_GUARD = r"""
import io, os, sys, tempfile
from contextlib import redirect_stdout

import bpbounds.cli


def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]


def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert bpbounds.cli.main(list(argv)) == 0, argv
    return out.getvalue()


assert not scipy_modules(), ("import bpbounds.cli", scipy_modules())
# no command starts a process pool, so the CLI imports none
assert "concurrent.futures.process" not in sys.modules
for argv in (("zm", "--channel", "msc:0.999,0.0005,0.0005"),
             ("zm", "--channel", "msc:0.7,0.1,0.1,0.1", "--action", "stability"),
             ("measures", "--channel", "bsc:0.05"),
             ("threshold", "--bound", "ub-cbsb", "--family", "bsc")):
    run(*argv)
    assert not scipy_modules(), (argv, scipy_modules())
tmp = tempfile.TemporaryDirectory()         # for region's CSV and its overlays
csv = os.path.join(tmp.name, "region.csv")
# CB* and SB* by the stdlib Brent minimiser port, with no scipy.optimize,
# SB*'s sigma by Newton on the rational ub-sb step (numpy, no expit), and
# BiAWGN's SB as one numpy trapezoid sum
for argv in (("threshold", "--bound", "ub-cb", "--family", "bsc"),
             ("threshold", "--bound", "lb-cb", "--family", "bec"),
             ("threshold", "--bound", "ub-sb", "--family", "bsc"),
             ("region", "--grid", "4x4", "--p-star", "0.0837", "--out", csv),
             ("measures", "--channel", "biawgn:0.8"),
             ("threshold", "--bound", "ub-sb", "--family", "biawgn", "--tol", "2e-4"),
             ("threshold", "--bound", "ub-cbsb", "--family", "biawgn", "--tol", "2e-4"),
             ("threshold", "--bound", "ub-sb-star", "--family", "biawgn",
              "--p-star", "0.0837")):
    run(*argv)
    assert not scipy_modules(), (argv, scipy_modules())
# DE's check map is one numpy matrix and BiAWGN's density takes the stdlib's
# erfc, so DE and what runs it (p* for ub-sb-star and region) load no scipy
sys.stdout.write(run("de", "--family", "bsc"))
assert not scipy_modules(), ("de", scipy_modules())
for argv in (("de", "--family", "biawgn"),
             ("threshold", "--bound", "ub-sb-star", "--family", "bsc"),
             ("region", "--grid", "4x4", "--out", csv)):
    run(*argv)
    assert not scipy_modules(), (argv, scipy_modules())
"""


def test_scipy_is_loaded_only_by_the_commands_that_use_it():
    # a fresh interpreter: this one imported scipy with the test modules
    proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # DE's 13-step bisection of [0, 0.5] under the CB* band verdict
    assert json.loads(proc.stdout) == {
        "bound": "de", "ensemble": "regular(3,6)", "family": "bsc",
        "hi": 0.0841064453125, "iterations": 13, "lo": 0.08404541015625,
        "parameter": "p", "schema": "bpbounds.threshold/1", "source": "de",
        "value": 0.084075927734375}
