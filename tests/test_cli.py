import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from xyzscar import bogoliubov as bg
from xyzscar import cli, ed_oracle, rotframe, scars, spinwave
from xyzscar.elliptic import complete_K
from xyzscar.scars import helix_texture, parent_couplings


def run(argv, tmp_path=None):
    """Invoke the CLI in-process, routing file output to tmp_path if given."""
    argv = list(argv)
    if tmp_path is not None:
        argv += ["--out", str(tmp_path)]
    return cli.main(argv)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestArgumentParsing:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("pi/3", math.pi / 3),
            ("pi/4", math.pi / 4),
            ("2pi/5", 2 * math.pi / 5),
            ("-pi/2", -math.pi / 2),
            ("pi", math.pi),
            ("2*pi", 2 * math.pi),
            ("0.5", 0.5),
            ("1.0471975511965976", math.pi / 3),
        ],
    )
    def test_parse_angle(self, text, value):
        assert cli.parse_angle(text) == pytest.approx(value, abs=0, rel=1e-15)

    def test_parse_angle_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse angle"):
            cli.parse_angle("three")

    @pytest.mark.parametrize("text", ["pi/0", "-2pi/0.0", "0pi/0"])
    def test_parse_angle_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="divides by zero"):
            cli.parse_angle(text)

    def test_parse_int_range(self):
        assert cli.parse_int_range("7") == [7]
        assert cli.parse_int_range("7,10,20") == [7, 10, 20]
        assert cli.parse_int_range("7:10") == [7, 8, 9, 10]

    def test_parse_int_range_rejects_empty(self):
        with pytest.raises(ValueError, match="empty range"):
            cli.parse_int_range("10:7")

    def test_parse_float_grid(self):
        assert cli.parse_float_grid("0.8") == [0.8]
        assert cli.parse_float_grid("0.2,0.5") == [0.2, 0.5]
        grid = cli.parse_float_grid("0.2:0.96:20")
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.2)
        assert grid[-1] == pytest.approx(0.96)

    def test_parse_float_grid_rejects_malformed(self):
        with pytest.raises(ValueError, match="min:max:count"):
            cli.parse_float_grid("0.2:0.96")

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["scar-verify", "--kappa", "0", "--M", "1", "--L", "6"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate"])
        assert excinfo.value.code == 2

    def test_contrast_sw_dt_flag_exits_2(self, tmp_path):
        """Static coefficients take one exponential per sample step, so a
        step bound has nothing to act on and the flag does not exist."""
        with pytest.raises(SystemExit) as excinfo:
            run(["contrast-sw", "--family", "gtsh", "--kappa", "0.9", "--M", "1",
                 "--L", "12", "--dJz", "0.02", "--dt", "0.5"], tmp_path)
        assert excinfo.value.code == 2
        assert not (tmp_path / "contrast_sw.csv").exists()


class TestScarVerify:
    def test_parent_couplings_pass(self, capsys):
        code = run(
            ["scar-verify", "--kappa", "0", "--M", "1", "--L", "6",
             "--gamma", "0.7071", "--S", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "exact eigenstate residual" in out

    def test_detuned_coupling_fails(self, capsys):
        code = run(
            ["scar-verify", "--kappa", "0.9", "--M", "1", "--L", "6",
             "--gamma", "0", "--Jz", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_q_alternative_to_M(self, capsys):
        code = run(
            ["scar-verify", "--kappa", "0", "--q", "pi/3", "--L", "6",
             "--gamma", "0.7071"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("kappa, gamma", [("0", "0.7"), ("0.5", "1")])
    def test_huge_phase_offset_passes(self, capsys, kappa, gamma):
        code = run(
            ["scar-verify", "--kappa", kappa, "--M", "1", "--L", "6", "--gamma", gamma,
             "--S", "0.5", "--phi", "1e12"]
        )
        assert capsys.readouterr().out.endswith("PASS\n")
        assert code == 0

    def test_both_M_and_q_is_usage_error(self, capsys):
        code = run(
            ["scar-verify", "--kappa", "0", "--M", "1", "--q", "pi/3",
             "--L", "6", "--gamma", "0.7071"]
        )
        assert code == 2
        assert "exactly one of --M or --q" in capsys.readouterr().err

    def test_neither_M_nor_q_is_usage_error(self):
        code = run(["scar-verify", "--kappa", "0.9", "--L", "6", "--gamma", "0"])
        assert code == 2

    def test_incommensurate_q_fails_at_the_seam(self, capsys):
        """A q that does not wind the ring breaks the GZ condition at the wrap bond."""
        code = run(
            ["scar-verify", "--kappa", "0.9", "--q", "0.4", "--L", "6",
             "--gamma", "0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "exact residual skipped" in out

    def test_large_ring_skips_exact_check(self, capsys):
        code = run(
            ["scar-verify", "--kappa", "0", "--M", "1", "--L", "24",
             "--gamma", "0.7071", "--S", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "exceeds the cap" in out


class TestRates:
    def test_spec_point_prints_gamma1(self, tmp_path, capsys):
        code = run(
            ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "-0.03"],
            tmp_path,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "branch = algebraic" in out
        assert "gamma1 = 9.186e-04" in out
        rows = read_rows(tmp_path / "rates.csv")
        assert len(rows) == 1
        assert float(rows[0]["gamma1"]) == pytest.approx(9.186e-4, rel=1e-3)
        assert math.isnan(float(rows[0]["gamma2_exact"]))

    def test_unstable_side_reports_gamma2(self, tmp_path, capsys):
        code = run(
            ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
            tmp_path,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "branch = exponential" in out
        assert "gamma2_exact" in out
        rows = read_rows(tmp_path / "rates.csv")
        assert float(rows[0]["gamma2_exact"]) == pytest.approx(
            2 * 0.014779939172464398, rel=1e-6
        )

    @pytest.mark.parametrize("dJz", ["nan", "inf"])
    def test_non_finite_detuning_is_numeric_error(self, tmp_path, capsys, dJz):
        code = run(["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", dJz], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: q, theta and dJz must be finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "rates.csv").exists()

    @pytest.mark.parametrize(
        "q, theta, message",
        [
            ("pi/3", "0", "need 0 < theta < pi, got 0.0"),
            ("pi/3", "pi", f"need 0 < theta < pi, got {math.pi}"),
            ("2", "pi/4", "need 0 < q < pi/2, got 2.0"),
            ("0", "pi/4", "need 0 < q < pi/2, got 0.0"),
        ],
    )
    def test_angle_outside_the_helix_domain_is_numeric_error(self, tmp_path, capsys, q, theta, message):
        """rates takes the (q, theta) domain of transverse_dispersion, on
        the stable side as on the unstable one."""
        for dJz in ("-0.03", "0.03"):
            code = run(["rates", "--q", q, "--theta", theta, "--dJz", dJz], tmp_path)
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "rates.csv").exists()


class TestDispersion:
    def test_csv_columns_and_window(self, tmp_path):
        code = run(
            ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03",
             "--n-k", "64"],
            tmp_path,
        )
        assert code == 0
        rows = read_rows(tmp_path / "dispersion.csv")
        assert len(rows) == 64
        assert set(rows[0]) == {"k", "omega_re", "omega_im", "wtilde_re", "wtilde_im"}
        k = np.array([float(r["k"]) for r in rows])
        im = np.array([float(r["wtilde_im"]) for r in rows])
        assert np.any(np.abs(im[np.abs(k) < 0.2]) > 0)
        assert np.all(im[np.abs(k) > 0.5] == 0)

    def test_stable_side_all_real(self, tmp_path):
        run(
            ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "-0.03",
             "--n-k", "64"],
            tmp_path,
        )
        rows = read_rows(tmp_path / "dispersion.csv")
        assert all(float(r["omega_im"]) == 0 for r in rows)

    def test_empty_grid_is_numeric_error(self, tmp_path, capsys):
        code = run(
            ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03",
             "--n-k", "0"],
            tmp_path,
        )
        assert code == 1
        assert "at least one momentum" in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()


class TestContrastSw:
    def test_transverse_family(self, tmp_path):
        code = run(
            ["contrast-sw", "--family", "transverse", "--theta", "pi/4",
             "--q", "pi/3", "--dJz", "-0.03", "--L", "24", "--T", "5",
             "--n-samples", "11"],
            tmp_path,
        )
        assert code == 0
        rows = read_rows(tmp_path / "contrast_sw.csv")
        assert len(rows) == 11
        assert float(rows[0]["f"]) == 0.0
        assert float(rows[-1]["f"]) > 0.0

    def test_gtsh_family(self, tmp_path):
        code = run(
            ["contrast-sw", "--family", "gtsh", "--kappa", "0.9", "--M", "1",
             "--dJz", "0.02", "--L", "12", "--T", "2", "--n-samples", "5"],
            tmp_path,
        )
        assert code == 0
        rows = read_rows(tmp_path / "contrast_sw.csv")
        assert float(rows[-1]["f"]) > 0.0

    def test_glsh_family(self, tmp_path):
        code = run(
            ["contrast-sw", "--family", "glsh", "--kappa", "0.8", "--M", "1",
             "--dJx", "-0.02", "--L", "14", "--T", "2", "--n-samples", "5"],
            tmp_path,
        )
        assert code == 0

    def test_sidecar_reports_pseudo_unitarity_defect(self, tmp_path):
        """The defect goes under "diagnostics", outside "params", and reruns
        stay byte-identical."""
        argv = ["contrast-sw", "--family", "transverse", "--theta", "pi/4",
                "--q", "pi/3", "--dJz", "0.03", "--L", "24", "--T", "5",
                "--n-samples", "11"]
        names = ("contrast_sw.csv", "contrast_sw.json")
        assert run(argv, tmp_path) == 0
        first = [(tmp_path / name).read_bytes() for name in names]
        assert run(argv, tmp_path) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == first
        sidecar = json.loads((tmp_path / "contrast_sw.json").read_text())
        assert "pseudo_unitarity_defect" not in sidecar["params"]
        assert list(sidecar["diagnostics"]) == ["pseudo_unitarity_defect"]
        defect = sidecar["diagnostics"]["pseudo_unitarity_defect"]
        assert 0.0 <= defect <= 1e-12

    def test_overflow_is_numeric_error(self, tmp_path, capsys):
        """A run whose growth leaves double range exits 1 with one line and no CSV."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["contrast-sw", "--family", "transverse", "--theta", "pi/4",
                 "--q", "pi/3", "--L", "24", "--dJz", "0.5", "--T", "3000",
                 "--n-samples", "31"],
                tmp_path,
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spin-wave propagator overflowed")
        assert err.count("\n") == 1
        assert not (tmp_path / "contrast_sw.csv").exists()

    @pytest.mark.parametrize("T", ["nan", "inf"])
    def test_non_finite_duration_is_numeric_error(self, tmp_path, capsys, T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["contrast-sw", "--family", "transverse", "--theta", "pi/4",
                 "--q", "pi/3", "--L", "12", "--dJz", "0.03", "--T", T],
                tmp_path,
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: T must be positive and finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "contrast_sw.csv").exists()

    @pytest.mark.parametrize(
        "family_args",
        [["gtsh", "--kappa", "0.9", "--M", "2", "--L", "12", "--dJz"],
         ["glsh", "--kappa", "0.8", "--M", "1", "--L", "7", "--dJx"],
         ["transverse", "--theta", "pi/4", "--q", "pi/3", "--L", "12", "--dJz"]],
        ids=["gtsh", "glsh", "transverse"],
    )
    def test_non_finite_detuning_names_the_detuning(self, tmp_path, capsys, family_args):
        """Every family's non-finite detuning is rejected by scars.scar_quench,
        with contrast-ed's message."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["contrast-sw", "--family", *family_args, "nan", "--T", "2"], tmp_path)
        assert code == 1
        assert capsys.readouterr().err == "error: detuning delta must be finite, got nan\n"
        assert not (tmp_path / "contrast_sw.csv").exists()

    def test_transverse_without_q_is_usage_error(self, tmp_path, capsys):
        code = run(
            ["contrast-sw", "--family", "transverse", "--theta", "pi/4",
             "--L", "24"],
            tmp_path,
        )
        assert code == 2
        assert "needs --theta and --q" in capsys.readouterr().err

    def test_gtsh_without_kappa_is_usage_error(self, tmp_path):
        code = run(["contrast-sw", "--family", "gtsh", "--L", "12"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize(
        "family_args, flag, value",
        [
            (["--family", "glsh", "--kappa", "0.8", "--M", "2", "--L", "14"], "--dJz", "0.05"),
            (["--family", "gtsh", "--kappa", "0.9", "--M", "1", "--L", "12"], "--dJx", "0.05"),
            (["--family", "transverse", "--theta", "pi/4", "--q", "pi/3", "--L", "12"], "--dJx",
             "0.05"),
            (["--family", "transverse", "--theta", "pi/4", "--q", "pi/3", "--L", "12"], "--kappa",
             "nan"),
            (["--family", "transverse", "--theta", "pi/4", "--q", "pi/3", "--L", "12"], "--M", "3"),
            (["--family", "gtsh", "--kappa", "0.9", "--M", "1", "--L", "12"], "--theta", "pi/4"),
            (["--family", "glsh", "--kappa", "0.8", "--M", "2", "--L", "14"], "--q", "0.5"),
        ],
        ids=["glsh_dJz", "gtsh_dJx", "transverse_dJx", "transverse_kappa", "transverse_M",
             "gtsh_theta", "glsh_q"],
    )
    def test_foreign_detuning_is_usage_error(self, tmp_path, capsys, family_args, flag, value):
        """A detuning or geometry flag the family does not read must not be
        dropped silently: exit 2 with one line that names it."""
        code = run(
            ["contrast-sw", *family_args, flag, value, "--T", "1", "--n-samples", "3"],
            tmp_path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert f"takes no {flag}" in err
        assert not (tmp_path / "contrast_sw.csv").exists()

    @pytest.mark.parametrize(
        "family, detuning", [("gtsh", "--dJz"), ("glsh", "--dJx")], ids=["gtsh", "glsh"]
    )
    def test_kappa_zero_is_not_the_named_family(self, tmp_path, capsys, family, detuning):
        """At kappa = 0 scars.scar_family names the transverse helix, whose
        quench detunes Jz: an elliptic --family there exits 2, not 1 on its
        frame (glsh) nor 0 under the wrong family's sidecar (gtsh)."""
        code = run(
            ["contrast-sw", "--family", family, "--kappa", "0", "--M", "1", "--L", "12",
             detuning, "0.05", "--T", "1", "--n-samples", "3"],
            tmp_path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --kappa 0.0 makes a transverse scar, not {family}\n"
        assert not (tmp_path / "contrast_sw.csv").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--q", "2pi/3"], "outside the principal branch"),
            (["--theta", "3pi/4"], "gamma must lie in [0, 1]"),
            (["--S", "0.7"], "2S must be a positive integer"),
        ],
        ids=["q_past_pi_2", "theta_past_pi_2", "S_not_half_integer"],
    )
    def test_outside_scar_domain_is_numeric_error(self, tmp_path, capsys, extra, message):
        """contrast-sw takes ScarParams' domain, as every scar subcommand does;
        each case maps onto one inside it (see CHANGES.md)."""
        argv = _with_flag(
            ["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
             "--L", "12", "--dJz", "0.02", "--T", "1", "--n-samples", "3"], *extra
        )
        assert run(argv, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "contrast_sw.csv").exists()

    def test_incommensurate_q_is_numeric_error(self, tmp_path, capsys):
        """q = pi/3 winds the L = 5 ring 5/6 times, so the helix is no
        eigenstate of the ring (D(10) read 0.457 at zero detuning). The one
        line is contrast_exact's message for the same scar."""
        argv = ["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
                "--L", "5", "--dJz", "0", "--T", "10"]
        assert run(argv, tmp_path) == 1
        with pytest.raises(ValueError) as exact:
            ed_oracle.contrast_exact(
                scars.ScarParams(kappa=0.0, q=math.pi / 3, gamma=math.cos(math.pi / 4), L=5), 0.0
            )
        assert capsys.readouterr().err == f"error: {exact.value}\n"
        assert str(exact.value).startswith(f"q = {math.pi / 3} is not commensurate with L = 5: ")
        assert not (tmp_path / "contrast_sw.csv").exists()

    @pytest.mark.parametrize("family", ["transverse", "gtsh", "glsh"])
    def test_csv_is_the_reference_frame_series(self, tmp_path, family):
        """One path for every family: the CSV equals, byte for byte, what
        scars.write_csv writes of the series from the family's own frame,
        built as frame_transverse and the deleted gtsh/glsh frames built it,
        with C the spin contrast where theta is known and NaN elsewhere."""
        S, T, n_samples, theta = 1.0, 4.0, 21, None
        if family == "transverse":
            theta, q, L, dJz = math.pi / 4, math.pi / 3, 24, -0.03
            argv = ["--theta", "pi/4", "--q", "pi/3", "--L", "24", "--dJz", "-0.03"]
            omega = -2.0 * S * math.cos(theta) * dJz
            frame = rotframe.frame_transverse(theta, q, omega, L, dJz=dJz)
        else:
            kappa, M, L, gamma = (0.9, 1, 12, 0.0) if family == "gtsh" else (0.8, 2, 14, 1.0)
            flag, delta = ("--dJz", 0.02) if family == "gtsh" else ("--dJx", -0.02)
            argv = ["--kappa", str(kappa), "--M", str(M), "--L", str(L), flag, str(delta)]
            q = 4.0 * M * complete_K(kappa) / L
            parent = parent_couplings(kappa, q)
            J = parent.detuned(dJz=delta) if family == "gtsh" else parent.detuned(dJx=delta)
            axis = (0.0, 0.0, -1.0) if family == "gtsh" else (1.0, 0.0, 0.0)
            texture = helix_texture(kappa, gamma, q * np.arange(L))
            frame = rotframe._axis_frame(texture, J.as_matrix(), axis)
        argv = ["contrast-sw", "--family", family, *argv, "--T", str(T), "--n-samples",
                str(n_samples)]
        assert run(argv, tmp_path / "cli") == 0
        series = spinwave.contrast_sw(spinwave.sw_coefficients(frame, S), S, T=T, n_samples=n_samples)
        if theta is not None:
            C = spinwave.spin_contrast(series.D, theta)
        else:
            C = np.full_like(series.D, np.nan)
        scars.write_csv(tmp_path / "reference.csv", ["t", "D", "C", "f"],
                        [series.times, series.D, C, series.f])
        got = (tmp_path / "cli" / "contrast_sw.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        sidecar = json.loads((tmp_path / "cli" / "contrast_sw.json").read_text())
        assert sidecar["diagnostics"] == {"pseudo_unitarity_defect": series.pseudo_unitarity_defect}

    @pytest.mark.parametrize("dJz", ["0.03", "-0.03"])
    def test_pseudo_unitarity_message_names_the_growth(self, tmp_path, capsys, dJz):
        """At S = 1000 the unstable side's propagator outgrows double
        precision within T = 1: the defect is rounding of ||E||_F^2, so the
        one-line error advises a shorter T, not a smaller step. The stable
        side passes."""
        code = run(
            ["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
             "--L", "48", "--S", "1000", "--dJz", dJz, "--T", "1", "--n-samples", "11"],
            tmp_path,
        )
        err = capsys.readouterr().err
        if dJz == "-0.03":
            assert code == 0 and err == ""
            return
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: propagator lost pseudo-unitarity (err ")
        assert "||E||_F 1.10e+06, err/||E||_F^2 " in err
        assert err.endswith("; the growth exceeds double precision, so shorten T\n")
        assert not (tmp_path / "contrast_sw.csv").exists()


class TestContrastEd:
    def test_transverse_ring(self, tmp_path):
        code = run(
            ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6",
             "--S", "0.5", "--theta", "pi/4", "--delta", "0.03",
             "--T", "2", "--n-samples", "5"],
            tmp_path,
        )
        assert code == 0
        rows = read_rows(tmp_path / "contrast_ed.csv")
        assert len(rows) == 5
        assert float(rows[0]["f"]) == pytest.approx(0.0, abs=1e-12)

    def test_sidecar_reports_norm_drift(self, tmp_path):
        """The evolved states' norm drift and H's Hermiticity defect go under
        "diagnostics", outside "params", and reruns stay byte-identical in
        CSV and sidecar."""
        argv = ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "8",
                "--S", "0.5", "--theta", "pi/4", "--delta", "-0.03",
                "--T", "4", "--n-samples", "9"]
        names = ("contrast_ed.csv", "contrast_ed.json")
        assert run(argv, tmp_path) == 0
        first = [(tmp_path / name).read_bytes() for name in names]
        assert run(argv, tmp_path) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == first
        sidecar = json.loads((tmp_path / "contrast_ed.json").read_text())
        assert "max_norm_drift" not in sidecar["params"]
        assert list(sidecar["diagnostics"]) == ["hermiticity_defect", "max_norm_drift"]
        assert 0.0 <= sidecar["diagnostics"]["max_norm_drift"] <= 1e-10
        assert 0.0 <= sidecar["diagnostics"]["hermiticity_defect"] <= 1e-15

    def test_sidecar_reports_hermiticity_defect(self, tmp_path, monkeypatch):
        """An H with a Hermiticity defect of 1e-12 reports exactly that in the
        sidecar; the ring's own H reports 0."""
        argv = ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6",
                "--S", "0.5", "--theta", "pi/4", "--delta", "0.03",
                "--T", "2", "--n-samples", "5"]
        assert run(argv, tmp_path / "hermitian") == 0
        build = ed_oracle.build_hamiltonian

        def skewed(*args):
            H = build(*args).astype(complex).tolil()
            # H - H^H = 2i Im H_00 on the diagonal: a defect of exactly 1e-12
            H[0, 0] += 0.5e-12j
            return H.tocsr()

        monkeypatch.setattr(ed_oracle, "build_hamiltonian", skewed)
        assert run(argv, tmp_path / "skewed") == 0
        sidecar = json.loads((tmp_path / "skewed" / "contrast_ed.json").read_text())
        assert sidecar["diagnostics"]["hermiticity_defect"] == 1e-12
        clean = json.loads((tmp_path / "hermitian" / "contrast_ed.json").read_text())
        assert clean["diagnostics"]["hermiticity_defect"] == 0.0

    def test_gamma_and_theta_together_is_usage_error(self, tmp_path, capsys):
        code = run(
            ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6",
             "--S", "0.5", "--gamma", "0.7071", "--theta", "pi/4",
             "--delta", "0.03"],
            tmp_path,
        )
        assert code == 2
        assert "exactly one of --gamma or --theta" in capsys.readouterr().err

    def test_non_finite_delta_is_numeric_error(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6",
                 "--S", "0.5", "--theta", "pi/4", "--delta", "nan"],
                tmp_path,
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: detuning delta must be finite")
        assert err.count("\n") == 1

    def test_overflowing_precession_rate_is_numeric_error(self, tmp_path, capsys):
        """A finite delta whose rate -2 S gamma delta overflows exits 1 naming
        the rate, not the overflow it would cause in H."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "5",
                 "--theta", "pi/4", "--S", "1.5", "--delta", "1e308"],
                tmp_path,
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: precession rate -2 S gamma delta overflows at S = 1.5, ")
        assert err.count("\n") == 1
        assert not (tmp_path / "contrast_ed.csv").exists()

    def test_family_flag_exits_2(self, tmp_path):
        """The family follows from --kappa and --gamma/--theta; there is no
        --family flag to disagree with them."""
        with pytest.raises(SystemExit) as excinfo:
            run(
                ["contrast-ed", "--kappa", "0.5", "--M", "1", "--L", "6",
                 "--S", "0.5", "--gamma", "1", "--family", "transverse",
                 "--delta", "0", "--T", "1", "--n-samples", "3"],
                tmp_path,
            )
        assert excinfo.value.code == 2
        assert not (tmp_path / "contrast_ed.csv").exists()

    @pytest.mark.parametrize("S", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["contrast-ed", "scar-verify"])
    def test_non_finite_spin_is_numeric_error(self, tmp_path, capsys, command, S):
        """A spin length that is no half-integer exits 1 with one line."""
        args = ["--kappa", "0", "--M", "1", "--L", "6", "--S", S]
        if command == "contrast-ed":
            code = run([command, *args, "--theta", "pi/4", "--delta", "0.03"], tmp_path)
        else:
            code = run([command, *args, "--gamma", "0.7071"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: 2S must be a positive integer, got S = {S}\n"
        assert not (tmp_path / "contrast_ed.csv").exists()

    @pytest.mark.parametrize("T", ["inf", "nan"])
    def test_non_finite_duration_is_numeric_error(self, tmp_path, capsys, T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6",
                 "--S", "0.5", "--theta", "pi/4", "--delta", "0.03", "--T", T],
                tmp_path,
            )
        assert code == 1
        assert capsys.readouterr().err == f"error: T must be positive and finite, got {T}\n"
        assert not (tmp_path / "contrast_ed.csv").exists()

    def test_dimension_cap_is_numeric_error(self, tmp_path, capsys):
        code = run(
            ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "13",
             "--S", "0.5", "--theta", "pi/4", "--delta", "0.03"],
            tmp_path,
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err


class TestLlEvolve:
    def test_writes_trajectory_and_energy(self, tmp_path):
        code = run(
            ["ll-evolve", "--kappa", "0.5", "--M", "1", "--L", "8",
             "--gamma", "0", "--dJx", "-0.02", "--T", "1",
             "--max-samples", "5"],
            tmp_path,
        )
        assert code == 0
        traj = read_rows(tmp_path / "ll_trajectory.csv")
        energy = read_rows(tmp_path / "ll_energy.csv")
        assert len(energy) <= 5 + 1
        assert len(traj) == len(energy) * 8
        norms = [
            float(r["Ox"]) ** 2 + float(r["Oy"]) ** 2 + float(r["Oz"]) ** 2
            for r in traj
        ]
        assert max(abs(n - 1) for n in norms) < 1e-12
        drift = [float(r["energy"]) for r in energy]
        assert max(drift) - min(drift) < 1e-10

    def test_sidecar_reports_norm_drift(self, tmp_path):
        """Drifts and the step taken go under "diagnostics", outside "params"; reruns are byte-identical."""
        argv = ["ll-evolve", "--kappa", "0.5", "--M", "1", "--L", "8",
                "--gamma", "0.3", "--dJz", "0.05", "--T", "2", "--max-samples", "5"]
        names = ("ll_trajectory.csv", "ll_energy.csv", "ll_trajectory.json")
        assert run(argv, tmp_path) == 0
        first = [(tmp_path / name).read_bytes() for name in names]
        assert run(argv, tmp_path) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == first
        sidecar = json.loads((tmp_path / "ll_trajectory.json").read_text())
        diagnostics = sidecar["diagnostics"]
        assert not {"max_norm_drift", "max_energy_drift"} & sidecar["params"].keys()
        assert sidecar["params"]["dt"] is None
        assert 0.0 < diagnostics["max_norm_drift"] <= 1e-6
        assert 0.0 < diagnostics["max_energy_drift"] <= 1e-8
        # the default bound 5e-3/S at S = 1 over T = 2 is met exactly: 400 steps
        assert diagnostics["dt"] == 2.0 / 400
        energy = np.loadtxt(tmp_path / "ll_energy.csv", delimiter=",", skiprows=1)[:, 1]
        assert diagnostics["max_energy_drift"] == pytest.approx(
            np.abs(energy - energy[0]).max() / abs(energy[0]), rel=1e-9
        )

    def test_norm_drift_is_numeric_error(self, tmp_path, capsys):
        code = run(
            ["ll-evolve", "--kappa", "0", "--M", "1", "--L", "8",
             "--gamma", "0.7", "--dJz", "0.5", "--dJx", "0.3", "--T", "50",
             "--dt", "0.8"],
            tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: norm drift")
        assert err.count("\n") == 1

    def test_step_count_overflow_is_numeric_error(self, tmp_path, capsys):
        code = run(
            ["ll-evolve", "--kappa", "0.9", "--M", "1", "--L", "6",
             "--gamma", "0", "--T", "1e308", "--dt", "1e-10"],
            tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: T / dt = 1e+308 / 1e-10")
        assert err.count("\n") == 1

    def test_step_budget_is_numeric_error(self, tmp_path, capsys):
        """A finite but absurd T exits 1 at once instead of running for ever."""
        code = run(
            ["ll-evolve", "--kappa", "0.9", "--M", "1", "--L", "6",
             "--gamma", "0", "--T", "1e12"],
            tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: T = 1e+12 at dt = 0.005 takes 2e+14 RK4 steps")
        assert err.count("\n") == 1
        assert not (tmp_path / "ll_trajectory.csv").exists()

    def test_zero_max_samples_is_numeric_error(self, tmp_path, capsys):
        code = run(
            ["ll-evolve", "--kappa", "0", "--M", "1", "--L", "8",
             "--gamma", "0.7", "--dJz", "0.1", "--T", "1", "--max-samples", "0"],
            tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_samples")
        assert err.count("\n") == 1


class TestPhaseScan:
    def test_single_cell_benchmark_point(self, tmp_path, capsys):
        code = run(
            ["phase-scan", "--family", "glsh", "--kappa", "0.8",
             "--lambda", "7", "--dJ", "0.01", "--n-k", "100"],
            tmp_path,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "U-S: 1" in out
        rows = read_rows(tmp_path / "phase_scan.csv")
        assert len(rows) == 1
        assert rows[0]["class"] == "U-S"
        assert float(rows[0]["lyap_minus"]) > 1e-3
        assert float(rows[0]["lyap_plus"]) <= 1e-6

    @pytest.mark.parametrize(
        "extra",
        [["--lambda", "3"], ["--lambda", "7", "--S", "-1"], ["--lambda", "7,3,8"]],
    )
    def test_off_scar_domain_is_numeric_error(self, tmp_path, capsys, extra):
        """lambda <= 4 puts q at or past K(kappa); S <= 0 flips the onsite sign.
        The error reaches the user the same way from a scan thread, also when
        the bad cell sits between good ones."""
        code = run(["phase-scan", "--kappa", "0.8", "--n-k", "100", *extra], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_lambda_range_tabulates_every_cell(self, tmp_path):
        run(
            ["phase-scan", "--family", "glsh", "--kappa", "0.8",
             "--lambda", "7:9", "--dJ", "0.01", "--n-k", "100"],
            tmp_path,
        )
        rows = read_rows(tmp_path / "phase_scan.csv")
        assert [int(r["lambda"]) for r in rows] == [7, 8, 9]

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        """One CPU (as under `taskset -c 0`) and two give the same CSV."""
        base = ["phase-scan", "--family", "glsh", "--kappa", "0.7,0.8",
                "--lambda", "7", "--dJ", "0.01", "--n-k", "100"]
        outputs = []
        for n in (1, 2):
            monkeypatch.setattr("os.sched_getaffinity", lambda pid, n=n: set(range(n)))
            run(base, tmp_path / str(n))
            outputs.append((tmp_path / str(n) / "phase_scan.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_sidecar_records_no_thread_count(self, tmp_path):
        """The params record holds only what fixes the numbers, so reruns
        stay byte-identical in CSV and sidecar."""
        argv = ["phase-scan", "--family", "glsh", "--kappa", "0.8",
                "--lambda", "7", "--n-k", "100"]
        names = ("phase_scan.csv", "phase_scan.json")
        assert run(argv, tmp_path) == 0
        first = [(tmp_path / name).read_bytes() for name in names]
        assert run(argv, tmp_path) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == first
        sidecar = json.loads((tmp_path / "phase_scan.json").read_text())
        assert "workers" not in sidecar["params"]

    @pytest.mark.parametrize("S", [1.0, 0.5])
    def test_sidecar_reports_threshold_margins(self, tmp_path, monkeypatch, S):
        """A rate just above STABILITY_THRESHOLD * S reads as U with a margin
        just over 1; the S rates' largest margin is reported beside it, and
        reruns stay byte-identical in CSV and sidecar."""
        thr = bg.STABILITY_THRESHOLD * S
        rates = {-0.01: 1.25 * thr, 0.01: 0.5 * thr}
        monkeypatch.setattr(bg, "lyapunov_max", lambda fam, k, q, d, S, n_k: rates[d])
        argv = ["phase-scan", "--family", "glsh", "--kappa", "0.7,0.8", "--lambda", "7",
                "--dJ", "0.01", "--n-k", "100", "--S", str(S)]
        names = ("phase_scan.csv", "phase_scan.json")
        assert run(argv, tmp_path) == 0
        first = [(tmp_path / name).read_bytes() for name in names]
        assert run(argv, tmp_path) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == first
        assert [r["class"] for r in read_rows(tmp_path / "phase_scan.csv")] == ["U-S"] * 2
        sidecar = json.loads((tmp_path / "phase_scan.json").read_text())
        assert sidecar["diagnostics"] == {
            "min_unstable_rate_over_threshold": pytest.approx(1.25, rel=1e-15),
            "max_stable_rate_over_threshold": pytest.approx(0.5, rel=1e-15),
        }

    def test_sidecar_margin_without_unstable_rates_is_null(self, tmp_path, monkeypatch):
        """With no U rate, its margin is null; the S rates' margin is still given."""
        monkeypatch.setattr(bg, "lyapunov_max", lambda *task: 0.0)
        argv = ["phase-scan", "--family", "glsh", "--kappa", "0.8", "--lambda", "7",
                "--n-k", "100"]
        assert run(argv, tmp_path) == 0
        sidecar = json.loads((tmp_path / "phase_scan.json").read_text())
        assert sidecar["diagnostics"] == {
            "min_unstable_rate_over_threshold": None,
            "max_stable_rate_over_threshold": 0.0,
        }

    def test_workers_flag_exits_2(self, tmp_path):
        """The thread count follows the CPUs the process may run on
        (`taskset` narrows it); there is no flag for it."""
        with pytest.raises(SystemExit) as excinfo:
            run(["phase-scan", "--kappa", "0.8", "--lambda", "7", "--n-k", "100",
                 "--workers", "2"], tmp_path)
        assert excinfo.value.code == 2
        assert not (tmp_path / "phase_scan.csv").exists()

    def test_workers_env_var_is_ignored(self, tmp_path, monkeypatch):
        """XYZSCAR_WORKERS, even unparsable, changes neither exit code nor bytes."""
        argv = ["phase-scan", "--family", "glsh", "--kappa", "0.8",
                "--lambda", "7", "--n-k", "100"]
        names = ("phase_scan.csv", "phase_scan.json")
        monkeypatch.delenv("XYZSCAR_WORKERS", raising=False)
        assert run(argv, tmp_path) == 0
        unset = [(tmp_path / name).read_bytes() for name in names]
        monkeypatch.setenv("XYZSCAR_WORKERS", "abc")
        assert run(argv, tmp_path) == 0
        assert [(tmp_path / name).read_bytes() for name in names] == unset


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "module, route, argv",
        [
            (bg, "transverse_dispersion",
             ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"]),
            (spinwave, "contrast_sw",
             ["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
              "--L", "6", "--dJz", "0.03", "--T", "1", "--n-samples", "3"]),
        ],
        ids=["dispersion", "contrast-sw"],
    )
    @pytest.mark.parametrize(
        "message, line",
        [("", "error: out of memory\n"),
         ("Unable to allocate 4.8 GiB", "error: Unable to allocate 4.8 GiB\n")],
        ids=["bare", "numpy"],
    )
    def test_memory_error_exits_with_one_line(
        self, tmp_path, capsys, monkeypatch, module, route, argv, message, line
    ):
        """A route that runs out of memory exits 1 with one error line, never
        empty, and writes no file."""

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(module, route, exhausted)
        assert run(argv, tmp_path) == 1
        assert capsys.readouterr().err == line
        assert list(tmp_path.iterdir()) == []


class TestArtifacts:
    def test_identical_configs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        argv = ["dispersion", "--q", "pi/3", "--theta", "pi/4",
                "--dJz", "0.03", "--n-k", "32"]
        run(argv, first)
        run(argv, second)
        assert (first / "dispersion.csv").read_bytes() == (second / "dispersion.csv").read_bytes()

    def test_sidecar_reproduces_the_run(self, tmp_path):
        """The JSON sidecar alone must be enough to regenerate the CSV."""
        first = tmp_path / "a"
        replay_dir = tmp_path / "b"
        run(
            ["contrast-sw", "--family", "transverse", "--theta", "pi/4",
             "--q", "pi/3", "--dJz", "-0.03", "--L", "12", "--T", "3",
             "--n-samples", "7"],
            first,
        )
        params = json.loads((first / "contrast_sw.json").read_text())["params"]
        argv = ["contrast-sw"]
        for key, value in params.items():
            if key in ("command", "out") or value is None:
                continue
            argv += [f"--{key.replace('_', '-')}", repr(value) if isinstance(value, float) else str(value)]
        run(argv, replay_dir)
        original = (first / "contrast_sw.csv").read_bytes()
        replayed = (replay_dir / "contrast_sw.csv").read_bytes()
        assert original == replayed

    def test_one_csv_format_lf_and_repr_floats(self, tmp_path):
        """Every writer emits LF line ends and shortest-repr floats."""
        run(
            ["contrast-sw", "--family", "transverse", "--theta", "pi/4",
             "--q", "pi/3", "--dJz", "-0.03", "--L", "12", "--T", "3",
             "--n-samples", "7"],
            tmp_path,
        )
        run(
            ["ll-evolve", "--kappa", "0.5", "--M", "1", "--L", "8",
             "--gamma", "0", "--dJx", "-0.02", "--T", "1", "--max-samples", "5"],
            tmp_path,
        )
        run(
            ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03",
             "--n-k", "16"],
            tmp_path,
        )
        for name in ("contrast_sw.csv", "ll_trajectory.csv", "ll_energy.csv", "dispersion.csv"):
            text = (tmp_path / name).read_bytes().decode()
            assert "\r" not in text, name
            floats = [
                field
                for line in text.splitlines()[1:]
                for field in line.split(",")
                if not field.lstrip("-").isdigit()
            ]
            assert floats, name
            assert all(field == repr(float(field)) for field in floats), name

    @pytest.mark.parametrize(
        "argv",
        [
            ["ll-evolve", "--kappa", "0.8", "--M", "1", "--L", "8", "--gamma", "1",
             "--dJx", "0.05", "--T", "1"],
            ["phase-scan", "--kappa", "0.8", "--lambda", "7", "--n-k", "100"],
            ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
            ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "-0.03"],
            ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03", "--n-k", "64"],
            ["contrast-sw", "--family", "glsh", "--kappa", "0.8", "--M", "1", "--L", "14",
             "--dJx", "0.02", "--T", "2", "--n-samples", "9"],
            ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6", "--S", "0.5",
             "--theta", "pi/4", "--delta", "0.03", "--T", "2", "--n-samples", "5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csvs_match_row_wise_writer(self, tmp_path, monkeypatch, csv_oracle, argv):
        """Every CSV a subcommand leaves in --out is written through cli's
        one write_csv call, and equals, byte for byte, what the row-wise
        writer makes of the same columns."""
        tables = []

        def recording_write_csv(path, header, columns):
            tables.append((path, header, columns))
            scars.write_csv(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", recording_write_csv)
        assert run(argv, tmp_path) == 0
        assert sorted(Path(path) for path, _, _ in tables) == sorted(tmp_path.glob("*.csv"))
        for n, (path, header, columns) in enumerate(tables):
            csv_oracle(tmp_path / f"oracle_{n}.csv", header, columns)
            assert (tmp_path / f"oracle_{n}.csv").read_bytes() == Path(path).read_bytes()

    def test_every_writer_leaves_a_sidecar(self, tmp_path):
        run(
            ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03",
             "--n-k", "8"],
            tmp_path,
        )
        sidecar = json.loads((tmp_path / "dispersion.json").read_text())
        assert sidecar["kind"] == "dispersion"
        assert sidecar["params"]["n_k"] == 8
        assert sidecar["params"]["q"] == pytest.approx(math.pi / 3)


# a small valid run of each subcommand, and the float flags that it reads
NON_FINITE_CASES = [
    (["scar-verify", "--kappa", "0", "--M", "1", "--L", "6", "--gamma", "0.7", "--S", "0.5"],
     ["--kappa", "--gamma", "--S", "--phi", "--Jx", "--Jy", "--Jz"]),
    (["scar-verify", "--kappa", "0", "--q", "pi/3", "--L", "6", "--gamma", "0.7", "--S", "0.5"],
     ["--q"]),
    (["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03", "--n-k", "16"],
     ["--q", "--theta", "--dJz", "--S"]),
    (["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3", "--L", "12",
      "--dJz", "0.02", "--T", "1", "--n-samples", "5"],
     ["--theta", "--q", "--dJz", "--dJx", "--S", "--T"]),
    (["contrast-sw", "--family", "glsh", "--kappa", "0.5", "--M", "1", "--L", "12",
      "--dJx", "-0.02", "--T", "1", "--n-samples", "5"],
     ["--kappa", "--dJx", "--dJz", "--S", "--T"]),
    (["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6", "--S", "0.5", "--theta", "pi/4",
      "--delta", "0.03", "--T", "0.5", "--n-samples", "3"],
     ["--kappa", "--S", "--phi", "--theta", "--delta", "--T"]),
    (["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6", "--S", "0.5", "--gamma", "0.7",
      "--delta", "0.03", "--T", "0.5", "--n-samples", "3"],
     ["--gamma"]),
    (["ll-evolve", "--kappa", "0", "--M", "1", "--L", "6", "--gamma", "0.7", "--dJz", "0.02",
      "--T", "0.5", "--max-samples", "5"],
     ["--kappa", "--gamma", "--S", "--phi", "--dJx", "--dJz", "--T", "--dt"]),
    (["phase-scan", "--family", "glsh", "--lambda", "7", "--kappa", "0.8", "--n-k", "16"],
     ["--kappa", "--dJ", "--S"]),
    (["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
     ["--q", "--theta", "--dJz", "--S"]),
]


def _with_flag(base, flag, value):
    argv = list(base)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


def _run_case(argv, tmp_path):
    """scar-verify writes no files and takes no --out."""
    return run(argv, None if argv[0] == "scar-verify" else tmp_path)


class TestNonFiniteFlags:
    def test_every_base_run_succeeds(self, tmp_path):
        for base, _ in NON_FINITE_CASES:
            assert _run_case(base, tmp_path) == 0, base

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "base, flag",
        [(base, flag) for base, flags in NON_FINITE_CASES for flag in flags],
        ids=[f"{base[0]}{flag}" for base, flags in NON_FINITE_CASES for flag in flags],
    )
    def test_non_finite_value_exits_with_one_line(self, tmp_path, capsys, base, flag, value):
        """Exit 1 or 2 with a single error line: no traceback, and no numpy
        warning (the suite turns RuntimeWarning into an error)."""
        code = _run_case(_with_flag(base, flag, value), tmp_path)
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.count("\n") == 1, err
        assert err.startswith(("error:", "usage error:")), err


class TestHugeFiniteFlags:
    @pytest.mark.parametrize(
        "base, flag",
        [(base, flag) for base, flags in NON_FINITE_CASES for flag in flags],
        ids=[f"{base[0]}{flag}" for base, flags in NON_FINITE_CASES for flag in flags],
    )
    def test_huge_value_exits_cleanly(self, tmp_path, capsys, base, flag):
        """1e308 given to any float flag runs or exits 1 or 2 with at most
        one error line: an overflow, invalid operation or division by zero
        it causes is a numeric failure, not a numpy warning (which the suite
        turns into an error) ahead of a NaN result or another error."""
        code = _run_case(_with_flag(base, flag, "1e308"), tmp_path)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Warning" not in err
        assert err.count("\n") <= 1, err
        assert err == "" or err.startswith(("error:", "usage error:")), err


# for each NON_FINITE_CASES base, in its order: a label, and the integer and
# angle flags that it reads (--L once through --M, once through --q)
BAD_VALUE_FLAGS = [
    ("scar-verify-M", ["--L", "--M"], ["--phi"]),
    ("scar-verify-q", ["--L"], ["--q"]),
    ("dispersion", ["--n-k"], ["--q", "--theta"]),
    ("contrast-sw-transverse", ["--L", "--n-samples"], ["--theta", "--q"]),
    ("contrast-sw-glsh", ["--M", "--L", "--n-samples"], []),
    ("contrast-ed", ["--M", "--L", "--n-samples"], ["--phi", "--theta"]),
    ("contrast-ed-gamma", [], []),
    ("ll-evolve", ["--M", "--L", "--max-samples"], ["--phi"]),
    ("phase-scan", ["--lambda", "--n-k"], []),
    ("rates", [], ["--q", "--theta"]),
]
BAD_VALUE_CASES = [
    pytest.param(base, flag, value, id=f"{label}{flag}={value}")
    for (base, _), (label, integers, angles) in zip(NON_FINITE_CASES, BAD_VALUE_FLAGS, strict=True)
    for flag, values in [(f, ("0", "-1")) for f in integers] + [(f, ("pi/0",)) for f in angles]
    for value in values
]

# the NON_FINITE_CASES bases of the subcommands that build a ScarParams
SCAR_BASES = [
    pytest.param(base, id=label)
    for (base, _), (label, _, _) in zip(NON_FINITE_CASES, BAD_VALUE_FLAGS, strict=True)
    if base[0] in ("scar-verify", "contrast-sw", "contrast-ed", "ll-evolve")
]


class TestBadIntegerAndAngleFlags:
    @pytest.mark.parametrize("base, flag, value", BAD_VALUE_CASES)
    def test_exits_without_traceback(self, tmp_path, capsys, base, flag, value):
        """0 and -1 for every integer flag and a zero denominator for every
        angle flag exit 1 or 2 with one error line and no traceback. argparse
        rejects some itself (exit 2 after its usage lines); the rest reach
        main's handlers, which print that one line alone."""
        try:
            code = _run_case(_with_flag(base, flag, value), tmp_path)
            by_argparse = False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        if not by_argparse:
            assert err.count("\n") == 1, err
            assert err.startswith(("error:", "usage error:")), err


    @pytest.mark.parametrize("base", SCAR_BASES)
    def test_spin_that_rounds_to_zero_exits_with_one_line(self, tmp_path, capsys, base):
        """2S = 2e-300 passes the half-integer test at round(2S) = 0; every
        scar subcommand exits 1 naming the S given."""
        assert _run_case(_with_flag(base, "--S", "1e-300"), tmp_path) == 1
        assert capsys.readouterr().err == "error: 2S must be a positive integer, got S = 1e-300\n"


def _fresh_imports(args):
    """Run `python -X importtime *args` in a fresh interpreter that finds
    this package; return the names of every module it imported."""
    import os
    import subprocess
    import sys

    import xyzscar

    env = dict(os.environ)
    package_root = str(Path(xyzscar.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]


def _imported_modules(argv, tmp_path):
    """Run the CLI in a fresh interpreter, writing to tmp_path (scar-verify
    writes nothing); return the names of every module it imported."""
    out_flag = [] if argv[0] == "scar-verify" else ["--out", str(tmp_path)]
    return _fresh_imports(["-m", "xyzscar.cli", *argv, *out_flag])


class TestImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
            ["phase-scan", "--kappa", "0.8", "--lambda", "7", "--n-k", "20"],
            ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03", "--n-k", "16"],
            ["ll-evolve", "--kappa", "0.5", "--M", "1", "--L", "8", "--gamma", "0",
             "--dJx", "-0.02", "--T", "0.1", "--max-samples", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_numpy_only_subcommands_load_no_scipy(self, tmp_path, argv):
        modules = _imported_modules(argv, tmp_path)
        assert "xyzscar.bogoliubov" in modules  # cli itself runs as __main__
        assert not [m for m in modules if m.split(".")[0] == "scipy"]

    def test_scar_verify_loads_no_csgraph(self, tmp_path):
        """scar-verify builds H with scipy.sparse but never splits it into
        sectors, so scipy.sparse.csgraph stays unloaded."""
        modules = _imported_modules(
            ["scar-verify", "--kappa", "0", "--M", "1", "--L", "6", "--gamma", "0.7", "--S", "0.5"],
            tmp_path,
        )
        assert "xyzscar.ed_oracle" in modules
        assert [m for m in modules if m.startswith("scipy.sparse.")]
        assert not [m for m in modules if m.startswith("scipy.sparse.csgraph")]

    def test_contrast_sw_loads_no_scipy(self, tmp_path):
        """The spin-wave exponential is numpy's, and contrast-sw shares
        contrast-ed's commensurability check through scars, not by loading
        ed_oracle."""
        modules = _imported_modules(
            ["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
             "--L", "6", "--dJz", "0.03", "--T", "1", "--n-samples", "3"],
            tmp_path,
        )
        assert "xyzscar.spinwave" in modules and "xyzscar.ed_oracle" not in modules
        assert not [m for m in modules if m.split(".")[0] == "scipy"]

    def test_package_import_loads_no_numpy_polynomial(self):
        """The elliptic functions take no quadrature rule, so a fresh
        `import xyzscar` loads elliptic but not numpy.polynomial."""
        modules = _fresh_imports(["-c", "import xyzscar"])
        assert "xyzscar.elliptic" in modules
        assert not [m for m in modules if m.startswith("numpy.polynomial")]

    def test_contrast_ed_loads_scipy(self, tmp_path):
        """The control: the exact route does import scipy.sparse, and the
        parse above sees it."""
        modules = _imported_modules(
            ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6", "--theta", "pi/4",
             "--S", "0.5", "--delta", "0.03", "--T", "1", "--n-samples", "3"],
            tmp_path,
        )
        assert "xyzscar.ed_oracle" in modules
        assert [m for m in modules if m.startswith("scipy.sparse.")]
