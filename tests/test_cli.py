"""Tests for the command-line front end."""

import argparse
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap

import pytest

import pulsemass
from pulsemass import cli, density, spectral
from pulsemass.cli import MAX_FIELD_SAMPLES, main
from pulsemass.constants import C
from pulsemass.units import convert_units


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


PULSE_CGS = {"energy": 1e5, "tau": 1e-12, "w": 1.0, "lambda": 1e-4}
FIELD_CGS = {"e0": 1.0, "tau": 1e-12, "w": 1.0, "lambda": 1e-4,
             "t_min": -1e-12, "t_max": 1e-12, "n_t": 5}


class TestMassDiscrete:
    def test_two_photon_90_degrees(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"photons": [
            {"lambda": 1e-4, "theta_deg": 45.0, "weight": 1.0},
            {"lambda": 1e-4, "theta_deg": -45.0, "weight": 1.0},
        ]})
        code, out, _ = run_cli(capsys, "mass-discrete", "--config", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == "1"
        assert float(data["mass_g"]) == pytest.approx(3.1258e-33, rel=1e-3, abs=0)
        assert float(data["velocity_cm_s"]) == pytest.approx(
            C * math.cos(math.radians(45.0)), rel=1e-12, abs=0)
        assert float(data["beta_rest"]) == pytest.approx(
            math.cos(math.radians(45.0)), rel=1e-12, abs=0)

    def test_massless_has_null_beta_rest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"photons": [
            {"lambda": 1e-4, "theta_deg": 0.0}]})
        code, out, _ = run_cli(capsys, "mass-discrete", "--config", cfg)
        assert code == 0
        assert json.loads(out)["beta_rest"] is None

    def test_si_units(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"photons": [
            {"lambda": 1e-6, "theta_deg": 45.0},
            {"lambda": 1e-6, "theta_deg": -45.0},
        ]})
        code, out, _ = run_cli(capsys, "mass-discrete", "--config", cfg,
                               "--units", "si")
        assert code == 0
        assert float(json.loads(out)["mass_g"]) == pytest.approx(3.1258e-33, rel=1e-3, abs=0)


class TestMassPulse:
    def test_summary_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        code, out, _ = run_cli(capsys, "mass-pulse", "--config", cfg)
        assert code == 0
        data = json.loads(out)
        assert float(data["mass_g"]) == pytest.approx(1.77e-21, rel=1e-2, abs=0)
        assert float(data["photon_count"]) == pytest.approx(5.034e16, rel=1e-3, abs=0)
        assert float(data["energy_erg"]) == pytest.approx(1e5, rel=1e-12, abs=0)

    def test_oracle_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"e0": 1.0, "tau": 3.336e-13, "w": 0.01, "lambda": 1e-4})
        code, out, _ = run_cli(capsys, "mass-pulse", "--config", cfg, "--oracle")
        assert code == 0
        data = json.loads(out)
        assert float(data["oracle_rel_deviation"]) < 1e-3
        assert float(data["mass_quadrature_g"]) == pytest.approx(
            float(data["mass_g"]), rel=1e-3, abs=0)

    def test_set_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        code, out, _ = run_cli(capsys, "mass-pulse", "--config", cfg,
                               "--set", "energy=2e5")
        assert code == 0
        assert float(json.loads(out)["energy_erg"]) == pytest.approx(2e5, rel=1e-12, abs=0)

    def test_missing_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"tau": 1e-12})
        code, _, err = run_cli(capsys, "mass-pulse", "--config", cfg)
        assert code == 2
        assert "config error" in err


    def test_oracle_alone_past_paraxial_limit(self, tmp_path, capsys):
        # lambda/w = 0.625: summarize raises ParaxialError, the oracle converges
        pulse = {"e0": 1.0, "tau": 1e-12, "w": 1.6e-4, "lambda": 1e-4}
        cfg = write_config(tmp_path, "c.json", pulse)
        code, out, err = run_cli(capsys, "mass-pulse", "--config", cfg, "--oracle")
        assert code == 0, err
        data = json.loads(out)
        assert list(data) == ["schema_version", "command", "wavelength_cm",
                              "lambda_over_w", "lambda_over_ctau", "mass_quadrature_g"]
        assert float(data["lambda_over_w"]) == pytest.approx(0.625, rel=1e-12, abs=0)
        params = pulsemass.GaussianPulseParams(
            1.0, 1e-12, 1.6e-4, 2 * math.pi * C / 1e-4)
        assert float(data["mass_quadrature_g"]) == pulsemass.pulse_mass_quadrature(params)

    def test_oracle_mass_of_a_faint_pulse_does_not_underflow(self, tmp_path, capsys):
        # e0 = 1e-120: e/c ~ 3e-261 and the deficit ~4e-264 g cm/s, whose
        # product is below the smallest double; the mass scales as e0^2
        cfg = write_config(tmp_path, "c.json", {"tau": 1e-12, "w": 1.6e-4, "lambda": 1e-4})
        masses = []
        for e0 in ("1", "1e-120"):
            code, out, err = run_cli(capsys, "mass-pulse", "--config", cfg, "--oracle",
                                     "--set", f"e0={e0}")
            assert code == 0, err
            masses.append(float(json.loads(out)["mass_quadrature_g"]))
        assert masses[1] == pytest.approx(masses[0] * 1e-240, rel=1e-12, abs=0)

    def test_past_paraxial_limit_without_oracle_points_at_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"e0": 1.0, "tau": 1e-12, "w": 1.6e-4, "lambda": 1e-4})
        code, out, err = run_cli(capsys, "mass-pulse", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "--oracle" in err

    def test_unresolved_oracle_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "_QUAD_MAX_N", 16)
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        code, out, err = run_cli(capsys, "mass-pulse", "--config", cfg, "--oracle")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: QuadratureError: ")


class TestSpeedAndDelay:
    def test_speed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        code, out, _ = run_cli(capsys, "speed", "--config", cfg)
        assert code == 0
        data = json.loads(out)
        assert float(data["c_minus_v_over_c"]) == pytest.approx(1.2665e-10, rel=1e-4, abs=0)

    def test_delay_paper_example(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"w_half": 0.5, "f": 5.0, "source": PULSE_CGS})
        code, out, _ = run_cli(capsys, "delay", "--config", cfg)
        assert code == 0
        data = json.loads(out)
        assert float(data["delta_l_mm"]) == pytest.approx(0.5, rel=1e-12, abs=0)
        assert data["separated"] is True
        assert float(data["v_over_c"]) == pytest.approx(0.995, rel=1e-12, abs=0)

    def test_speed_past_paraxial_limit_points_at_oracle(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"e0": 1.0, "tau": 1e-12, "w": 1.6e-4, "lambda": 1e-4})
        code, out, err = run_cli(capsys, "speed", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.endswith("use spectral oracle (mass-pulse --oracle)\n")


class TestDensityCommand:
    def test_appends_mu_column(self, tmp_path, capsys):
        csv_in = tmp_path / "fields.csv"
        csv_in.write_text(
            "x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n"
            "0,0,0,0,1.0,0,0,0,1.0,0\n"    # plane wave: mu = 0
            "0,0,1,0,2.0,0,0,0,1.0,0\n")   # crossed unequal: 3/(8 pi c^2)
        cfg = write_config(tmp_path, "c.json", {"input": str(csv_in)})
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "density", "--config", cfg,
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz,mu"
        assert float(lines[1].split(",")[-1]) == 0.0
        assert float(lines[2].split(",")[-1]) == pytest.approx(
            3.0 / (8 * math.pi * C * C), rel=1e-12, abs=0)

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"input": str(tmp_path / "nope.csv")})
        code, _, err = run_cli(capsys, "density", "--config", cfg)
        assert code == 4
        assert "i/o error" in err

    def test_bad_header_is_config_error(self, tmp_path, capsys):
        csv_in = tmp_path / "fields.csv"
        csv_in.write_text("a,b\n1,2\n")
        cfg = write_config(tmp_path, "c.json", {"input": str(csv_in)})
        code, _, _ = run_cli(capsys, "density", "--config", cfg)
        assert code == 2

    def test_si_equals_cgs_on_converted_values(self, tmp_path, capsys):
        rng = random.Random(4)
        e_si = convert_units(1.0, "field", "V/m", "statvolt/cm")
        h_si = convert_units(1.0, "magnetic_field", "T", "G")
        rows = [[rng.gauss(0.0, 3e4) for _ in range(3)] + [rng.gauss(0.0, 1e-4) for _ in range(3)]
                for _ in range(20)]
        mus = []
        for units, scale in (("si", (1.0, 1.0)), ("cgs", (e_si, h_si))):
            csv_in = tmp_path / f"{units}.csv"
            csv_in.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n" + "".join(
                "0,0,0,0," + ",".join(repr(x * scale[j // 3]) for j, x in enumerate(r)) + "\n"
                for r in rows))
            cfg = write_config(tmp_path, f"{units}.json", {"input": str(csv_in)})
            code, out, _ = run_cli(capsys, "density", "--config", cfg, "--units", units)
            assert code == 0
            mus.append([line.rsplit(",", 1)[1] for line in out.splitlines()[1:]])
        assert len(mus[0]) == 20
        assert mus[0] == mus[1]

    @pytest.mark.parametrize("units, row", [
        ("cgs", "0,0,0,0,1,0,0,0,nan,0"),
        ("cgs", "0,0,0,0,1,-inf,0,0,1,0"),
        ("si", "0,0,0,0,1,0,0,0,1e305,0"),   # finite in tesla, inf in gauss
    ])
    def test_non_finite_row_is_config_error(self, tmp_path, capsys, units, row):
        csv_in = tmp_path / "fields.csv"
        csv_in.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n"
                          "0,0,0,0,1,0,0,0,1,0\n" + row + "\n")
        cfg = write_config(tmp_path, "c.json", {"input": str(csv_in)})
        code, out, err = run_cli(capsys, "density", "--config", cfg, "--units", units)
        assert code == 2
        assert out == ""
        assert "row 1" in err and "finite" in err

    def test_si_overflow_is_one_config_error_line(self, tmp_path, capsys):
        # the tesla -> gauss product overflows; the row check reports it, numpy does not
        csv_in = tmp_path / "fields.csv"
        csv_in.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n"
                          "0,0,0,0,1,0,0,0,1,0\n0,0,0,0,1,0,0,1e305,0,0\n")
        cfg = write_config(tmp_path, "c.json", {"input": str(csv_in)})
        code, out, err = run_cli(capsys, "density", "--config", cfg, "--units", "si")
        assert (code, out) == (2, "")
        assert err == "config error: row 1: field components must be finite\n"

    def test_rows_never_become_field_samples(self, tmp_path, capsys, monkeypatch):
        def no_samples(*args, **kwargs):
            raise AssertionError("density built a FieldSample per row")

        monkeypatch.setattr(density, "FieldSample", no_samples)
        csv_in = tmp_path / "fields.csv"
        csv_in.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n"
                          + "0,0,0,0,2.0,0,0,0,1.0,0\n" * 10_000)
        cfg = write_config(tmp_path, "c.json", {"input": str(csv_in)})
        code, out, err = run_cli(capsys, "density", "--config", cfg)
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == 10_001
        assert float(lines[-1].split(",")[-1]) == pytest.approx(
            3.0 / (8 * math.pi * C * C), rel=1e-15, abs=0)


class TestSweep:
    def test_fixed_n_mass_ratios(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "parameter": "w", "values": [0.5, 1.0, 2.0], "mode": "fixed_N",
            "pulse": PULSE_CGS})
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "w_cm,mass_g,c_minus_v_cm_s"
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        assert masses[0] / masses[1] == pytest.approx(2.0, rel=1e-12, abs=0)
        assert masses[0] / masses[2] == pytest.approx(4.0, rel=1e-12, abs=0)

    def test_delay_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "parameter": "f", "values": [5.0, 10.0],
            "delay": {"w_half": 0.5, "source": PULSE_CGS}})
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "f_cm,v_over_c,delta_l_cm"
        deltas = [float(line.split(",")[2]) for line in lines[1:]]
        assert deltas[0] / deltas[1] == pytest.approx(2.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", ["x", None])
    def test_bad_value_is_named(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, "c.json", {
            "parameter": "w", "values": [1.0, bad], "pulse": PULSE_CGS})
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == "config error: config key 'values[1]' must be a number\n"

    def test_waist_is_printed_as_given(self, tmp_path, capsys):
        # the row is at the double 0.7, not at 0.3 * (0.7 / 0.3)
        cfg = write_config(tmp_path, "c.json", {
            "parameter": "w", "values": [0.7], "pulse": {**PULSE_CGS, "w": 0.3}})
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "6.9999999999999996e-01"

    @pytest.mark.parametrize("mode", ["fixed_E0", "fixed_N"])
    def test_boolean_value_is_not_a_number(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, "c.json", {
            "parameter": "w", "values": [True], "mode": mode, "pulse": PULSE_CGS})
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == "config error: config key 'values[0]' must be a number\n"

    def test_delay_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"parameter": "f", "values": [5.0], "delay": 5})
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "'delay' must hold the experiment configuration" in err


class TestFieldProfile:
    def test_boundary_profile(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            **{k: v for k, v in PULSE_CGS.items() if k != "energy"},
            "e0": 1.0, "z": 0.0, "t_min": -1e-12, "t_max": 1e-12, "n_t": 5})
        code, out, _ = run_cli(capsys, "field-profile", "--config", cfg)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t_s,e_statvolt_per_cm"
        assert len(lines) == 6


class TestNonFinite:
    @pytest.mark.parametrize("command, override", [
        ("speed", "w=NaN"),
        ("speed", "energy=Infinity"),
        ("mass-pulse", "tau=-Infinity"),
        ("mass-pulse", "energy=1e400"),
        ("mass-pulse", "energy=1" + "0" * 400),  # an int too large for a float
    ])
    def test_non_finite_pulse_input_is_config_error(self, tmp_path, capsys,
                                                    command, override):
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        code, out, err = run_cli(capsys, command, "--config", cfg, "--set", override)
        assert code == 2
        assert out == ""
        assert "config error" in err

    def test_nan_photon_angle_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"photons": [{"lambda": 1e-4, "theta_deg": NaN}]}')
        code, out, _ = run_cli(capsys, "mass-discrete", "--config", str(path))
        assert code == 2
        assert out == ""

    def test_boolean_photon_angle_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"photons": [
            {"lambda": 1e-4, "theta_deg": True}]})
        code, out, err = run_cli(capsys, "mass-discrete", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == "config error: config key 'theta_deg' must be a number\n"

    @pytest.mark.parametrize("lam", [0.0, -1e-4])
    @pytest.mark.parametrize("command, payload, what", [
        ("speed", lambda lam: {**PULSE_CGS, "lambda": lam}, "pulse"),
        ("mass-discrete", lambda lam: {"photons": [{"lambda": lam, "theta_deg": 30.0}]},
         "photon 0"),
    ], ids=["speed", "mass-discrete"])
    def test_non_positive_wavelength_is_config_error(self, tmp_path, capsys,
                                                     command, payload, what, lam):
        cfg = write_config(tmp_path, "c.json", payload(lam))
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert (code, out) == (2, "")
        assert err == f"config error: {what} needs 'lambda' > 0, got {lam!r}\n"

    @pytest.mark.parametrize("w", ["1e200", "1e-200"])
    def test_energy_pulse_with_extreme_waist_names_w(self, tmp_path, capsys, w):
        # e0 = sqrt(8 E/(sqrt(pi) c tau w^2)) is out of range, not a bad e0
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        code, out, err = run_cli(capsys, "mass-pulse", "--config", cfg, "--set", f"w={w}")
        assert code == 3
        assert out == ""
        assert err.startswith(
            f"numerical error: OverflowError: w = {float(w):g} cm, tau = 1e-12 s")

    def test_nan_field_position_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", FIELD_CGS)
        code, out, _ = run_cli(capsys, "field-profile", "--config", cfg,
                               "--set", "r_perp=NaN")
        assert code == 2
        assert out == ""

    def test_overflow_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**PULSE_CGS, "e0": 1e200})
        code, out, err = run_cli(capsys, "mass-pulse", "--config", cfg)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: OverflowError")

    @pytest.mark.parametrize("command", ["mass-pulse", "speed"])
    def test_overflow_names_e0(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "c.json", {**PULSE_CGS, "e0": 1e200})
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: OverflowError: e0 = 1e+200")
        assert "energy" in err

    @pytest.mark.parametrize("command, payload, overrides", [
        ("mass-pulse", PULSE_CGS, ["--set", "w=1e200", "--set", "e0=1e-100"]),
        ("sweep", {"parameter": "w", "values": [1e200], "mode": "fixed_E0",
                   "pulse": PULSE_CGS}, []),
    ])
    def test_overflow_names_w(self, tmp_path, capsys, command, payload, overrides):
        # w^2 overflows: the pulse energy's range check names e0, w and tau
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, err = run_cli(capsys, command, "--config", cfg, *overrides)
        assert code == 3
        assert out == ""
        assert re.fullmatch(r"numerical error: OverflowError: e0 = \S+ statvolt/cm, "
                            r"w = 1e\+200 cm, tau = 1e-12 s: "
                            r"the pulse energy is out of floating-point range\n", err)

    OVERFLOWING_ENERGY = {"e0": 1e150, "w": 1e5, "tau": 1e-12, "lambda": 1e-4}

    @pytest.mark.parametrize("command, payload", [
        ("mass-pulse", OVERFLOWING_ENERGY),
        ("speed", OVERFLOWING_ENERGY),
        ("sweep", {"parameter": "w", "values": [1e5], "mode": "fixed_E0",
                   "pulse": {**OVERFLOWING_ENERGY, "w": 1.0}}),
    ])
    def test_overflowing_pulse_energy_is_named(self, tmp_path, capsys, command, payload):
        # e0^2 and w^2 are in range, their product with c tau is not
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 3
        assert out == ""
        assert err.startswith(
            "numerical error: OverflowError: e0 = 1e+150 statvolt/cm, w = 100000 cm, "
            "tau = 1e-12 s: the pulse energy is out of floating-point range")

    def test_overflowing_speed_deficit_is_named(self, tmp_path, capsys):
        # the energy is finite, (m c^2)^2 is not
        cfg = write_config(tmp_path, "c.json",
                           {"e0": 1e100, "w": 1e5, "tau": 1.0, "lambda": 1e-4})
        code, out, err = run_cli(capsys, "speed", "--config", cfg)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: OverflowError: mass = ")
        assert err.rstrip().endswith("c - v = c (m c^2)^2/(2 energy^2) overflows")

    def test_non_finite_result_is_numerical_error(self, tmp_path, capsys):
        # finite inputs whose photon energy sum overflows to inf
        cfg = write_config(tmp_path, "c.json", {"photons": [
            {"omega": 1e308, "weight": 1e308, "theta_deg": 30.0}]})
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "mass-discrete", "--config", cfg,
                                 "--out", str(out_path))
        assert code == 3
        assert out == ""
        assert not out_path.exists()
        assert "non-finite" in err

    def test_overflowing_density_row_is_named(self, tmp_path, capsys):
        # every component is finite, E^2 of row 1 is not
        csv_in = tmp_path / "fields.csv"
        csv_in.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n"
                          "0,0,0,0,1,0,0,0,1,0\n"
                          "0,0,0,0,1e200,0,0,0,1,0\n")
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "density", "--set", f"input={csv_in}",
                                 "--out", str(out_path))
        assert (code, out) == (3, "")
        assert not out_path.exists()
        assert err == ("numerical error: FloatingPointError: row 1: mu overflows, "
                       "so the mass density is out of floating-point range\n")

    def test_four_momentum_near_the_top_of_the_range(self, tmp_path, capsys):
        # e/c = 7e290 g cm/s: its unscaled square, and c p_z, are out of range
        cfg = write_config(tmp_path, "c.json", {"photons": [
            {"omega": 1e308, "weight": 1e20, "theta_deg": 30.0},
            {"omega": 1e308, "weight": 1e20, "theta_deg": -30.0}]})
        code, out, err = run_cli(capsys, "mass-discrete", "--config", cfg)
        assert (code, err) == (0, "")
        result = json.loads(out)
        # mpmath at 50 digits: 2 weight hbar omega sin(30 deg)/c^2 and c cos(30 deg)
        assert result["mass_g"] == pytest.approx(1.1733693912976162e280, rel=1e-15, abs=0)
        assert result["velocity_cm_s"] == pytest.approx(2.5962788449097936e10, rel=1e-15, abs=0)

    def test_overflowing_field_amplitude_fails_at_once(self, capsys):
        # e0 w^2 is out of range: the first refinement level stops, no warning line
        code, out, err = run_cli(
            capsys, "field-profile", "--set", "e0=1e300", "--set", "w=1e5",
            "--set", "tau=1e-12", "--set", "lambda=1e-4", "--set", "t_min=-1e-12",
            "--set", "t_max=1e-12", "--set", "n_t=3")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical error: FloatingPointError:")

    @pytest.mark.parametrize("override, message", [
        ("tau=1000", "degenerate support window"),
        ("tau=1e-320", "support window must be finite"),
        ("omega0=1e-320", "support must lie in the forward half-space k_z > 0"),
    ], ids=["tau=1000", "tau=1e-320", "omega0=1e-320"])
    def test_field_refuses_the_oracle_window(self, tmp_path, capsys, override, message):
        # the k_z window collapses, overflows, or reaches k_z = 0
        cfg = write_config(tmp_path, "c.json", {**FIELD_CGS, "t_min": -1e-3, "t_max": 1e-3})
        code, out, err = run_cli(capsys, "field-profile", "--config", cfg, "--set", override)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"config error: {message}"

    def test_non_finite_json_field_is_named(self, tmp_path, capsys):
        # w_half^2 overflows, so the focusing gain is inf
        cfg = write_config(tmp_path, "c.json", {"w_half": 1e200, "f": 1e201,
                                                "source": PULSE_CGS})
        code, out, err = run_cli(capsys, "delay", "--config", cfg)
        assert (code, out) == (3, "")
        assert err == ("numerical error: FloatingPointError: "
                       "non-finite gain_over_intrinsic inf\n")

    TINY_E0 = {"e0": 1e-130, "tau": 1e-12, "w": 1.0, "lambda": 1e-4}

    @pytest.mark.parametrize("command, payload", [
        ("speed", TINY_E0),
        ("mass-pulse", TINY_E0),
        ("sweep", {"parameter": "w", "values": [1.0, 2.0], "mode": "fixed_N", "pulse": TINY_E0}),
    ])
    def test_underflowing_energy_squared_is_named(self, tmp_path, capsys, command, payload):
        # the energy is ~7e-263 erg, its square is below the smallest double
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert (code, out) == (3, "")
        assert err == ("numerical error: FloatingPointError: mass = 1.17621e-288 g, "
                       "energy = 6.6421e-263 erg: energy^2 underflows, "
                       "so c - v = c (m c^2)^2/(2 energy^2) is undefined\n")

    @pytest.mark.parametrize("command, payload", [
        ("delay", {"w_half": 1e-170, "f": 1e-169, "source": PULSE_CGS}),
        ("sweep", {"parameter": "w_half", "values": [1e-170],
                   "delay": {"f": 1e-169, "source": PULSE_CGS}}),
    ])
    def test_underflowing_w_half_squared_is_named(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert (code, out) == (3, "")
        assert err == ("numerical error: FloatingPointError: w_half = 1e-170 cm: w_half^2 "
                       "underflows, so f/L_D = f lambda/(2 pi w_half^2) is undefined\n")


class TestWarnings:
    def test_geometry_warning_is_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"w_half": 0.75, "f": 5.0, "source": PULSE_CGS})
        code, out, err = run_cli(capsys, "delay", "--config", cfg)
        assert code == 0
        json.loads(out)
        assert err.splitlines() == [
            "warning: GeometryWarning: w_half/f = 0.15 stretches the "
            "w_half << f assumption"]

    @pytest.mark.parametrize("command", ["speed", "mass-pulse"])
    def test_paraxial_warning_printed_once(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "c.json", {**PULSE_CGS, "w": 1e-3})
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 0
        json.loads(out)
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: ParaxialWarning: ")
        assert "lambda/w = 0.1" in lines[0]

    def test_intrinsic_diffraction_warned_once(self, tmp_path, capsys):
        # L_D/f < 1 implies f/L_D > 1: one condition, one stderr line
        cfg = write_config(tmp_path, "c.json",
                           {"w_half": 0.005, "f": 5.0, "source": PULSE_CGS})
        code, out, err = run_cli(capsys, "delay", "--config", cfg)
        assert code == 0
        assert float(json.loads(out)["gain_over_intrinsic"]) < 1.0
        assert err.splitlines() == [
            "warning: GeometryWarning: f/L_D = 3.18: focusing gain not dominant "
            "over intrinsic diffraction"]

    @pytest.mark.parametrize("command, payload, flags, env, category", [
        ("speed", {**PULSE_CGS, "w": 1e-3}, ["-W", "error"], {}, "ParaxialWarning"),
        ("delay", {"w_half": 0.75, "f": 5.0, "source": PULSE_CGS}, [],
         {"PYTHONWARNINGS": "error"}, "GeometryWarning"),
    ], ids=["speed -W error", "delay PYTHONWARNINGS=error"])
    def test_warning_stays_a_line_when_warnings_are_errors(
            self, tmp_path, command, payload, flags, env, category):
        cfg = write_config(tmp_path, "c.json", payload)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "pulsemass.cli", command, "--config", cfg],
            capture_output=True, text=True, env={**os.environ, **env})
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"warning: {category}: ")

    def test_repeated_runs_warn_each_time(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**PULSE_CGS, "w": 1e-3})
        errs = [run_cli(capsys, "speed", "--config", cfg)[2] for _ in range(2)]
        assert errs[0] == errs[1] != ""


class TestFieldSamples:
    @pytest.mark.parametrize("n_t", [2.7, 1, MAX_FIELD_SAMPLES + 1, "many", True])
    def test_bad_n_t_is_config_error(self, tmp_path, capsys, n_t):
        cfg = write_config(tmp_path, "c.json", {**FIELD_CGS, "n_t": n_t})
        code, out, err = run_cli(capsys, "field-profile", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "n_t" in err

    def test_unresolved_field_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {**FIELD_CGS, "t_min": 1e-6, "t_max": 1.000001e-6})
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "field-profile", "--config", cfg,
                                 "--out", str(out_path))
        assert code == 3
        assert out == ""
        assert not out_path.exists()
        assert err.startswith("numerical error: QuadratureError: ")

    def test_integral_float_n_t_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**FIELD_CGS, "n_t": 3.0})
        code, out, _ = run_cli(capsys, "field-profile", "--config", cfg)
        assert code == 0
        assert len(out.splitlines()) == 4


_IMPORT_GRAPH_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    if sys.argv[6] == "blocked":
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    import pulsemass, pulsemass.cli
    from pulsemass import cli

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        assert code == 0, (argv, code)
        return out.getvalue()

    pulse, discrete, delay, sweep, field = sys.argv[1:6]
    run("mass-discrete", "--config", discrete)
    run("mass-pulse", "--config", pulse)
    run("mass-pulse", "--config", pulse, "--oracle")
    run("speed", "--config", pulse)
    run("delay", "--config", delay)
    run("sweep", "--config", sweep)
    csv = run("field-profile", "--config", field)
    loaded = sorted(m for m, module in sys.modules.items()
                    if m.split(".")[0] == "scipy" and module is not None)
    print(json.dumps({"loaded": loaded, "csv": csv}))
""")


class TestImportGraph:
    def run_every_command(self, tmp_path, scipy):
        configs = [
            write_config(tmp_path, "pulse.json", PULSE_CGS),
            write_config(tmp_path, "discrete.json", {"photons": [
                {"lambda": 1e-4, "theta_deg": 45.0},
                {"lambda": 1e-4, "theta_deg": -45.0}]}),
            write_config(tmp_path, "delay.json",
                         {"w_half": 0.5, "f": 5.0, "source": PULSE_CGS}),
            write_config(tmp_path, "sweep.json", {
                "parameter": "w", "values": [0.5, 1.0], "mode": "fixed_N",
                "pulse": PULSE_CGS}),
            write_config(tmp_path, "field.json", {
                **FIELD_CGS, "r_perp": 0.75, "t_min": -1.5e-12,
                "t_max": 1.5e-12, "n_t": 5}),
        ]
        src = os.path.dirname(os.path.dirname(pulsemass.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_CHILD, *configs, scipy],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        # the reconstructed field still matches the boundary condition
        # (acceptance criterion 10)
        rows = [line.split(",") for line in result["csv"].splitlines()[1:]]
        assert len(rows) == 5
        e0, w, tau, omega0 = 1.0, 1.0, 1e-12, 2 * math.pi * C / 1e-4
        for t_raw, e_raw in rows:
            t = float(t_raw)
            exact = (e0 * math.exp(-0.75**2 / (2 * w * w)) * math.sin(omega0 * t)
                     * math.exp(-t * t / (2 * tau * tau)))
            assert abs(float(e_raw) - exact) <= 1e-4 * e0
        return result["loaded"]

    def test_no_command_loads_scipy(self, tmp_path):
        """Every command, field-profile included, runs without importing scipy."""
        assert self.run_every_command(tmp_path, "available") == []

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        assert self.run_every_command(tmp_path, "blocked") == []


_NUMPY_IMPORT_GRAPH_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    import pulsemass, pulsemass.cli
    from pulsemass import cli
    loaded = {"import": "numpy" in sys.modules}

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        assert code == 0, (argv, code)

    pulse, delay, sweep_w, sweep_f, discrete, density, field = sys.argv[1:8]
    for units in ("cgs", "si"):
        run("mass-pulse", "--config", pulse, "--units", units)
        run("speed", "--config", pulse, "--units", units)
        run("delay", "--config", delay, "--units", units)
        run("sweep", "--config", sweep_w, "--units", units)
        run("sweep", "--config", sweep_f, "--units", units)
    loaded["closed forms"] = "numpy" in sys.modules
    loaded["csv after closed forms"] = "csv" in sys.modules
    run("mass-discrete", "--config", discrete)
    run("mass-pulse", "--config", pulse, "--oracle")
    run("density", "--config", density)
    run("field-profile", "--config", field)
    print(json.dumps(loaded))
""")


class TestNumpyImportGraph:
    def test_numpy_loaded_only_by_the_array_commands(self, tmp_path):
        """The package, the CLI module and the closed-form commands leave
        numpy and csv unloaded; the array commands then run in the same process."""
        csv_path = tmp_path / "fields.csv"
        csv_path.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n0,0,0,0,1,0,0,0,0.5,0\n")
        configs = [
            write_config(tmp_path, "pulse.json", PULSE_CGS),
            write_config(tmp_path, "delay.json",
                         {"w_half": 0.5, "f": 5.0, "source": PULSE_CGS}),
            write_config(tmp_path, "sweep_w.json", {
                "parameter": "w", "values": [0.5, 1.0], "mode": "fixed_E0",
                "pulse": PULSE_CGS}),
            write_config(tmp_path, "sweep_f.json", {
                "parameter": "f", "values": [5.0, 10.0],
                "delay": {"w_half": 0.5, "source": PULSE_CGS}}),
            write_config(tmp_path, "discrete.json", {"photons": [
                {"lambda": 1e-4, "theta_deg": 45.0},
                {"lambda": 1e-4, "theta_deg": -45.0}]}),
            write_config(tmp_path, "density.json", {"input": str(csv_path)}),
            write_config(tmp_path, "field.json", FIELD_CGS),
        ]
        src = os.path.dirname(os.path.dirname(pulsemass.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _NUMPY_IMPORT_GRAPH_CHILD, *configs],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"import": False, "closed forms": False,
                                           "csv after closed forms": False}


# The stdout of six commands on the configs above, captured once and
# compared byte for byte; --units si reads the same numbers as SI values.
GOLDEN_CONFIGS = {
    "mass-discrete": {"photons": [{"lambda": 1e-4, "theta_deg": 45.0, "weight": 1.0},
                                  {"lambda": 1e-4, "theta_deg": -45.0, "weight": 1.0}]},
    "mass-pulse": PULSE_CGS,
    "speed": PULSE_CGS,
    "delay": {"w_half": 0.5, "f": 5.0, "source": PULSE_CGS},
    "sweep-w": {"parameter": "w", "values": [0.5, 1.0, 2.0], "mode": "fixed_N",
                "pulse": PULSE_CGS},
    "sweep-f": {"parameter": "f", "values": [5.0, 10.0],
                "delay": {"w_half": 0.5, "source": PULSE_CGS}},
}
GOLDEN_STDOUT = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden_stdout.json").read_text())


class TestGoldenStdout:
    @pytest.mark.parametrize("units", ["cgs", "si"])
    @pytest.mark.parametrize("case", list(GOLDEN_CONFIGS))
    def test_stdout_bytes(self, tmp_path, capsys, case, units):
        cfg = write_config(tmp_path, "c.json", GOLDEN_CONFIGS[case])
        command = "sweep" if case.startswith("sweep") else case
        code, out, err = run_cli(capsys, command, "--config", cfg, "--units", units)
        assert code == 0, err
        assert out == GOLDEN_STDOUT[f"{case}/{units}"]


# The stdout of density, mass-pulse --oracle and field-profile, captured once
# in both unit systems.  density is compared byte for byte; the quadrature
# values (mass_quadrature_g, oracle_rel_deviation, the field column) to
# 1e-12, with keys, headers and row counts exact.
GOLDEN_DENSITY_CSV = (
    "x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n"
    "0,0,0,0,1.0,0,0,0,1.0,0\n"
    "0,0,1,0,2.0,0,0,0,1.0,0\n"
    "1,2,3,4e-12,1.0,0,0,0,1.000000001,0\n"
    "0.5,0,0,0,3e4,-1.2e4,7e3,2.5e-5,1e-4,-3e-5\n"
    "0,0,0,0,1e150,0,0,0,2e150,0\n"
    "0,0,0,0,1e-200,2e-200,0,0,0,3e-200\n"
    "0,0,0,0, 0.3 ,0.4,0,0.1,-0.2,0.5\n"
    "0,0,0,0,-1.5,2.5,3.5,1.5,-2.5,3.4999\n")
GOLDEN_VALUE_CONFIGS = {
    "density": {"input": "fields.csv"},
    "oracle-paper": PULSE_CGS,
    "oracle-wide": {"e0": 1.0, "tau": 1e-12, "w": 5e-3, "lambda": 1e-4},
    "oracle-past-limit": {"e0": 1.0, "tau": 1e-12, "w": 1.6e-4, "lambda": 1e-4},
    "field-axis": FIELD_CGS,
    "field-off-axis": {**FIELD_CGS, "r_perp": 0.75, "z": 3e-3, "t_min": -1.9e-12,
                       "t_max": 2.1e-12, "n_t": 7},
}
GOLDEN_VALUES_PATH = pathlib.Path(__file__).parent / "data" / "cli_golden_values.json"


def golden_value_stdout(tmp_path, capsys, case, units):
    """(exit code, stdout) of a GOLDEN_VALUE_CONFIGS case."""
    cfg = dict(GOLDEN_VALUE_CONFIGS[case])
    argv = {"density": ["density"], "oracle": ["mass-pulse", "--oracle"],
            "field": ["field-profile"]}[case.split("-")[0]]
    if case == "density":
        (tmp_path / "fields.csv").write_text(GOLDEN_DENSITY_CSV)
        cfg["input"] = str(tmp_path / "fields.csv")
    code, out, _ = run_cli(capsys, *argv, "--config",
                           write_config(tmp_path, "c.json", cfg), "--units", units)
    return code, out


class TestGoldenValues:
    @pytest.mark.parametrize("units", ["cgs", "si"])
    @pytest.mark.parametrize("case", list(GOLDEN_VALUE_CONFIGS))
    def test_stdout_values(self, tmp_path, capsys, case, units):
        expected = json.loads(GOLDEN_VALUES_PATH.read_text())[f"{case}/{units}"]
        code, out = golden_value_stdout(tmp_path, capsys, case, units)
        assert code == 0
        if case == "density":
            assert out == expected
        elif case.startswith("oracle"):
            got, want = json.loads(out), json.loads(expected)
            assert list(got) == list(want)
            for key, value in want.items():
                if key == "mass_quadrature_g":
                    assert float(got[key]) == pytest.approx(float(value), rel=1e-12, abs=0)
                elif key == "oracle_rel_deviation":
                    assert float(got[key]) == pytest.approx(float(value), rel=0, abs=1e-12)
                else:
                    assert got[key] == value
        else:
            e0 = convert_units(1.0, "field", "V/m", "statvolt/cm") if units == "si" else 1.0
            got, want = out.splitlines(), expected.splitlines()
            assert got[0] == want[0] and len(got) == len(want)
            for row, ref in zip(got[1:], want[1:]):
                (t, e), (t_ref, e_ref) = row.split(","), ref.split(",")
                assert t == t_ref
                assert float(e) == pytest.approx(float(e_ref), rel=0, abs=1e-12 * e0)


class TestParserReuse:
    """main() builds its argparse parser once per process; calls stay independent."""

    ORACLE_CGS = {"e0": 1.0, "tau": 3.336e-13, "w": 0.01, "lambda": 1e-4}

    def test_later_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        csv_in = tmp_path / "fields.csv"
        csv_in.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n0,0,1,0,2.0,0,0,0,1.0,0\n")
        oracle_cfg = write_config(tmp_path, "c.json", self.ORACLE_CGS)
        assert run_cli(capsys, "speed", "--set", "e0=1", "--set", "tau=1e-12",
                       "--set", "w=1", "--set", "lambda=1e-4")[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(capsys, "density", "--set", f"input={csv_in}")[0] == 0
        assert run_cli(capsys, "mass-pulse", "--config", oracle_cfg, "--oracle")[0] == 0
        assert built == []
        assert cli._build_parser() is cli._build_parser()

    def test_set_overrides_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        code, overridden, _ = run_cli(capsys, "speed", "--config", cfg, "--set", "w=2")
        assert code == 0
        code, plain, _ = run_cli(capsys, "speed", "--config", cfg)
        assert code == 0
        fresh = subprocess.run([sys.executable, "-m", "pulsemass.cli", "speed", "--config", cfg],
                               capture_output=True, text=True, check=True)
        assert plain == fresh.stdout
        assert overridden != plain

    def test_unknown_option_on_a_later_call_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        assert run_cli(capsys, "speed", "--config", cfg)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["speed", "--config", cfg, "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pulsemass ")
        assert err.endswith("\npulsemass: error: unrecognized arguments: --bogus\n")

    def test_oracle_stays_a_mass_pulse_option_after_an_oracle_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", self.ORACLE_CGS)
        assert run_cli(capsys, "mass-pulse", "--config", cfg, "--oracle")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["speed", "--config", cfg, "--oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err


class TestPlumbing:
    def test_stdin_config(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pulsemass.cli", "mass-pulse", "--config", "-"],
            input=json.dumps(PULSE_CGS), capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema_version"] == "1"

    def test_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", PULSE_CGS)
        outs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "mass-pulse", "--config", cfg)
            outs.add(out)
        assert len(outs) == 1

    @pytest.mark.parametrize("command", [
        "mass-discrete", "speed", "delay", "density", "sweep", "field-profile"])
    def test_oracle_is_a_mass_pulse_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err

    def test_key_is_optional_exactly_when_it_has_a_default(self):
        assert cli._num({}, "r_perp", "length", "si", 0.0) == 0.0
        assert cli._num({"r_perp": 2.0}, "r_perp", "length", "si", 0.0) == 200.0
        with pytest.raises(cli.ConfigError, match="missing config key 'r_perp'"):
            cli._num({}, "r_perp", "length", "si")

    def test_bad_set_syntax(self, capsys):
        code, _, _ = run_cli(capsys, "mass-pulse", "--set", "nonsense")
        assert code == 2

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "mass-pulse", "--config", str(path))
        assert code == 2
        assert "config error" in err
