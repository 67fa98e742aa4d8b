"""Command-line front end.

One JSON config document (file or stdin) describes a run; --set overrides
individual keys.  Scalar results go to stdout as JSON, grids and sweeps to
CSV.  All library computation is Gaussian-CGS; in --units si mode every
numeric input is converted exactly once at this boundary.  Warnings go to
stderr, one ``warning: <Category>: <message>`` line each, never into data
files.  numpy and csv load only in the commands that need them.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

from . import analytic, experiment
from .constants import C
from .pulse import GaussianPulseParams, QuadratureError, validity_ratio
from .units import convert_units

# numpy's OpenBLAS starts a thread per core as it loads, which costs a cold
# array command ~70 ms of CPU; no kernel here runs faster with it (the
# spectral nodes stop at 256 per axis).  One thread unless the user set a
# count in a variable OpenBLAS reads.  Nothing above loads numpy.
if not any(os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Upper bound on field-profile's n_t.  A sample costs ~0.12 ms on a 2-vCPU
# Xeon where the refinement stops at 64 nodes per axis (a pulse within a
# few tau of t = z/c) and up to 17x that at the 256-node cap.
MAX_FIELD_SAMPLES = 10_000

_DENSITY_HEADER = ["x", "y", "z", "t", "Ex", "Ey", "Ez", "Hx", "Hy", "Hz"]

# (SI, CGS) units per quantity kind; --units si converts the first to the second
_UNITS = {"energy": ("J", "erg"), "length": ("m", "cm"), "time": ("s", "s"),
          "field": ("V/m", "statvolt/cm"), "magnetic_field": ("T", "G")}


class ConfigError(ValueError):
    pass


def _fmt(x: float, name: str = "result") -> str:
    """Fixed 17-significant-digit scientific notation for all data output.

    NaN and infinities are not JSON, so a non-finite result is a numerical
    failure rather than data, named by name.
    """
    if not math.isfinite(x):
        raise FloatingPointError(f"non-finite {name} {x!r}")
    return f"{x:.16e}"


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            if args.config == "-":
                cfg = json.load(sys.stdin)
            else:
                with open(args.config) as fh:
                    cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    return cfg


def _num(cfg: dict, key: str, kind: str | None, units: str,
         default: float | None = None) -> float:
    """cfg[key] as a finite CGS float; optional exactly when it has a default."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        if isinstance(cfg[key], bool):  # JSON true/false, an int to Python
            raise TypeError
        value = float(cfg[key])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r} must be a number") from None
    if units == "si" and kind is not None:
        value = convert_units(value, kind, *_UNITS[kind])
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return value


def _omega(cfg: dict, key: str, units: str, what: str) -> float:
    """Angular frequency in rad/s from cfg[key], else from cfg["lambda"]."""
    if key in cfg:
        return _num(cfg, key, None, units)
    if "lambda" in cfg:
        lam = _num(cfg, "lambda", "length", units)
        if not lam > 0.0:
            raise ConfigError(f"{what} needs 'lambda' > 0, got {lam!r}")
        return 2.0 * math.pi * C / lam
    raise ConfigError(f"{what} needs {key!r} or 'lambda'")


def _pulse_params(cfg: dict, units: str) -> GaussianPulseParams:
    tau = _num(cfg, "tau", "time", units)
    w = _num(cfg, "w", "length", units)
    omega0 = _omega(cfg, "omega0", units, "pulse")
    if "e0" in cfg:
        return GaussianPulseParams(_num(cfg, "e0", "field", units), tau, w, omega0)
    if "energy" in cfg:
        return GaussianPulseParams.from_energy(
            _num(cfg, "energy", "energy", units), tau, w, omega0)
    raise ConfigError("pulse needs 'e0' or 'energy'")


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning replacement: one line, no source location."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(command: str, fields: dict, out_path: str | None) -> None:
    """One flat JSON object, a key per line; floats in _fmt notation, other
    values (strings, booleans, None) as JSON."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    items = (f"  {json.dumps(k)}: {_fmt(v, k) if isinstance(v, float) else json.dumps(v)}"
             for k, v in payload.items())
    _emit("{\n" + ",\n".join(items) + "\n}\n", out_path)


def _emit_csv(header: list[str], rows: list[list[str]], out_path: str | None) -> None:
    _emit("\n".join(",".join(r) for r in [header, *rows]) + "\n", out_path)


def _photon_modes(cfg: dict, units: str):
    from . import kinematics
    photons = cfg.get("photons")
    if not isinstance(photons, list) or not photons:
        raise ConfigError("'photons' must be a non-empty list")
    modes = []
    for i, ph in enumerate(photons):
        if not isinstance(ph, dict):
            raise ConfigError(f"photon {i} must be an object")
        omega = _omega(ph, "omega", units, f"photon {i}")
        theta = math.radians(_num(ph, "theta_deg", None, units))
        phi = math.radians(_num(ph, "phi_deg", None, units, 0.0))
        weight = _num(ph, "weight", None, units, 1.0)
        modes.append(kinematics.PhotonMode.from_angles(omega, theta, phi, weight))
    return kinematics.PhotonEnsemble(modes)


def cmd_mass_discrete(cfg: dict, args) -> None:
    from . import kinematics
    ensemble = _photon_modes(cfg, args.units)
    p = kinematics.total_four_momentum(ensemble)
    mass = kinematics.invariant_mass(p)
    v = kinematics.ensemble_velocity(p)
    try:
        beta_rest = kinematics.rest_frame(p).beta
    except ValueError:
        beta_rest = None
    _emit_json("mass-discrete", {
        "mass_g": mass,
        "velocity_cm_s": v,
        "energy_erg": p.e_over_c * C,
        "pz_g_cm_s": p.pz,
        "beta_rest": beta_rest,
    }, args.out)


def cmd_mass_pulse(cfg: dict, args) -> None:
    """Closed forms, plus with --oracle the quadrature mass and its deviation,
    taken at e0's mantissa; past the paraxial limit the quadrature mass alone."""
    params = _pulse_params(cfg, args.units)
    try:
        summary = analytic.summarize(params)
    except analytic.ParaxialError:
        if not args.oracle:
            raise
        summary = None
    fields = {}
    if summary is not None:
        fields.update(energy_erg=summary.energy, photon_count=summary.photon_count,
                      mass_g=summary.mass, speed_deficit_cm_s=summary.speed_deficit,
                      rest_energy_erg=summary.rest_energy)
    rw, rt = validity_ratio(params)
    fields.update(wavelength_cm=params.wavelength, lambda_over_w=rw, lambda_over_ctau=rt)
    if args.oracle:
        from . import spectral
        # every total goes as e0^2: both masses at the mantissa m of e0 = m 2^x,
        # where neither is subnormal, and the quadrature's scaled back by 4^x
        m, x = math.frexp(params.e0)
        at_m = GaussianPulseParams(m, params.tau, params.w, params.omega0)
        m_quad = spectral.pulse_mass_quadrature(at_m)
        fields["mass_quadrature_g"] = math.ldexp(m_quad, 2 * x)
        if summary is not None:
            m_closed = analytic.mass_from_energy(analytic.pulse_energy(at_m), at_m.wavelength, at_m.w)
            fields["oracle_rel_deviation"] = abs(m_quad - m_closed) / m_quad
    _emit_json("mass-pulse", fields, args.out)


def cmd_speed(cfg: dict, args) -> None:
    params = _pulse_params(cfg, args.units)
    summary = analytic.summarize(params)
    _emit_json("speed", {
        "v_cm_s": C - summary.speed_deficit,
        "c_minus_v_cm_s": summary.speed_deficit,
        "c_minus_v_over_c": summary.speed_deficit / C,
    }, args.out)


def _experiment_config(cfg: dict, units: str, **cgs: float) -> experiment.ExperimentConfig:
    """cgs holds lengths already in cm (a sweep value) that replace config keys."""
    source_cfg = cfg.get("source")
    if not isinstance(source_cfg, dict):
        raise ConfigError("'source' must be an object with the pulse parameters")
    lengths = {key: cgs[key] if key in cgs else _num(cfg, key, "length", units)
               for key in ("w_half", "f")}
    return experiment.ExperimentConfig(**lengths, source=_pulse_params(source_cfg, units))


def cmd_delay(cfg: dict, args) -> None:
    config = _experiment_config(cfg, args.units)
    report = experiment.channel_delay(config)
    _emit_json("delay", {
        "v_channel_cm_s": report.v_channel,
        "v_over_c": report.v_channel / C,
        "delta_l_cm": report.delta_l,
        "delta_l_mm": report.delta_l * 10.0,
        "separated": report.separated,
        "m_fdr_g": report.m_fdr,
        "f_over_ld": report.f_over_ld,
        "gain_over_intrinsic": report.gain_over_intrinsic,
    }, args.out)


def cmd_density(cfg: dict, args) -> None:
    import csv
    import numpy as np
    from . import density
    path = cfg.get("input")
    if not isinstance(path, str):
        raise ConfigError("'input' must be a CSV file path")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty density CSV") from None
        if header != _DENSITY_HEADER:
            raise ConfigError(
                f"density CSV header must be {','.join(_DENSITY_HEADER)}")
        raw_rows = [row for row in reader if row]
    fields = []
    for i, row in enumerate(raw_rows):
        if len(row) != len(_DENSITY_HEADER):
            raise ConfigError(f"row {i}: expected {len(_DENSITY_HEADER)} columns")
        try:
            fields.append(list(map(float, row[4:10])))
        except ValueError:
            raise ConfigError(f"row {i}: non-numeric field component") from None
    fields = np.array(fields, dtype=float).reshape(-1, 6)
    if args.units == "si":
        with np.errstate(over="ignore"):  # an overflow to inf is the row check's to report
            fields[:, :3] *= convert_units(1.0, "field", *_UNITS["field"])
            fields[:, 3:] *= convert_units(1.0, "magnetic_field", *_UNITS["magnetic_field"])
    bad = ~np.isfinite(fields).all(axis=1)
    if bad.any():
        raise ConfigError(f"row {int(np.argmax(bad))}: field components must be finite")
    mu = density.mass_density_array(fields[:, :3], fields[:, 3:])
    bad = ~np.isfinite(mu)
    if bad.any():
        raise FloatingPointError(f"row {int(np.argmax(bad))}: mu overflows, "
                                 "so the mass density is out of floating-point range")
    rows = [row + [_fmt(m)] for row, m in zip(raw_rows, mu.tolist())]
    _emit_csv(_DENSITY_HEADER + ["mu"], rows, args.out)


def cmd_sweep(cfg: dict, args) -> None:
    param = cfg.get("parameter")
    values = cfg.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("'values' must be a non-empty list")
    keyed = {f"values[{i}]": v for i, v in enumerate(values)}
    values = [_num(keyed, key, "length", args.units) for key in keyed]
    if param == "w":
        pulse_cfg = cfg.get("pulse")
        if not isinstance(pulse_cfg, dict):
            raise ConfigError("'pulse' must be an object with the pulse parameters")
        base = _pulse_params(pulse_cfg, args.units)
        rows = analytic.w_limit_scaling(base, cfg.get("mode", "fixed_E0"), values)
        _emit_csv(["w_cm", "mass_g", "c_minus_v_cm_s"],
                  [list(map(_fmt, row)) for row in rows], args.out)
    elif param in ("w_half", "f"):
        delay_cfg = cfg.get("delay")
        if not (isinstance(delay_cfg, dict) and delay_cfg):
            raise ConfigError("'delay' must hold the experiment configuration")
        rows = []
        for v in values:
            report = experiment.channel_delay(
                _experiment_config(delay_cfg, args.units, **{param: v}))
            rows.append([_fmt(v), _fmt(report.v_channel / C), _fmt(report.delta_l)])
        _emit_csv([f"{param}_cm", "v_over_c", "delta_l_cm"], rows, args.out)
    else:
        raise ConfigError("'parameter' must be one of: w, w_half, f")


def cmd_field_profile(cfg: dict, args) -> None:
    import numpy as np
    from . import spectral
    params = _pulse_params(cfg, args.units)
    r_perp = _num(cfg, "r_perp", "length", args.units, 0.0)
    z = _num(cfg, "z", "length", args.units, 0.0)
    t_min = _num(cfg, "t_min", "time", args.units)
    t_max = _num(cfg, "t_max", "time", args.units)
    n_t = _num(cfg, "n_t", None, args.units, 101.0)
    if not (n_t.is_integer() and 2 <= n_t <= MAX_FIELD_SAMPLES):
        raise ConfigError(
            f"'n_t' must be an integer from 2 to {MAX_FIELD_SAMPLES}, got {n_t!r}")
    if t_max <= t_min:
        raise ConfigError("need t_max > t_min")
    if not t_max - t_min < math.inf:  # linspace would overflow and call the times non-finite
        raise ConfigError(f"t_max - t_min overflows: t_min = {t_min!r}, t_max = {t_max!r}")
    n_t = int(n_t)
    times = np.linspace(t_min, t_max, n_t)
    values = spectral.field_profile(params, r_perp, z, times)
    rows = [[_fmt(t), _fmt(e)] for t, e in zip(times, values)]
    _emit_csv(["t_s", "e_statvolt_per_cm"], rows, args.out)


_COMMANDS = {
    "mass-discrete": cmd_mass_discrete,
    "mass-pulse": cmd_mass_pulse,
    "speed": cmd_speed,
    "delay": cmd_delay,
    "density": cmd_density,
    "sweep": cmd_sweep,
    "field-profile": cmd_field_profile,
}


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsemass",
        description="Invariant mass, speed and focus delay of light pulses")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file, or '-' for stdin")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (value parsed as JSON)")
        p.add_argument("--units", choices=("si", "cgs"), default="cgs")
        if name == "mass-pulse":
            p.add_argument("--oracle", action="store_true",
                           help="add the quadrature cross-check")
        p.add_argument("--out", help="write data output to this file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default", UserWarning)  # one line each, even under -W error
        warnings.showwarning = _print_warning
        try:
            cfg = _load_config(args)
            _COMMANDS[args.command](cfg, args)
        except (QuadratureError, ArithmeticError) as exc:
            print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except analytic.ParaxialError as exc:
            # only the quadrature oracle holds past the paraxial limit
            print(f"config error: {exc} (mass-pulse --oracle)", file=sys.stderr)
            return EXIT_CONFIG
        except ValueError as exc:  # ConfigError included
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
