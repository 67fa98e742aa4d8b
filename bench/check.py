"""Independent references for every checked output value, and the checker.

References are computed in the benchmark process after the timed ops, from
the generated inputs, with closed forms or extended precision (mpmath):

- cli-cold: closed forms (criteria 1, 7, 8: 1e-12), the oracle against the
  closed-form mass (criterion 4: 5 (r_w^2 + r_t^2)), and byte identity with
  the first run of the same command (criterion 12);
- ensemble-large, library-small: invariant masses from the generated angles
  (lab mass 1e-12 as criterion 1; boosted mass and rest-frame p_z 1e-10 as
  criterion 3);
- field-bulk: mu from the field-invariant form in mpmath (1e-12, criterion
  9), the exact boundary field at z = 0 (1e-4 e0, criterion 10) and the
  oracle as above.

A checker returns (values checked, values off their reference).  Output that
does not parse raises Malformed: the op counts as failed, not as off-reference.
"""
from __future__ import annotations

import json
import math

import mpmath

import gen
from gen import C, HBAR

mpmath.mp.dps = 40
PI = mpmath.pi
MC = mpmath.mpf(C)
MHBAR = mpmath.mpf(HBAR)

REL_CLOSED = 1e-12      # criteria 1, 7, 8, 9, 11
REL_BOOST = 1e-10       # criterion 3
ABS_FIELD = 1e-4        # criterion 10, times e0
REL_UNITS = 1e-15       # tests/test_units.py


class Malformed(ValueError):
    """The output does not have the expected shape."""


class Tally:
    def __init__(self):
        self.values = 0
        self.misses = 0

    def _count(self, ok: bool) -> None:
        self.values += 1
        self.misses += not ok

    def rel(self, got, ref, tol: float) -> None:
        ok = isinstance(got, (int, float)) and math.isfinite(got) and (
            abs(mpmath.mpf(got) - ref) <= tol * abs(ref))
        self._count(bool(ok))

    def abs(self, got, ref, tol: float) -> None:
        ok = isinstance(got, (int, float)) and math.isfinite(got) and (
            abs(mpmath.mpf(got) - ref) <= tol)
        self._count(bool(ok))

    def same(self, got, ref) -> None:
        self._count(got == ref)

    def result(self) -> tuple[int, int]:
        return self.values, self.misses


# -- references ---------------------------------------------------------------

def ensemble_reference(omega, theta, phi, weight) -> tuple:
    """(m, E/c, p_z) of a large ensemble, each an mpf.

    Per-mode terms come from the generated angles through cancellation-free
    forms (1 - cos theta = 2 sin^2(theta/2)), each within a few ulps; fsum
    adds them exactly and mpmath forms m^2 c^2 = D (2E - D) - p_x^2 - p_y^2
    with D = E - p_z.  Good to ~1e-15 relative for cones down to 1e-8 rad;
    selftest.py checks it against a per-mode mpmath evaluation.
    """
    import numpy as np
    om, th, ph, wt = (np.asarray(a, dtype=float) for a in (omega, theta, phi, weight))
    k = wt * om * (HBAR / C)
    half = np.sin(0.5 * th)
    st = np.sin(th)
    e, d, px, py = (mpmath.mpf(math.fsum(x)) for x in (
        k, 2.0 * k * half * half, k * st * np.cos(ph), k * st * np.sin(ph)))
    m2 = d * (2 * e - d) - px * px - py * py
    return mpmath.sqrt(max(m2, 0)) / MC, e, e - d


def ensemble_reference_mp(modes) -> tuple:
    """(m, E/c, p_z) with every per-mode term in mpmath; modes are
    (omega, theta, phi, weight)."""
    e = px = py = d = mpmath.mpf(0)
    for om, th, ph, wt in modes:
        k = mpmath.mpf(wt) * mpmath.mpf(om) * MHBAR / MC
        st = mpmath.sin(th)
        e += k
        d += 2 * k * mpmath.sin(mpmath.mpf(th) / 2) ** 2
        px += k * st * mpmath.cos(ph)
        py += k * st * mpmath.sin(ph)
    m2 = d * (2 * e - d) - px * px - py * py
    return mpmath.sqrt(max(m2, 0)) / MC, e, e - d


def pulse_reference(cfg: dict) -> dict:
    """Closed-form summary of a pulse config in cgs (energy or e0 form)."""
    lam, tau, w = (mpmath.mpf(cfg[k]) for k in ("lambda", "tau", "w"))
    omega0 = 2 * PI * MC / lam
    if "energy" in cfg:
        energy = mpmath.mpf(cfg["energy"])
    else:
        energy = mpmath.sqrt(PI) * MC * tau * w * w * mpmath.mpf(cfg["e0"]) ** 2 / 8
    mass = energy * lam / (2 * PI * MC * MC * w)
    return {
        "energy": energy, "photon_count": energy / (MHBAR * omega0), "mass": mass,
        "speed_deficit": MC * (lam / w) ** 2 / (8 * PI * PI),
        "rest_energy": mass * MC * MC, "wavelength": lam,
        "lambda_over_w": lam / w, "lambda_over_ctau": lam / (MC * tau),
    }


def delay_reference(w_half: float, f: float, pulse: dict) -> dict:
    wh, f = mpmath.mpf(w_half), mpmath.mpf(f)
    p = pulse_reference(pulse)
    r = wh / f
    f_over_ld = f * p["wavelength"] / (2 * PI * wh * wh)
    return {"delta_l": wh * wh / f, "v_over_c": 1 - r * r / 2,
            "m_fdr": p["energy"] / (MC * MC) * r,
            "separated": wh * wh / f > MC * mpmath.mpf(pulse["tau"]),
            "f_over_ld": f_over_ld, "gain": 1 / f_over_ld}


def mu_reference(e, h):
    """Field-invariant mass density sqrt((E^2-H^2)^2 + 4(E.H)^2)/(8 pi c^2)."""
    e = [mpmath.mpf(x) for x in e]
    h = [mpmath.mpf(x) for x in h]
    e2 = sum(x * x for x in e)
    h2 = sum(x * x for x in h)
    eh = sum(x * y for x, y in zip(e, h))
    return mpmath.sqrt((e2 - h2) ** 2 + 4 * eh * eh) / (8 * PI * MC * MC)


def boundary_field(cfg: dict, t: float):
    """Exact boundary field at z = 0: E0 exp(-r^2/2w^2) sin(w0 t) exp(-t^2/2tau^2)."""
    r, w, tau = (mpmath.mpf(cfg[k]) for k in ("r_perp", "w", "tau"))
    t = mpmath.mpf(t)
    omega0 = 2 * PI * MC / mpmath.mpf(cfg["lambda"])
    return (mpmath.mpf(cfg["e0"]) * mpmath.exp(-r * r / (2 * w * w))
            * mpmath.sin(omega0 * t) * mpmath.exp(-t * t / (2 * tau * tau)))


def oracle_tolerance(ref: dict) -> float:
    """Criterion 4: 5 (r_w^2 + r_t^2)."""
    return float(5 * (ref["lambda_over_w"] ** 2 + ref["lambda_over_ctau"] ** 2))


# -- parsing ------------------------------------------------------------------

def parse_json(text: str, keys) -> dict:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise Malformed(f"output is not JSON: {exc}") from None
    if not isinstance(data, dict) or any(k not in data for k in keys):
        raise Malformed(f"JSON output lacks one of {sorted(keys)}")
    return data


def parse_csv(text: str, header: list[str], n_rows: int) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise Malformed(f"CSV header is not {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n_rows or any(len(r) != len(header) for r in rows):
        raise Malformed(f"CSV needs {n_rows} rows of {len(header)} columns")
    return rows


def _floats(row: list[str]) -> list[float]:
    try:
        return [float(x) for x in row]
    except ValueError:
        raise Malformed(f"non-numeric CSV field in {row}") from None


# -- checkers -----------------------------------------------------------------

def check_ensemble(ref: tuple, out: list) -> tuple[int, int]:
    """out = (m, rest frame found, beta, m_rest, pz_rest, v_rest)."""
    if len(out) != 6:
        raise Malformed("ensemble output needs 6 values")
    m, e, _ = ref
    t = Tally()
    t.rel(out[0], m, REL_CLOSED)
    t.same(out[1], 1.0)
    t.rel(out[3], m, REL_BOOST)
    t.abs(out[4], 0, REL_BOOST * float(e))
    return t.result()


def check_library(item: dict, ref: dict, out: list) -> tuple[int, int]:
    if len(out) != 15 + len(item["units"]):
        raise Malformed("library output has the wrong length")
    m, e, pz = ref["ensemble"]
    p, d = ref["pulse"], ref["delay"]
    t = Tally()
    t.rel(out[0], m, REL_CLOSED)
    t.abs(out[1], MC * pz / e, REL_CLOSED * C)
    t.rel(out[2], m, REL_BOOST)
    t.abs(out[3], 0, REL_BOOST * float(e))
    for got, key in zip(out[4:9], ("energy", "photon_count", "mass", "speed_deficit",
                                   "rest_energy")):
        t.rel(got, p[key], REL_CLOSED)
    t.rel(out[9], d["delta_l"], REL_CLOSED)
    t.abs(out[10] / C, d["v_over_c"], REL_CLOSED)
    t.rel(out[11], d["m_fdr"], REL_CLOSED)
    t.same(bool(out[12]), d["separated"])
    t.rel(out[13], p["mass"], REL_CLOSED)
    t.abs(out[14], MC - p["speed_deficit"], REL_CLOSED * C)
    for got, factor in zip(out[15:], ref["units"]):
        t.rel(got, factor, REL_UNITS)
    return t.result()


_UNIT_FACTOR = {("energy", "J", "erg"): mpmath.mpf(10) ** 7,
                ("length", "um", "cm"): mpmath.mpf(10) ** -4,
                ("field", "V/m", "statvolt/cm"): 1 / mpmath.mpf("2.99792458e4"),
                ("magnetic_field", "T", "G"): mpmath.mpf(10) ** 4}


def library_reference(item: dict) -> dict:
    pulse = item["pulse"]
    return {"ensemble": ensemble_reference_mp(item["modes"]),
            "pulse": pulse_reference(pulse),
            "delay": delay_reference(item["w_half"], item["f"], pulse),
            "units": [mpmath.mpf(v) * _UNIT_FACTOR[(k, a, b)] for v, k, a, b in item["units"]]}


_PULSE_KEYS = {"energy_erg": "energy", "photon_count": "photon_count", "mass_g": "mass",
               "speed_deficit_cm_s": "speed_deficit", "rest_energy_erg": "rest_energy",
               "wavelength_cm": "wavelength", "lambda_over_w": "lambda_over_w",
               "lambda_over_ctau": "lambda_over_ctau"}


def _check_pulse(t: Tally, data: dict, ref: dict, oracle: bool) -> None:
    for key, rkey in _PULSE_KEYS.items():
        t.rel(data[key], ref[rkey], REL_CLOSED)
    if oracle:
        t.rel(data["mass_quadrature_g"], ref["mass"], oracle_tolerance(ref))


def check_field(item: dict, mu_refs: list, out: list) -> tuple[int, int]:
    """out = (density CSV, field-profile CSV, mass-pulse --oracle JSON);
    mu_refs = mu_reference of each input row."""
    if len(out) != 3:
        raise Malformed("field-bulk output needs 3 documents")
    t = Tally()
    header = gen.DENSITY_HEADER.split(",")
    rows = parse_csv(out[0], header + ["mu"], len(item["rows"]))
    for row, ref_row, mu in zip(rows, item["rows"], mu_refs):
        got = _floats(row)
        if got[:10] != ref_row:
            raise Malformed("density CSV does not echo its input row")
        t.rel(got[10], mu, REL_CLOSED)
    cfg = item["field"]
    for row in parse_csv(out[1], ["t_s", "e_statvolt_per_cm"], cfg["n_t"]):
        ts, e = _floats(row)
        t.abs(e, boundary_field(cfg, ts), ABS_FIELD * cfg["e0"])
    data = parse_json(out[2], list(_PULSE_KEYS) + ["mass_quadrature_g"])
    _check_pulse(t, data, pulse_reference(item["oracle"]), oracle=True)
    return t.result()


def check_cli(op: dict, text: str, first: str) -> tuple[int, int]:
    """One cold CLI op; `first` is the first output of the same command."""
    t = Tally()
    t.same(text, first)
    p = op["params"]
    command = op["command"]
    if command == "mass-discrete":
        lam, th = mpmath.mpf(p["lambda"]), mpmath.radians(p["theta_deg"])
        data = parse_json(text, ["mass_g", "velocity_cm_s", "energy_erg", "pz_g_cm_s",
                                 "beta_rest"])
        two_k = 4 * PI * MHBAR / lam          # 2 hbar omega / c
        t.rel(data["mass_g"], two_k * mpmath.sin(th) / MC, REL_CLOSED)
        t.rel(data["velocity_cm_s"], MC * mpmath.cos(th), REL_CLOSED)
        t.rel(data["energy_erg"], two_k * MC, REL_CLOSED)
        t.rel(data["pz_g_cm_s"], two_k * mpmath.cos(th), REL_CLOSED)
        t.rel(data["beta_rest"], mpmath.cos(th), REL_CLOSED)
    elif command in ("mass-pulse", "oracle"):
        oracle = command == "oracle"
        data = parse_json(text, list(_PULSE_KEYS) + (["mass_quadrature_g"] if oracle else []))
        _check_pulse(t, data, pulse_reference(p), oracle)
    elif command == "speed":
        ref = pulse_reference(p)
        data = parse_json(text, ["v_cm_s", "c_minus_v_cm_s", "c_minus_v_over_c"])
        t.rel(data["v_cm_s"], MC - ref["speed_deficit"], REL_CLOSED)
        t.rel(data["c_minus_v_cm_s"], ref["speed_deficit"], REL_CLOSED)
        t.rel(data["c_minus_v_over_c"], ref["speed_deficit"] / MC, REL_CLOSED)
    elif command == "delay":
        ref = delay_reference(p["w_half"], p["f"], p["source"])
        data = parse_json(text, ["v_channel_cm_s", "v_over_c", "delta_l_cm", "delta_l_mm",
                                 "separated", "m_fdr_g", "f_over_ld", "gain_over_intrinsic"])
        t.rel(data["v_channel_cm_s"], MC * ref["v_over_c"], REL_CLOSED)
        t.abs(data["v_over_c"], ref["v_over_c"], REL_CLOSED)
        t.rel(data["delta_l_cm"], ref["delta_l"], REL_CLOSED)
        t.rel(data["delta_l_mm"], 10 * ref["delta_l"], REL_CLOSED)
        t.same(data["separated"], ref["separated"])
        t.rel(data["m_fdr_g"], ref["m_fdr"], REL_CLOSED)
        t.rel(data["f_over_ld"], ref["f_over_ld"], REL_CLOSED)
        t.rel(data["gain_over_intrinsic"], ref["gain"], REL_CLOSED)
    elif command == "sweep-w":
        ref = pulse_reference(p["pulse"])
        w0 = mpmath.mpf(p["pulse"]["w"])
        rows = parse_csv(text, ["w_cm", "mass_g", "c_minus_v_cm_s"], len(p["values"]))
        for row, value in zip(rows, p["values"]):
            w, mass, c_minus_v = _floats(row)
            scale = mpmath.mpf(value) / w0
            m_ref = ref["mass"] * (scale if p["mode"] == "fixed_E0" else 1 / scale)
            t.rel(w, value, REL_CLOSED)
            t.rel(mass, m_ref, REL_CLOSED)
            t.rel(c_minus_v, ref["speed_deficit"] / scale ** 2, REL_CLOSED)
    elif command == "sweep-delay":
        param, delay = p["parameter"], p["delay"]
        rows = parse_csv(text, [f"{param}_cm", "v_over_c", "delta_l_cm"], len(p["values"]))
        for row, value in zip(rows, p["values"]):
            v, v_over_c, delta_l = _floats(row)
            ref = delay_reference(**{**{"w_half": delay["w_half"], "f": delay["f"]},
                                     param: value}, pulse=delay["source"])
            t.rel(v, value, REL_CLOSED)
            t.abs(v_over_c, ref["v_over_c"], REL_CLOSED)
            t.rel(delta_l, ref["delta_l"], REL_CLOSED)
    else:
        raise ValueError(f"unknown cli-cold command {command!r}")
    return t.result()
