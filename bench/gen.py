"""Seeded inputs for the four workloads.

Every input is a pure function of (workload, seed, pool index), so the
process that runs the ops and the process that checks them regenerate the
same values.  Standard library only: the benchmark process writes inputs
before it spawns the processes it measures, and it must stay small, because
on Linux a child inherits its parent's peak-RSS reading across exec.

Values that set a workload's cost or its share of hard cases (cone spread,
near-null deviation, lambda/w of the oracle, ensemble size) are spread
evenly over the pool, stratified or log-spaced, so different seeds give the
same op mix and the same difficulty profile.
"""
from __future__ import annotations

import json
import math
import os
import random
from array import array

C = 2.99792458e10          # cm/s, exact
HBAR = 1.054571817e-27     # erg s, the CODATA 2018 value pulsemass documents
LAMBDA0 = 1e-4             # cm: the acceptance suite's 1 um carrier
OMEGA0 = 2.0 * math.pi * C / LAMBDA0

ENSEMBLE_MODES = 10_000
ENSEMBLE_POOL = 32         # even indices full-sphere, odd indices paraxial cones
CONE_SPREAD = (1e-6, 1e-2)
LIBRARY_POOL = 64
LIBRARY_MODES = (2, 20)
FIELD_POOL = 8
DENSITY_ROWS = 1000        # even rows generic, odd rows near-null
NEAR_NULL_DELTA = (1e-9, 1e-3)
FIELD_SAMPLES = 8
ORACLE_LAMBDA_OVER_W = (1e-3, 0.3)

DENSITY_HEADER = "x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz"

# cgs -> SI factors for the quantities the CLI converts under --units si
_SI = {"length": 1e-2, "energy": 1e-7, "time": 1.0}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _log_stratum(rng: random.Random, k: int, n: int, lo: float, hi: float) -> float:
    """Log-uniform draw from the k-th of n equal strata of [lo, hi]."""
    return lo * (hi / lo) ** ((k + rng.random()) / n)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


# -- ensemble-large ---------------------------------------------------------

def ensemble(seed: int, index: int) -> dict:
    """One 1e4-mode ensemble.  Full-sphere ensembles use the acceptance
    suite's criterion-3 distribution; cones fill a disc of half-angle
    `spread` about +z, the spreads log-spaced over CONE_SPREAD."""
    rng = _rng("ensemble-large", seed, index)
    n = ENSEMBLE_MODES
    cone = index % 2 == 1
    if cone:
        # log-spaced, not drawn: a drawn spread near the precision cliff
        # flips that cone's checked values from one seed to the next
        lo, hi = CONE_SPREAD
        spread = lo * (hi / lo) ** ((index // 2 + 0.5) / (ENSEMBLE_POOL // 2))
        theta = array("d", (spread * math.sqrt(rng.random()) for _ in range(n)))
    else:
        spread = math.pi
        theta = array("d", (rng.uniform(0.0, math.pi) for _ in range(n)))
    return {
        "kind": "cone" if cone else "sphere",
        "spread": spread,
        "omega": array("d", (OMEGA0 * rng.uniform(0.5, 2.0) for _ in range(n))),
        "theta": theta,
        "phi": array("d", (rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))),
        "weight": array("d", (rng.uniform(0.01, 5.0) for _ in range(n))),
    }


# -- library-small ----------------------------------------------------------

def _pulse(rng: random.Random) -> dict:
    """A paraxial pulse near the acceptance example (1e5 erg, 1 ps, 1 cm,
    1 um); lambda/w and lambda/(c tau) stay below the 0.05 warning level."""
    return {
        "energy": _log_uniform(rng, 1e4, 1e6),
        "tau": rng.uniform(0.5e-12, 2e-12),
        "w": rng.uniform(0.5, 2.0),
        "lambda": rng.uniform(0.5e-4, 2e-4),
    }


def _delay_geometry(rng: random.Random) -> tuple[float, float]:
    """(w_half, f) with w_half/f in [0.02, 0.09], below the 0.1 warning."""
    w_half = rng.uniform(0.2, 1.0)
    return w_half, w_half / rng.uniform(0.02, 0.09)


def library(seed: int, index: int) -> dict:
    """One batch of small library calls; the ensemble size cycles through
    LIBRARY_MODES over the pool, so every seed has the same mix of sizes."""
    rng = _rng("library-small", seed, index)
    lo, hi = LIBRARY_MODES
    n = lo + index % (hi - lo + 1)
    w_half, f = _delay_geometry(rng)
    return {
        "modes": [(OMEGA0 * rng.uniform(0.5, 2.0), rng.uniform(0.0, math.pi),
                   rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.01, 5.0))
                  for _ in range(n)],
        "beta": rng.uniform(-0.99, 0.99),
        "pulse": _pulse(rng),
        "w_half": w_half,
        "f": f,
        "units": [(_log_uniform(rng, 1e-3, 1e3), kind, a, b) for kind, a, b in (
            ("energy", "J", "erg"), ("length", "um", "cm"),
            ("field", "V/m", "statvolt/cm"), ("magnetic_field", "T", "G"))],
    }


# -- field-bulk -------------------------------------------------------------

def _near_null(rng: random.Random, e: list[float], delta: float) -> list[float]:
    """H perpendicular to E with |H| = |E|(1 + delta)."""
    a = [rng.gauss(0.0, 1.0) for _ in range(3)]
    e2 = sum(x * x for x in e)
    dot = sum(x * y for x, y in zip(a, e))
    a = [x - dot / e2 * y for x, y in zip(a, e)]
    scale = math.sqrt(e2) * (1.0 + delta) / math.sqrt(sum(x * x for x in a))
    return [x * scale for x in a]


def density_rows(seed: int, index: int) -> list[list[float]]:
    """Rows (x, y, z, t, E, H).  The near-null rows' delta strata are
    interleaved across the pool, so every CSV spans the whole delta range."""
    rng = _rng("field-bulk/density", seed, index)
    n_null = DENSITY_ROWS // 2
    rows = []
    for r in range(DENSITY_ROWS):
        xyzt = [rng.uniform(-1.0, 1.0) for _ in range(3)] + [rng.uniform(-1e-12, 1e-12)]
        e = [rng.gauss(0.0, 5.0) for _ in range(3)]
        if r % 2 == 0:
            h = [rng.gauss(0.0, 5.0) for _ in range(3)]
        else:
            k = (r // 2) * FIELD_POOL + index
            h = _near_null(rng, e, _log_stratum(rng, k, n_null * FIELD_POOL,
                                                *NEAR_NULL_DELTA))
        rows.append(xyzt + e + h)
    return rows


def field_bulk(seed: int, index: int) -> dict:
    """Parameters of one field-bulk op: a density CSV, a boundary
    field-profile and an oracle mass-pulse, lambda/w of the oracle
    stratified log-uniformly over ORACLE_LAMBDA_OVER_W."""
    rng = _rng("field-bulk", seed, index)
    lam = rng.uniform(0.5e-4, 2e-4)
    tau = rng.uniform(0.5e-12, 2e-12)
    w = rng.uniform(0.5, 2.0)
    field = {"e0": rng.uniform(0.5, 2.0), "tau": tau, "w": w, "lambda": lam,
             "r_perp": rng.uniform(0.0, 1.5 * w), "z": 0.0,
             "t_min": -1.5 * tau, "t_max": 1.5 * tau, "n_t": FIELD_SAMPLES}
    ratio = _log_stratum(rng, index, FIELD_POOL, *ORACLE_LAMBDA_OVER_W)
    oracle = {"e0": rng.uniform(0.5, 2.0), "tau": lam / (C * _log_uniform(rng, 3e-3, 3e-2)),
              "w": lam / ratio, "lambda": lam}
    return {"rows": density_rows(seed, index), "field": field, "oracle": oracle}


def write_field_bulk(seed: int, workdir: str) -> list[dict]:
    """Write the CSVs and configs; return per-op argv lists and parameters."""
    pool = []
    for i in range(FIELD_POOL):
        item = field_bulk(seed, i)
        csv_path = os.path.join(workdir, f"fields{i}.csv")
        with open(csv_path, "w") as fh:
            fh.write(DENSITY_HEADER + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in item["rows"])
        argvs = [
            ["density", "--config", _write_json(workdir, f"density{i}", {"input": csv_path})],
            ["field-profile", "--config", _write_json(workdir, f"field{i}", item["field"])],
            ["mass-pulse", "--oracle", "--config",
             _write_json(workdir, f"oracle{i}", item["oracle"])],
        ]
        pool.append({"argvs": argvs, **item})
    return pool


# -- cli-cold ---------------------------------------------------------------

# op name -> argv prefix; one pass runs each once
CLI_COMMANDS = {"mass-discrete": ["mass-discrete"], "mass-pulse": ["mass-pulse"],
                "oracle": ["mass-pulse", "--oracle"], "speed": ["speed"],
                "delay": ["delay"], "sweep-w": ["sweep"], "sweep-delay": ["sweep"]}
CLI_SI_SHARE = 3            # commands per pass run with --units si


def _to_si(cfg: dict, kinds: dict) -> dict:
    out = dict(cfg)
    for key, kind in kinds.items():
        if key in out:
            out[key] = out[key] * _SI[kind]
    return out


_PULSE_KINDS = {"energy": "energy", "tau": "time", "w": "length", "lambda": "length"}


def cli_cold(seed: int) -> list[dict]:
    """The seven commands of one pass, the acceptance configs perturbed per
    seed; CLI_SI_SHARE of them, chosen by the seed, run with --units si."""
    rng = _rng("cli-cold", seed, 0)
    si = set(rng.sample(range(len(CLI_COMMANDS)), CLI_SI_SHARE))
    ops = []
    for i, command in enumerate(CLI_COMMANDS):
        pulse = _pulse(rng)
        w_half, f = _delay_geometry(rng)
        delay = {"w_half": w_half, "f": f, "source": pulse}
        if command == "mass-discrete":
            theta = rng.uniform(1.0, 89.0)
            params = {"lambda": rng.uniform(0.5e-4, 2e-4), "theta_deg": theta}
            cfg = {"photons": [{"lambda": params["lambda"], "theta_deg": theta},
                               {"lambda": params["lambda"], "theta_deg": -theta}]}
            si_cfg = {"photons": [_to_si(p, {"lambda": "length"}) for p in cfg["photons"]]}
        elif command == "delay":
            params, cfg = delay, delay
            si_cfg = dict(_to_si(delay, {"w_half": "length", "f": "length"}),
                          source=_to_si(pulse, _PULSE_KINDS))
        elif command == "sweep-w":
            params = {"pulse": pulse, "mode": rng.choice(["fixed_N", "fixed_E0"]),
                      "values": sorted(pulse["w"] * rng.uniform(0.5, 2.0) for _ in range(3))}
            cfg = {"parameter": "w", **params}
            si_cfg = dict(cfg, pulse=_to_si(pulse, _PULSE_KINDS),
                          values=[v * _SI["length"] for v in params["values"]])
        elif command == "sweep-delay":
            param = rng.choice(["w_half", "f"])
            params = {"parameter": param, "delay": delay,
                      "values": sorted(delay[param] * rng.uniform(0.8, 1.25)
                                       for _ in range(3))}
            cfg = params
            si_cfg = dict(cfg, values=[v * _SI["length"] for v in params["values"]],
                          delay=dict(_to_si(delay, {"w_half": "length", "f": "length"}),
                                     source=_to_si(pulse, _PULSE_KINDS)))
        else:
            params, cfg = pulse, pulse
            si_cfg = _to_si(pulse, _PULSE_KINDS)
        units = "si" if i in si else "cgs"
        ops.append({"command": command, "units": units, "params": params,
                    "config": si_cfg if units == "si" else cfg})
    return ops


def write_cli_cold(seed: int, workdir: str) -> list[dict]:
    pool = cli_cold(seed)
    for i, op in enumerate(pool):
        path = _write_json(workdir, f"cli{i}", op["config"])
        op["argv"] = [*CLI_COMMANDS[op["command"]], "--config", path, "--units", op["units"]]
    return pool


def _write_json(workdir: str, stem: str, obj: dict) -> str:
    path = os.path.join(workdir, stem + ".json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path
