"""The ops of the in-process workloads.

Ops call pulsemass through module attributes (`kinematics.invariant_mass`),
so the spans tracer.install puts on the public entry points see every call.
The one explicit span is the ensemble build, a per-mode loop of
PhotonMode.from_angles that has no single entry point.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import gen
from loop import OpFailed
from pulsemass import analytic, cli, experiment, kinematics, spectral, units

C = gen.C


def ensemble_op(item: dict, tr) -> tuple:
    """build -> sum -> mass -> rest frame -> boost -> sum -> mass, velocity."""
    k = kinematics
    b = tr.begin("kinematics.build")
    ens = k.PhotonEnsemble(tuple(map(k.PhotonMode.from_angles, item["omega"],
                                     item["theta"], item["phi"], item["weight"])))
    tr.end(b, len(item["omega"]))
    p = k.total_four_momentum(ens)
    mass = k.invariant_mass(p)
    try:
        frame, found = k.rest_frame(p), 1.0
    except ValueError:
        # pulsemass reports "no rest frame" for a momentum it cannot tell
        # from null; the centroid frame is the one rest_frame would return
        frame, found = k.BoostFrame(k.ensemble_velocity(p) / C), 0.0
    p_rest = k.total_four_momentum(k.boost_ensemble(ens, frame))
    return (mass, found, frame.beta, k.invariant_mass(p_rest), p_rest.pz,
            k.ensemble_velocity(p_rest))


def library_op(item: dict, tr) -> tuple:
    """One batch of the small calls a script makes."""
    k = kinematics
    b = tr.begin("kinematics.build")
    ens = k.PhotonEnsemble(tuple(k.PhotonMode.from_angles(*m) for m in item["modes"]))
    tr.end(b, len(item["modes"]))
    p = k.total_four_momentum(ens)
    boosted = k.total_four_momentum(k.boost_ensemble(ens, k.BoostFrame(item["beta"])))
    rest = k.total_four_momentum(k.boost_ensemble(ens, k.rest_frame(p)))
    pulse = item["pulse"]
    params = spectral.GaussianPulseParams.from_energy(
        pulse["energy"], pulse["tau"], pulse["w"], 2.0 * math.pi * C / pulse["lambda"])
    s = analytic.summarize(params)
    report = experiment.channel_delay(
        experiment.ExperimentConfig(item["w_half"], item["f"], params))
    ratio = experiment.mass_kperp_correspondence(s.mass, s.energy)
    k0 = params.omega0 / C
    return (k.invariant_mass(p), k.ensemble_velocity(p), k.invariant_mass(boosted),
            rest.pz,
            s.energy, s.photon_count, s.mass, s.speed_deficit, s.rest_energy,
            report.delta_l, report.v_channel, report.m_fdr, float(report.separated),
            experiment.kperp_ratio_to_mass(ratio, s.energy),
            experiment.spdc_speed(ratio * k0 * k0, k0),
            *(units.convert_units(*u) for u in item["units"]))


def field_op(item: dict, tr) -> tuple:
    """density, field-profile and mass-pulse --oracle through cli.main."""
    outs = []
    for argv in item["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"{argv[0]} exited {code}: {err.getvalue()[-300:]}")
        outs.append(out.getvalue())
    tr.count("density.rows", item["rows"])
    return tuple(outs)


OPS = {"ensemble-large": ensemble_op, "library-small": library_op, "field-bulk": field_op}


def load_pool(workload: str, seed: int, pool_file: str | None) -> list[dict]:
    if workload == "ensemble-large":
        return [gen.ensemble(seed, i) for i in range(gen.ENSEMBLE_POOL)]
    if workload == "library-small":
        return [gen.library(seed, i) for i in range(gen.LIBRARY_POOL)]
    with open(pool_file) as fh:
        return json.load(fh)
