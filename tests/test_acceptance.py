"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s or in the failure report)."""

import json
import math
import time

import numpy as np

from pulsemass.cli import main
from pulsemass.constants import C, HBAR
from pulsemass import analytic, experiment, spectral
from pulsemass.density import FieldSample, mass_density, mass_density_invariant_form
from pulsemass.kinematics import (
    BoostFrame,
    PhotonEnsemble,
    PhotonMode,
    boost_ensemble,
    invariant_mass,
    rest_frame,
    total_four_momentum,
)
from pulsemass.spectral import GaussianPulseParams

LAM = 1e-4  # 1 um
OMEGA = 2 * math.pi * C / LAM


def report(n, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")
    assert ok, f"criterion {n}: {label}"


def symmetric_pair(theta, weight=1.0):
    return PhotonEnsemble((
        PhotonMode.from_angles(OMEGA, theta, 0.0, weight),
        PhotonMode.from_angles(OMEGA, -theta, 0.0, weight),
    ))


def random_ensemble(rng, n_modes):
    return PhotonEnsemble(tuple(
        PhotonMode.from_angles(
            OMEGA * rng.uniform(0.5, 2.0), rng.uniform(0.0, math.pi),
            rng.uniform(0.0, 2 * math.pi), rng.uniform(0.01, 5.0))
        for _ in range(n_modes)))


def test_criterion_1_two_photon_mass():
    t0 = time.perf_counter()
    ok = True
    for theta_deg in (1.0, 15.0, 45.0, 89.0):
        theta = math.radians(theta_deg)
        m = invariant_mass(total_four_momentum(symmetric_pair(theta)))
        expected = 2 * HBAR * OMEGA / C**2 * math.sin(theta)
        ok &= abs(m / expected - 1.0) <= 1e-12
    ok &= (time.perf_counter() - t0) < 1.0
    report(1, "two-photon mass (2 hbar w/c^2) sin(theta), 1e-12 rel, < 1 s", ok)


def test_criterion_2_n_plus_n_scaling():
    theta = math.radians(25.0)
    m1 = invariant_mass(total_four_momentum(symmetric_pair(theta, 1.0)))
    ok = True
    for n in (1, 10, 10**6):
        mn = invariant_mass(total_four_momentum(symmetric_pair(theta, float(n))))
        ok &= abs(mn / (n * m1) - 1.0) <= 1e-12
    report(2, "N+N mass scales exactly linearly in N", ok)


def test_criterion_3_boost_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        ens = random_ensemble(rng, int(rng.integers(2, 21)))
        p = total_four_momentum(ens)
        m0 = invariant_mass(p)
        beta = rng.uniform(-0.99, 0.99)
        m1 = invariant_mass(total_four_momentum(boost_ensemble(ens, BoostFrame(beta))))
        ok &= abs(m1 - m0) <= 1e-10 * m0
        rest = total_four_momentum(boost_ensemble(ens, rest_frame(p)))
        ok &= abs(rest.pz) <= 1e-10 * p.e_over_c
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(3, f"1000-ensemble boost invariance suite ({elapsed:.1f} s)", ok)


def test_criterion_4_paraxial_oracle():
    t0 = time.perf_counter()
    deviations = []
    ok = True
    for ratio in (1e-2, 3e-3, 1e-3):
        p = GaussianPulseParams(1.0, LAM / (C * ratio), LAM / ratio, OMEGA)
        m_quad = spectral.pulse_mass_quadrature(p)
        m_closed = math.sqrt(math.pi) * p.tau * p.w * p.e0**2 / (8 * p.omega0)
        dev = abs(m_quad / m_closed - 1.0)
        ok &= dev <= 5.0 * (ratio**2 + ratio**2)
        deviations.append(dev)
    ok &= deviations[0] / deviations[1] >= 5.0
    ok &= deviations[1] / deviations[2] >= 5.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, "quadrature vs closed-form mass, quadratic convergence "
              f"(devs {deviations[0]:.2e}, {deviations[1]:.2e}, "
              f"{deviations[2]:.2e}; {elapsed:.1f} s)", ok)


def test_criterion_5_paper_photon_number():
    n = 1e5 / (HBAR * OMEGA)
    # hand-computed: 1e5 erg / (1.054571817e-27 erg s * 2 pi c / 1e-4 cm)
    ok = abs(n - 5.0341e16) <= 1e14
    ok &= f"{n:.1e}" == "5.0e+16"       # the spec's rounded center
    ok &= 0.5e17 <= 2 * n and n <= 2e17  # paper's "~1e17" as factor-2 rounding
    report(5, f"photon number N = {n:.4e} (rounds to 5.0e16, ~1e17/2)", ok)


def test_criterion_6_paper_mass_example():
    m = analytic.mass_from_energy(1e5, LAM, 1.0)
    ok = abs(m - 1.8e-21) <= 0.05 * 1.8e-21
    # documented: disagrees with the quoted 1e-20 g by ~5.6x
    ok &= 5.0 <= 1e-20 / m <= 6.5
    report(6, f"pulse mass m = {m:.3e} g (1.8e-21 +- 5%)", ok)


def test_criterion_7_speed_deficit():
    s = analytic.summarize(GaussianPulseParams.from_energy(1e5, 1e-12, 1.0, OMEGA))
    expected = 1e-8 / (8 * math.pi**2)
    ok = abs(s.speed_deficit / C / expected - 1.0) <= 1e-12
    # cross-check against the spectral deficit integral at lambda/w = 1e-3
    ratio = 1e-3
    p = GaussianPulseParams(1.0, LAM / (C * ratio), LAM / ratio, OMEGA)
    obs = spectral.integrate_observables(p)
    deficit_rel = obs.deficit / obs.energy
    ok &= abs(deficit_rel / (ratio**2 / (8 * math.pi**2)) - 1.0) <= 0.01
    report(7, f"(c-v)/c = {s.speed_deficit / C:.5e} = 1/(8 pi^2) 1e-8; "
              "quadrature cross-check within 1%", ok)


def test_criterion_8_delay_experiment():
    source = GaussianPulseParams.from_energy(1e5, 1e-12, 1.0, OMEGA)
    cfg = experiment.ExperimentConfig(w_half=0.5, f=5.0, source=source)
    r = experiment.channel_delay(cfg)
    ok = abs(r.delta_l - 0.05) <= 1e-12 * 0.05
    ok &= r.separated is True
    ok &= abs(r.v_channel / C - 0.995) <= 1e-12
    report(8, f"delta_l = {r.delta_l * 10:.4f} mm, separated, v/c = 0.995", ok)


def test_criterion_9_mu_dual_form():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10_000):
        s = FieldSample(tuple(rng.normal(scale=5.0, size=3)),
                        tuple(rng.normal(scale=5.0, size=3)))
        a = mass_density(s)
        b = mass_density_invariant_form(s)
        ok &= abs(a - b) <= 1e-12 * max(a, b) or (a == 0.0 and b == 0.0)
    e0 = 7.0
    unit = e0**2 / (8 * math.pi * C * C)
    mu = mass_density(FieldSample((e0, 0.0, 0.0), (0.0, e0, 0.0)))
    ok &= mu / unit <= 1e-15
    report(9, "mu dual-form identity on 1e4 samples; plane wave mu = 0", ok)


def test_criterion_10_boundary_reproduction():
    t0 = time.perf_counter()
    p = GaussianPulseParams(1.0, 1e-12, 1.0, OMEGA)
    ok = True
    for r in np.linspace(0.0, 1.5 * p.w, 5):
        ts = np.linspace(-1.5 * p.tau, 1.5 * p.tau, 5)
        got = spectral.field_profile(p, float(r), 0.0, ts)
        for t, v in zip(ts, got):
            exact = (p.e0 * math.exp(-r * r / (2 * p.w**2))
                     * math.sin(p.omega0 * t) * math.exp(-t * t / (2 * p.tau**2)))
            ok &= abs(v - exact) <= 1e-4 * p.e0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(10, f"boundary field reproduced on 5x5 grid ({elapsed:.1f} s)", ok)


def test_criterion_11_spdc_correspondence():
    m, energy = 1.77e-21, 1e5
    ratio = experiment.mass_kperp_correspondence(m, energy)
    ok = abs(experiment.kperp_ratio_to_mass(ratio, energy) / m - 1.0) <= 1e-12
    s = analytic.summarize(GaussianPulseParams.from_energy(energy, 1e-12, 1.0, OMEGA))
    k = OMEGA / C
    v = experiment.spdc_speed(
        experiment.mass_kperp_correspondence(s.mass, s.energy) * k * k, k)
    ok &= abs(v - (C - s.speed_deficit)) <= 1e-12 * C
    report(11, "mass <-> <k_perp^2>/k^2 round trip; SPDC speed matches "
               "closed-form speed", ok)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    pulse = {"energy": 1e5, "tau": 1e-12, "w": 1.0, "lambda": 1e-4}
    cfg_pulse = tmp_path / "pulse.json"
    cfg_pulse.write_text(json.dumps(pulse))
    cfg_discrete = tmp_path / "discrete.json"
    cfg_discrete.write_text(json.dumps({"photons": [
        {"lambda": 1e-4, "theta_deg": 45.0}, {"lambda": 1e-4, "theta_deg": -45.0}]}))
    cfg_delay = tmp_path / "delay.json"
    cfg_delay.write_text(json.dumps({"w_half": 0.5, "f": 5.0, "source": pulse}))
    csv_in = tmp_path / "fields.csv"
    csv_in.write_text("x,y,z,t,Ex,Ey,Ez,Hx,Hy,Hz\n0,0,0,0,1,0,0,0,1,0\n")
    cfg_density = tmp_path / "density.json"
    cfg_density.write_text(json.dumps({"input": str(csv_in)}))
    cfg_sweep = tmp_path / "sweep.json"
    cfg_sweep.write_text(json.dumps({
        "parameter": "w", "values": [0.5, 1.0, 2.0], "mode": "fixed_N",
        "pulse": pulse}))
    cfg_field = tmp_path / "field.json"
    cfg_field.write_text(json.dumps({
        "e0": 1.0, "tau": 1e-12, "w": 1.0, "lambda": 1e-4,
        "z": 0.0, "t_min": -1e-12, "t_max": 1e-12, "n_t": 5}))

    commands = [
        ("mass-discrete", "--config", str(cfg_discrete)),
        ("mass-pulse", "--config", str(cfg_pulse)),
        ("speed", "--config", str(cfg_pulse)),
        ("delay", "--config", str(cfg_delay)),
        ("density", "--config", str(cfg_density)),
        ("sweep", "--config", str(cfg_sweep)),
        ("field-profile", "--config", str(cfg_field)),
    ]
    ok = True
    for argv in commands:
        first = run(*argv)
        second = run(*argv)
        ok &= first.encode() == second.encode()
    report(12, "every example command is byte-deterministic", ok)
