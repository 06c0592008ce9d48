"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with the measured figure next to its tolerance.
"""

import math
import time

import numpy as np
from hom_dips import dip_half_width

from specklesim.cli import main
from specklesim.experiments import (
    ScenarioConfig,
    montecarlo_visibility,
    reference_delay,
    run_alpha_scan,
    run_enhancement_study,
    run_hom_scan,
)
from specklesim.medium import gaussian_transmission_matrix
from specklesim.oracles import outcome_distribution
from specklesim.rng import child_seed, rng_for
from specklesim.shaping import (
    classical_scan,
    combine_patterns,
    effective_circuit,
    fit_sine,
    ideal_circuit,
    mode_templates,
    optimize_pattern,
    phase_distance,
)
from specklesim.twophoton import (
    EmbeddabilityError,
    embeddability_bound,
    hom_scan,
    outcome_probabilities,
    source_preset,
)


def _report(number, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status}: {description} | {detail}")
    assert ok, f"criterion {number} failed: {description} | {detail}"


def _splitter_block(t, alpha):
    return t * np.array([[1.0, 1.0], [1.0, np.exp(1j * alpha)]])


def test_criterion_01_closed_form_matches_permanent_oracle():
    start = time.perf_counter()
    rng = rng_for(20_001)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 1.0)) * embeddability_bound(alpha)
        closed = outcome_probabilities(t, alpha)
        brute = outcome_distribution(_splitter_block(t, alpha), 1.0)
        worst = max(worst, float(np.max(np.abs(closed - brute))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "closed-form outcomes match brute-force propagation through a unitary completion",
        worst < 1e-12 and elapsed < 5.0,
        f"worst |diff| = {worst:.3g} (tol 1e-12), {elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_02_normalization_on_grid():
    worst = 0.0
    for alpha in np.linspace(0.0, 2.0 * math.pi, 50):
        for fraction in np.linspace(0.0, 1.0, 50):
            dist = outcome_probabilities(fraction * embeddability_bound(alpha), alpha)
            worst = max(worst, abs(float(dist.sum()) - 1.0))
    _report(
        2,
        "six outcome probabilities sum to one over a 50x50 embeddable grid",
        worst <= 1e-12,
        f"worst |sum-1| = {worst:.3g} (tol 1e-12)",
    )


def test_criterion_03_cosine_law():
    start = time.perf_counter()
    unit, _ = run_alpha_scan(ScenarioConfig(circuit="ideal", counting="analytic", overlap=1.0))
    preset, _ = run_alpha_scan(ScenarioConfig(circuit="ideal", counting="analytic", source="filtered"))
    midpoint = int(np.argmin(np.abs(unit.alphas - math.pi / 2.0)))
    v_mid = abs(float(unit.visibilities[midpoint]))
    elapsed = time.perf_counter() - start
    ok = (
        abs(unit.v0_fit - 1.0) < 1e-6
        and 0.83 <= preset.v0_fit <= 0.89
        and v_mid < 1e-9
        and elapsed < 120.0
    )
    _report(
        3,
        "noiseless alpha scans: v0 = 1 (overlap 1), v0 = 0.86 preset, V(pi/2) = 0",
        ok,
        f"v0 = {unit.v0_fit:.9f} (tol 1e-6), preset v0 = {preset.v0_fit:.4f} (in [0.83, 0.89]), "
        f"|V(pi/2)| = {v_mid:.2g} (tol 1e-9), {elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_04_hom_endpoints():
    worst = 0.0
    for overlap in (1.0, 0.86):
        source = source_preset("filtered", overlap=overlap)
        ref = reference_delay(source)
        dip = hom_scan(ideal_circuit(1.0 / math.sqrt(2.0), math.pi), source, [0.0, ref])
        v_dip = dip.coincidence_rate[0] / dip.coincidence_rate[1] - 1.0
        worst = max(worst, abs(v_dip + overlap))
        peak = hom_scan(ideal_circuit(0.5, 0.0), source, [0.0, ref])
        v_peak = peak.coincidence_rate[0] / peak.coincidence_rate[1] - 1.0
        worst = max(worst, abs(v_peak - overlap))
    _report(
        4,
        "programmed alpha = pi dips to -overlap, alpha = 0 peaks to +overlap (rate doubling)",
        worst < 1e-6,
        f"worst |V - expected| = {worst:.3g} (tol 1e-6)",
    )


def test_criterion_05_programmed_phase_fidelity():
    start = time.perf_counter()
    base_seed = 515
    alpha_devs = []
    scan_phase_devs = []
    scan_amp_devs = []
    theta = np.linspace(0.0, 2.0 * math.pi, 33)
    for replicate in range(20):
        medium = gaussian_transmission_matrix(4000, 1920, child_seed(base_seed, replicate))
        template_k, template_l = mode_templates(960)
        p_km = optimize_pattern(medium, template_k, 0)
        p_kn = optimize_pattern(medium, template_k, 1)
        p_lm = optimize_pattern(medium, template_l, 0)
        p_ln = optimize_pattern(medium, template_l, 1)

        pattern_k, pattern_l = combine_patterns(p_km, p_kn, p_lm, p_ln, math.pi)
        circuit = effective_circuit(medium, pattern_k, pattern_l, 0, 1, math.pi)
        alpha_devs.append(phase_distance(circuit.alpha_fit, math.pi))

        pattern_k0, pattern_l0 = combine_patterns(p_km, p_kn, p_lm, p_ln, 0.0)
        scan = classical_scan(effective_circuit(medium, pattern_k0, pattern_l0, 0, 1, 0.0), theta)
        _, amp_m, phase_m = fit_sine(scan.delta_theta, scan.intensity_m)
        _, amp_n, phase_n = fit_sine(scan.delta_theta, scan.intensity_n)
        scan_phase_devs.append(phase_distance(phase_m, phase_n))
        scan_amp_devs.append(abs(amp_m - amp_n) / max(amp_m, amp_n))
    elapsed = time.perf_counter() - start
    mean_alpha = float(np.mean(alpha_devs))
    mean_phase = float(np.mean(scan_phase_devs))
    mean_amp = float(np.mean(scan_amp_devs))
    ok = mean_alpha <= 0.05 * math.pi and mean_phase <= 0.05 * math.pi and mean_amp <= 0.10
    _report(
        5,
        "20-seed default-scale programming: alpha_fit tracks pi; alpha = 0 scans overlap",
        ok,
        f"mean |alpha_fit - pi| = {mean_alpha / math.pi:.4f} pi (tol 0.05 pi), "
        f"alpha = 0 phase gap = {mean_phase / math.pi:.4f} pi (tol 0.05 pi), "
        f"amplitude gap = {mean_amp:.3f} (tol 0.10), {elapsed:.1f} s",
    )


def test_criterion_06_enhancement_law():
    start = time.perf_counter()
    config = ScenarioConfig(n_out=4000, seeds=20, segment_counts=(64, 256, 960))
    rows, _ = run_enhancement_study(config, master_seed=606)
    worst = max(abs(row.mean_enhancement / row.predicted - 1.0) for row in rows)
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"N={row.n_segments}: {row.mean_enhancement:.1f}/{row.predicted:.1f}" for row in rows
    )
    _report(
        6,
        "mean enhancement within 10% of 1 + (pi/4)(N-1) for N in {64, 256, 960}",
        worst < 0.10 and elapsed < 300.0,
        f"{detail}; worst rel err = {worst:.3f} (tol 0.10), {elapsed:.1f} s (budget 300 s)",
    )


def test_criterion_07_source_presets():
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    widths = {}
    worst_vis = 0.0
    for name, expected in (("broadband", 0.64), ("filtered", 0.86)):
        source = source_preset(name)
        config = ScenarioConfig(circuit="ideal", t=1.0 / math.sqrt(2.0), alpha=math.pi, source=name)
        scan = run_hom_scan(config)[0].scan
        baseline = hom_scan(circuit, source, [reference_delay(source)]).coincidence_rate[0]
        center = int(np.argmin(np.abs(scan.delays)))
        vis = scan.coincidence_rate[center] / baseline - 1.0
        worst_vis = max(worst_vis, abs(vis + expected))
        widths[name] = dip_half_width(scan)
    bandwidth_ratio = (
        source_preset("broadband").rms_angular_bandwidth
        / source_preset("filtered").rms_angular_bandwidth
    )
    width_ratio = widths["filtered"] / widths["broadband"]
    ratio_err = abs(width_ratio / bandwidth_ratio - 1.0)
    _report(
        7,
        "preset dip visibilities 0.64/0.86 and width ratio = inverse bandwidth ratio",
        worst_vis < 0.01 and ratio_err < 0.05,
        f"worst |V| error = {worst_vis:.4f} (tol 0.01), width ratio {width_ratio:.3f} vs "
        f"{bandwidth_ratio:.3f}, rel err {ratio_err:.3f} (tol 0.05)",
    )


def test_criterion_08_multi_pair_visibility_reduction():
    start = time.perf_counter()
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    pulses = 1_000_000
    low = montecarlo_visibility(
        circuit, source_preset("broadband", mean_pairs_per_pulse=0.01), pulses, seed=808
    )
    high = montecarlo_visibility(circuit, source_preset("highpower"), pulses, seed=809)
    gap = abs(low.v) - abs(high.v)
    combined_sigma = math.hypot(low.std_err, high.std_err)
    elapsed = time.perf_counter() - start
    _report(
        8,
        "Monte Carlo |V| at mu = 0.5 sits below |V| at mu = 0.01 with 3 sigma",
        gap > 3.0 * combined_sigma and elapsed < 120.0,
        f"|V(0.01)| = {abs(low.v):.4f}, |V(0.5)| = {abs(high.v):.4f}, gap = {gap:.4f} "
        f"> 3 sigma = {3.0 * combined_sigma:.4f}, {elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_09_thread_count_never_changes_outputs(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "circuit = ideal\ncounting = montecarlo\npulses_per_point = 50000\n"
        "alpha_grid = 0:pi:5\nmean_pairs_per_pulse = 0.05\n"
    )
    out_one = tmp_path / "one"
    out_eight = tmp_path / "eight"
    rc1 = main(
        ["alpha-scan", "--config", str(cfg), "--seed", "99", "--out", str(out_one), "--threads", "1", "--quiet"]
    )
    rc8 = main(
        ["alpha-scan", "--config", str(cfg), "--seed", "99", "--out", str(out_eight), "--threads", "8", "--quiet"]
    )
    names = sorted(p.name for p in out_one.iterdir())
    identical = rc1 == rc8 == 0 and names == sorted(p.name for p in out_eight.iterdir())
    identical = identical and all(
        (out_one / name).read_bytes() == (out_eight / name).read_bytes() for name in names
    )
    _report(
        9,
        "same seed, different --threads: byte-identical output files",
        identical,
        f"{len(names)} files compared",
    )


def test_criterion_10_embeddability_guard():
    rng = rng_for(10_010)
    checked = 0
    ok = True
    for _ in range(400):
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        bound = embeddability_bound(alpha)
        t = float(rng.uniform(0.0, 1.3)) * bound
        if t > bound:
            try:
                outcome_probabilities(t, alpha)
                ok = False
            except EmbeddabilityError:
                pass
        else:
            arr = outcome_probabilities(t, alpha)
            ok = ok and bool(np.all(arr >= 0.0) and np.all(arr <= 1.0))
            checked += 1
    _report(
        10,
        "rejects exactly t > bound(alpha); accepted pairs stay inside [0, 1]",
        ok,
        f"{checked} accepted pairs validated, {400 - checked} rejections verified",
    )
