"""Fast invariant suite behind the ``selftest`` subcommand.

Each check is deterministic (fixed seeds) and prints one PASS/FAIL line;
the suite is a condensed version of the package's test battery meant to
validate an installation in a few seconds.
"""

from __future__ import annotations

import math
import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, format_config, parse_config, scenario_keys
from .experiments import analytic_visibility, emit_scenario, focusing_enhancement, program_circuit, run_alpha_scan
from .medium import gaussian_transmission_matrix, haar_unitary, load_matrix, save_matrix
from .oracles import outcome_distribution, shaped_input, transmit, two_photon_coincidence
from .rng import Stream, rng_for
from .shaping import ideal_circuit, mode_templates, optimize_pattern, phase_distance, target_intensity
from .twophoton import (
    EmbeddabilityError,
    embeddability_bound,
    montecarlo_counts,
    outcome_probabilities,
    permanent,
    source_preset,
)

__all__ = ["run_selftest"]


def run_selftest(quiet: bool = False) -> bool:
    """Run every check; report one line each; True when all pass."""
    checks = [
        ("medium determinism and gaussian moments", _check_gaussian),
        ("haar unitarity and intensity conservation", _check_unitary),
        ("matrix container round-trip", _check_container),
        ("outcome law normalization and symmetry", _check_normalization),
        ("closed form matches permanent oracle", _check_oracle),
        ("embeddability guard", _check_embeddability),
        ("permanent against the definition", _check_permanent),
        ("two-photon completeness on a unitary", _check_completeness),
        ("visibility cosine law", _check_cosine_law),
        ("stepped shaping matches analytic", _check_stepped),
        ("programmed-phase fidelity", _check_programmed_phase),
        ("enhancement law (quick)", _check_enhancement),
        ("monte carlo determinism", _check_mc_determinism),
        ("noiseless alpha scan", _check_alpha_scan),
        ("manifest re-runs its scenario", _check_manifest),
    ]
    all_ok = True
    for name, check in checks:
        try:
            check()
            ok, detail = True, ""
        except Exception as exc:  # report, never crash the suite
            ok, detail = False, f" ({exc})"
        all_ok &= ok
        if not quiet or not ok:
            print(f"{'PASS' if ok else 'FAIL'} selftest: {name}{detail}")
    return all_ok


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _check_gaussian() -> None:
    a = gaussian_transmission_matrix(300, 400, 7)
    b = gaussian_transmission_matrix(300, 400, 7)
    picked = a.rows([0, 299, 5])  # read before entries: rows are a prefix of the whole draw
    _require(picked.tobytes() == a.entries[[0, 299, 5]].tobytes(), "rows differ from entries")
    _require(a.entries.tobytes() == b.entries.tobytes(), "regeneration is not bit-identical")
    mean_power = float(np.mean(np.abs(a.entries) ** 2))
    _require(abs(mean_power * 400 - 1.0) < 0.05, f"entry power {mean_power} far from 1/n_in")


def _check_unitary() -> None:
    u = haar_unitary(16, 5)
    defect = np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(16)))
    _require(defect < 1e-10, f"unitarity defect {defect}")
    x = rng_for(11).standard_normal(16) + 1j * rng_for(12).standard_normal(16)
    y = transmit(u, x)
    rel = abs(np.sum(np.abs(y) ** 2) - np.sum(np.abs(x) ** 2)) / np.sum(np.abs(x) ** 2)
    _require(rel < 1e-9, f"intensity not conserved, rel {rel}")


def _check_container() -> None:
    m = gaussian_transmission_matrix(12, 9, 42)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.tmat"
        save_matrix(m, path)
        again = load_matrix(path)
    _require(m.entries.tobytes() == again.entries.tobytes(), "round trip not bit-exact")
    _require(again.seed == 42 and again.kind == m.kind, "metadata lost")


def _check_normalization() -> None:
    for alpha in np.linspace(0.0, 2.0 * math.pi, 30):
        for frac in (0.25, 0.75, 1.0):
            t = frac * embeddability_bound(alpha)
            dist = outcome_probabilities(t, alpha)
            _require(abs(sum(dist) - 1.0) <= 1e-12, "probabilities do not sum to 1")
            mirrored = outcome_probabilities(t, -alpha)
            _require(
                np.allclose(dist, mirrored, atol=1e-12),
                "alpha -> -alpha symmetry broken",
            )


def _check_oracle() -> None:
    rng = rng_for(321)
    for _ in range(10):
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 1.0)) * embeddability_bound(alpha)
        closed = outcome_probabilities(t, alpha)
        block = t * np.array([[1.0, 1.0], [1.0, np.exp(1j * alpha)]])
        brute = outcome_distribution(block, 1.0)
        _require(np.max(np.abs(closed - brute)) < 1e-12, "closed form disagrees with oracle")


def _check_embeddability() -> None:
    rng = rng_for(99)
    for _ in range(200):
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 1.2)) * embeddability_bound(alpha)
        if t > embeddability_bound(alpha):
            try:
                outcome_probabilities(t, alpha)
                raise AssertionError("non-embeddable pair accepted")
            except EmbeddabilityError:
                continue
        dist = outcome_probabilities(t, alpha)
        _require(np.all(dist >= 0.0) and np.all(dist <= 1.0), "probability outside [0, 1]")


def _check_permanent() -> None:
    mat = np.array([[1 + 2j, 3, 0], [2, 1j, 1], [4, 1, 1 - 1j]])
    reference = sum(math.prod(mat[i, p[i]] for i in range(3)) for p in permutations(range(3)))
    _require(permanent(mat) == reference, "permanent deviates from the definition")


def _check_completeness() -> None:
    u = haar_unitary(6, 13)
    total = 0.0
    for m in range(6):
        for n in range(m, 6):
            total += two_photon_coincidence(u, (0, 1), (m, n), 1.0)
    _require(abs(total - 1.0) < 1e-12, f"outcome total {total} != 1")


def _check_cosine_law() -> None:
    source = source_preset("filtered")
    alphas = np.linspace(0.0, math.pi, 5)
    v = analytic_visibility(ideal_circuit(0.45, alphas), source).v
    worst = float(np.max(np.abs(v - source.intrinsic_overlap * np.cos(alphas))))
    _require(worst < 1e-9, f"visibility off overlap*cos(alpha) by up to {worst}")


def _check_stepped() -> None:
    # the bounds of the stepped-shaping tests; the stepped phases deviate
    # by ~1/sqrt(segments), so smaller patterns would miss them
    template = mode_templates(960)[0]
    rms, offsets = [], []
    for seed in range(1300, 1305):
        medium = gaussian_transmission_matrix(4, 960, seed)
        delta = np.angle(np.exp(1j * (
            optimize_pattern(medium, template, 0, method="stepped", steps=8).phases
            - optimize_pattern(medium, template, 0).phases
        )))
        offset = float(np.angle(np.mean(np.exp(1j * delta))))
        rms.append(math.sqrt(float(np.mean(np.angle(np.exp(1j * (delta - offset))) ** 2))))
        offsets.append(abs(offset))
    _require(float(np.median(rms)) < 0.1, f"median rms deviation {np.median(rms)} from analytic phases")
    _require(max(offsets) < 0.01, f"stepped phase origin off by up to {max(offsets)}")


def _check_programmed_phase() -> None:
    medium = gaussian_transmission_matrix(2000, 1920, 2024)
    _, _, circuit = program_circuit(medium, 960, 0, 1, math.pi)
    _require(
        phase_distance(circuit.alpha_fit, math.pi) < 0.15 * math.pi,
        f"alpha_fit {circuit.alpha_fit} far from pi",
    )


def _check_enhancement() -> None:
    media = [gaussian_transmission_matrix(256, 64, 3000 + seed) for seed in range(10)]
    template = mode_templates(64)[0]
    flat = shaped_input(template, 64)
    gamma_ratios, whole_ratios = [], []
    for medium in media:
        ratio = focusing_enhancement(medium, 0)
        optimum = target_intensity(medium, optimize_pattern(medium, template, 0), 0)
        # oracle: the optimized pattern read back, over the same Gamma draw's background
        others = rng_for(medium.seed, Stream.BACKGROUND).gamma(medium.n_out - 1, 1.0 / medium.n_in)
        shaped = ratio * (target_intensity(medium, template, 0) + others) / medium.n_out
        _require(abs(shaped / optimum - 1.0) < 1e-12, f"closed-form optimum {shaped} vs pattern route {optimum}")
        gamma_ratios.append(ratio)
        # oracle: the background summed over every row of the drawn medium
        whole_ratios.append(optimum / np.mean(np.abs(medium.entries @ flat) ** 2))
    gamma_route, whole_route = float(np.mean(gamma_ratios)), float(np.mean(whole_ratios))
    _require(abs(gamma_route / whole_route - 1.0) < 0.1, f"enhancement {gamma_route} vs whole medium {whole_route}")
    law = 1.0 + (math.pi / 4.0) * 63
    for route, value in (("gamma", gamma_route), ("whole-medium", whole_route)):
        _require(abs(value / law - 1.0) < 0.2, f"{route} enhancement {value} vs law {law}")


def _check_mc_determinism() -> None:
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    source = source_preset("broadband", mean_pairs_per_pulse=0.2)
    first = montecarlo_counts(circuit, source, 50_000, 77)
    second = montecarlo_counts(circuit, source, 50_000, 77)
    _require(first == second, "monte carlo counts not reproducible")


def _check_alpha_scan() -> None:
    config = ScenarioConfig(circuit="ideal", counting="analytic", overlap=1.0)
    result, _ = run_alpha_scan(config, master_seed=0)
    _require(abs(result.v0_fit - 1.0) < 1e-6, f"v0_fit {result.v0_fit} != 1")


def _check_manifest() -> None:
    # of the three grids an alpha-scan reads only alpha_grid: start:stop:count by default, a comma list off linspace
    off_linspace = ScenarioConfig(circuit="ideal", alpha_grid=[0.0, 1.0, math.pi])
    for config, compact in ((ScenarioConfig(circuit="ideal"), 1), (off_linspace, 0)):
        _, files = run_alpha_scan(config, master_seed=0)
        with tempfile.TemporaryDirectory() as tmp:
            text = emit_scenario(tmp, "alpha-scan", 0, files, config).read_text()
        again = parse_config(text, "alpha-scan")
        body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
        _require(format_config(again, scenario_keys("alpha-scan", again)) == body,
                 "manifest does not format back to the same text")
        written = sum(":" in line for line in body.splitlines())
        _require(written == compact, f"{written} grids written as start:stop:count, expected {compact}")
        same = again.alpha_grid.tobytes() == config.alpha_grid.tobytes()
        _require(same, "alpha_grid does not survive the manifest bit for bit")
        _require(run_alpha_scan(again, master_seed=0)[1] == files, "manifest does not re-run to the same files")
