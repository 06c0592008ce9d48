"""Physics checks on the artifacts of each benchmark operation.

Artifacts are checked against physics, never against stored bytes, so a
versioned change of the random-stream contract still passes.  Tolerances
are the acceptance suite's (``tests/test_acceptance.py``); none is wider.

Each check is one of two kinds:

- *exact*: an identity that holds for every seed when the program
  computes correctly, such as a visibility equal to the closed form of
  the circuit the medium realizes.  A failure means the program's output
  is wrong, and the run reports ``correct: false``.
- *criterion*: an acceptance criterion applied to this one run's media,
  such as the programmed phase tracking ``alpha`` within 0.05 pi.  A
  failure counts the operation as failed.  The acceptance suite applies
  some of these tolerances to averages over many media, so on a single
  medium a correct program can miss them on a few seeds.

Every failed check of either kind fails its operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specklesim.config import parse_config
from specklesim.experiments import ScenarioConfig, build_medium, build_source, program_circuit, reference_delay
from specklesim.shaping import phase_distance
from specklesim.twophoton import overlap_from_delay

VISIBILITY_TOL = 1e-6  # criterion 4
PHASE_TOL = 0.05 * math.pi  # criterion 5
RELATIVE_TOL = 0.10  # criteria 5 (amplitude gap) and 6 (enhancement law)
SIGMAS = 3.0  # criterion 8
FIT_RTOL = 1e-9  # a number the program printed with 17 digits, recomputed here


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    exact: bool
    detail: str


def _table(text: str, header: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or not np.all(np.isfinite(rows)):
        raise ValueError(f"table under {header!r} is empty or not finite")
    return rows


def _grid_check(name: str, got: np.ndarray, want: np.ndarray) -> Check:
    ok = got.shape == want.shape and bool(np.allclose(got, want, rtol=1e-15, atol=1e-15))
    return Check(name, ok, True, f"{got.size} points, configured {want.size}")


def _cosine_fit_check(vis_rows: np.ndarray, fit_text: str) -> Check:
    """``fit.csv`` holds the least-squares ``V0`` of ``V = V0 cos(alpha)``."""
    v0_fit = float(_table(fit_text, "v0_fit,v0_std_err")[0, 0])
    alphas, values = vis_rows[:, 0], vis_rows[:, 1]
    cos = np.cos(alphas)
    v0 = float(np.sum(values * cos) / np.sum(cos * cos))
    ok = abs(v0_fit - v0) <= FIT_RTOL * max(1.0, abs(v0))
    return Check("cosine_fit", ok, True, f"fit.csv v0 = {v0_fit:.6f}, refit of visibility.csv = {v0:.6f}")


def _readback(config: ScenarioConfig, seed: int, alphas) -> list:
    medium = build_medium(config, seed)
    return [
        program_circuit(
            medium, config.segments, config.output_m, config.output_n, float(a), config.method, config.steps
        )[2]
        for a in alphas
    ]


def shaped_alpha_scan(files: dict[str, bytes], config: ScenarioConfig, seed: int) -> list[Check]:
    rows = _table(files["visibility.csv"].decode(), "alpha_rad,visibility,std_err")
    alphas, values = rows[:, 0], rows[:, 1]
    source = build_source(config)
    x0 = overlap_from_delay(source, 0.0)
    x_ref = overlap_from_delay(source, reference_delay(source))
    expected = []
    misses = []
    for alpha, circuit in zip(alphas, _readback(config, seed, alphas)):
        sub = circuit.sub_matrix
        direct = sub[0, 0] * sub[1, 1]
        crossed = sub[0, 1] * sub[1, 0]
        distinguishable = abs(direct) ** 2 + abs(crossed) ** 2
        interference = 2.0 * (direct * np.conj(crossed)).real
        # coincidence probability at overlap x is distinguishable + x * interference
        expected.append(
            (distinguishable + x0 * interference) / (distinguishable + x_ref * interference) - 1.0
        )
        misses.append(phase_distance(circuit.alpha_fit, alpha))
    worst = float(np.max(np.abs(values - np.array(expected))))
    v0_fit = float(_table(files["fit.csv"].decode(), "v0_fit,v0_std_err")[0, 0])
    mean_miss = float(np.mean(misses))
    return [
        _grid_check("alpha_grid", alphas, config.alpha_grid),
        Check(
            "visibility_closed_form", worst <= VISIBILITY_TOL, True,
            f"worst |V - V(read-back circuit)| = {worst:.3g} (tol {VISIBILITY_TOL:g})",
        ),
        _cosine_fit_check(rows, files["fit.csv"].decode()),
        Check(
            "alpha_fidelity", mean_miss <= PHASE_TOL, False,
            f"mean |alpha_fit - alpha| = {mean_miss / math.pi:.4f} pi (tol 0.05 pi)",
        ),
        Check(
            "v0_overlap", abs(v0_fit / x0 - 1.0) <= RELATIVE_TOL, False,
            f"v0_fit = {v0_fit:.4f} against source overlap {x0:.4f} (tol 10%)",
        ),
    ]


def classical_scan(files: dict[str, bytes], config: ScenarioConfig, seed: int) -> list[Check]:
    rows = _table(files["scan.csv"].decode(), "delta_theta_rad,intensity_m,intensity_n")
    theta = rows[:, 0]
    fits = files["fits.csv"].decode().strip().splitlines()
    if fits[0] != "output,offset,amplitude,phase_rad" or [f.split(",")[0] for f in fits[1:]] != ["m", "n"]:
        raise ValueError("fits.csv must hold one row for output m and one for output n")
    phase_m, phase_n = (float(f.split(",")[3]) for f in fits[1:])
    circuit = _readback(config, seed, [config.alpha])[0]
    (a, b), (c, d) = circuit.sub_matrix
    rotation = np.exp(1j * theta)
    worst = 0.0
    for measured, near, far in ((rows[:, 1], a, b), (rows[:, 2], c, d)):
        model = np.abs(near + far * rotation) ** 2
        worst = max(worst, float(np.max(np.abs(measured - model)) / np.max(model)))
    gap_vs_fit = phase_distance(phase_n - phase_m, circuit.alpha_fit)
    return [
        _grid_check("delta_theta_grid", theta, config.delta_theta_grid),
        Check(
            "scan_closed_form", worst <= VISIBILITY_TOL, True,
            f"worst relative |I - I(read-back circuit)| = {worst:.3g} (tol {VISIBILITY_TOL:g})",
        ),
        Check(
            "sine_phase_gap", gap_vs_fit <= VISIBILITY_TOL, True,
            f"|(phase_n - phase_m) - alpha_fit| = {gap_vs_fit:.3g} rad (tol {VISIBILITY_TOL:g})",
        ),
    ]


def enhancement_study(files: dict[str, bytes], config: ScenarioConfig, seed: int) -> list[Check]:
    rows = _table(files["enhancement.csv"].decode(), "n_segments,mean_enhancement,std_enhancement,predicted")
    counts = rows[:, 0]
    law = 1.0 + (math.pi / 4.0) * (counts - 1.0)
    rows_ok = (
        counts.tolist() == list(config.segment_counts)
        and bool(np.allclose(rows[:, 3], law, rtol=1e-12, atol=0.0))
        and bool(np.all(rows[:, 2] >= 0.0))
    )
    worst = float(np.max(np.abs(rows[:, 1] / law - 1.0)))
    return [
        Check("rows", rows_ok, True, f"segment counts {counts.astype(int).tolist()}, law column 1 + (pi/4)(N-1)"),
        Check(
            "enhancement_law", worst <= RELATIVE_TOL, False,
            f"worst |mean / (1 + (pi/4)(N-1)) - 1| = {worst:.4f} (tol 0.10)",
        ),
    ]


def montecarlo_alpha_scan(files: dict[str, bytes], config: ScenarioConfig, seed: int) -> list[Check]:
    rows = _table(files["visibility.csv"].decode(), "alpha_rad,visibility,std_err")
    return [
        _grid_check("alpha_grid", rows[:, 0], config.alpha_grid),
        Check("std_err", bool(np.all(rows[:, 2] >= 0.0)), True, "standard errors are nonnegative"),
        _cosine_fit_check(rows, files["fit.csv"].decode()),
    ]


def hom_scan(files: dict[str, bytes], config: ScenarioConfig, seed: int) -> list[Check]:
    rows = _table(files["scan.csv"].decode(), "delay_s,coincidence,singles_m,singles_n")
    v = float(_table(files["summary.csv"].decode(), "visibility")[0, 0])
    expected = -build_source(config).intrinsic_overlap
    return [
        _grid_check("delay_grid", rows[:, 0], config.delay_grid),
        Check(
            "hom_visibility", abs(v - expected) <= VISIBILITY_TOL, True,
            f"V = {v:.9f}, expected {expected:.9f} (tol {VISIBILITY_TOL:g})",
        ),
    ]


def multi_pair_reduction(high: dict[str, bytes], low: dict[str, bytes]) -> Check:
    """Criterion 8: |V| at mu = 0.5 sits below |V| at mu = 0.01 by > 3 sigma."""
    v_high, err_high = _table(high["fit.csv"].decode(), "v0_fit,v0_std_err")[0]
    v_low, err_low = _table(low["fit.csv"].decode(), "v0_fit,v0_std_err")[0]
    gap = abs(v_low) - abs(v_high)
    sigma = math.hypot(err_high, err_low)
    return Check(
        "multi_pair_reduction", gap > SIGMAS * sigma, False,
        f"|V0(highpower)| = {abs(v_high):.4f}, |V0(filtered)| = {abs(v_low):.4f}, "
        f"gap {gap:.4f} against 3 sigma = {SIGMAS * sigma:.4f}",
    )


OPERATION_CHECKS = {
    "alpha-scan-analytic": shaped_alpha_scan,
    "alpha-scan-stepped": shaped_alpha_scan,
    "classical-scan": classical_scan,
    "enhancement-study": enhancement_study,
    "alpha-scan-highpower": montecarlo_alpha_scan,
    "alpha-scan-filtered": montecarlo_alpha_scan,
    "hom-scan": hom_scan,
}


def check_operations(
    artifacts: dict[str, dict[str, bytes]],
    config_paths: dict[str, Path],
    seeds: dict[str, int],
) -> dict[str, list[Check]]:
    """Run every check on each operation's artifacts, keyed by operation.

    ``artifacts`` maps an operation to its files, keyed by the part of
    the file name after the ``<scenario>_seed<seed>.`` prefix.  An
    operation that left no readable artifact fails an exact check.
    """
    out: dict[str, list[Check]] = {}
    for op, files in artifacts.items():
        try:
            config = parse_config(config_paths[op].read_text())
            out[op] = OPERATION_CHECKS[op](files, config, seeds[op])
        except (KeyError, ValueError, IndexError) as exc:
            out[op] = [Check("artifacts_readable", False, True, f"{type(exc).__name__}: {exc}")]
    if "alpha-scan-highpower" in artifacts and "alpha-scan-filtered" in artifacts:
        try:
            check = multi_pair_reduction(artifacts["alpha-scan-highpower"], artifacts["alpha-scan-filtered"])
        except (KeyError, ValueError, IndexError) as exc:
            check = Check("multi_pair_reduction", False, True, f"{type(exc).__name__}: {exc}")
        out["alpha-scan-highpower"].append(check)
    return out
