"""End-to-end scenario runners wiring medium, shaping and statistics.

Each ``run_<scenario>(config, master_seed)`` reproduces one reference
curve at desk scale, or builds one medium, and returns ``(result,
files)``: the computed result and its file contents keyed by file name,
CSV text for curves and container bytes for a medium.
:func:`emit_scenario` writes the files plus a manifest into an output
directory; the manifest is a config file that re-runs the scenario
with the recorded master seed.  Everything is deterministic in the master
seed: replicate media draw child seeds along fixed integer paths, Monte
Carlo points use per-point substreams (tags in :mod:`specklesim.rng`),
and emitted files are byte-identical across runs.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import ScenarioConfig, format_config, scenario_keys
from .medium import MatrixKind, TransmissionMatrix, gaussian_transmission_matrix, haar_unitary, matrix_bytes
from .rng import STREAM_CONTRACT, ChildSeed, PointSeed, Stream, child_seed, rng_for
from .shaping import (
    ClassicalScan,
    DegenerateFitError,
    PhasePattern,
    ProgrammedCircuit,
    classical_scan,
    effective_circuit,
    combine_patterns,
    ideal_circuit,
    mode_templates,
    optimize_pattern,
    target_intensity,
)
from .twophoton import (
    OUTCOME_LABELS,
    CoincidenceScan,
    PhotonPairSource,
    VisibilityResult,
    check_scan,
    cosine_design,
    hom_scan,
    montecarlo_counts,
    outcome_probabilities,
    source_preset,
    visibility,
)

__all__ = [
    "ScenarioConfig",
    "AlphaScanResult",
    "EnhancementRow",
    "build_medium",
    "build_source",
    "program_circuit",
    "reference_delay",
    "analytic_visibility",
    "montecarlo_visibility",
    "fit_visibility_cosine",
    "ClassicalScanResult",
    "HomScanResult",
    "run_gen_medium",
    "run_probabilities",
    "run_optimize",
    "run_program",
    "run_classical_scan",
    "run_hom_scan",
    "run_alpha_scan",
    "focusing_enhancement",
    "run_enhancement_study",
    "emit_scenario",
]


def build_medium(config: ScenarioConfig, master_seed: int) -> TransmissionMatrix:
    """Generate the medium described by a config."""
    seed = config.resolved_medium_seed(master_seed)
    if config.medium_kind == "unitary":
        return haar_unitary(config.n_out, seed)
    return gaussian_transmission_matrix(config.n_out, config.resolved_n_in, seed)


def build_source(config: ScenarioConfig) -> PhotonPairSource:
    """Pair source from the configured preset plus overrides."""
    return source_preset(
        config.source,
        overlap=config.overlap,
        filter_fwhm_nm=config.bandwidth_fwhm_nm,
        mean_pairs_per_pulse=config.mean_pairs_per_pulse,
    )


def program_circuit(
    medium: TransmissionMatrix, segments: int, m: int, n: int, alpha, method: str = "analytic", steps: int = 8
) -> tuple[PhasePattern, PhasePattern, ProgrammedCircuit]:
    """Program the splitter at one phase ``alpha`` or along a 1-d grid of phases.

    The four single-target patterns ``(k->m, k->n, l->m, l->n)`` do not
    depend on the phase, so they are optimized once.  Returns
    ``(pattern_k, pattern_l, circuit)``; for a grid, ``pattern_l`` stacks
    one phase row per phase and ``circuit`` one block per phase.
    """
    single_targets = [
        optimize_pattern(medium, template, target, method, steps)
        for template in mode_templates(segments)
        for target in (m, n)
    ]
    pattern_k, pattern_l = combine_patterns(*single_targets, alpha)
    return pattern_k, pattern_l, effective_circuit(medium, pattern_k, pattern_l, m, n, alpha)


def reference_delay(source: PhotonPairSource) -> float:
    """Delay standing in for the experiment's far-out baseline.

    ``10 / sigma_omega`` leaves a residual overlap below ``exp(-100)``,
    indistinguishable from fully distinguishable photons.
    """
    return 10.0 / source.rms_angular_bandwidth


def analytic_visibility(circuit: ProgrammedCircuit, source: PhotonPairSource) -> VisibilityResult:
    """Noiseless visibility: zero-delay rate against the far-delay baseline.

    This is ``counting = analytic``, for one circuit or a whole grid.  It
    reads :func:`hom_scan`: the ``mu -> 0`` limit, without multi-pair emission.
    """
    scan = hom_scan(circuit, source, [0.0, reference_delay(source)])
    return visibility(scan.coincidence_rate[..., 0], scan.coincidence_rate[..., 1])


def montecarlo_visibility(
    circuit: ProgrammedCircuit,
    source: PhotonPairSource,
    n_pulses: int,
    seed: int,
) -> VisibilityResult:
    """Visibility estimated from two Monte Carlo runs (zero and far delay).

    The standard error follows from first-order propagation of the
    counting variances through ``v = c0/cref - 1``.
    """
    _, _, c0 = montecarlo_counts(circuit, source, n_pulses, child_seed(seed, PointSeed.ZERO_DELAY), delay_s=0.0)
    _, _, cref = montecarlo_counts(
        circuit, source, n_pulses, child_seed(seed, PointSeed.REFERENCE_DELAY), delay_s=reference_delay(source)
    )
    if cref == 0:
        raise DegenerateFitError("no reference coincidences; raise pulses_per_point")
    var0 = c0 * max(0.0, 1.0 - c0 / n_pulses)
    varref = cref * max(0.0, 1.0 - cref / n_pulses)
    std_err = math.sqrt(var0 / cref**2 + c0**2 * varref / cref**4)
    return visibility(float(c0), float(cref), std_err=std_err)


def fit_visibility_cosine(alphas, visibilities) -> tuple[float, float]:
    """One-parameter least squares of ``V(alpha) = V0 * cos(alpha)``.

    Returns ``(v0, std_err)`` with the standard error taken from the
    residual variance.  Degenerate when every ``cos(alpha)`` vanishes;
    a non-finite fit (a NaN or an infinity in the inputs) raises
    ``ValueError``.
    """
    alphas = np.asarray(alphas, dtype=float)
    values = np.asarray(visibilities, dtype=float)
    if alphas.shape != values.shape or alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas and visibilities must be matching non-empty 1-d arrays")
    cos, denom = cosine_design(alphas)
    v0 = float(np.sum(values * cos) / denom)
    if alphas.size > 1:
        residuals = values - v0 * cos
        std_err = math.sqrt(float(np.sum(residuals**2)) / (alphas.size - 1) / denom)
    else:
        std_err = 0.0
    if not math.isfinite(v0 + std_err):
        raise ValueError("alphas and visibilities must be finite")
    return v0, std_err


@dataclass(frozen=True, eq=False)
class AlphaScanResult:
    """Programmability curve: visibility versus programmed phase, as read-only copies."""

    alphas: np.ndarray
    visibilities: np.ndarray
    std_errs: np.ndarray
    v0_fit: float
    v0_std_err: float

    def __post_init__(self) -> None:
        check_scan(self, "alphas", "visibilities", "std_errs", signed=("visibilities",))
        if not (0.0 <= self.v0_std_err < math.inf and abs(self.v0_fit) <= 1.0 + 3.0 * self.v0_std_err + 1e-12):
            raise ValueError(f"v0_fit = {self.v0_fit} +- {self.v0_std_err} is not a physical visibility amplitude")


def _shaping(config: ScenarioConfig) -> tuple:
    """The configured shaping arguments ``(method, steps)``; ``steps`` is read only with ``method = stepped``."""
    return (config.method, config.steps) if config.method == "stepped" else (config.method,)


def _program(config: ScenarioConfig, master_seed: int, alpha):
    """:func:`program_circuit` on the configured medium, outputs and shaping."""
    medium = build_medium(config, master_seed)
    m, n = config.output_m, config.output_n
    return program_circuit(medium, config.segments, m, n, alpha, *_shaping(config))


def _circuit(config: ScenarioConfig, master_seed: int, alpha) -> ProgrammedCircuit:
    """The configured circuit at one phase or over a grid: ideal, or shaped into the medium."""
    if config.circuit == "shaped":
        return _program(config, master_seed, alpha)[2]
    return ideal_circuit(config.t, alpha)


def _csv(header: str, rows) -> str:
    """CSV text; numbers get 17 significant digits so they round-trip."""
    lines = [header]
    lines.extend(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _pattern_csv(pattern: PhasePattern) -> str:
    rows = zip(range(pattern.n_segments), pattern.segment_to_channel, pattern.phases)
    return _csv("segment,channel,phase_rad", rows)


def run_gen_medium(config: ScenarioConfig, master_seed: int = 0) -> tuple[TransmissionMatrix, dict[str, bytes]]:
    """Build the configured medium and its binary container."""
    medium = build_medium(config, master_seed)
    return medium, {"medium.tmat": matrix_bytes(medium)}


def run_probabilities(config: ScenarioConfig, master_seed: int = 0) -> tuple[np.ndarray, dict[str, str]]:
    """Two-photon outcome probabilities of the ideal splitter at ``config.t``, ``config.alpha``, by label."""
    dist = outcome_probabilities(config.t, config.alpha)
    return dist, {"outcomes.csv": _csv("outcome,probability", zip(OUTCOME_LABELS, dist))}


def run_optimize(config: ScenarioConfig, master_seed: int = 0) -> tuple[PhasePattern, dict[str, str]]:
    """Focus input mode ``k`` onto output ``output_m`` of the configured medium."""
    medium = build_medium(config, master_seed)
    template = mode_templates(config.segments)[0]
    pattern = optimize_pattern(medium, template, config.output_m, *_shaping(config))
    return pattern, {"pattern_k.csv": _pattern_csv(pattern)}


def run_program(config: ScenarioConfig, master_seed: int = 0) -> tuple[ProgrammedCircuit, dict[str, str]]:
    """Program the splitter at ``config.alpha`` and read back its circuit."""
    pattern_k, pattern_l, circuit = _program(config, master_seed, config.alpha)
    couplings = np.ravel(circuit.sub_matrix).view(np.float64)  # mk, ml, nk, nl as (real, imaginary) pairs
    fit = (circuit.alpha_set, circuit.alpha_fit, circuit.t_fit, circuit.largest_singular_value)
    header = "t_mk_re,t_mk_im,t_ml_re,t_ml_im,t_nk_re,t_nk_im,t_nl_re,t_nl_im,alpha_set,alpha_fit,t_fit,sigma_max"
    return circuit, {
        "pattern_k.csv": _pattern_csv(pattern_k),
        "pattern_l.csv": _pattern_csv(pattern_l),
        "circuit.csv": _csv(header, [(*couplings, *fit)]),
    }


class ClassicalScanResult(NamedTuple):
    scan: ClassicalScan
    fit_m: tuple[float, float, float]  # (offset, amplitude, phase) as fit_sine's, read off the block's row
    fit_n: tuple[float, float, float]


def _sinusoid(near: complex, far: complex) -> tuple[float, float, float]:
    """``|near + far exp(i*theta)|^2 = |near|^2 + |far|^2 + 2 Re(far conj(near) exp(i*theta))`` as ``fit_sine``'s
    ``(offset, amplitude, phase)``: the phase is ``arg(far conj(near)) + pi/2``, and 0 for a flat response."""
    product = far * near.conjugate()
    amplitude = 2.0 * abs(product)
    return abs(near) ** 2 + abs(far) ** 2, amplitude, cmath.phase(1j * product) if amplitude else 0.0


def run_classical_scan(config: ScenarioConfig, master_seed: int = 0) -> tuple[ClassicalScanResult, dict]:
    """Two-beam scan of the configured circuit (ideal, or shaped at ``config.alpha``), with its block's sinusoids."""
    circuit = _circuit(config, master_seed, config.alpha)
    scan = classical_scan(circuit, config.delta_theta_grid)
    fit_m, fit_n = (_sinusoid(near, far) for near, far in circuit.sub_matrix.tolist())
    rows = zip(scan.delta_theta, scan.intensity_m, scan.intensity_n)
    return ClassicalScanResult(scan, fit_m, fit_n), {
        "scan.csv": _csv("delta_theta_rad,intensity_m,intensity_n", rows),
        "fits.csv": _csv("output,offset,amplitude,phase_rad", [("m", *fit_m), ("n", *fit_n)]),
    }


class HomScanResult(NamedTuple):
    scan: CoincidenceScan
    visibility: VisibilityResult  # at zero delay, against the far-delay baseline, for any delay grid


def run_hom_scan(config: ScenarioConfig, master_seed: int = 0) -> tuple[HomScanResult, dict[str, str]]:
    """Delay scan of the configured circuit (ideal, or shaped at ``config.alpha``).

    The summary visibility is :func:`analytic_visibility`, at zero delay
    whether or not ``config.delay_grid`` holds it.  The ideal 50:50
    splitter (``t = 1/sqrt(2)``, ``alpha = pi``) with the ``broadband`` and
    ``filtered`` presets gives the two reference dips: their depths
    reproduce the preset overlaps and their widths scale with the inverse
    bandwidths.
    """
    circuit = _circuit(config, master_seed, config.alpha)
    source = build_source(config)
    scan = hom_scan(circuit, source, config.delay_grid)
    vis = analytic_visibility(circuit, source)
    rows = zip(scan.delays, scan.coincidence_rate, scan.singles_m, scan.singles_n)
    return HomScanResult(scan, vis), {
        "scan.csv": _csv("delay_s,coincidence,singles_m,singles_n", rows),
        "summary.csv": _csv("visibility", [(vis.v,)]),
    }


def run_alpha_scan(config: ScenarioConfig, master_seed: int = 0) -> tuple[AlphaScanResult, dict[str, str]]:
    """Scan the programmed phase and fit the visibility cosine law.

    The circuit is programmed over the whole grid (ideally or by shaping
    the configured medium), and each phase's visibility compares its
    coincidence rate at zero delay with the far reference delay: in one
    call for analytic counting, per block and point seed for Monte Carlo.
    A one-parameter cosine fit summarizes the scan.  A shaped scan
    optimizes its four single-target patterns once, for the whole grid.
    """
    source = build_source(config)
    circuit = _circuit(config, master_seed, config.alpha_grid)
    if config.counting == "analytic":
        visibilities = analytic_visibility(circuit, source).v
        std_errs = np.zeros(config.alpha_grid.shape)
    else:
        visibilities = []
        std_errs = []
        for index, alpha in enumerate(config.alpha_grid):
            point = ProgrammedCircuit(circuit.sub_matrix[index], alpha)
            point_seed = child_seed(master_seed, ChildSeed.ALPHA_POINT, index)
            result = montecarlo_visibility(point, source, config.pulses_per_point, point_seed)
            visibilities.append(result.v)
            std_errs.append(result.std_err)
    v0, v0_err = fit_visibility_cosine(config.alpha_grid, visibilities)
    scan = AlphaScanResult(
        alphas=config.alpha_grid,
        visibilities=visibilities,
        std_errs=std_errs,
        v0_fit=v0,
        v0_std_err=v0_err,
    )
    rows = zip(scan.alphas, scan.visibilities, scan.std_errs)
    return scan, {
        "visibility.csv": _csv("alpha_rad,visibility,std_err", rows),
        "fit.csv": _csv("v0_fit,v0_std_err", [(v0, v0_err)]),
    }


@dataclass(frozen=True)
class EnhancementRow:
    n_segments: int
    mean_enhancement: float
    std_enhancement: float
    predicted: float


def focusing_enhancement(
    medium: TransmissionMatrix, target: int, method: str = "analytic", steps: int = 8
) -> float:
    """Enhancement of one output when every input channel is one segment.

    The optimized target intensity divided by the mean unshaped speckle
    intensity ``|T f0|^2`` over all outputs, ``f0`` being the zero-phase
    template field, ``1/sqrt(n_in)`` on every channel.  Only the target
    row ``t`` is read.
    Under ``"analytic"`` every segment's phase conjugates its channel, so
    the optimum is exactly ``(sum_c |t_c|)^2 / n_in``; ``"stepped"``
    still runs the feedback emulation of :func:`optimize_pattern`.
    ``f0`` has unit norm and Gaussian entries have variance ``1/n_in``,
    so every other row's ``|row . f0|^2`` is exponential with mean
    ``1/n_in``, independent of the target row, and their sum is exactly
    Gamma(``n_out - 1``, scale ``1/n_in``): one draw from the medium
    seed's background substream.  The background is that draw plus the
    target row's own unshaped ``|sum_c t_c|^2 / n_in``, over ``n_out``.
    Reading row ``target`` draws the rows before it too; they are
    ignored.  The law needs i.i.d. Gaussian entries, so a unitary medium
    is rejected.
    """
    if medium.kind is not MatrixKind.GAUSSIAN:
        raise ValueError(f"focusing_enhancement needs a gaussian medium, got {medium.kind.value}")
    row = medium.rows(target)
    if method == "analytic":
        shaped = np.add.reduce(np.abs(row)) ** 2 / medium.n_in
    else:
        template = PhasePattern(np.zeros(medium.n_in), "k", np.arange(medium.n_in))
        shaped = target_intensity(medium, optimize_pattern(medium, template, target, method, steps), target)
    others = rng_for(medium.seed, Stream.BACKGROUND).gamma(medium.n_out - 1, 1.0 / medium.n_in)
    background = (abs(np.add.reduce(row)) ** 2 / medium.n_in + others) / medium.n_out
    return float(shaped / background)


def run_enhancement_study(
    config: ScenarioConfig, master_seed: int = 0
) -> tuple[list[EnhancementRow], dict[str, str]]:
    """Measure the focusing enhancement against the phase-only law.

    For each segment count, ``config.seeds`` fresh media are drawn and
    their :func:`focusing_enhancement` at ``output_m`` is averaged.  Each
    medium draws rows up to ``output_m`` only.  Analytic shaping reads
    the optimum from its closed form ``(sum_c |t_c|)^2 / n_in``; stepped
    shaping runs the feedback emulation.  The unshaped background of the
    other outputs is one draw from its exact Gamma law.  The
    prediction for ``N`` phase-only segments is ``1 + (pi/4) (N - 1)``.
    """
    rows: list[EnhancementRow] = []
    shaping = _shaping(config)
    for idx, n_seg in enumerate(config.segment_counts):
        ratios = []
        for replicate in range(config.seeds):
            seed = child_seed(master_seed, ChildSeed.STUDY, idx, replicate)
            medium = gaussian_transmission_matrix(config.n_out, n_seg, seed)
            ratios.append(focusing_enhancement(medium, config.output_m, *shaping))
        rows.append(
            EnhancementRow(
                n_segments=int(n_seg),
                mean_enhancement=float(np.mean(ratios)),
                std_enhancement=float(np.std(ratios)),
                predicted=1.0 + (math.pi / 4.0) * (n_seg - 1),
            )
        )
    table = [(r.n_segments, r.mean_enhancement, r.std_enhancement, r.predicted) for r in rows]
    return rows, {"enhancement.csv": _csv("n_segments,mean_enhancement,std_enhancement,predicted", table)}


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def emit_scenario(
    out_dir: str | Path,
    scenario: str,
    master_seed: int,
    files: dict[str, str | bytes],
    config: ScenarioConfig,
    force: bool = False,
) -> Path:
    """Write data files with deterministic names, then their manifest.

    Every file is named ``<scenario>_seed<seed>.<name>``.  A ``str`` value
    is written as text with LF line ends, a ``bytes`` value as is.  The
    manifest holds the scenario, artifact version, stream contract, numpy
    version and master seed as ``#`` comment lines, then
    :func:`~specklesim.config.format_config` of the keys that ``scenario``
    reads (:func:`~specklesim.config.scenario_keys`).  An existing
    manifest is never overwritten unless ``force`` is set.  Each file is
    written under a temporary name and renamed into place, and the
    manifest comes last, so a failed write leaves no manifest behind.
    Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = f"{scenario}_seed{master_seed}"
    manifest_path = out / f"{prefix}.manifest.txt"
    if manifest_path.exists() and not force:
        raise FileExistsError(f"{manifest_path} already exists; pass force/--force to overwrite")
    provenance = {
        "scenario": scenario,
        "artifact_version": __version__,
        "stream_contract": STREAM_CONTRACT,
        "numpy": np.__version__,
        "master_seed": master_seed,
    }
    settings = format_config(config, scenario_keys(scenario, config))
    text = "".join(f"# {key} = {value}\n" for key, value in provenance.items()) + settings
    # a manifest vouches for a complete run; the old one goes before any data changes
    manifest_path.unlink(missing_ok=True)
    for name, data in files.items():
        _write_replacing(out / f"{prefix}.{name}", data)
    _write_replacing(manifest_path, text)
    return manifest_path


def _write_replacing(path: Path, data: str | bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it into place."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
