"""Phase-only wavefront shaping and 2x2 circuit programming.

The spatial light modulator splits each input mode into segments and
imposes one phase per segment.  Against a random medium this buys three
capabilities, built on top of each other:

1. :func:`optimize_pattern` finds the per-segment phases that make all
   contributions at one target output channel interfere constructively,
   turning a speckle grain into a bright enhanced spot.
2. :func:`combine_patterns` merges two single-target patterns per input
   mode into one phase-only pattern that feeds both outputs at once, with
   a programmable phase ``alpha`` inserted on one path.  A grid of phases
   takes the same path: mode ``l``'s pattern stacks one row per phase.
3. :func:`effective_circuit` reads back the resulting 2x2 field matrix,
   one block per phase, from the two output rows over each mode's driven
   channels only; the returned :class:`ProgrammedCircuit` fits the programmed-splitter form
   ``t * [[1, 1], [1, exp(i*alpha)]]``, and :func:`classical_scan` and the
   two-photon statistics read that circuit, never the medium again.

Phase reference.  All analytic patterns are measured against a fixed
phase origin: the phase the medium imprints on input channel 0 at the
pattern's target output, as if every measurement interfered with the
same reference channel.  A shared origin is what keeps patterns for
*different* input modes mutually consistent; with per-pattern origins
the programmed phase between the combined patterns would be scrambled by
an arbitrary per-mode offset.  A pattern whose first segment drives
channel 0 therefore carries phase 0 on that segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .medium import MatrixKind, TransmissionMatrix
from .rng import check_integer, read_only_copy
from .twophoton import DegenerateFitError, check_amplitude, check_embeddable, check_scan

__all__ = [
    "DegenerateFitError",
    "PhasePattern",
    "ProgrammedCircuit",
    "ClassicalScan",
    "mode_templates",
    "optimize_pattern",
    "combine_patterns",
    "effective_circuit",
    "ideal_circuit",
    "classical_scan",
    "fit_sine",
    "target_intensity",
    "phase_distance",
]

TWO_PI = 2.0 * math.pi

# Input channel whose transmission phase serves as the global phase origin.
REFERENCE_CHANNEL = 0

# fit_sine needs det / trace**2 of its 2x2 normal equations (about their reciprocal
# condition number) above this
_FIT_RCOND = 1e-12


def _wrap_phase(values: np.ndarray) -> np.ndarray:
    # np.mod can round a tiny negative input up to exactly 2*pi
    wrapped = np.mod(values, TWO_PI)
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


@dataclass(frozen=True, eq=False)
class PhasePattern:
    """Per-segment modulator phases for one input mode.

    ``phases[..., s]`` is segment ``s``'s phase; a stack of rows, such as
    ``(points, segments)`` for mode ``l`` over a phase grid, shares one mapping.
    ``segment_to_channel[s]`` is the medium input channel driven by
    segment ``s``; mappings of different input modes must be disjoint.
    Both arrays are read-only copies the pattern owns.
    """

    phases: np.ndarray
    input_mode_id: str
    segment_to_channel: np.ndarray

    def __post_init__(self) -> None:
        phases, channels = read_only_copy(self.phases), read_only_copy(self.segment_to_channel, np.int64)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "segment_to_channel", channels)
        if phases.ndim == 0 or phases.shape[-1] == 0:
            raise ValueError("pattern needs at least one segment")
        if channels.shape != phases.shape[-1:]:
            raise ValueError("segment_to_channel must map every segment")
        if not np.all((phases >= 0.0) & (phases < TWO_PI)):  # NaN fails both comparisons
            raise ValueError("phases must lie in [0, 2*pi)")
        if np.any(channels < 0):
            raise ValueError("channel indices must be nonnegative")
        ordered = np.sort(channels)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("segment_to_channel must be injective")

    @property
    def n_segments(self) -> int:
        return self.phases.shape[-1]

    def _check_one_row(self, name: str) -> None:
        if self.phases.ndim != 1:
            raise ValueError(f"{name} must hold one phase row, got phases of shape {self.phases.shape}")


def mode_templates(n_segments: int) -> list[PhasePattern]:
    """Zero-phase templates for modes ``k`` and ``l`` on contiguous disjoint channel blocks.

    Mode ``k`` drives channels ``[0, n_segments)``, mode ``l`` ``[n_segments, 2*n_segments)``.
    """
    n_segments = check_integer("n_segments", n_segments)
    out = []
    for i, mode_id in enumerate(("k", "l")):
        channels = np.arange(i * n_segments, (i + 1) * n_segments, dtype=np.int64)
        out.append(PhasePattern(np.zeros(n_segments), mode_id, channels))
    return out


def _check_channels(pattern: PhasePattern, n_in: int) -> np.ndarray:
    if int(pattern.segment_to_channel.max()) >= n_in:
        raise ValueError("pattern drives channels outside the medium")
    return pattern.segment_to_channel


def _driven_field(rows: np.ndarray, pattern: PhasePattern) -> np.ndarray:
    """Field a pattern's unit-power input, spread evenly over its segments, sends into output ``rows``.

    Only its channels enter; each phase row is its own ``(r, S) @ (S, 1)`` product, so a stack keeps each row's bits."""
    coupling = rows[..., _check_channels(pattern, rows.shape[-1])]
    drive = np.exp(1j * pattern.phases) / math.sqrt(pattern.n_segments)
    return (coupling @ drive[..., None])[..., 0]


def target_intensity(matrix: TransmissionMatrix, pattern: PhasePattern, target_output: int) -> float:
    """Intensity at one output channel for a shaped unit-power input of one phase row."""
    pattern._check_one_row("pattern")
    return float(abs(_driven_field(matrix.rows(target_output), pattern)) ** 2)


def optimize_pattern(
    matrix: TransmissionMatrix,
    template: PhasePattern,
    target_output: int,
    method: str = "analytic",
    steps: int = 8,
) -> PhasePattern:
    """Phases maximizing constructive interference at one output channel.

    Parameters
    ----------
    matrix:
        The medium.
    template:
        Pattern defining the segment-to-channel mapping; its phases are
        the starting state for the stepped method.
    target_output:
        Output channel to enhance.
    method:
        ``"analytic"`` reads the optimum off the matrix: each segment
        phase is the negative transmission phase of its channel, offset
        to the shared channel-0 reference (see the module docstring).
        ``"stepped"`` emulates a feedback experiment: each segment is
        scanned over ``steps`` equally spaced phases against the
        otherwise unmodified template pattern, and all fitted maximizers
        are applied together at the end.  Every segment's intensity
        response is computed at once, as one ``(segments, steps)``
        array, and :func:`fit_sine` fits each row in closed form; a
        segment whose fit has amplitude exactly 0 (a flat response, as
        from a channel with no coupling to the target) keeps its
        template phase.  The result is then rotated as a whole onto the
        channel-0 origin the analytic method uses, which leaves the
        target intensity unchanged.  With noiseless intensities it
        reproduces the analytic pattern up to the finite strength of the
        unshaped reference field.
    steps:
        Phase steps per segment for ``"stepped"``; at least 3, or the
        sinusoid is under-determined.

    Both methods share the phase origin, so the optimized field at the
    target carries the medium's channel-0 phase there, and the target
    intensity never drops below its template value.
    """
    template._check_one_row("template")
    channels = _check_channels(template, matrix.n_in)
    row = matrix.rows(target_output)
    if method == "analytic":
        reference = np.angle(row[REFERENCE_CHANNEL])
        phases = _wrap_phase(reference - np.angle(row[channels]))
        return PhasePattern(phases, template.input_mode_id, channels)
    if method != "stepped":
        raise ValueError(f"unknown method {method!r}; expected 'analytic' or 'stepped'")
    steps = check_integer("steps", steps, 3, math.inf, "integer >= 3")

    amplitude = 1.0 / math.sqrt(template.n_segments)
    coupling = amplitude * row[channels]
    contributions = coupling * np.exp(1j * template.phases)
    # every segment's scan response at once, one segment per row
    rest = contributions.sum() - contributions
    scan_phases = np.arange(steps) * TWO_PI / steps
    responses = np.abs(rest[:, None] + coupling[:, None] * np.exp(1j * scan_phases)) ** 2
    _, fit_amplitudes, fit_phases = np.array([fit_sine(scan_phases, response) for response in responses]).T
    phases = np.where(fit_amplitudes > 0.0, _wrap_phase(math.pi / 2.0 - fit_phases), template.phases)
    # rotate onto the shared origin: the target field takes the channel-0 phase
    achieved = np.sum(coupling * np.exp(1j * phases))
    phases = _wrap_phase(phases + np.angle(row[REFERENCE_CHANNEL]) - np.angle(achieved))
    return PhasePattern(phases, template.input_mode_id, channels)


def combine_patterns(
    p_km: PhasePattern,
    p_kn: PhasePattern,
    p_lm: PhasePattern,
    p_ln: PhasePattern,
    alpha,
):
    """Merge four single-target patterns into one pattern per input mode.

    Per segment the two parent phasors are added and only the argument is
    kept (the modulator is phase-only; the amplitude penalty of dropping
    the modulus surfaces later as a lower fitted ``t``).  The programmed
    phase ``alpha`` is inserted on the second mode's path to output ``n``
    before combining; any single-arm placement is equivalent for the
    resulting 2x2 circuit, fixing one keeps results deterministic.

    Where the two parent phasors cancel exactly, the tie breaks to the
    first parent's phase.

    ``alpha`` is one phase or a grid; mode ``l``'s pattern has one phase
    row per phase (``phases`` of shape ``(*alpha.shape, segments)``) and
    mode ``k``'s, which carries no ``alpha``, one row.
    """
    _check_siblings(p_km, p_kn)
    _check_siblings(p_lm, p_ln)
    combined_k = PhasePattern(_phasor_sum_phase(p_km.phases, p_kn.phases, 0.0), p_km.input_mode_id, p_km.segment_to_channel)
    offsets = np.asarray(alpha, dtype=float)[..., None]
    return combined_k, PhasePattern(
        _phasor_sum_phase(p_lm.phases, p_ln.phases, offsets), p_lm.input_mode_id, p_lm.segment_to_channel
    )


def _phasor_sum_phase(first: np.ndarray, second: np.ndarray, offset) -> np.ndarray:
    total = np.exp(1j * first) + np.exp(1j * (second + offset))
    return _wrap_phase(np.where(total == 0, first, np.angle(total)))


def _check_siblings(a: PhasePattern, b: PhasePattern) -> None:
    if a.input_mode_id != b.input_mode_id:
        raise ValueError(f"patterns drive different input modes: {a.input_mode_id!r} vs {b.input_mode_id!r}")
    if not np.array_equal(a.segment_to_channel, b.segment_to_channel):
        raise ValueError("patterns of one input mode must share their segment mapping")


@dataclass(frozen=True, eq=False)
class ProgrammedCircuit:
    """Effective 2x2 field matrix carved out of the medium, at one phase or over a grid.

    ``sub_matrix[..., i, j]`` couples shaped input mode ``j`` (k, l) to
    output mode ``i`` (m, n) at each phase of ``alpha_set``.  Each block's
    fit: ``t_fit`` is the least-squares common amplitude of the
    programmed-splitter form (the mean of the four magnitudes) and
    ``alpha_fit`` the gauge-invariant relative phase ``arg(a*d / (b*c))``
    in [-pi, pi], the only phase left after factoring out per-input and
    per-output phases.  Fits are floats for one circuit, arrays over a grid;
    its arrays are read-only copies the circuit owns.
    """

    sub_matrix: np.ndarray
    alpha_set: float | np.ndarray
    t_fit: float | np.ndarray = field(init=False)
    alpha_fit: float | np.ndarray = field(init=False)
    largest_singular_value: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        sub, alphas = read_only_copy(self.sub_matrix, np.complex128), read_only_copy(self.alpha_set)
        if sub.shape != (*alphas.shape, 2, 2):
            raise ValueError(f"sub_matrix must be {(*alphas.shape, 2, 2)}, 2x2 per alpha_set entry, got {sub.shape}")
        if not np.all(np.isfinite(sub.view(np.float64))):
            raise ValueError("sub_matrix must be finite")
        # fits run on a 1-d stack, so a grid keeps each phase's bits; [()] makes one circuit's fits floats
        a, b, c, d = sub.reshape(-1, 4).T
        object.__setattr__(self, "sub_matrix", sub)
        for name, values in (
            ("alpha_set", alphas),
            ("t_fit", np.abs(sub.reshape(-1, 4)).mean(axis=1)),
            ("alpha_fit", np.angle(a * d * np.conj(b * c))),
            ("largest_singular_value", np.linalg.svd(sub.reshape(-1, 2, 2), compute_uv=False)[:, 0]),
        ):
            object.__setattr__(self, name, read_only_copy(values.reshape(alphas.shape))[()])

    def _check_one_block(self, name: str) -> None:
        if self.sub_matrix.shape != (2, 2):
            raise ValueError(f"{name} must hold one 2x2 block, got sub_matrix of shape {self.sub_matrix.shape}")


def ideal_circuit(t: float, alpha) -> ProgrammedCircuit:
    """Exactly programmed splitter ``t * [[1, 1], [1, exp(i*alpha)]]``, at one phase or over a grid."""
    check_amplitude(t)
    return ProgrammedCircuit(t * np.exp(1j * np.multiply.outer(alpha, [[0.0, 0.0], [0.0, 1.0]])), alpha)


def effective_circuit(
    matrix: TransmissionMatrix,
    pattern_k: PhasePattern,
    pattern_l: PhasePattern,
    m: int,
    n: int,
    alpha_set,
) -> ProgrammedCircuit:
    """Read back the 2x2 circuit realized by two combined patterns.

    Each input mode is driven with a unit-power field spread evenly over
    its segments; the four complex couplings to outputs ``m`` and ``n``
    form the sub-matrix, from which :class:`ProgrammedCircuit` derives
    its fit.  ``alpha_set`` is one phase or a grid with one phase row of
    ``pattern_l`` each.  A mode's column is the two output rows over its
    driven channels times its segment phasors, one product per phase
    row.  On a unitary medium the circuit's largest singular value must pass
    :func:`~specklesim.twophoton.check_embeddable`.
    """
    if m == n:
        raise ValueError("output modes m and n must differ")
    # each mapping is injective, so the overlap comes out sorted and unique without np.unique's pass
    shared = np.intersect1d(pattern_k.segment_to_channel, pattern_l.segment_to_channel, assume_unique=True)
    if shared.size:
        raise ValueError(f"input modes share medium channels {shared[:4].tolist()}")
    rows = matrix.rows([m, n])
    columns = np.broadcast_arrays(_driven_field(rows, pattern_k), _driven_field(rows, pattern_l))
    circuit = ProgrammedCircuit(np.stack(columns, axis=-1), alpha_set)
    if matrix.kind is MatrixKind.UNITARY:
        check_embeddable(float(np.max(circuit.largest_singular_value)))
    return circuit


@dataclass(frozen=True, eq=False)
class ClassicalScan:
    """Output intensities versus the relative phase of the two inputs, as read-only copies."""

    delta_theta: np.ndarray
    intensity_m: np.ndarray
    intensity_n: np.ndarray

    def __post_init__(self) -> None:
        check_scan(self, "delta_theta", "intensity_m", "intensity_n")


def classical_scan(circuit: ProgrammedCircuit, delta_theta) -> ClassicalScan:
    """Classical two-beam interference scan of one programmed 2x2 circuit, not a stack.

    Equal-power coherent fields enter both input modes with a relative
    phase ``delta_theta``; the intensities ``|a + b exp(i*delta_theta)|^2``
    and ``|c + d exp(i*delta_theta)|^2`` at outputs ``m`` and ``n`` trace
    sinusoids whose relative phase reveals the programmed ``alpha``.
    """
    circuit._check_one_block("circuit")
    grid = np.asarray(delta_theta, dtype=float)
    (a, b), (c, d) = circuit.sub_matrix
    rotation = np.exp(1j * grid)
    return ClassicalScan(
        delta_theta=grid,
        intensity_m=np.abs(a + b * rotation) ** 2,
        intensity_n=np.abs(c + d * rotation) ** 2,
    )


# (bytes of x, weights, mean of sin x, mean of cos x) of fit_sine's last design; a plain
# tuple, swapped whole and never mutated, so concurrent fits at worst recompute it
_last_design: tuple | None = None


def fit_sine(x, y) -> tuple[float, float, float]:
    """Least-squares fit of ``y = offset + amplitude * sin(x + phase)``.

    Returns ``(offset, amplitude, phase)`` with ``amplitude >= 0``.

    Closed form: with ``sin x`` and ``cos x`` centred on their means, the
    offset drops out and the sine and cosine coefficients solve the 2x2
    normal equations of the centred columns, by Cramer's rule.  Each
    column, ``y`` included, is shifted by its first entry first, so a
    constant column becomes exact zeros: a flat ``y`` fits with amplitude
    exactly 0 and phase 0.

    Everything that depends on ``x`` alone (the centred columns, the
    normal equations and the determinant rule below) is folded into
    weights that are kept for the last ``x`` seen, keyed by its bytes.
    Stepped shaping, the one caller in the package, fits every segment
    on one phase grid, so it computes them once, and each call does only
    one product of its shifted ``y`` with the weights.

    Raises ``ValueError`` for fewer than 3 samples or a non-finite fit
    (a NaN or an infinity in ``y``), and :class:`DegenerateFitError`
    unless the determinant ``det`` of the normal equations exceeds
    ``1e-12 * (ss + cc)**2``, where ``ss`` and ``cc`` are their diagonal
    entries.  ``det / (ss + cc)**2`` is at most 1/4, and when small it
    is about the reciprocal condition number of the normal equations.
    The rule rejects every design whose
    ``[1, sin x, cos x]`` columns are dependent, such as all ``x`` equal
    or all ``x`` on multiples of ``2*pi``, and any design so close to
    one that the fit would keep only a few digits.
    """
    global _last_design
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    key = x.tobytes()
    design = _last_design
    if design is None or design[0] != key:
        if x.size < 3:
            raise ValueError(f"need at least 3 samples to fit a sinusoid, got {x.size}")
        columns = np.array([np.sin(x), np.cos(x)])
        shift = columns[:, :1].copy()
        columns -= shift
        means = np.add.reduce(columns, axis=1, keepdims=True) / x.size
        columns -= means
        (ss, sc), (_, cc) = (columns @ columns.T).tolist()
        det = ss * cc - sc * sc
        if not det > _FIT_RCOND * (ss + cc) ** 2:
            raise DegenerateFitError("sinusoid fit is degenerate (singular normal equations)")
        # Cramer's rule, applied to the columns once: the rows give a, b and the sum of y from y - y[0]
        sin_c, cos_c = columns
        weights = read_only_copy([(cc * sin_c - sc * cos_c) / det, (ss * cos_c - sc * sin_c) / det, np.ones(x.size)])
        design = _last_design = (key, weights, *(shift + means).ravel().tolist())
    _, weights, mean_sin, mean_cos = design
    # the weights are centred, so y's own centring would change a and b only by rounding
    a, b, total = (weights @ (y - y[0])).tolist()
    offset = (float(y[0]) + total / y.size) - a * mean_sin - b * mean_cos
    amplitude = math.hypot(a, b)
    if not math.isfinite(offset + amplitude):  # one scalar test, not a pass over y
        raise ValueError("y must be finite")
    return offset, amplitude, math.atan2(b, a)


def phase_distance(a: float, b: float) -> float:
    """Circular distance between two phases, in [0, pi]."""
    return abs(float(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b))))))

