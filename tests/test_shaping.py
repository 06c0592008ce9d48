import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specklesim import experiments, shaping
from specklesim.config import parse_grid
from specklesim.experiments import ScenarioConfig, run_classical_scan, run_optimize, run_program
from specklesim.medium import MatrixKind, TransmissionMatrix, gaussian_transmission_matrix, haar_unitary
from specklesim.oracles import shaped_input
from specklesim.rng import rng_for
from specklesim.twophoton import EmbeddabilityError
from specklesim.shaping import (
    DegenerateFitError,
    PhasePattern,
    ProgrammedCircuit,
    classical_scan,
    combine_patterns,
    effective_circuit,
    fit_sine,
    ideal_circuit,
    mode_templates,
    optimize_pattern,
    phase_distance,
    target_intensity,
)

TWO_PI = 2.0 * math.pi


def circular_rms_after_offset(a, b):
    delta = np.angle(np.exp(1j * (a - b)))
    mean = np.angle(np.mean(np.exp(1j * delta)))
    centered = np.angle(np.exp(1j * (delta - mean)))
    return float(np.sqrt(np.mean(centered**2)))


# ---------------------------------------------------------------------------
# patterns and templates
# ---------------------------------------------------------------------------


def test_pattern_validation():
    for phase in (7.0, TWO_PI, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape("phases must lie in [0, 2*pi)")):
            PhasePattern(np.array([0.0, phase, 1.0]), "k", np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        PhasePattern(np.array([0.0, 1.0]), "k", np.array([2, 2]))  # not injective
    with pytest.raises(ValueError, match="injective"):
        PhasePattern(np.zeros(5), "k", np.array([7, 1, 2, 3, 7]))  # repeated at the two ends only
    with pytest.raises(ValueError):
        PhasePattern(np.array([]), "k", np.array([], dtype=int))


def test_pattern_holds_read_only_copies_of_its_arrays():
    phases, channels = np.array([0.5, 1.0, 1.5]), np.array([4, 2, 0])
    pattern = PhasePattern(phases, "k", channels)
    phases[0] = 7.0  # out of range: the checked pattern must not see it
    channels[1] = 4  # a repeat: likewise
    assert pattern.phases.tolist() == [0.5, 1.0, 1.5]
    assert pattern.segment_to_channel.tolist() == [4, 2, 0]
    for array in (pattern.phases, pattern.segment_to_channel):
        with pytest.raises(ValueError):
            array[0] = 1


def test_pattern_stacks_phase_rows_over_one_mapping():
    channels = np.array([6, 2, 9, 4])
    stack = PhasePattern(np.linspace(0.0, 6.0, 12).reshape(3, 4), "l", channels)
    assert stack.phases.shape == (3, 4) and stack.n_segments == 4
    fields = shaped_input(stack, 10)
    assert fields.shape == (3, 10)
    for phases, field in zip(stack.phases, fields):
        assert field.tobytes() == shaped_input(PhasePattern(phases, "l", channels), 10).tobytes()
    with pytest.raises(ValueError, match=re.escape("phases must lie in [0, 2*pi)")):
        PhasePattern(np.array([[0.0, 1.0], [2.0, 7.0]]), "l", np.array([0, 1]))
    with pytest.raises(ValueError, match="injective"):
        PhasePattern(np.zeros((3, 2)), "l", np.array([5, 5]))


@pytest.mark.parametrize(
    "shape, channels",
    [((3, 4), np.arange(3)), ((4, 3), np.arange(4)), ((3, 4), np.arange(12).reshape(3, 4))],
)
def test_pattern_mapping_must_match_the_last_axis(shape, channels):
    with pytest.raises(ValueError, match="segment_to_channel must map every segment"):
        PhasePattern(np.zeros(shape), "l", channels)


@pytest.mark.parametrize("phases", [np.zeros((3, 0)), np.float64(1.0)])
def test_pattern_rejects_an_empty_last_axis(phases):
    with pytest.raises(ValueError, match="pattern needs at least one segment"):
        PhasePattern(phases, "l", np.array([], dtype=int))


def _unique_and_isfinite_verdict(phases, channels):
    """The message the ``np.unique``/``isfinite`` checks gave, or None when they accepted."""
    phases = np.asarray(phases, dtype=float)
    channels = np.asarray(channels, dtype=np.int64)
    if np.any(~np.isfinite(phases)) or np.any(phases < 0.0) or np.any(phases >= TWO_PI):
        return "phases must lie in [0, 2*pi)"
    if np.any(channels < 0):
        return "channel indices must be nonnegative"
    if np.unique(channels).size != channels.size:
        return "segment_to_channel must be injective"
    return None


_EDGE_PHASES = [math.nan, math.inf, -math.inf, -1e-300, -1.0, -0.0, 0.0, TWO_PI, math.nextafter(TWO_PI, 0.0), 7.0]


@st.composite
def pattern_inputs(draw):
    size = draw(st.integers(1, 12))
    phase = st.floats(0.0, TWO_PI, exclude_max=True) | st.sampled_from(_EDGE_PHASES)
    phases = draw(st.lists(phase, min_size=size, max_size=size))
    channels = draw(st.lists(st.integers(-2, 15), min_size=size, max_size=size, unique=draw(st.booleans())))
    if size > 1 and draw(st.booleans()):
        channels[-1] = channels[0]  # the only repeat may sit at the two ends
    return phases, channels


@settings(derandomize=True, deadline=None, max_examples=500)
@given(pattern_inputs())
def test_pattern_checks_reject_what_unique_and_isfinite_rejected(inputs):
    phases, channels = inputs
    expected = _unique_and_isfinite_verdict(phases, channels)
    if expected is None:
        PhasePattern(np.array(phases), "k", np.array(channels))
    else:
        with pytest.raises(ValueError, match=re.escape(expected)):
            PhasePattern(np.array(phases), "k", np.array(channels))


def test_mode_templates_disjoint_blocks():
    k, l = mode_templates(4)
    assert k.segment_to_channel.tolist() == [0, 1, 2, 3]
    assert l.segment_to_channel.tolist() == [4, 5, 6, 7]
    assert np.intersect1d(k.segment_to_channel, l.segment_to_channel).size == 0


# ---------------------------------------------------------------------------
# optimize_pattern
# ---------------------------------------------------------------------------


def test_analytic_single_segment_is_zero_phase():
    # one segment anchored at the reference channel carries phase zero
    medium = gaussian_transmission_matrix(5, 3, seed=2)
    template = PhasePattern(np.zeros(1), "k", np.array([0]))
    for target in range(5):
        pattern = optimize_pattern(medium, template, target)
        assert pattern.phases[0] == 0.0


def test_analytic_output_field_real_positive_up_to_global_phase():
    medium = gaussian_transmission_matrix(16, 32, seed=6)
    template = PhasePattern(np.zeros(32), "k", np.arange(32))
    pattern = optimize_pattern(medium, template, 3)
    field = medium.entries[3] @ shaped_input(pattern, 32)
    # all contributions aligned: |field| equals the sum of magnitudes
    expected = np.sum(np.abs(medium.entries[3, :32])) / math.sqrt(32)
    assert abs(abs(field) - expected) < 1e-12


def test_analytic_never_decreases_target_intensity():
    for seed in range(8):
        medium = gaussian_transmission_matrix(32, 64, seed=400 + seed)
        template = mode_templates(64)[0]
        before = target_intensity(medium, template, 0)
        after = target_intensity(medium, optimize_pattern(medium, template, 0), 0)
        assert after >= before


def test_enhancement_law_64_and_960_segments():
    # phase-only enhancement 1 + (pi/4)(N-1) within 10% over 20 seeds
    for n_seg, n_out in ((64, 512), (960, 256)):
        ratios = []
        for seed in range(20):
            medium = gaussian_transmission_matrix(n_out, n_seg, seed=7000 + seed)
            template = PhasePattern(np.zeros(n_seg), "k", np.arange(n_seg))
            pattern = optimize_pattern(medium, template, 0)
            flat = shaped_input(template, n_seg)
            background = np.mean(np.abs(medium.entries @ flat) ** 2)
            ratios.append(target_intensity(medium, pattern, 0) / background)
        law = 1.0 + (math.pi / 4.0) * (n_seg - 1)
        assert abs(np.mean(ratios) / law - 1.0) < 0.10


def test_two_segment_enhancement_against_grid_search():
    # exhaustive oracle: scan the relative phase on a fine grid
    medium = gaussian_transmission_matrix(8, 2, seed=77)
    template = PhasePattern(np.zeros(2), "k", np.array([0, 1]))
    pattern = optimize_pattern(medium, template, 0)
    optimized = target_intensity(medium, pattern, 0)
    row = medium.entries[0, :2] / math.sqrt(2.0)
    grid = np.linspace(0.0, TWO_PI, 8193)
    brute = np.max(np.abs(row[0] + row[1] * np.exp(1j * grid)) ** 2)
    assert optimized >= brute - 1e-12
    assert optimized - brute < 1e-6 * optimized


def test_two_segment_mean_enhancement():
    ratios = []
    for seed in range(120):
        medium = gaussian_transmission_matrix(128, 2, seed=8000 + seed)
        template = PhasePattern(np.zeros(2), "k", np.array([0, 1]))
        pattern = optimize_pattern(medium, template, 0)
        flat = shaped_input(template, 2)
        background = np.mean(np.abs(medium.entries @ flat) ** 2)
        ratios.append(target_intensity(medium, pattern, 0) / background)
    assert abs(np.mean(ratios) / (1.0 + math.pi / 4.0) - 1.0) < 0.15


def test_single_segment_no_control():
    # with one segment phase-only shaping cannot change the intensity
    medium = gaussian_transmission_matrix(16, 1, seed=3)
    template = PhasePattern(np.zeros(1), "k", np.array([0]))
    pattern = optimize_pattern(medium, template, 2)
    assert abs(target_intensity(medium, pattern, 2) - target_intensity(medium, template, 2)) < 1e-15


def test_stepped_matches_analytic():
    # median over seeds; each segment's response is an exact sinusoid, so
    # stepped deviates from analytic only through the finite unshaped
    # reference field (~1/sqrt(N) radians at 960 segments)
    rms = []
    for seed in range(5):
        medium = gaussian_transmission_matrix(4, 960, seed=900 + seed)
        template = PhasePattern(np.zeros(960), "k", np.arange(960))
        analytic = optimize_pattern(medium, template, 0, method="analytic")
        stepped = optimize_pattern(medium, template, 0, method="stepped", steps=8)
        rms.append(circular_rms_after_offset(stepped.phases, analytic.phases))
    assert np.median(rms) < 0.1


def test_stepped_shares_the_analytic_phase_origin():
    # no offset is removed: stepped patterns carry the channel-0 origin
    for seed in range(5):
        medium = gaussian_transmission_matrix(4, 960, seed=900 + seed)
        template = PhasePattern(np.zeros(960), "k", np.arange(960))
        analytic = optimize_pattern(medium, template, 0, method="analytic")
        stepped = optimize_pattern(medium, template, 0, method="stepped", steps=8)
        offset = np.angle(np.mean(np.exp(1j * (stepped.phases - analytic.phases))))
        assert abs(offset) < 0.01


def test_stepped_step_count_insensitive_when_noiseless():
    medium = gaussian_transmission_matrix(4, 128, seed=31)
    template = PhasePattern(np.zeros(128), "k", np.arange(128))
    three = optimize_pattern(medium, template, 0, method="stepped", steps=3)
    many = optimize_pattern(medium, template, 0, method="stepped", steps=16)
    assert circular_rms_after_offset(three.phases, many.phases) < 1e-9


def test_stepped_never_decreases_target_intensity():
    for seed in range(3):
        medium = gaussian_transmission_matrix(4, 960, seed=880 + seed)
        template = PhasePattern(np.zeros(960), "k", np.arange(960))
        stepped = optimize_pattern(medium, template, 0, method="stepped", steps=8)
        assert target_intensity(medium, stepped, 0) >= target_intensity(medium, template, 0)


def stepped_by_segment_loop(matrix, template, target_output, steps):
    """Stepped shaping as one scan and one least-squares fit per segment.

    Returns the final phases and the rotation onto the channel-0 origin
    that was added to every segment's fitted (or kept) phase.
    """
    row = matrix.rows(target_output)
    channels = template.segment_to_channel
    amplitude = 1.0 / math.sqrt(template.n_segments)
    contributions = amplitude * row[channels] * np.exp(1j * template.phases)
    total = contributions.sum()
    scan_phases = np.arange(steps) * TWO_PI / steps
    phasors = np.exp(1j * scan_phases)
    phases = np.array(template.phases, dtype=float)
    for s in range(template.n_segments):
        rest = total - contributions[s]
        response = np.abs(rest + amplitude * row[channels[s]] * phasors) ** 2
        _, fit_amplitude, fit_phase = lstsq_fit_sine(scan_phases, response)
        if fit_amplitude > 0.0:
            phases[s] = np.mod(math.pi / 2.0 - fit_phase, TWO_PI)
    achieved = np.sum(amplitude * row[channels] * np.exp(1j * phases))
    rotation = np.angle(row[0]) - np.angle(achieved)
    return np.mod(phases + rotation, TWO_PI), rotation


def _random_template(segments, seed):
    return PhasePattern(rng_for(seed).uniform(0.0, TWO_PI, segments), "k", np.arange(segments))


@pytest.mark.parametrize("kind", ["gaussian", "unitary"])
@pytest.mark.parametrize("steps", [3, 4, 8])
@pytest.mark.parametrize("segments", [1, 2, 7, 64, 300])
def test_stepped_matches_the_per_segment_loop(kind, steps, segments):
    seed = 1000 * steps + segments
    medium = (
        gaussian_transmission_matrix(4, 2 * segments, seed=seed) if kind == "gaussian" else haar_unitary(2 * segments, seed=seed)
    )
    for template in (PhasePattern(np.zeros(segments), "k", np.arange(segments)), _random_template(segments, seed)):
        for target in (0, 1):
            stepped = optimize_pattern(medium, template, target, method="stepped", steps=steps)
            loop, _ = stepped_by_segment_loop(medium, template, target, steps)
            assert np.max(np.abs(np.angle(np.exp(1j * (stepped.phases - loop))))) <= 1e-12


@pytest.mark.parametrize("steps", [3, 4, 8])
def test_stepped_zero_coupling_segment_keeps_its_template_phase(steps):
    # a channel with no coupling to the target gives a flat scan response:
    # the fit's amplitude is exactly zero and the segment keeps its template
    # phase, moved only by the pattern's rotation onto the channel-0 origin.
    # The per-segment loop took that phase from least-squares rounding
    # residue there, so it is compared on the coupled segments only.
    entries = gaussian_transmission_matrix(4, 16, seed=66).entries.copy()
    dead = [3, 5]
    entries[0, dead] = 0.0
    medium = TransmissionMatrix(entries, MatrixKind.GAUSSIAN, seed=0)
    template = _random_template(8, 67)
    stepped = optimize_pattern(medium, template, 0, method="stepped", steps=steps)
    loop, rotation = stepped_by_segment_loop(medium, template, 0, steps)
    delta = np.abs(np.angle(np.exp(1j * (stepped.phases - loop))))
    coupled = np.ones(8, dtype=bool)
    coupled[dead] = False
    assert np.max(delta[coupled]) <= 1e-12
    kept = np.angle(np.exp(1j * (stepped.phases[dead] - template.phases[dead] - rotation)))
    assert np.max(np.abs(kept)) <= 1e-12


def test_optimize_validation():
    medium = gaussian_transmission_matrix(4, 8, seed=1)
    template = PhasePattern(np.zeros(8), "k", np.arange(8))
    with pytest.raises(ValueError):
        optimize_pattern(medium, template, 4)  # target out of range
    with pytest.raises(ValueError):
        optimize_pattern(medium, template, 0, method="stepped", steps=2)
    with pytest.raises(ValueError):
        optimize_pattern(medium, template, 0, method="nonsense")
    wide = PhasePattern(np.zeros(9), "k", np.arange(9))
    with pytest.raises(ValueError):
        optimize_pattern(medium, wide, 0)  # channels exceed n_in


@pytest.mark.parametrize("method", ["analytic", "stepped"])
def test_optimize_rejects_a_stacked_template(method):
    # with as many segments as steps the stepped scan's arrays broadcast, and
    # only the check names the problem
    medium = gaussian_transmission_matrix(4, 8, seed=1)
    stack = PhasePattern(np.zeros((2, 4)), "k", np.arange(4))
    with pytest.raises(ValueError, match=re.escape("template must hold one phase row, got phases of shape (2, 4)")):
        optimize_pattern(medium, stack, 0, method, 4)


@pytest.mark.parametrize("rows", [1, 2, 8])
def test_target_intensity_rejects_a_stacked_pattern(rows):
    # a stack of 8 rows on 8 inputs used to end in numpy's bare TypeError
    medium = gaussian_transmission_matrix(4, 8, seed=1)
    stack = PhasePattern(np.zeros((rows, 4)), "k", np.arange(4))
    message = re.escape(f"pattern must hold one phase row, got phases of shape ({rows}, 4)")
    with pytest.raises(ValueError, match=message):
        target_intensity(medium, stack, 0)


@pytest.mark.parametrize("call", ["optimize_pattern", "target_intensity", "effective_circuit m", "effective_circuit n"])
def test_an_output_index_equal_to_n_out_is_rejected_by_the_medium_rows(call):
    # TransmissionMatrix.rows owns the output range; shaping keeps no copy of the rule
    medium = gaussian_transmission_matrix(4, 8, seed=1)
    template_k, template_l = mode_templates(4)
    with pytest.raises(ValueError, match=re.escape("must be a non-empty selection of [0, 4)")):
        if call == "optimize_pattern":
            optimize_pattern(medium, template_k, 4)
        elif call == "target_intensity":
            target_intensity(medium, template_k, 4)
        else:
            m, n = (4, 0) if call.endswith("m") else (0, 4)
            effective_circuit(medium, template_k, template_l, m, n, 0.0)


# ---------------------------------------------------------------------------
# combine_patterns
# ---------------------------------------------------------------------------


def test_combine_identical_patterns_is_identity():
    k_map = np.arange(4)
    l_map = np.arange(4, 8)
    phases = np.array([0.1, 1.0, 2.0, 6.0])
    p_km = PhasePattern(phases, "k", k_map)
    p_kn = PhasePattern(phases, "k", k_map)
    p_lm = PhasePattern(np.zeros(4), "l", l_map)
    p_ln = PhasePattern(np.zeros(4), "l", l_map)
    combined_k, _ = combine_patterns(p_km, p_kn, p_lm, p_ln, alpha=1.234)
    assert np.max(np.abs(np.angle(np.exp(1j * (combined_k.phases - phases))))) < 1e-12


def test_combine_bisects_two_unit_phasors():
    k_map = np.array([0])
    l_map = np.array([1])
    p_km = PhasePattern(np.array([0.0]), "k", k_map)
    p_kn = PhasePattern(np.array([math.pi / 2.0]), "k", k_map)
    p_l = PhasePattern(np.array([0.0]), "l", l_map)
    combined_k, _ = combine_patterns(p_km, p_kn, p_l, p_l, alpha=0.0)
    assert abs(combined_k.phases[0] - math.pi / 4.0) < 1e-12


def test_combine_alpha_enters_second_mode_only():
    k_map = np.array([0])
    l_map = np.array([1])
    p_k = PhasePattern(np.array([0.3]), "k", k_map)
    p_lm = PhasePattern(np.array([0.0]), "l", l_map)
    p_ln = PhasePattern(np.array([0.0]), "l", l_map)
    combined_k, combined_l = combine_patterns(p_k, p_k, p_lm, p_ln, alpha=0.8)
    assert abs(combined_k.phases[0] - 0.3) < 1e-12
    assert abs(combined_l.phases[0] - 0.4) < 1e-12  # bisector of 0 and 0.8


def test_combine_antiphase_tie_break():
    # exact phasor cancellation cannot be reached through exp() in floats,
    # so the tie-break is exercised at the helper level
    from specklesim.shaping import _phasor_sum_phase

    first = np.array([0.75])
    with np.errstate(all="ignore"):
        out = np.where(np.array([0.0 + 0.0j]) == 0, first, np.angle(np.array([0.0 + 0.0j])))
    assert out[0] == 0.75  # the branch combine relies on keeps the first phase
    # near-cancellation stays deterministic and in range
    combined = _phasor_sum_phase(np.array([0.0]), np.array([0.0]), math.pi)
    assert 0.0 <= combined[0] < TWO_PI
    again = _phasor_sum_phase(np.array([0.0]), np.array([0.0]), math.pi)
    assert combined[0] == again[0]


def test_combine_offset_invariance():
    rng = rng_for(55)
    k_map = np.arange(16)
    l_map = np.arange(16, 32)
    base_km = rng.uniform(0.0, TWO_PI, 16)
    base_kn = rng.uniform(0.0, TWO_PI, 16)
    p_l = PhasePattern(np.zeros(16), "l", l_map)
    offset = 1.7
    plain, _ = combine_patterns(
        PhasePattern(base_km, "k", k_map), PhasePattern(base_kn, "k", k_map), p_l, p_l, 0.0
    )
    shifted, _ = combine_patterns(
        PhasePattern(np.mod(base_km + offset, TWO_PI), "k", k_map),
        PhasePattern(np.mod(base_kn + offset, TWO_PI), "k", k_map),
        p_l,
        p_l,
        0.0,
    )
    delta = np.angle(np.exp(1j * (shifted.phases - plain.phases - offset)))
    assert np.max(np.abs(delta)) < 1e-9


def test_combine_rejects_mismatched_mappings():
    p_a = PhasePattern(np.zeros(2), "k", np.array([0, 1]))
    p_b = PhasePattern(np.zeros(2), "k", np.array([1, 2]))
    p_l = PhasePattern(np.zeros(2), "l", np.array([4, 5]))
    with pytest.raises(ValueError):
        combine_patterns(p_a, p_b, p_l, p_l, 0.0)
    p_other = PhasePattern(np.zeros(2), "x", np.array([0, 1]))
    with pytest.raises(ValueError):
        combine_patterns(p_a, p_other, p_l, p_l, 0.0)


def single_target_patterns(medium, segments, method):
    return [
        optimize_pattern(medium, template, target, method)
        for template in mode_templates(segments)
        for target in (0, 1)
    ]


CIRCUIT_FITS = ("t_fit", "alpha_fit", "largest_singular_value")


@pytest.mark.parametrize("points", [1, 9])
@pytest.mark.parametrize("method", ["analytic", "stepped"])
@pytest.mark.parametrize("kind", ["gaussian", "unitary"])
def test_phase_grid_matches_per_phase_programming(kind, method, points):
    # one stacked grid call gives every phase row the bits of one call per
    # phase, and the sub-matrix is the product of the two output rows over
    # each mode's driven channels with its segment phasors; the dense
    # full-width fields give the same sub-matrix up to rounding
    medium = gaussian_transmission_matrix(48, 64, seed=61) if kind == "gaussian" else haar_unitary(64, seed=61)
    patterns = single_target_patterns(medium, 24, method)
    alphas = np.linspace(0.0, math.pi, points)
    pattern_k, pattern_l = combine_patterns(*patterns, alphas)
    circuit = effective_circuit(medium, pattern_k, pattern_l, 0, 1, alphas)
    assert pattern_k.phases.shape == (24,)
    assert pattern_l.phases.shape == (points, 24) and circuit.sub_matrix.shape == (points, 2, 2)
    for index, alpha in enumerate(alphas):
        single_k, single_l = combine_patterns(*patterns, alpha)
        single = effective_circuit(medium, single_k, single_l, 0, 1, alpha)
        assert single_l.phases.shape == (24,) and single.sub_matrix.shape == (2, 2)
        assert pattern_k.phases.tobytes() == single_k.phases.tobytes()
        assert pattern_l.phases[index].tobytes() == single_l.phases.tobytes()
        assert circuit.sub_matrix[index].tobytes() == single.sub_matrix.tobytes()
        assert circuit.alpha_set[index] == single.alpha_set == alpha
        for name in CIRCUIT_FITS:
            assert isinstance(getattr(single, name), float)
            assert getattr(circuit, name)[index].tobytes() == np.float64(getattr(single, name)).tobytes()
        rows = medium.entries[[0, 1]]
        driven = np.column_stack([rows[:, p.segment_to_channel] @ (np.exp(1j * p.phases) / math.sqrt(24))[:, None]
                                  for p in (single_k, single_l)])
        assert circuit.sub_matrix[index].tobytes() == driven.tobytes()
        fields = np.column_stack([shaped_input(single_k, 64), shaped_input(single_l, 64)])
        np.testing.assert_allclose(circuit.sub_matrix[index], rows @ fields, rtol=1e-13, atol=0.0)


def test_phase_grid_rejects_shared_channels_with_the_sorted_first_four():
    medium = gaussian_transmission_matrix(8, 32, seed=4)
    pattern_k = PhasePattern(np.zeros(8), "k", np.arange(8))
    channels = np.array([7, 6, 20, 5, 3, 1])
    message = re.escape("input modes share medium channels [1, 3, 5, 6]")
    with pytest.raises(ValueError, match=message):
        effective_circuit(medium, pattern_k, PhasePattern(np.zeros((2, 6)), "l", channels), 0, 1, [0.0, 1.0])
    with pytest.raises(ValueError, match=message):
        effective_circuit(medium, pattern_k, PhasePattern(np.zeros(6), "l", channels), 0, 1, 1.0)


def test_phase_grid_rejects_phase_rows_that_do_not_match_the_phases():
    medium = gaussian_transmission_matrix(8, 32, seed=4)
    pattern_k = PhasePattern(np.zeros(8), "k", np.arange(8))
    rows = PhasePattern(np.zeros((2, 3)), "l", np.array([10, 11, 12]))
    one = PhasePattern(np.zeros(3), "l", np.array([10, 11, 12]))
    for pattern_l, alpha_set, shapes in (
        (rows, [0.0, 1.0, 2.0], "(3, 2, 2), 2x2 per alpha_set entry, got (2, 2, 2)"),
        (rows, 1.0, "(2, 2), 2x2 per alpha_set entry, got (2, 2, 2)"),
        (one, [1.0], "(1, 2, 2), 2x2 per alpha_set entry, got (2, 2)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"sub_matrix must be {shapes}")):
            effective_circuit(medium, pattern_k, pattern_l, 0, 1, alpha_set)


def test_phase_grid_checks_every_phase_of_a_unitary_medium(monkeypatch):
    # one check on the grid's largest singular value covers every phase
    checked = []
    monkeypatch.setattr(shaping, "check_embeddable", checked.append)
    alphas = [2.5, 1.0, 0.0]
    medium = gaussian_transmission_matrix(8, 32, seed=4)
    pattern_k, pattern_l = combine_patterns(*single_target_patterns(medium, 8, "analytic"), alphas)
    effective_circuit(medium, pattern_k, pattern_l, 0, 1, alphas)
    assert checked == []
    medium = haar_unitary(32, seed=4)
    pattern_k, pattern_l = combine_patterns(*single_target_patterns(medium, 8, "analytic"), alphas)
    effective_circuit(medium, pattern_k, pattern_l, 0, 1, alphas)
    assert len(checked) == 1 and isinstance(checked[0], float)
    rows = [PhasePattern(phases, "l", pattern_l.segment_to_channel) for phases in pattern_l.phases]
    circuits = [effective_circuit(medium, pattern_k, row, 0, 1, a) for row, a in zip(rows, alphas)]
    sigmas = [circuit.largest_singular_value for circuit in circuits]
    assert len(set(sigmas)) == 3 and max(sigmas) != sigmas[0]
    assert checked == [max(sigmas), *sigmas]


# ---------------------------------------------------------------------------
# effective_circuit
# ---------------------------------------------------------------------------


def embedded_block_medium(t, alpha):
    block = t * np.array([[1.0, 1.0], [1.0, np.exp(1j * alpha)]])
    return TransmissionMatrix(block, MatrixKind.GAUSSIAN, seed=0)


def test_effective_circuit_exact_form():
    t, alpha = 0.41, 1.234
    medium = embedded_block_medium(t, alpha)
    pattern_k = PhasePattern(np.zeros(1), "k", np.array([0]))
    pattern_l = PhasePattern(np.zeros(1), "l", np.array([1]))
    circuit = effective_circuit(medium, pattern_k, pattern_l, 0, 1, alpha_set=alpha)
    assert abs(circuit.t_fit - t) < 1e-12
    assert abs(circuit.alpha_fit - alpha) < 1e-12
    assert np.max(np.abs(circuit.sub_matrix - medium.entries)) < 1e-15


def test_ideal_circuit_reports_its_own_setting():
    # the fit is derived from the block, so it must give back t and any alpha in (-pi, pi]
    for t in (1e-3, 0.45, 1.0 / math.sqrt(2.0)):
        for alpha in (-math.pi + 1e-9, -2.0, -0.5, 0.0, 1.234, 3.0, math.pi):
            circuit = ideal_circuit(t, alpha)
            assert abs(circuit.t_fit - t) < 1e-12
            assert abs(circuit.alpha_fit - alpha) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, np.array([0.0, 1.0, math.pi])])
def test_circuit_holds_read_only_copies_and_fits_of_its_block(alpha):
    circuit = ideal_circuit(0.45, alpha)
    for name in ("sub_matrix", "alpha_set", "t_fit", "alpha_fit", "largest_singular_value"):
        value = getattr(circuit, name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError):
                value[...] = 0
    block = circuit.sub_matrix.copy()
    copied = shaping.ProgrammedCircuit(block, alpha)
    block[...] = 0
    assert copied.sub_matrix.tobytes() == circuit.sub_matrix.tobytes()
    for name in ("t_fit", "alpha_fit", "largest_singular_value"):
        assert np.array_equal(getattr(copied, name), getattr(circuit, name))
    zeroed = ideal_circuit(0.45, 0.0)
    with pytest.raises(ValueError):
        zeroed.sub_matrix[:] = 0
    assert zeroed.t_fit == 0.45 and abs(zeroed.largest_singular_value - 0.9) < 1e-12


def test_effective_circuit_unitary_medium_is_contraction():
    medium = haar_unitary(64, seed=17)
    template_k, template_l = mode_templates(32)
    p_km = optimize_pattern(medium, template_k, 0)
    p_kn = optimize_pattern(medium, template_k, 1)
    p_lm = optimize_pattern(medium, template_l, 0)
    p_ln = optimize_pattern(medium, template_l, 1)
    pattern_k, pattern_l = combine_patterns(p_km, p_kn, p_lm, p_ln, math.pi)
    circuit = effective_circuit(medium, pattern_k, pattern_l, 0, 1, math.pi)
    assert circuit.largest_singular_value <= 1.0 + 1e-9
    assert circuit.t_fit < 1.0 / math.sqrt(2.0) + 1e-9


def test_effective_circuit_alpha_zero_degenerate():
    medium = gaussian_transmission_matrix(4000, 1920, seed=101)
    template_k, template_l = mode_templates(960)
    p_km = optimize_pattern(medium, template_k, 0)
    p_kn = optimize_pattern(medium, template_k, 1)
    p_lm = optimize_pattern(medium, template_l, 0)
    p_ln = optimize_pattern(medium, template_l, 1)
    pattern_k, pattern_l = combine_patterns(p_km, p_kn, p_lm, p_ln, 0.0)
    circuit = effective_circuit(medium, pattern_k, pattern_l, 0, 1, 0.0)
    singular = np.linalg.svd(circuit.sub_matrix, compute_uv=False)
    assert singular[0] / singular[1] > 10.0
    # rows agree in magnitude and, modulo the output-phase gauge, in phase
    magnitudes = np.abs(circuit.sub_matrix)
    assert np.allclose(magnitudes[0], magnitudes[1], rtol=0.25)
    assert phase_distance(circuit.alpha_fit, 0.0) < 0.05 * math.pi


def test_programmed_alpha_tracks_setting_over_grid():
    # fitted phase follows the programmed one for every alpha; only the
    # two monitored rows enter, so a 128-row medium carries the same
    # statistics as the full default height at 960 segments per mode
    alphas = [0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi]
    devs = {alpha: [] for alpha in alphas}
    for seed in range(20):
        medium = gaussian_transmission_matrix(128, 1920, seed=300 + seed)
        template_k, template_l = mode_templates(960)
        p_km = optimize_pattern(medium, template_k, 0)
        p_kn = optimize_pattern(medium, template_k, 1)
        p_lm = optimize_pattern(medium, template_l, 0)
        p_ln = optimize_pattern(medium, template_l, 1)
        for alpha in alphas:
            pattern_k, pattern_l = combine_patterns(p_km, p_kn, p_lm, p_ln, alpha)
            circuit = effective_circuit(medium, pattern_k, pattern_l, 0, 1, alpha)
            devs[alpha].append(phase_distance(circuit.alpha_fit, alpha))
    for alpha in alphas:
        assert np.mean(devs[alpha]) < 0.05 * math.pi


def test_effective_circuit_validation():
    medium = gaussian_transmission_matrix(8, 8, seed=4)
    pattern_k = PhasePattern(np.zeros(2), "k", np.array([0, 1]))
    pattern_l = PhasePattern(np.zeros(2), "l", np.array([1, 2]))  # overlaps k
    with pytest.raises(ValueError):
        effective_circuit(medium, pattern_k, pattern_l, 0, 1, 0.0)
    pattern_l_ok = PhasePattern(np.zeros(2), "l", np.array([2, 3]))
    with pytest.raises(ValueError):
        effective_circuit(medium, pattern_k, pattern_l_ok, 1, 1, 0.0)  # m == n
    with pytest.raises(ValueError):
        effective_circuit(medium, pattern_k, pattern_l_ok, 0, 9, 0.0)  # out of range


def scattered_patterns(rng, n_in, segments, points):
    """Modes ``k`` and ``l`` on random disjoint, non-contiguous channels; ``l`` stacks ``points`` phase rows."""
    channels = rng.permutation(n_in)[: 2 * segments]
    pattern_k = PhasePattern(rng.uniform(0.0, TWO_PI, segments), "k", channels[:segments])
    pattern_l = PhasePattern(rng.uniform(0.0, TWO_PI, (points, segments)), "l", channels[segments:])
    return pattern_k, pattern_l


@pytest.mark.parametrize("points", [1, 9])
@pytest.mark.parametrize("kind", ["gaussian", "unitary"])
def test_read_back_matches_the_dense_field_oracle(kind, points):
    # only the driven channels enter the read-back; the full-width fields,
    # zero elsewhere, give the same blocks and intensities up to rounding
    for seed in range(5):
        rng = np.random.default_rng(seed)
        medium = gaussian_transmission_matrix(12, 40, seed) if kind == "gaussian" else haar_unitary(40, seed)
        pattern_k, pattern_l = scattered_patterns(rng, 40, int(rng.integers(1, 21)), points)
        m, n = rng.choice(medium.n_out, 2, replace=False)
        alphas = np.linspace(0.0, math.pi, points)
        circuit = effective_circuit(medium, pattern_k, pattern_l, int(m), int(n), alphas)
        field_k, fields_l = shaped_input(pattern_k, 40), shaped_input(pattern_l, 40)
        dense = np.stack([medium.entries[[m, n]] @ np.column_stack([field_k, f]) for f in fields_l])
        np.testing.assert_allclose(circuit.sub_matrix, dense, rtol=1e-13, atol=0.0)
        for phases, field in zip(pattern_l.phases, fields_l):
            row = PhasePattern(phases, "l", pattern_l.segment_to_channel)
            expected = abs(medium.entries[m] @ field) ** 2
            np.testing.assert_allclose(target_intensity(medium, row, int(m)), expected, rtol=1e-13, atol=0.0)


def test_read_back_memory_stays_below_the_dense_field_stack():
    # at the reference scale a 361-point grid once stacked (points, n_in, 2)
    # input fields, half zeros, and peaked at 33.4 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    medium = gaussian_transmission_matrix(4000, 1920, seed=5)
    medium.rows([0, 1])
    pattern_k, pattern_l = scattered_patterns(np.random.default_rng(5), 1920, 960, 361)
    alphas = np.linspace(0.0, math.pi, 361)
    tracemalloc.start()
    try:
        effective_circuit(medium, pattern_k, pattern_l, 0, 1, alphas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 15e6


# ---------------------------------------------------------------------------
# classical_scan
# ---------------------------------------------------------------------------


def programmed_patterns(medium, segments, alpha):
    return combine_patterns(*single_target_patterns(medium, segments, "analytic"), alpha)


def test_classical_scan_pi_antiphase():
    # anti-phase sinusoids at alpha = pi; statistical statement, so a
    # mean over seeds (single seeds scatter 2-3x around it)
    grid = np.linspace(0.0, TWO_PI, 41)
    devs = []
    for seed in range(6):
        medium = gaussian_transmission_matrix(512, 1920, seed=88 + seed)
        pattern_k, pattern_l = programmed_patterns(medium, 960, math.pi)
        scan = classical_scan(effective_circuit(medium, pattern_k, pattern_l, 0, 1, math.pi), grid)
        _, _, phase_m = fit_sine(scan.delta_theta, scan.intensity_m)
        _, _, phase_n = fit_sine(scan.delta_theta, scan.intensity_n)
        devs.append(phase_distance(phase_m - phase_n, math.pi))
    assert np.mean(devs) < 0.05 * math.pi


def test_classical_scan_zero_alpha_overlapping_curves():
    medium = gaussian_transmission_matrix(512, 768, seed=89)
    pattern_k, pattern_l = programmed_patterns(medium, 384, 0.0)
    grid = np.linspace(0.0, TWO_PI, 41)
    scan = classical_scan(effective_circuit(medium, pattern_k, pattern_l, 0, 1, 0.0), grid)
    fit_m = fit_sine(scan.delta_theta, scan.intensity_m)
    fit_n = fit_sine(scan.delta_theta, scan.intensity_n)
    curve_m = fit_m[0] + fit_m[1] * np.sin(grid + fit_m[2])
    curve_n = fit_n[0] + fit_n[1] * np.sin(grid + fit_n[2])
    scale_m = curve_m / np.max(curve_m)
    scale_n = curve_n / np.max(curve_n)
    assert np.max(np.abs(scale_m - scale_n)) < 0.10


def test_classical_scan_rejects_empty_grid():
    medium = gaussian_transmission_matrix(8, 8, seed=4)
    pattern_k = PhasePattern(np.zeros(2), "k", np.array([0, 1]))
    pattern_l = PhasePattern(np.zeros(2), "l", np.array([2, 3]))
    with pytest.raises(ValueError):
        classical_scan(effective_circuit(medium, pattern_k, pattern_l, 0, 1, 0.0), [])


@pytest.mark.parametrize(
    "name, bad, message",
    [("delta_theta", bad, "^delta_theta: expected a non-empty, finite, 1-d array") for bad in (math.nan, math.inf)]
    + [(name, bad, f"^{name} must be finite and nonnegative")
       for name in ("intensity_m", "intensity_n") for bad in (math.nan, math.inf, -1.0)],
)
def test_classical_scan_requires_a_finite_grid_and_finite_nonnegative_intensities(name, bad, message):
    columns = {"delta_theta": [0.0, 1.0], "intensity_m": [1.0, 2.0], "intensity_n": [3.0, 4.0]}
    columns[name] = [0.0, bad]
    with pytest.raises(ValueError, match=message):
        shaping.ClassicalScan(**columns)


@pytest.mark.parametrize("grid, intensity", [(0.0, 1.0), ([[0.0, 1.0]], [[1.0, 2.0]]), ([0.0, 1.0], [[1.0, 2.0]])])
def test_classical_scan_keeps_exact_1d_shapes(grid, intensity):
    with pytest.raises(ValueError, match="delta_theta"):
        shaping.ClassicalScan(grid, intensity, intensity)


def test_classical_scan_holds_read_only_copies_of_its_arrays():
    grid, intensity_m = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    scan = shaping.ClassicalScan(grid, intensity_m, np.array([3.0, 2.0, 1.0]))
    intensity_m[0] = -1.0  # negative: the checked scan must not see it
    grid[1] = np.nan  # likewise
    assert scan.intensity_m.tolist() == [1.0, 2.0, 3.0]
    assert scan.delta_theta.tolist() == [0.0, 1.0, 2.0]
    for array in (scan.delta_theta, scan.intensity_m, scan.intensity_n):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("alphas", [[0.0], [0.0, 1.0], [0.0, math.pi / 2, math.pi]])
def test_classical_scan_rejects_a_stacked_circuit(alphas):
    # unpacking a stack's first axis as the block's rows would mix phases
    with pytest.raises(ValueError, match=r"circuit must hold one 2x2 block, got sub_matrix of shape \("):
        classical_scan(ideal_circuit(0.45, alphas), [0.0, 1.0])


def test_effective_circuit_rejects_shared_channels():
    medium = gaussian_transmission_matrix(8, 8, seed=4)
    pattern = PhasePattern(np.zeros(2), "k", np.array([0, 1]))
    with pytest.raises(ValueError, match="share medium channels"):
        effective_circuit(medium, pattern, pattern, 0, 1, 0.0)


def test_classical_scan_is_the_closed_form_of_the_programmed_circuit():
    # the scan reads the same circuit `program` reports, exactly; the
    # circuit file's 17 digits round-trip the block's entries
    config = ScenarioConfig(
        n_out=16, segments=8, circuit="shaped", alpha=2.0, delta_theta_grid=np.linspace(0.0, TWO_PI, 9)
    )
    _, program_files = run_program(config, master_seed=3)
    values = [float(v) for v in program_files["circuit.csv"].splitlines()[1].split(",")[:8]]
    a, b, c, d = (complex(values[2 * i], values[2 * i + 1]) for i in range(4))
    result, _ = run_classical_scan(config, master_seed=3)
    rotation = np.exp(1j * result.scan.delta_theta)
    assert np.array_equal(result.scan.intensity_m, np.abs(a + b * rotation) ** 2)
    assert np.array_equal(result.scan.intensity_n, np.abs(c + d * rotation) ** 2)


_SHAPED_SCAN = dict(n_out=16, segments=8, circuit="shaped")


@pytest.mark.parametrize(
    "settings,block",
    [
        (dict(_SHAPED_SCAN, alpha=2.0), None),
        (dict(_SHAPED_SCAN, method="stepped", alpha=-1.0, delta_theta_grid=np.linspace(0.0, TWO_PI, 9)), None),
        (dict(circuit="ideal", t=0.45, alpha=math.pi / 3), None),
        (dict(circuit="ideal", t=0.3, alpha=-math.pi), None),
        (dict(circuit="ideal", t=0.0), None),  # every row flat, and the scan exactly 0
        # flat rows (a, 0), (0, 0) and (0, b) whose signed zeros put arg(i * far * conj(near)) at pi, and rows
        # with signed zeros whose phase is 0 or pi
        (dict(_SHAPED_SCAN, alpha=0.5), [[complex(0.3, -0.2), complex(0.0, -0.0)], [complex(-0.0, -0.0), 0j]]),
        (dict(_SHAPED_SCAN, alpha=0.5), [[complex(-0.0, -0.0), 1.2], [complex(0.4, -0.0), complex(-0.0, -0.3)]]),
        (dict(_SHAPED_SCAN, alpha=0.5), [[complex(0.4, -0.0), complex(-0.0, 0.3)], [-1.2, complex(0.0, -0.0)]]),
    ],
)
def test_classical_scan_writes_the_sinusoids_that_fit_sine_finds_in_its_scan(monkeypatch, settings, block):
    # fits.csv is read off the block in closed form; fit_sine on the written
    # scan is the oracle, to 1e-14 of the response's peak offset + amplitude
    if block is not None:
        pattern = PhasePattern(np.zeros(1), "k", np.array([0]))
        circuit = ProgrammedCircuit(np.array(block), settings["alpha"])
        monkeypatch.setattr(experiments, "program_circuit", lambda *args: (pattern, pattern, circuit))
    result, files = run_classical_scan(ScenarioConfig(**settings), master_seed=3)
    written = [tuple(float(v) for v in line.split(",")[1:]) for line in files["fits.csv"].splitlines()[1:]]
    assert written == [result.fit_m, result.fit_n]
    for (offset, amplitude, phase), intensity in zip(written, (result.scan.intensity_m, result.scan.intensity_n)):
        fit_offset, fit_amplitude, fit_phase = fit_sine(result.scan.delta_theta, intensity)
        scale = offset + amplitude
        assert abs(offset - fit_offset) <= 1e-14 * scale
        assert abs(amplitude - fit_amplitude) <= 1e-14 * scale
        # a phase is known to the share of the response its amplitude holds
        assert phase_distance(phase, fit_phase) * amplitude <= 1e-14 * scale
        assert -math.pi < phase <= math.pi
        if amplitude == 0.0:
            assert phase == 0.0 and math.copysign(1.0, phase) == 1.0


# ---------------------------------------------------------------------------
# fit_sine
# ---------------------------------------------------------------------------


def test_fit_sine_exact_recovery():
    x = np.linspace(0.0, TWO_PI, 9)[:-1]
    y = 2.0 + np.sin(x)
    offset, amplitude, phase = fit_sine(x, y)
    assert abs(offset - 2.0) < 1e-10
    assert abs(amplitude - 1.0) < 1e-10
    assert phase_distance(phase, 0.0) < 1e-10


def test_fit_sine_constant_signal():
    x = np.linspace(0.0, TWO_PI, 12)
    offset, amplitude, _ = fit_sine(x, np.full_like(x, 5.0))
    assert abs(offset - 5.0) < 1e-10
    assert amplitude < 1e-10


def test_fit_sine_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        fit_sine([0, 1, 2, 3], [math.nan, 1, 2, 0.5])


def test_fit_sine_amplitude_under_noise():
    # regression error propagation: se(amplitude) ~ sigma * sqrt(2/n)
    rng = rng_for(2718)
    x = np.linspace(0.0, TWO_PI, 101)[:-1]
    y = 1.0 + np.sin(x) + rng.normal(0.0, 0.05, x.size)
    _, amplitude, _ = fit_sine(x, y)
    standard_error = 0.05 * math.sqrt(2.0 / x.size)
    assert abs(amplitude - 1.0) < 3.0 * standard_error


def test_fit_sine_phase_recovery():
    x = np.linspace(0.0, TWO_PI, 25)
    for true_phase in (0.5, 2.0, -1.2):
        _, amplitude, phase = fit_sine(x, 3.0 + 0.7 * np.sin(x + true_phase))
        assert amplitude > 0
        assert phase_distance(phase, true_phase) < 1e-9


def test_fit_sine_errors():
    with pytest.raises(ValueError):
        fit_sine([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(DegenerateFitError):
        fit_sine([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])


def lstsq_fit_sine(x, y):
    """The least-squares solve on the ``[1, sin, cos]`` design, kept as the oracle of the closed form."""
    design = np.column_stack([np.ones_like(x), np.sin(x), np.cos(x)])
    (offset, a, b), _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    assert rank == 3
    return float(offset), math.hypot(a, b), math.atan2(b, a)


@st.composite
def sine_samples(draw):
    design = draw(st.sampled_from(["evenly spaced", "classical-scan grid", "random"]))
    if design == "evenly spaced":
        steps = draw(st.integers(3, 64))
        x = np.arange(steps) * TWO_PI / steps
    elif design == "classical-scan grid":
        x = parse_grid("0:2pi:25")
    else:
        # jittered, shuffled points over a span of 1 to 6 rad: spread enough to stay well conditioned
        size = draw(st.integers(3, 40))
        jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=size, max_size=size)))
        spaced = np.arange(size) + jitter
        unit = (spaced - spaced.min()) / (spaced.max() - spaced.min())
        order = draw(st.permutations(range(size)))
        x = draw(st.floats(-20.0, 20.0)) + draw(st.floats(1.0, 6.0)) * unit[order]
    offset = draw(st.floats(-5.0, 5.0))
    amplitude = draw(st.floats(0.1, 5.0))
    phase = draw(st.floats(-math.pi, math.pi))
    noise = draw(st.floats(0.0, 0.5)) * rng_for(draw(st.integers(0, 2**32))).standard_normal(x.size)
    return x, offset + amplitude * np.sin(x + phase) + noise


@settings(derandomize=True, deadline=None, max_examples=500)
@given(sine_samples())
def test_fit_sine_matches_least_squares(sample):
    x, y = sample
    offset, amplitude, phase = fit_sine(x, y)
    want_offset, want_amplitude, want_phase = lstsq_fit_sine(x, y)
    # worst seen over 3000 examples: 1.2e-13 relative
    scale = max(abs(want_offset), want_amplitude)
    assert abs(offset - want_offset) <= 1e-11 * scale
    assert abs(amplitude - want_amplitude) <= 1e-11 * want_amplitude
    assert phase_distance(phase, want_phase) <= 1e-11


@st.composite
def degenerate_designs(draw):
    size = draw(st.integers(3, 64))
    if draw(st.booleans()):
        x = np.full(size, draw(st.floats(-100.0, 100.0)))
    else:
        x = TWO_PI * np.array(draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size)), dtype=float)
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size)))
    return x, y


@settings(derandomize=True, deadline=None, max_examples=300)
@given(degenerate_designs())
def test_fit_sine_rejects_exactly_degenerate_designs(sample):
    with pytest.raises(DegenerateFitError):
        fit_sine(*sample)


def test_fit_sine_flat_response_has_zero_amplitude():
    # the closed form centres a constant column to exact zeros, for any step count
    for steps in range(3, 17):
        x = np.arange(steps) * TWO_PI / steps
        for level in (0.1, 1.7, 12.345):
            assert fit_sine(x, np.full(steps, level)) == (level, 0.0, 0.0)


def fit_bits(x, y):
    return np.array(fit_sine(x, y)).tobytes()


def test_fit_sine_reused_design_gives_the_bits_of_a_first_call(monkeypatch):
    x = np.arange(8) * TWO_PI / 8
    other = parse_grid("0:2pi:25")
    ys = [1.0 + np.sin(x + phase) + 0.01 * phase * np.cos(3.0 * x) for phase in (0.3, -2.0, 1.1)]
    first = []
    for y in ys:
        monkeypatch.setattr(shaping, "_last_design", None)
        first.append(fit_bits(x, y))
    design = shaping._last_design
    assert design is not None and design[0] == x.tobytes()
    assert [fit_bits(x, y) for y in ys] == first
    assert shaping._last_design is design  # one design served every call
    fit_sine(other, np.cos(other))  # another grid takes the slot
    assert [fit_bits(list(x), y) for y in ys] == first
    monkeypatch.setattr(shaping, "_last_design", None)
    fresh = fit_bits(other[:8], ys[1])
    grid = x.copy()
    monkeypatch.setattr(shaping, "_last_design", None)
    fit_sine(grid, ys[0])  # the slot now holds the design of x
    grid[:] = other[:8]  # same array and length, new values: the design must follow the bytes
    assert fit_bits(grid, ys[1]) == fresh


def test_fit_sine_degenerate_design_raises_on_first_and_repeated_calls(monkeypatch):
    good = np.arange(8) * TWO_PI / 8
    monkeypatch.setattr(shaping, "_last_design", None)
    for x in (np.full(8, 0.7), TWO_PI * np.arange(8.0)):
        for _ in range(2):
            with pytest.raises(DegenerateFitError):
                fit_sine(x, np.arange(8.0))
        fit_sine(good, np.sin(good))
        with pytest.raises(DegenerateFitError):
            fit_sine(x, np.arange(8.0))
    with pytest.raises(ValueError, match="at least 3 samples"):
        fit_sine(good[:2], good[:2])
    with pytest.raises(ValueError, match="equal length"):
        fit_sine(good, good[:7])


# ---------------------------------------------------------------------------
# persistence: the pattern and circuit files the scenario runners return
# ---------------------------------------------------------------------------


def test_pattern_csv_round_trip():
    pattern, files = run_optimize(ScenarioConfig(n_out=8, segments=16), master_seed=31)
    text = files["pattern_k.csv"]
    assert text.splitlines()[0] == "segment,channel,phase_rad"
    rows = [line.split(",") for line in text.splitlines()[1:]]
    back = PhasePattern([float(r[2]) for r in rows], "k", [int(r[1]) for r in rows])
    assert np.array_equal(back.phases, pattern.phases)
    assert np.array_equal(back.segment_to_channel, pattern.segment_to_channel)


def test_pattern_csv_17_digits(monkeypatch):
    pattern = PhasePattern(np.array([1.0 / 3.0]), "k", np.array([0]))
    monkeypatch.setattr(experiments, "optimize_pattern", lambda *args: pattern)
    _, files = run_optimize(ScenarioConfig(n_out=2, segments=1))
    text = files["pattern_k.csv"]
    assert "0.33333333333333331" in text


def test_circuit_csv(monkeypatch):
    circuit = ideal_circuit(0.45, math.pi / 3)
    pattern = PhasePattern(np.zeros(1), "k", np.array([0]))
    monkeypatch.setattr(experiments, "program_circuit", lambda *args: (pattern, pattern, circuit))
    _, files = run_program(ScenarioConfig(n_out=2, segments=1))
    lines = files["circuit.csv"].splitlines()
    assert lines[0].startswith("t_mk_re,")
    values = [float(v) for v in lines[1].split(",")]
    assert len(values) == 12
    assert abs(values[-2] - 0.45) < 1e-15  # t_fit column


@pytest.mark.parametrize("method", ["analytic", "stepped"])
def test_pattern_beyond_the_medium_inputs_is_rejected(method):
    medium = gaussian_transmission_matrix(4, 6, seed=2)
    pattern = PhasePattern(np.zeros(3), "k", [0, 2, 6])
    with pytest.raises(ValueError, match="outside the medium"):
        target_intensity(medium, pattern, 0)
    for pattern_k, pattern_l in ((pattern, PhasePattern(np.zeros(2), "l", [1, 3])),
                                 (PhasePattern(np.zeros(2), "l", [1, 3]), pattern)):
        with pytest.raises(ValueError, match="outside the medium"):
            effective_circuit(medium, pattern_k, pattern_l, 0, 1, 0.0)
    with pytest.raises(ValueError, match="outside the medium"):
        optimize_pattern(medium, pattern, 0, method, 4)
    inside = PhasePattern(np.zeros(3), "k", [0, 2, 5])
    assert optimize_pattern(medium, inside, 0, method, 4).segment_to_channel.tolist() == [0, 2, 5]
