import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specklesim.medium import haar_unitary
from specklesim.oracles import outcome_distribution, two_photon_coincidence, unitary_completion
from specklesim.rng import rng_for
from specklesim.shaping import ProgrammedCircuit, ideal_circuit
from specklesim.twophoton import (
    OUTCOME_LABELS,
    CoincidenceScan,
    EmbeddabilityError,
    PhotonPairSource,
    UndefinedVisibilityError,
    embeddability_bound,
    hom_scan,
    montecarlo_counts,
    outcome_probabilities,
    overlap_from_delay,
    pair_outcome_components,
    permanent,
    rms_bandwidth_from_filter_fwhm,
    source_preset,
    visibility,
)
from specklesim.twophoton import _CLICKS_M, _CLICKS_N, _RUNS_M, _RUNS_N, _click_runs, _in_runs, _outcome_bounds


def permanent_by_definition(matrix):
    n = matrix.shape[0]
    return sum(math.prod(matrix[i, p[i]] for i in range(n)) for p in permutations(range(n)))


def splitter_block(t, alpha):
    return t * np.array([[1.0, 1.0], [1.0, np.exp(1j * alpha)]])


# ---------------------------------------------------------------------------
# permanent
# ---------------------------------------------------------------------------


def test_permanent_identity():
    assert permanent(np.eye(2)) == 1.0 + 0.0j


def test_permanent_2x2_formula():
    a, b, c, d = 1.5 + 1j, -2.0, 0.5j, 3.0 - 1j
    assert permanent(np.array([[a, b], [c, d]])) == a * d + b * c


def test_permanent_all_ones_3x3():
    assert permanent(np.ones((3, 3))) == 6.0 + 0.0j


def test_permanent_matches_definition_exactly_small():
    # integer-valued entries keep both routes exact
    mat = np.array([[1 + 2j, 3, 0], [2, 1j, 1], [4, 1, 1 - 1j]])
    assert permanent(mat) == permanent_by_definition(mat)
    mat2 = np.array([[2, 1j], [3 - 1j, 5]])
    assert permanent(mat2) == permanent_by_definition(mat2)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_permanent_matches_definition_random(n):
    rng = rng_for(1000 + n)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert abs(permanent(mat) - permanent_by_definition(mat)) < 1e-10


def test_permanent_rejects_bad_input():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent(np.ones((21, 21)))


# ---------------------------------------------------------------------------
# embeddability
# ---------------------------------------------------------------------------


def test_embeddability_bound_reference_points():
    assert abs(embeddability_bound(math.pi) - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(embeddability_bound(0.0) - 0.5) < 1e-15
    assert abs(embeddability_bound(math.pi / 2) - 1.0 / math.sqrt(2.0 + math.sqrt(2.0))) < 1e-15


def test_embeddability_bound_svd_oracle():
    # at t = bound the largest singular value of the block is exactly 1
    for alpha in np.linspace(0.0, 2.0 * math.pi, 17):
        block = splitter_block(embeddability_bound(alpha), alpha)
        sigma = np.linalg.svd(block, compute_uv=False)[0]
        assert abs(sigma - 1.0) < 1e-12


def test_unitary_completion_properties():
    rng = rng_for(42)
    for _ in range(20):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(0.0, 1.0) * embeddability_bound(alpha)
        block = splitter_block(t, alpha)
        u = unitary_completion(block)
        assert np.max(np.abs(u[:2, :2] - block)) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_unitary_completion_rejects_expansion():
    with pytest.raises(EmbeddabilityError):
        unitary_completion(splitter_block(0.8, math.pi))


# ---------------------------------------------------------------------------
# closed-form outcome probabilities
# ---------------------------------------------------------------------------


def test_outcomes_ideal_fifty_fifty():
    dist = dict(zip(OUTCOME_LABELS, outcome_probabilities(1.0 / math.sqrt(2.0), math.pi)))
    assert abs(dist["2m0n"] - 0.5) < 1e-12
    assert abs(dist["0m2n"] - 0.5) < 1e-12
    for value in (dist["1m1n"], dist["1m0n"], dist["0m1n"], dist["0m0n"]):
        assert abs(value) < 1e-12


def test_outcomes_half_amplitude_zero_phase():
    dist = dict(zip(OUTCOME_LABELS, outcome_probabilities(0.5, 0.0)))
    assert abs(dist["2m0n"] - 0.125) < 1e-12
    assert abs(dist["0m2n"] - 0.125) < 1e-12
    assert abs(dist["1m1n"] - 0.25) < 1e-12
    assert abs(dist["1m0n"]) < 1e-12
    assert abs(dist["0m1n"]) < 1e-12
    assert abs(dist["0m0n"] - 0.5) < 1e-12


def test_outcomes_literal_example_point():
    dist = outcome_probabilities(0.3, math.pi / 2)
    assert np.allclose(
        dist, [0.0162, 0.0162, 0.0162, 0.1314, 0.1314, 0.6886], atol=1e-10
    )
    assert abs(sum(dist) - 1.0) < 1e-12


def test_outcomes_match_brute_force_oracle():
    rng = rng_for(7)
    for _ in range(50):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(0.0, 1.0) * embeddability_bound(alpha)
        closed = outcome_probabilities(t, alpha)
        brute = outcome_distribution(splitter_block(t, alpha), 1.0)
        assert np.max(np.abs(closed - brute)) < 1e-12


@st.composite
def contractions(draw, sigma=st.one_of(st.just(1.0), st.floats(0.0, 1.0))):
    """Random 2x2 blocks, lossy or rank-1, scaled to a drawn largest singular value."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    block = (parts[:4] + 1j * parts[4:]).reshape(2, 2)
    if draw(st.booleans()):
        block = np.outer(block[:, 0], block[:, 1])
    largest = np.linalg.svd(block, compute_uv=False)[0]
    assume(largest > 1e-6)
    return block * (draw(sigma) / largest)


@settings(derandomize=True, deadline=None)
@given(contractions(), st.floats(0.0, 1.0))
def test_closed_form_components_match_oracle_on_random_contractions(block, x):
    ind, dist = pair_outcome_components(block)
    oracle = outcome_distribution(block, x)
    assert np.max(np.abs(x * ind + (1.0 - x) * dist - oracle)) < 1e-12


@settings(derandomize=True, deadline=None)
@given(contractions(sigma=st.floats(1.0 + 2e-9, 2.0)), st.lists(contractions(), max_size=4), st.data())
def test_both_routes_reject_blocks_beyond_the_embeddability_bound(block, embeddable, data):
    assert np.linalg.svd(block, compute_uv=False)[0] > 1.0 + 1e-9
    with pytest.raises(EmbeddabilityError):
        pair_outcome_components(block)
    with pytest.raises(EmbeddabilityError):
        outcome_distribution(block, 1.0)
    # one block beyond the bound anywhere in a stack rejects the whole stack
    embeddable.insert(data.draw(st.integers(0, len(embeddable))), block)
    with pytest.raises(EmbeddabilityError):
        pair_outcome_components(np.stack(embeddable))


@settings(derandomize=True, deadline=None)
@given(
    st.lists(contractions(), min_size=1, max_size=5),
    st.floats(0.0, 1.0),
    st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=5),
)
def test_a_stack_gives_the_bits_of_its_blocks(blocks, t, alphas):
    stack = np.stack(blocks)
    ind, dist = pair_outcome_components(stack)
    source = source_preset("filtered")
    delays = np.linspace(-2e-12, 2e-12, 5)
    scan = hom_scan(ProgrammedCircuit(stack, np.zeros(len(blocks))), source, delays)
    assert ind.shape == dist.shape == (len(blocks), 6) and scan.coincidence_rate.shape == (len(blocks), 5)
    for index, block in enumerate(blocks):
        one_ind, one_dist = pair_outcome_components(block)
        assert ind[index].tobytes() == one_ind.tobytes() and dist[index].tobytes() == one_dist.tobytes()
        one = hom_scan(ProgrammedCircuit(block, 0.0), source, delays)
        for name in ("coincidence_rate", "singles_m", "singles_n"):
            assert getattr(scan, name)[index].tobytes() == getattr(one, name).tobytes()
    grid = ideal_circuit(t, alphas)
    for index, alpha in enumerate(alphas):
        one = ideal_circuit(t, alpha)
        assert grid.sub_matrix[index].tobytes() == one.sub_matrix.tobytes()
        for name in ("alpha_set", "t_fit", "alpha_fit", "largest_singular_value"):
            assert getattr(grid, name)[index].tobytes() == np.float64(getattr(one, name)).tobytes()


def test_closed_form_components_require_a_2x2_block():
    with pytest.raises(ValueError, match="2x2"):
        pair_outcome_components(0.5 * np.eye(3))


def test_outcomes_normalization_grid():
    for alpha in np.linspace(0.0, 2.0 * math.pi, 25):
        for frac in np.linspace(0.0, 1.0, 11):
            t = frac * embeddability_bound(alpha)
            arr = outcome_probabilities(t, alpha)
            assert abs(arr.sum() - 1.0) <= 1e-12
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
            # the array contract: read-only float64 (6,), in the order pair_outcome_components shares
            assert not arr.flags.writeable and arr.dtype == np.float64 and arr.shape == (6,)
            ind = pair_outcome_components(ideal_circuit(t, alpha).sub_matrix)[0]
            assert np.allclose(arr, ind, rtol=0.0, atol=1e-15)


def test_outcomes_phase_symmetry():
    for alpha in (0.3, 1.1, 2.9):
        t = 0.9 * embeddability_bound(alpha)
        base = outcome_probabilities(t, alpha)
        assert np.allclose(base, outcome_probabilities(t, -alpha), atol=1e-12)
        assert np.allclose(
            base, outcome_probabilities(t, 2.0 * math.pi - alpha), atol=1e-12
        )


def test_bunched_outcomes_independent_of_phase():
    t = 0.4
    values = [outcome_probabilities(t, a)[OUTCOME_LABELS.index("2m0n")] for a in (0.0, 0.7, math.pi / 2, math.pi)]
    assert all(v == values[0] for v in values)


def test_outcomes_reject_nonembeddable():
    with pytest.raises(EmbeddabilityError) as err:
        outcome_probabilities(0.6, 0.0)
    assert "0.5" in str(err.value)
    with pytest.raises(ValueError):
        outcome_probabilities(-0.1, 0.0)


@pytest.mark.parametrize("std_err", [-0.1, math.nan])
def test_visibility_std_err_must_be_nonnegative(std_err):
    with pytest.raises(ValueError, match="^std_err must be nonnegative"):
        visibility(0.5, 1.0, std_err)


@pytest.mark.parametrize("t", [-0.1, -math.inf, math.nan])
def test_negative_or_nan_amplitudes_are_rejected_by_one_rule(t):
    with pytest.raises(ValueError, match="^t must be nonnegative"):
        outcome_probabilities(t, 0.0)
    with pytest.raises(ValueError, match="^t must be nonnegative"):
        ideal_circuit(t, 0.0)


def test_outcome_csv_format():
    from specklesim.experiments import ScenarioConfig, run_probabilities

    _, files = run_probabilities(ScenarioConfig(t=0.5, alpha=0.0))
    text = files["outcomes.csv"]
    lines = text.splitlines()
    assert lines[0] == "outcome,probability"
    assert lines[1] == "2m0n,0.125"
    assert lines[3] == "1m1n,0.25"
    assert len(lines) == 7


# ---------------------------------------------------------------------------
# two-photon coincidence on explicit matrices
# ---------------------------------------------------------------------------


def test_coincidence_ideal_hom_cancellation():
    block = splitter_block(1.0 / math.sqrt(2.0), math.pi)
    assert two_photon_coincidence(block, (0, 1), (0, 1), 1.0) < 1e-15


def test_coincidence_distinguishable_baseline():
    block = splitter_block(1.0 / math.sqrt(2.0), math.pi)
    assert abs(two_photon_coincidence(block, (0, 1), (0, 1), 0.0) - 0.5) < 1e-12


def test_coincidence_completeness_on_unitary():
    u = haar_unitary(8, seed=3)
    for overlap in (1.0, 0.0, 0.37):
        total = sum(
            two_photon_coincidence(u, (0, 1), (m, n), overlap)
            for m in range(8)
            for n in range(m, 8)
        )
        assert abs(total - 1.0) < 1e-12


def test_coincidence_consistent_with_components():
    rng = rng_for(12)
    alpha = 1.3
    block = splitter_block(0.8 * embeddability_bound(alpha), alpha)
    ind, dist = pair_outcome_components(block)
    for x in (0.0, 0.25, 1.0):
        direct = two_photon_coincidence(block, (0, 1), (0, 1), x)
        assert abs(direct - (x * ind[2] + (1 - x) * dist[2])) < 1e-13
        bunched = two_photon_coincidence(block, (0, 1), (0, 0), x)
        assert abs(bunched - (x * ind[0] + (1 - x) * dist[0])) < 1e-13
    del rng


def test_coincidence_validation():
    u = haar_unitary(4, seed=1)
    with pytest.raises(ValueError):
        two_photon_coincidence(u, (0, 0), (1, 2), 1.0)
    with pytest.raises(ValueError):
        two_photon_coincidence(u, (0, 1), (1, 2), 1.5)
    with pytest.raises(ValueError):
        two_photon_coincidence(u, (0, 5), (1, 2), 1.0)


# ---------------------------------------------------------------------------
# source model and overlap
# ---------------------------------------------------------------------------


def test_overlap_at_zero_delay():
    source = PhotonPairSource(
        rms_angular_bandwidth=2e12, intrinsic_overlap=1.0, mean_pairs_per_pulse=0.01
    )
    assert overlap_from_delay(source, 0.0) == 1.0


def test_overlap_efolds_at_inverse_bandwidth():
    source = PhotonPairSource(
        rms_angular_bandwidth=2e12, intrinsic_overlap=0.9, mean_pairs_per_pulse=0.01
    )
    tau = 1.0 / source.rms_angular_bandwidth
    assert abs(overlap_from_delay(source, tau) - 0.9 * math.exp(-1.0)) < 1e-12


def test_overlap_matches_spectral_integral():
    # oracle: |FT of the Gaussian intensity spectrum|^2 on a fine grid
    sigma = 1.7e12
    source = PhotonPairSource(
        rms_angular_bandwidth=sigma, intrinsic_overlap=1.0, mean_pairs_per_pulse=0.01
    )
    omega = np.linspace(-8.0 * sigma, 8.0 * sigma, 20001)
    spectrum = np.exp(-(omega**2) / (2.0 * sigma**2))
    for tau in (0.2e-12, 0.6e-12, 1.1e-12):
        kernel = spectrum * np.exp(1j * omega * tau)
        numeric = abs(np.sum(kernel) / np.sum(spectrum)) ** 2
        assert abs(overlap_from_delay(source, tau) - numeric) < 1e-9


def test_overlap_width_scales_inversely_with_bandwidth():
    # halving the bandwidth doubles the delay of the 1/e crossing
    wide = PhotonPairSource(rms_angular_bandwidth=2e12, intrinsic_overlap=1.0, mean_pairs_per_pulse=0.01)
    narrow = PhotonPairSource(rms_angular_bandwidth=1e12, intrinsic_overlap=1.0, mean_pairs_per_pulse=0.01)

    def efold_delay(source):
        taus = np.linspace(0.0, 5e-12, 200001)
        x = overlap_from_delay(source, taus)
        return taus[np.argmin(np.abs(x - math.exp(-1.0)))]

    ratio = efold_delay(narrow) / efold_delay(wide)
    assert abs(ratio - 2.0) < 0.01


def test_overlap_monotone_decay():
    source = source_preset("filtered")
    taus = np.linspace(0.0, 5e-12, 300)
    x = overlap_from_delay(source, taus)
    assert np.all(np.diff(x) <= 0)
    assert x[-1] < 1e-6


def test_bandwidth_conversion_reference():
    # 1.5 nm FWHM at 790 nm: sigma_nu = c*fwhm/lambda^2 / 2.355
    sigma = rms_bandwidth_from_filter_fwhm(1.5)
    expected = (
        2.0 * math.pi * 299792458.0 * (1.5e-9 / (2.0 * math.sqrt(2.0 * math.log(2.0)))) / 790e-9**2
    )
    assert abs(sigma - expected) < 1e-3 * expected


def test_source_presets():
    broadband = source_preset("broadband")
    filtered = source_preset("filtered")
    highpower = source_preset("highpower")
    assert broadband.intrinsic_overlap == 0.64
    assert filtered.intrinsic_overlap == 0.86
    assert highpower.mean_pairs_per_pulse == 0.5
    assert filtered.rms_angular_bandwidth < broadband.rms_angular_bandwidth
    with pytest.raises(ValueError):
        source_preset("nosuch")


def test_source_validation():
    with pytest.raises(ValueError):
        PhotonPairSource(rms_angular_bandwidth=1e12, intrinsic_overlap=1.2, mean_pairs_per_pulse=0.1)
    with pytest.raises(ValueError):
        PhotonPairSource(rms_angular_bandwidth=1e12, intrinsic_overlap=0.5, mean_pairs_per_pulse=-0.1)
    with pytest.raises(ValueError):
        PhotonPairSource(rms_angular_bandwidth=0.0, intrinsic_overlap=0.5, mean_pairs_per_pulse=0.1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("rms_angular_bandwidth", math.nan),
        ("rms_angular_bandwidth", math.inf),
        ("intrinsic_overlap", math.nan),
        ("mean_pairs_per_pulse", math.nan),
        ("mean_pairs_per_pulse", math.inf),
    ],
)
def test_source_rejects_non_finite_values_naming_the_field(field, value):
    settings = {"rms_angular_bandwidth": 1e12, "intrinsic_overlap": 0.5, "mean_pairs_per_pulse": 0.1, field: value}
    with pytest.raises(ValueError, match=f"^{field}: expected "):
        PhotonPairSource(**settings)


@pytest.mark.parametrize("fwhm", [math.nan, math.inf, 0.0])
def test_filter_width_must_be_positive_and_finite(fwhm):
    with pytest.raises(ValueError, match="^fwhm_nm: expected positive number"):
        source_preset("filtered", filter_fwhm_nm=fwhm)


@pytest.mark.parametrize("delay", [math.nan, math.inf, [0.0, math.nan]])
def test_non_finite_delays_are_rejected(delay):
    source = source_preset("filtered")
    with pytest.raises(ValueError, match="^delay_s: expected finite delays"):
        overlap_from_delay(source, delay)
    with pytest.raises(ValueError, match="^delays: expected a non-empty, finite, 1-d array"):
        hom_scan(ideal_circuit(0.5, math.pi), source, np.atleast_1d(delay))
    if np.ndim(delay) == 0:
        with pytest.raises(ValueError, match="^delay_s: expected finite delays"):
            montecarlo_counts(ideal_circuit(0.5, math.pi), source, 100, seed=1, delay_s=delay)


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------


def test_visibility_reference_points():
    assert visibility(0.0, 1.0).v == -1.0
    assert visibility(2.0, 1.0).v == 1.0
    assert visibility(1.0, 1.0).v == 0.0


def test_visibility_rejects_zero_reference():
    with pytest.raises(UndefinedVisibilityError):
        visibility(1.0, 0.0)


# ---------------------------------------------------------------------------
# hom_scan
# ---------------------------------------------------------------------------


def test_hom_scan_ideal_dip():
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    source = source_preset("filtered", overlap=1.0)
    delays = np.linspace(-5e-12, 5e-12, 101)
    scan = hom_scan(circuit, source, delays)
    center = np.argmin(np.abs(delays))
    assert scan.coincidence_rate[center] < 1e-9 * scan.coincidence_rate[0]
    v = (scan.coincidence_rate[center] - scan.coincidence_rate[0]) / scan.coincidence_rate[0]
    assert abs(v + 1.0) < 1e-6


def test_hom_scan_zero_phase_peak():
    circuit = ideal_circuit(0.5, 0.0)
    source = source_preset("filtered", overlap=1.0)
    scan = hom_scan(circuit, source, [0.0, 1e-9])
    v = scan.coincidence_rate[0] / scan.coincidence_rate[1] - 1.0
    assert abs(v - 1.0) < 1e-6


def test_hom_scan_source_limited_visibility():
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    source = source_preset("filtered")  # overlap 0.86
    scan = hom_scan(circuit, source, [0.0, 1e-9])
    v = scan.coincidence_rate[0] / scan.coincidence_rate[1] - 1.0
    assert abs(v + 0.86) < 1e-9


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", ["coincidence_rate", "singles_m", "singles_n"])
def test_coincidence_scan_requires_finite_nonnegative_rates(name, rate):
    rates = {"coincidence_rate": [1.0, 2.0], "singles_m": [3.0, 4.0], "singles_n": [5.0, 6.0]}
    rates[name] = [1.0, rate]
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        CoincidenceScan(delays=[0.0, 1e-12], **rates)


@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
def test_coincidence_scan_requires_finite_delays(delay):
    with pytest.raises(ValueError, match="^delays: expected a non-empty, finite, 1-d array"):
        CoincidenceScan(delays=[0.0, delay], coincidence_rate=[1.0, 2.0], singles_m=[3.0, 4.0], singles_n=[5.0, 6.0])


@pytest.mark.parametrize("delays, rate", [(0.0, 1.0), ([[0.0, 1e-12]], [[1.0, 2.0]]), ([], [])])
def test_coincidence_scan_requires_non_empty_1d_delays(delays, rate):
    with pytest.raises(ValueError, match="^delays: expected a non-empty, finite, 1-d array"):
        CoincidenceScan(delays=delays, coincidence_rate=rate, singles_m=rate, singles_n=rate)


def test_coincidence_scan_keeps_stacked_rates():
    rate = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    scan = CoincidenceScan(delays=[0.0, 1e-12], coincidence_rate=rate, singles_m=rate, singles_n=rate)
    assert scan.coincidence_rate.shape == (3, 2)
    with pytest.raises(ValueError, match="^singles_n must match the delays grid"):
        CoincidenceScan(delays=[0.0, 1e-12], coincidence_rate=rate, singles_m=rate, singles_n=[[1.0, 2.0, 3.0]])


def test_coincidence_scan_holds_read_only_copies_of_its_arrays():
    delays, rate = np.array([0.0, 1e-12]), np.array([1.0, 2.0])
    scan = CoincidenceScan(delays=delays, coincidence_rate=rate, singles_m=[3.0, 4.0], singles_n=[5.0, 6.0])
    rate[0] = -5.0  # negative: the checked scan must not see it
    delays[0] = np.nan  # likewise
    assert scan.coincidence_rate.tolist() == [1.0, 2.0]
    assert scan.delays.tolist() == [0.0, 1e-12]
    for array in (scan.delays, scan.coincidence_rate, scan.singles_m, scan.singles_n):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_hom_scan_rejects_bad_input():
    circuit = ideal_circuit(0.9, math.pi)  # sigma_max > 1
    source = source_preset("filtered")
    with pytest.raises(EmbeddabilityError):
        hom_scan(circuit, source, [0.0])
    good = ideal_circuit(0.5, math.pi)
    with pytest.raises(ValueError):
        hom_scan(good, source, [])


# ---------------------------------------------------------------------------
# montecarlo_counts
# ---------------------------------------------------------------------------


def analytic_click_probabilities(circuit, source, delay_s):
    """Closed-form per-pulse click model for independent Poisson pairs.

    With q = per-pair probability of putting no photon on a detector,
    P(no click) = E[q^N] = exp(-mu (1 - q)) for Poisson N.
    """
    ind, dist = pair_outcome_components(circuit.sub_matrix)
    x = overlap_from_delay(source, delay_s)
    p = x * ind + (1.0 - x) * dist
    mu = source.mean_pairs_per_pulse
    miss_m = p[1] + p[4] + p[5]
    miss_n = p[0] + p[3] + p[5]
    miss_both = p[5]
    p_m = 1.0 - math.exp(-mu * (1.0 - miss_m))
    p_n = 1.0 - math.exp(-mu * (1.0 - miss_n))
    p_coinc = (
        1.0
        - math.exp(-mu * (1.0 - miss_m))
        - math.exp(-mu * (1.0 - miss_n))
        + math.exp(-mu * (1.0 - miss_both))
    )
    return p_m, p_n, p_coinc


def test_montecarlo_vacuum():
    circuit = ideal_circuit(0.5, math.pi)
    source = source_preset("filtered", mean_pairs_per_pulse=0.0)
    assert montecarlo_counts(circuit, source, 10_000, seed=1) == (0, 0, 0)


def test_montecarlo_single_pair_hom_limit():
    # mu -> 0: coincidences vanish at zero delay while singles stay ~ mu
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    source = source_preset("filtered", overlap=1.0, mean_pairs_per_pulse=1e-3)
    n_pulses = 200_000
    singles_m, singles_n, coincidences = montecarlo_counts(circuit, source, n_pulses, seed=5)
    # two-pair pulses are ~ n mu^2 / 2 = 0.1 events; coincidence needs one
    assert coincidences <= 2
    expected_singles = n_pulses * 1e-3 * 0.5  # click prob = p20 + p11 = 0.5 per pair
    assert abs(singles_m - expected_singles) < 5 * math.sqrt(expected_singles)
    assert abs(singles_n - expected_singles) < 5 * math.sqrt(expected_singles)


def test_montecarlo_determinism():
    circuit = ideal_circuit(0.6, math.pi)
    source = source_preset("broadband", mean_pairs_per_pulse=0.3)
    a = montecarlo_counts(circuit, source, 70_000, seed=9)
    b = montecarlo_counts(circuit, source, 70_000, seed=9)
    assert a == b
    c = montecarlo_counts(circuit, source, 70_000, seed=10)
    assert a != c


def test_montecarlo_matches_analytic_model_multipair():
    # multi-pair regime against the closed-form Poisson click model
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    source = source_preset("broadband", overlap=0.64, mean_pairs_per_pulse=0.5)
    n_pulses = 400_000
    singles_m, singles_n, coincidences = montecarlo_counts(circuit, source, n_pulses, seed=21)
    p_m, p_n, p_coinc = analytic_click_probabilities(circuit, source, 0.0)
    for observed, expected in ((singles_m, p_m), (singles_n, p_n), (coincidences, p_coinc)):
        sigma = math.sqrt(n_pulses * expected * (1.0 - expected))
        assert abs(observed - n_pulses * expected) < 5.0 * sigma


def test_montecarlo_estimator_consistency():
    # error scales as 1/sqrt(n): two pulse counts 100x apart
    circuit = ideal_circuit(0.5, 0.0)
    source = source_preset("filtered", mean_pairs_per_pulse=0.05)
    _, _, exact = analytic_click_probabilities(circuit, source, 0.0)
    small = 10_000
    large = 1_000_000
    errors = {}
    for n_pulses in (small, large):
        estimates = []
        for rep in range(3):
            _, _, coinc = montecarlo_counts(circuit, source, n_pulses, seed=100 + rep)
            estimates.append(coinc / n_pulses - exact)
        errors[n_pulses] = math.sqrt(np.mean(np.square(estimates)))
    ratio = errors[small] / errors[large]
    assert 2.0 < ratio < 60.0
    sigma_large = math.sqrt(exact * (1.0 - exact) / large)
    assert errors[large] < 4.0 * sigma_large


@pytest.mark.parametrize(
    "preset,at_zero,at_reference",
    [
        ("filtered", (3277, 3352, 1340), (3659, 3643, 870)),
        ("highpower", (155527, 155775, 67965), (166532, 166842, 56907)),
        # several pair pieces in the first chunk, and a partial last chunk
        pytest.param(
            ("broadband", 3.0, 70_001, 5),
            (44688, 44406, 32342),
            (46532, 46414, 33055),
            id="broadband-mu3-n70001-seed5",
        ),
    ],
)
def test_montecarlo_counts_are_pinned(preset, at_zero, at_reference):
    # exact counts of the chunked pair sampler; a kernel rewrite must keep its draw order
    name, mu, n_pulses, seed = preset if isinstance(preset, tuple) else (preset, None, 10**6, 3)
    circuit = ideal_circuit(0.45, math.pi / 4)
    source = source_preset(name, mean_pairs_per_pulse=mu)
    assert montecarlo_counts(circuit, source, n_pulses, seed=seed) == at_zero
    far = 10.0 / source.rms_angular_bandwidth
    assert montecarlo_counts(circuit, source, n_pulses, seed=seed, delay_s=far) == at_reference


def dense_montecarlo_counts(circuit, source, n_pulses, seed, delay_s=0.0):
    """Per-pulse oracle: a Poisson pair number for every pulse, then rounds over the pulses with pairs.

    This is the kernel of stream contract 2: 65536-pulse chunks, chunk ``c``
    on ``rng_for(seed, 2, c)``, one Poisson draw of the pulses' pair counts,
    then per round one overlap and one outcome draw over the pulses holding
    more pairs.  It shares no draw order with ``montecarlo_counts``.
    """
    photons_m_of = np.array([2, 0, 1, 1, 0, 0])
    photons_n_of = np.array([0, 2, 1, 0, 1, 0])
    x = overlap_from_delay(source, delay_s)
    cum_ind, cum_dist = (np.cumsum(p / p.sum()) for p in pair_outcome_components(circuit.sub_matrix))
    cum_ind[-1] = cum_dist[-1] = 1.0
    singles_m = singles_n = coincidences = 0
    for chunk_index, start in enumerate(range(0, n_pulses, 1 << 16)):
        size = min(1 << 16, n_pulses - start)
        rng = rng_for(seed, 2, chunk_index)
        pairs = rng.poisson(source.mean_pairs_per_pulse, size)
        photons_m = np.zeros(size, dtype=np.int64)
        photons_n = np.zeros(size, dtype=np.int64)
        for round_idx in range(int(pairs.max())):
            active = pairs > round_idx
            count = int(active.sum())
            quantum = rng.random(count) < x
            u = rng.random(count)
            outcome = np.where(
                quantum,
                np.searchsorted(cum_ind, u, side="right"),
                np.searchsorted(cum_dist, u, side="right"),
            )
            photons_m[active] += photons_m_of[outcome]
            photons_n[active] += photons_n_of[outcome]
        click_m = photons_m > 0
        click_n = photons_n > 0
        singles_m += int(click_m.sum())
        singles_n += int(click_n.sum())
        coincidences += int((click_m & click_n).sum())
    return singles_m, singles_n, coincidences


# Chance that a correct kernel's pooled count strays beyond the bound below,
# per statistic and kernel: Bernstein's inequality for a sum of independent
# 0/1 pulse clicks, P(|S - E S| >= t) <= 2 exp(-(t^2 / 2) / (var S + t / 3)).
_LAW_DELTA = 1e-6


def _law_bound(variance):
    log_term = math.log(2.0 / _LAW_DELTA)
    return log_term / 3.0 + np.sqrt(log_term**2 / 9.0 + 2.0 * log_term * variance)


def _random_contraction(rng):
    """A 2x2 block as ``contractions()`` draws it: lossy or rank-1, largest singular value 1 or below."""
    block = rng.uniform(-1.0, 1.0, (2, 2)) + 1j * rng.uniform(-1.0, 1.0, (2, 2))
    if rng.random() < 0.5:
        block = np.outer(block[:, 0], block[:, 1])
    sigma = 1.0 if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
    return block * (sigma / np.linalg.svd(block, compute_uv=False)[0])


@pytest.mark.parametrize("n_pulses", [1, 65535, 65536, 65537, 70001])
@pytest.mark.parametrize("mu", [0.0, 1e-3, 0.01, 0.5, 3.0])
def test_sparse_kernel_matches_the_dense_reference(mu, n_pulses):
    # Law, not bytes: the pair sampler and the per-pulse oracle draw
    # differently, so each is held to the closed-form click model.  Over
    # random contractions, overlaps, near and far delays and seeds, each
    # kernel's counts pool to sum(observed - n p) per statistic, against
    # the variance sum(n p (1 - p)).  Single-pulse calls are cheap, so they
    # pool over more settings.
    rng = rng_for(2024, int(mu * 1000), n_pulses)
    kernels = {"montecarlo_counts": montecarlo_counts, "dense oracle": dense_montecarlo_counts}
    residual = {name: np.zeros(3) for name in kernels}
    variance = np.zeros(3)
    for rep in range(256 if n_pulses == 1 else 8):
        circuit = ProgrammedCircuit(_random_contraction(rng), 0.0)
        source = source_preset("broadband", overlap=rng.uniform(0.0, 1.0), mean_pairs_per_pulse=mu)
        delay = 10.0 / source.rms_angular_bandwidth if rng.random() < 0.5 else 0.0
        p = np.array(analytic_click_probabilities(circuit, source, delay))
        variance += n_pulses * p * (1.0 - p)
        for name, kernel in kernels.items():
            seed = 2**64 - 1 if rep == 0 else int(rng.integers(2**64, dtype=np.uint64))
            counts = kernel(circuit, source, n_pulses, seed, delay_s=delay)
            if mu == 0.0:
                assert counts == (0, 0, 0)
            residual[name] += np.array(counts) - n_pulses * p
    for name in kernels:
        assert np.all(np.abs(residual[name]) <= _law_bound(variance)), (
            f"{name}: pooled z (singles m, singles n, coincidences) = {residual[name] / np.sqrt(variance)}"
        )


def searchsorted_montecarlo_counts(circuit, source, n_pulses, seed, delay_s=0.0):
    """Stream contract 3 with its first kernel: each pair's outcome by ``np.searchsorted``.

    The same chunks, substreams and draw order as ``montecarlo_counts``
    (``poisson``, then per piece ``integers`` and ``random``), but the
    outcome index is searched on the cumulative mixture and the click
    tables gather the pulses, so the counts must agree exactly.
    """
    x = overlap_from_delay(source, delay_s)
    ind, dist = pair_outcome_components(circuit.sub_matrix)
    probs = x * ind / ind.sum() + (1.0 - x) * dist / dist.sum()
    cum = np.cumsum(probs / probs.sum())
    cum[-1] = 1.0
    singles_m = singles_n = coincidences = 0
    for chunk_index, start in enumerate(range(0, n_pulses, 1 << 16)):
        size = min(1 << 16, n_pulses - start)
        rng = rng_for(seed, 2, chunk_index)
        click_m = np.zeros(size, dtype=bool)
        click_n = np.zeros(size, dtype=bool)
        pairs = int(rng.poisson(source.mean_pairs_per_pulse * size))
        for done in range(0, pairs, 1 << 16):
            count = min(1 << 16, pairs - done)
            pulse = rng.integers(size, size=count)
            outcome = np.searchsorted(cum, rng.random(count), side="right")
            click_m[pulse[_CLICKS_M[outcome]]] = True
            click_n[pulse[_CLICKS_N[outcome]]] = True
        singles_m += int(np.count_nonzero(click_m))
        singles_n += int(np.count_nonzero(click_n))
        coincidences += int(np.count_nonzero(click_m & click_n))
    return singles_m, singles_n, coincidences


# blocks whose mixtures repeat cumulative entries (outcomes of probability zero): rank one, n dark
# (n's gather is always empty), the 50:50 splitter at alpha = pi, and all dark
_DEGENERATE_BLOCKS = (np.outer([0.6, 0.3j], [0.5, -0.4]), [[0.7, 0.0], [0.0, 0.0]],
                      splitter_block(1.0 / math.sqrt(2.0), math.pi), np.zeros((2, 2)))


@pytest.mark.parametrize("n_pulses", [1, 65535, 65536, 65537, 70001])
@pytest.mark.parametrize("mu", [0.0, 1e-3, 0.01, 0.5, 3.0])
def test_threshold_kernel_counts_equal_the_searchsorted_kernel(mu, n_pulses):
    # bytes, not law: the comparisons and their compress gathers must reproduce
    # the search and its table gathers draw for draw
    rng = rng_for(2028, int(mu * 1000), n_pulses)
    cases = []
    for rep in range(16 if n_pulses == 1 else 3):
        block = _random_contraction(rng)
        source = source_preset("broadband", overlap=rng.uniform(0.0, 1.0), mean_pairs_per_pulse=mu)
        delay = 10.0 / source.rms_angular_bandwidth if rng.random() < 0.5 else 0.0
        seed = 2**64 - 1 if rep == 0 else int(rng.integers(2**64, dtype=np.uint64))
        cases.append((block, source, delay, seed))
    if n_pulses == 65537 and mu in (0.01, 0.5):
        cases.extend((block, source_preset("broadband", overlap=x, mean_pairs_per_pulse=mu), 0.0, seed)
                     for block in _DEGENERATE_BLOCKS for x in (0.0, 0.64, 1.0) for seed in (2**64 - 1, 29))
    for block, source, delay, seed in cases:
        circuit = ProgrammedCircuit(block, 0.0)
        expected = searchsorted_montecarlo_counts(circuit, source, n_pulses, seed, delay_s=delay)
        assert montecarlo_counts(circuit, source, n_pulses, seed, delay_s=delay) == expected
        if not np.any(circuit.sub_matrix[1]):
            assert expected[1:] == (0, 0)


# which detectors an outcome fires, read from its label ("2m0n": two photons at m), not from the click tables
_LABEL_CLICKS = {
    detector: np.array([label[i] != "0" for label in OUTCOME_LABELS]) for detector, i in (("m", 0), ("n", 2))
}


def _boundary_cumulatives():
    """Cumulative six-outcome mixtures, some with repeated entries (outcomes of probability zero)."""
    for block in (splitter_block(0.45, math.pi / 4), *_DEGENERATE_BLOCKS):
        for x in (0.0, 0.64, 1.0):
            ind, dist = pair_outcome_components(np.asarray(block, dtype=complex))
            yield _outcome_bounds(x * ind / ind.sum() + (1.0 - x) * dist / dist.sum())


def _click_flag_mismatches(runs_m, runs_n):
    """Draws, on and beside every threshold, where the run comparisons disagree with the searched outcome."""
    mismatches = []
    for bounds in _boundary_cumulatives():
        cum = bounds[1:]
        edges = cum[:-1]
        u = np.unique(np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges, 0.0),
                                      np.nextafter(edges, 1.0)]))
        u = u[u < 1.0]
        outcome = np.searchsorted(cum, u, side="right")
        for detector, runs in (("m", runs_m), ("n", runs_n)):
            flags = _in_runs(u, bounds, runs)
            mismatches.extend((detector, float(v)) for v in u[flags != _LABEL_CLICKS[detector][outcome]])
    return mismatches


def test_click_runs_read_the_searched_outcome_on_every_threshold():
    # u exactly on each cum[k], one ulp to either side, and repeated cum
    # entries; the reference reads the outcome labels, so a permuted click
    # table fails here as well as in the pinned counts
    assert any(np.any(np.diff(bounds[1:]) == 0.0) for bounds in _boundary_cumulatives())
    assert _click_flag_mismatches(_RUNS_M, _RUNS_N) == []
    for detector, table in (("m", _CLICKS_M), ("n", _CLICKS_N)):
        assert table.tolist() == _LABEL_CLICKS[detector].tolist()
    # the tables derived from the labels keep the literal tables they replaced
    assert _CLICKS_M.tolist() == [True, False, True, True, False, False]
    assert _CLICKS_N.tolist() == [False, True, True, False, True, False]


def test_a_permuted_click_table_breaks_the_threshold_check():
    # mutation check: runs derived from any other order of m's click table disagree somewhere
    for order in set(permutations(_CLICKS_M.tolist())) - {tuple(_CLICKS_M.tolist())}:
        assert _click_flag_mismatches(_click_runs(np.array(order)), _RUNS_N) != [], order


def test_montecarlo_memory_is_bounded_by_the_chunk_at_a_large_mean():
    # mu = 200 over 4000 pulses is 800k pairs, drawn in 13 pieces of at most
    # 65536: every detector clicks in every pulse, as the click model says,
    # and no array grows with the number of pairs (their pulse indices alone
    # would take 6.4 MB)
    circuit = ideal_circuit(0.45, math.pi / 4)
    source = source_preset("highpower", mean_pairs_per_pulse=200.0)
    n_pulses = 4000
    assert min(analytic_click_probabilities(circuit, source, 0.0)) > 1.0 - 1e-12
    tracemalloc.start()
    try:
        counts = montecarlo_counts(circuit, source, n_pulses, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == (n_pulses, n_pulses, n_pulses)
    assert peak < 4 * 2**20


def test_montecarlo_validation():
    circuit = ideal_circuit(0.5, math.pi)
    source = source_preset("filtered")
    with pytest.raises(ValueError):
        montecarlo_counts(circuit, source, 0, seed=1)
    bad_circuit = ideal_circuit(0.9, math.pi)
    with pytest.raises(EmbeddabilityError):
        montecarlo_counts(bad_circuit, source, 100, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64, 3.7, math.inf, math.nan])
def test_montecarlo_counts_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match="^seed: expected unsigned 64-bit integer"):
        montecarlo_counts(ideal_circuit(0.5, math.pi), source_preset("filtered"), 100, seed=seed)


@pytest.mark.parametrize("alphas", [[0.0], [0.0, 1.0], [0.0, math.pi / 2, math.pi]])
def test_montecarlo_counts_rejects_a_stacked_circuit(alphas):
    # a stack's rows would otherwise be flattened into one outcome distribution
    stack = ideal_circuit(0.45, alphas)
    with pytest.raises(ValueError, match=r"circuit must hold one 2x2 block, got sub_matrix of shape \("):
        montecarlo_counts(stack, source_preset("filtered"), 100, seed=1)


def test_check_embeddable_allows_rounding_above_one_only():
    from specklesim.twophoton import check_embeddable

    for sigma in (0.0, 0.5, 1.0, 1.0 + 1e-10):
        check_embeddable(sigma)
    for sigma in (1.0 + 2e-9, 1.5):
        with pytest.raises(EmbeddabilityError, match="not embeddable"):
            check_embeddable(sigma)
