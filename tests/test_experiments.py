import math

import numpy as np
import pytest
from hom_dips import dip_half_width

from specklesim import experiments
from specklesim.experiments import (
    AlphaScanResult,
    ScenarioConfig,
    analytic_visibility,
    build_medium,
    build_source,
    emit_scenario,
    fit_visibility_cosine,
    focusing_enhancement,
    montecarlo_visibility,
    program_circuit,
    reference_delay,
    run_alpha_scan,
    run_classical_scan,
    run_enhancement_study,
    run_hom_scan,
    run_optimize,
    run_program,
)
from specklesim.config import parse_config
from specklesim.medium import gaussian_transmission_matrix, haar_unitary
from specklesim.oracles import shaped_input
from specklesim.rng import Stream, rng_for
from specklesim.shaping import (
    DegenerateFitError,
    ideal_circuit,
    mode_templates,
    optimize_pattern,
    target_intensity,
)
from specklesim.twophoton import hom_scan, overlap_from_delay, source_preset


# ---------------------------------------------------------------------------
# cosine fit
# ---------------------------------------------------------------------------


def test_fit_cosine_exact():
    alphas = np.linspace(0.0, math.pi, 5)
    v0, err = fit_visibility_cosine(alphas, np.cos(alphas))
    assert v0 == pytest.approx(1.0, abs=1e-15)
    assert err < 1e-15


def test_fit_cosine_sign_preserved():
    alphas = np.linspace(0.0, math.pi, 7)
    v0, _ = fit_visibility_cosine(alphas, -0.5 * np.cos(alphas))
    assert v0 == pytest.approx(-0.5, abs=1e-15)


def test_fit_cosine_noisy_within_three_standard_errors():
    rng = rng_for(1234)
    alphas = np.linspace(0.0, math.pi, 9)
    values = 0.9 * np.cos(alphas) + rng.normal(0.0, 0.05, alphas.size)
    v0, err = fit_visibility_cosine(alphas, values)
    assert abs(v0 - 0.9) < 3.0 * err


def test_fit_cosine_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_visibility_cosine([math.pi / 2.0], [0.1])


def test_fit_cosine_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        fit_visibility_cosine([0, 1], [math.nan, 0.5])


def test_alpha_scan_result_validation():
    with pytest.raises(ValueError):
        AlphaScanResult(
            alphas=np.array([0.0]),
            visibilities=np.array([2.0]),
            std_errs=np.array([0.0]),
            v0_fit=2.0,
            v0_std_err=0.0,
        )


@pytest.mark.parametrize(
    "changes",
    [
        {"v0_fit": math.nan},
        {"v0_std_err": -0.1},
        {"v0_std_err": math.nan},
        {"v0_std_err": math.inf},
        {"std_errs": [-0.1]},
        {"std_errs": [math.nan]},
        {"std_errs": [math.inf]},
        {"visibilities": [math.nan]},
        {"visibilities": [-math.inf]},
        {"alphas": [math.nan]},
        {"alphas": [math.inf]},
        {"alphas": [], "visibilities": [], "std_errs": []},
        {"alphas": 0.0, "visibilities": 0.5, "std_errs": 0.0},
        {"alphas": [[0.0]], "visibilities": [[0.5]], "std_errs": [[0.0]]},
        {"std_errs": [[0.0]]},
    ],
)
def test_alpha_scan_result_rejects_non_finite_negative_or_misshapen_values(changes):
    fields = {"alphas": [0.0], "visibilities": [0.5], "std_errs": [0.0], "v0_fit": 0.5, "v0_std_err": 0.0}
    AlphaScanResult(**fields)
    with pytest.raises(ValueError):
        AlphaScanResult(**{**fields, **changes})


def test_alpha_scan_result_holds_read_only_copies_of_its_arrays():
    alphas, visibilities = np.array([0.0, math.pi]), np.array([-0.5, 0.5])
    result = AlphaScanResult(alphas, visibilities, np.zeros(2), v0_fit=-0.5, v0_std_err=0.0)
    visibilities[0] = 7.0  # unphysical: the checked result must not see it
    alphas[1] = np.nan  # likewise
    assert result.visibilities.tolist() == [-0.5, 0.5]
    assert result.alphas.tolist() == [0.0, math.pi]
    for array in (result.alphas, result.visibilities, result.std_errs):
        with pytest.raises(ValueError):
            array[0] = 1.0


# ---------------------------------------------------------------------------
# alpha scan
# ---------------------------------------------------------------------------


def test_alpha_scan_noiseless_unit_overlap():
    config = ScenarioConfig(circuit="ideal", counting="analytic", overlap=1.0)
    result, _ = run_alpha_scan(config, master_seed=0)
    assert abs(result.v0_fit - 1.0) < 1e-6
    midpoint = np.argmin(np.abs(result.alphas - math.pi / 2.0))
    assert abs(result.visibilities[midpoint]) < 1e-9
    assert np.all(result.std_errs == 0.0)


def test_alpha_scan_noiseless_preset_overlap():
    config = ScenarioConfig(circuit="ideal", counting="analytic", source="filtered")
    result, _ = run_alpha_scan(config, master_seed=0)
    assert abs(result.v0_fit - 0.86) < 1e-9


def test_visibility_cosine_law_pointwise():
    # V(alpha) = overlap * cos(alpha) at zero delay, 9-point grid
    source = source_preset("filtered")
    for alpha in np.linspace(0.0, math.pi, 9):
        circuit = ideal_circuit(0.45, float(alpha))
        scan = hom_scan(circuit, source, [0.0, reference_delay(source)])
        v = scan.coincidence_rate[0] / scan.coincidence_rate[1] - 1.0
        assert abs(v - source.intrinsic_overlap * math.cos(alpha)) < 1e-9


def test_alpha_scan_residuals_have_no_second_harmonic():
    config = ScenarioConfig(circuit="ideal", counting="analytic", overlap=1.0)
    result, _ = run_alpha_scan(config, master_seed=0)
    residuals = result.visibilities - result.v0_fit * np.cos(result.alphas)
    second = np.cos(2.0 * result.alphas)
    c2 = float(np.sum(residuals * second) / np.sum(second * second))
    sigma_c2 = float(np.std(residuals) / math.sqrt(np.sum(second * second)))
    assert abs(c2) <= max(3.0 * sigma_c2, 1e-9)


def test_alpha_scan_montecarlo_zero_at_half_pi():
    config = ScenarioConfig(
        circuit="ideal",
        counting="montecarlo",
        overlap=1.0,
        mean_pairs_per_pulse=0.05,
        pulses_per_point=150_000,
        alpha_grid=np.array([0.0, math.pi / 2.0, math.pi]),
    )
    result, _ = run_alpha_scan(config, master_seed=7)
    mid = result.visibilities[1]
    assert abs(mid) < 3.0 * result.std_errs[1]
    assert result.visibilities[0] > 0.5
    assert result.visibilities[2] < -0.5


def test_alpha_scan_shaped_pipeline_tracks_overlap():
    config = ScenarioConfig(
        circuit="shaped",
        counting="analytic",
        overlap=1.0,
        n_out=256,
        segments=480,
        alpha_grid=np.linspace(0.0, math.pi, 5),
    )
    result, _ = run_alpha_scan(config, master_seed=11)
    assert abs(result.v0_fit - 1.0) < 0.1


@pytest.mark.parametrize("method", ["analytic", "stepped"])
def test_shaped_alpha_scan_optimizes_once_and_matches_per_point_programming(monkeypatch, method):
    config = ScenarioConfig(
        n_out=64, segments=16, output_m=2, output_n=5, circuit="shaped", method=method,
        alpha_grid=np.linspace(0.0, math.pi, 5),
    )
    calls = []
    original = experiments.optimize_pattern

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "optimize_pattern", counting)
    _, files = run_alpha_scan(config, master_seed=6)
    assert calls == [2, 5, 2, 5]

    medium = build_medium(config, 6)
    source = build_source(config)
    visibilities = []
    for alpha in config.alpha_grid:
        _, _, circuit = program_circuit(medium, 16, 2, 5, float(alpha), method, config.steps)
        visibilities.append(analytic_visibility(circuit, source))
    v0, v0_err = fit_visibility_cosine(config.alpha_grid, [r.v for r in visibilities])
    rows = [f"{a:.17g},{r.v:.17g},{r.std_err:.17g}" for a, r in zip(config.alpha_grid, visibilities)]
    assert files["visibility.csv"] == "\n".join(["alpha_rad,visibility,std_err", *rows]) + "\n"
    assert files["fit.csv"] == f"v0_fit,v0_std_err\n{v0:.17g},{v0_err:.17g}\n"

    alphas = [float(alpha) for alpha in config.alpha_grid]
    pattern_k, pattern_l, circuit = program_circuit(medium, 16, 2, 5, alphas, method, config.steps)
    assert pattern_l.phases.shape == (len(alphas), 16) and circuit.sub_matrix.shape == (len(alphas), 2, 2)
    for index, alpha in enumerate(alphas):
        single_k, single_l, single = program_circuit(medium, 16, 2, 5, alpha, method, config.steps)
        assert pattern_k.phases.tobytes() == single_k.phases.tobytes()
        assert pattern_l.phases[index].tobytes() == single_l.phases.tobytes()
        assert circuit.sub_matrix[index].tobytes() == single.sub_matrix.tobytes()
        for name in ("alpha_set", "t_fit", "alpha_fit", "largest_singular_value"):
            assert getattr(circuit, name)[index].tobytes() == np.float64(getattr(single, name)).tobytes()


# ---------------------------------------------------------------------------
# hom reproduction
# ---------------------------------------------------------------------------


def test_hom_reproduction_preset_visibilities_and_widths():
    widths = {}
    for name, expected in (("broadband", 0.64), ("filtered", 0.86)):
        config = ScenarioConfig(circuit="ideal", t=1.0 / math.sqrt(2.0), alpha=math.pi, source=name)
        scan = run_hom_scan(config, master_seed=0)[0].scan
        source = source_preset(name)
        baseline = hom_scan(
            ideal_circuit(1.0 / math.sqrt(2.0), math.pi), source, [reference_delay(source)]
        ).coincidence_rate[0]
        center = np.argmin(np.abs(scan.delays))
        vis = scan.coincidence_rate[center] / baseline - 1.0
        assert abs(vis + expected) < 0.01
        widths[name] = dip_half_width(scan)
    bandwidth_ratio = source_preset("broadband").rms_angular_bandwidth / source_preset(
        "filtered"
    ).rms_angular_bandwidth
    assert abs(widths["filtered"] / widths["broadband"] - bandwidth_ratio) < 0.05 * bandwidth_ratio


def test_hom_scan_runs_one_ulp_above_the_embeddability_bound():
    # the photon-counting benchmark's hom-scan config: its t is one ulp above
    # embeddability_bound(pi), inside the 1 + 1e-9 band of the block routes
    config = parse_config(
        "circuit = ideal\nt = 0.7071067811865476\nalpha = pi\nsource = filtered\ndelay_grid = -3e-12:3e-12:241\n"
    )
    sigma = ideal_circuit(config.t, config.alpha).largest_singular_value  # 1.0000000000000002
    assert 1.0 < sigma <= 1.0 + 1e-9
    result, _ = run_hom_scan(config, master_seed=0)
    assert abs(result.visibility.v + 0.86) < 1e-6


@pytest.mark.parametrize("name, overlap", [("broadband", 0.64), ("filtered", 0.86)])
def test_hom_scan_summary_is_the_zero_delay_visibility_on_a_grid_without_zero(name, overlap):
    # the grid's delay nearest zero, 1e-13 s, would read a shallower dip
    config = parse_config(
        f"circuit = ideal\nt = 0.7071067811865475\nalpha = pi\nsource = {name}\ndelay_grid = 1e-13:3e-12:5\n"
    )
    result, files = run_hom_scan(config, master_seed=0)
    assert 0.0 not in result.scan.delays
    expected = analytic_visibility(ideal_circuit(config.t, config.alpha), build_source(config)).v
    assert float(files["summary.csv"].splitlines()[1]) == result.visibility.v == expected
    assert abs(expected + overlap) < 1e-12


@pytest.mark.parametrize(
    "runner, phases", [(run_alpha_scan, (9,)), (run_program, ()), (run_classical_scan, ()), (run_hom_scan, ())]
)
def test_shaped_runners_program_through_one_program_circuit_call(monkeypatch, runner, phases):
    # the benchmark traces experiments.program_circuit as one layer, so every
    # shaped runner programs its phase or its whole phase grid in one call
    config = ScenarioConfig(n_out=64, segments=16, output_m=2, output_n=5, circuit="shaped")
    calls = []
    original = experiments.program_circuit

    def counting(*args, **kwargs):
        calls.append(np.shape(args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "program_circuit", counting)
    runner(config, master_seed=1)
    assert calls == [phases]


def test_shaped_hom_scan_matches_read_back_closed_form():
    config = ScenarioConfig(
        n_out=64, segments=16, output_m=2, output_n=5, circuit="shaped", alpha=math.pi / 3.0,
        source="broadband", delay_grid=np.linspace(-2e-12, 2e-12, 41),
    )
    result, files = run_hom_scan(config, master_seed=8)
    _, _, circuit = program_circuit(build_medium(config, 8), 16, 2, 5, config.alpha)
    source = build_source(config)
    x0 = overlap_from_delay(source, 0.0)
    x_ref = overlap_from_delay(source, reference_delay(source))
    sub = circuit.sub_matrix
    direct = sub[0, 0] * sub[1, 1]
    crossed = sub[0, 1] * sub[1, 0]
    distinguishable = abs(direct) ** 2 + abs(crossed) ** 2
    interference = 2.0 * (direct * np.conj(crossed)).real
    expected = (distinguishable + x0 * interference) / (distinguishable + x_ref * interference) - 1.0
    assert abs(result.visibility.v - expected) < 1e-9
    assert list(files) == ["scan.csv", "summary.csv"]
    assert float(files["summary.csv"].splitlines()[1]) == result.visibility.v


def test_dip_half_width_against_closed_form():
    source = source_preset("filtered", overlap=0.9)
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    scan = hom_scan(circuit, source, np.linspace(-4e-12, 4e-12, 801))
    expected = math.sqrt(math.log(2.0)) / source.rms_angular_bandwidth
    assert abs(dip_half_width(scan) - expected) < 0.01 * expected


def test_dip_width_grows_monotonically_as_bandwidth_shrinks():
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    widths = []
    for fwhm in (3.0, 1.5, 0.75):
        source = source_preset("filtered", filter_fwhm_nm=fwhm)
        grid = np.linspace(-30e-12, 30e-12, 2001)
        widths.append(dip_half_width(hom_scan(circuit, source, grid)))
    assert widths[0] < widths[1] < widths[2]


# ---------------------------------------------------------------------------
# enhancement study
# ---------------------------------------------------------------------------


def test_enhancement_study_matches_law():
    config = ScenarioConfig(n_out=512, seeds=20, segment_counts=(64, 256))
    rows, _ = run_enhancement_study(config, master_seed=5)
    for row in rows:
        assert row.predicted == pytest.approx(1.0 + (math.pi / 4.0) * (row.n_segments - 1))
        assert abs(row.mean_enhancement / row.predicted - 1.0) < 0.10


def test_enhancement_study_small_segment_count():
    config = ScenarioConfig(n_out=128, seeds=150, segment_counts=(2,))
    rows, _ = run_enhancement_study(config, master_seed=2)
    assert abs(rows[0].mean_enhancement / (1.0 + math.pi / 4.0) - 1.0) < 0.15


def test_enhancement_study_one_segment_is_uncontrolled():
    # a single phase segment cannot enhance; per-seed ratios scatter like
    # plain speckle around one
    config = ScenarioConfig(n_out=64, seeds=200, segment_counts=(1,))
    rows, _ = run_enhancement_study(config, master_seed=3)
    assert rows[0].predicted == 1.0
    assert abs(rows[0].mean_enhancement - 1.0) < 0.25


def _whole_medium_enhancement(medium, target):
    """The oracle route: the unshaped background averaged over every row of the medium."""
    template = mode_templates(medium.n_in)[0]
    background = np.mean(np.abs(medium.entries @ shaped_input(template, medium.n_in)) ** 2)
    return target_intensity(medium, optimize_pattern(medium, template, target), target) / background


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.mark.parametrize("n_out, n_in, replicates", [(8, 64, 1000), (400, 256, 300)])
def test_gamma_background_has_the_whole_medium_law(n_out, n_in, replicates):
    # Disjoint seeds make the two routes' ratios independent samples, as the
    # two-sample test requires.  At small n_out the target row's own term is
    # an eighth of the background, so taking it from the shaped field instead
    # of the zero-phase one would shift the law far past the critical distance.
    gamma_route = [
        focusing_enhancement(gaussian_transmission_matrix(n_out, n_in, seed), 0) for seed in range(replicates)
    ]
    whole_route = [
        _whole_medium_enhancement(gaussian_transmission_matrix(n_out, n_in, seed), 0)
        for seed in range(replicates, 2 * replicates)
    ]
    critical = 1.949 * math.sqrt(2.0 / replicates)  # significance 0.001
    assert _ks_distance(gamma_route, whole_route) < critical


def test_one_output_background_is_the_targets_own_term():
    medium = gaussian_transmission_matrix(1, 64, seed=9)
    assert focusing_enhancement(medium, 0) == pytest.approx(_whole_medium_enhancement(medium, 0), rel=1e-12)


def _pattern_route_enhancement(medium, target, method):
    """The oracle route: optimize a pattern and read both intensities back, with the same Gamma draw."""
    template = mode_templates(medium.n_in)[0]
    others = rng_for(medium.seed, Stream.BACKGROUND).gamma(medium.n_out - 1, 1.0 / medium.n_in)
    background = (target_intensity(medium, template, target) + others) / medium.n_out
    return target_intensity(medium, optimize_pattern(medium, template, target, method), target) / background


@pytest.mark.parametrize("method", ["analytic", "stepped"])
@pytest.mark.parametrize("target", [0, 5])
@pytest.mark.parametrize("n_in", [1, 2, 7, 64, 960])
def test_enhancement_closed_form_matches_the_pattern_route(n_in, target, method):
    medium = gaussian_transmission_matrix(8, n_in, seed=100 + n_in)
    expected = _pattern_route_enhancement(medium, target, method)
    assert focusing_enhancement(medium, target, method) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("method", ["analytic", "stepped"])
@pytest.mark.parametrize("target", [-1, 8])
def test_enhancement_rejects_a_target_out_of_range(method, target):
    with pytest.raises(ValueError):
        focusing_enhancement(gaussian_transmission_matrix(8, 16, seed=2), target, method)


def test_enhancement_rejects_a_unitary_medium():
    with pytest.raises(ValueError, match="gaussian medium"):
        focusing_enhancement(haar_unitary(8, seed=1), 0)


@pytest.mark.parametrize("target", [0, 5])
def test_enhancement_draws_rows_up_to_the_target_only(target):
    medium = gaussian_transmission_matrix(4000, 64, seed=4)
    focusing_enhancement(medium, target)
    assert medium._entries.shape[0] == target + 1


# ---------------------------------------------------------------------------
# monte carlo visibility vs pump power
# ---------------------------------------------------------------------------


def test_multi_pair_emission_reduces_visibility():
    circuit = ideal_circuit(1.0 / math.sqrt(2.0), math.pi)
    low = source_preset("broadband", mean_pairs_per_pulse=0.01)
    high = source_preset("highpower")  # same overlap, mu = 0.5
    v_low = montecarlo_visibility(circuit, low, 300_000, seed=3)
    v_high = montecarlo_visibility(circuit, high, 300_000, seed=4)
    combined = math.hypot(v_low.std_err, v_high.std_err)
    assert abs(v_high.v) < abs(v_low.v) - 3.0 * combined


# ---------------------------------------------------------------------------
# emission and config plumbing
# ---------------------------------------------------------------------------


def test_shaped_runners_return_their_files():
    config = ScenarioConfig(
        n_out=64, segments=16, output_m=2, output_n=5, circuit="shaped",
        delta_theta_grid=np.linspace(0.0, 2.0 * math.pi, 13),
    )
    pattern, files = run_optimize(config, master_seed=4)
    assert list(files) == ["pattern_k.csv"]
    assert files["pattern_k.csv"].splitlines()[0] == "segment,channel,phase_rad"
    assert len(files["pattern_k.csv"].splitlines()) == 1 + pattern.n_segments

    circuit, files = run_program(config, master_seed=4)
    assert list(files) == ["pattern_k.csv", "pattern_l.csv", "circuit.csv"]
    assert files["pattern_l.csv"].splitlines()[0] == "segment,channel,phase_rad"
    assert files["circuit.csv"].splitlines()[0].endswith(",alpha_set,alpha_fit,t_fit,sigma_max")
    assert float(files["circuit.csv"].splitlines()[1].split(",")[9]) == circuit.alpha_fit

    result, files = run_classical_scan(config, master_seed=4)
    assert list(files) == ["scan.csv", "fits.csv"]
    assert files["scan.csv"].splitlines()[0] == "delta_theta_rad,intensity_m,intensity_n"
    assert len(files["scan.csv"].splitlines()) == 14
    fits = files["fits.csv"].splitlines()
    assert fits[0] == "output,offset,amplitude,phase_rad"
    assert [line.split(",")[0] for line in fits[1:]] == ["m", "n"]
    assert float(fits[2].split(",")[3]) == result.fit_n[2]



def test_emit_scenario_refuses_overwrite(tmp_path):
    config = ScenarioConfig()
    emit_scenario(tmp_path, "alpha-scan", 0, {"x.csv": "a\n"}, config)
    with pytest.raises(FileExistsError):
        emit_scenario(tmp_path, "alpha-scan", 0, {"x.csv": "b\n"}, config)
    emit_scenario(tmp_path, "alpha-scan", 0, {"x.csv": "b\n"}, config, force=True)
    assert (tmp_path / "alpha-scan_seed0.x.csv").read_text() == "b\n"


@pytest.mark.parametrize("rerun", [False, True])
def test_failed_emission_leaves_no_manifest_and_no_temporary_file(tmp_path, rerun):
    config = ScenarioConfig()
    files = {"visibility.csv": "a\n", "fit.csv": "b\n"}
    if rerun:
        emit_scenario(tmp_path, "alpha-scan", 0, files, config)
        (tmp_path / "alpha-scan_seed0.fit.csv").unlink()
    (tmp_path / "alpha-scan_seed0.fit.csv").mkdir()  # blocks one data path
    with pytest.raises(OSError):
        emit_scenario(tmp_path, "alpha-scan", 0, files, config, force=rerun)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "alpha-scan_seed0.fit.csv",
        "alpha-scan_seed0.visibility.csv",
    ]


def test_emitted_files_are_deterministic(tmp_path):
    config = ScenarioConfig(circuit="ideal", alpha_grid=np.linspace(0.0, math.pi, 5))
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out_dir in (first, second):
        _, files = run_alpha_scan(config, master_seed=3)
        emit_scenario(out_dir, "alpha-scan", 3, files, config)
    for name in ("alpha-scan_seed3.manifest.txt", "alpha-scan_seed3.visibility.csv", "alpha-scan_seed3.fit.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_manifest_contents(tmp_path):
    config = ScenarioConfig()
    _, files = run_alpha_scan(config, master_seed=9)
    emit_scenario(tmp_path, "alpha-scan", 9, files, config)
    manifest = (tmp_path / "alpha-scan_seed9.manifest.txt").read_text()
    assert "scenario = alpha-scan\n" in manifest
    assert "master_seed = 9\n" in manifest
    assert f"# stream_contract = 3\n# numpy = {np.__version__}\n" in manifest
    assert "alpha_grid = " in manifest and "segments = " not in manifest  # an ideal alpha-scan reads no medium


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(segments=0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_in=100, segments=960)  # cannot host two modes
    for grid in (np.array([]), 0.5, [[0.0, 1.0]], [0.0, np.inf]):  # the scan records' grid rule
        with pytest.raises(ValueError, match="^alpha_grid: expected a non-empty, finite, 1-d array"):
            ScenarioConfig(alpha_grid=grid)
    with pytest.raises(ValueError):
        ScenarioConfig(circuit="magic")


def test_build_medium_kinds():
    gaussian = build_medium(ScenarioConfig(n_out=32, n_in=16, segments=8), master_seed=4)
    assert gaussian.entries.shape == (32, 16)
    unitary = build_medium(
        ScenarioConfig(medium_kind="unitary", n_out=16, n_in=16, segments=8), master_seed=4
    )
    assert unitary.entries.shape == (16, 16)
    with pytest.raises(ValueError):
        build_medium(ScenarioConfig(medium_kind="unitary", n_out=32, n_in=16, segments=8), 4)


def test_build_source_overrides():
    config = ScenarioConfig(source="broadband", overlap=0.5, mean_pairs_per_pulse=0.2)
    source = build_source(config)
    assert source.intrinsic_overlap == 0.5
    assert source.mean_pairs_per_pulse == 0.2


def test_manifest_records_the_stream_table_version(tmp_path):
    from specklesim.rng import STREAM_CONTRACT

    config = ScenarioConfig(alpha_grid=[0.0, 1.0])
    _, files = run_alpha_scan(config, master_seed=4)
    manifest = emit_scenario(tmp_path, "alpha-scan", 4, files, config).read_text()
    assert [line for line in manifest.splitlines() if line.startswith("# stream_contract")] == [
        f"# stream_contract = {STREAM_CONTRACT}"
    ]
