"""Tests of the benchmark harness: span arithmetic, where wrappers are
installed, failure accounting, and that every check rejects a wrong
artifact."""

import math

import pytest

import specklesim
import specklesim.cli
import specklesim.experiments
import specklesim.shaping
from specklesim.config import parse_config

import checks
import harness
import spans
from workloads import Operation, Workload


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_union_of_children():
    root = _span("cli.main", 0.0, 10.0)
    a = _span("experiments.run_alpha_scan", 1.0, 4.0, root)
    b = _span("medium.gaussian_transmission_matrix", 3.0, 6.0, root)  # overlaps a
    leaf = _span("rng.rng_for", 2.0, 3.0, a)
    late = _span("shaping.fit_sine", 9.0, 12.0, root)  # runs past its parent
    own = spans.self_times([root, a, b, leaf, late])
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_are_per_pass_and_skip_missing_boundaries():
    tracer = spans.Tracer()
    tracer.missing.append("shaping.target_intensity")
    root = _span("cli.main", 0.0, 4.0)
    tracer.spans += [root, _span("config.parse_config", 0.0, 1.0, root), _span("cli.main", 5.0, 7.0)]
    out = spans.layer_metrics(tracer, passes=2)
    assert out["cli.main.calls"] == 1.0
    assert out["cli.main.s"] == pytest.approx(3.0)
    assert out["cli.main.self_s"] == pytest.approx(2.5)
    assert out["config.parse_config.calls"] == 0.5
    assert out["medium.gaussian_transmission_matrix.calls"] == 0.0
    assert not any(name.startswith("shaping.target_intensity") for name in out)


def _unwrapped():
    return all(
        not hasattr(value, "__wrapped__")
        for mod in (specklesim, specklesim.cli, specklesim.experiments, specklesim.shaping)
        for value in vars(mod).values()
        if callable(value)
    )


def test_tracer_catches_calls_inside_a_module_and_restores_originals():
    original = specklesim.shaping.fit_sine
    medium = specklesim.gaussian_transmission_matrix(2, 6, seed=1)
    template = specklesim.mode_templates(3)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert specklesim.fit_sine is not original and specklesim.shaping.fit_sine is not original
        specklesim.experiments.optimize_pattern(medium, template, 0, "stepped", 4)
    finally:
        tracer.uninstall()
    assert specklesim.shaping.fit_sine is original and specklesim.fit_sine is original
    assert _unwrapped()
    names = [s.name for s in tracer.spans]
    assert names.count("shaping.fit_sine") == 3
    assert all(s.parent.name == "shaping.optimize_pattern" for s in tracer.spans if s.name == "shaping.fit_sine")
    out = spans.layer_metrics(tracer, passes=1)
    assert out["shaping.optimize_pattern.segments"] == 3
    assert out["rng.rng_for.calls"] == 0


TINY = Workload(
    name="tiny",
    why="harness test",
    configs={"tiny.cfg": "circuit = shaped\nn_out = 4\nsegments = 16\nalpha_grid = 0:pi:3\n"},
    operations=(Operation("alpha-scan-analytic", "alpha-scan", "tiny.cfg"),),
)


def test_plain_measurement_never_installs_wrappers(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("wrappers installed in a plain run")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    m = harness.measure(TINY, seed=3, seconds=0.01, trace=False, work=tmp_path)
    assert m.tracer is None and not m.traced
    assert _unwrapped()
    result = harness.outcome(m)
    assert result.attempted == 1
    assert result.correct
    assert m.setup == []


def test_plain_measurement_spreads_setup_probes_over_the_passes(tmp_path, monkeypatch):
    events = []
    real_run_pass = harness.run_pass
    monkeypatch.setattr(harness, "run_pass", lambda calls: events.append("pass") or real_run_pass(calls))
    monkeypatch.setattr(harness, "setup_time", lambda *args: events.append("setup") or 0.25)
    m = harness.measure(TINY, seed=3, seconds=0.5, trace=False, work=tmp_path, src=tmp_path)
    assert m.setup == [0.25] * harness.SETUP_REPS
    first = events.index("setup")
    assert events[:first] == ["pass", "pass"]  # the warm-up, then one timed pass
    assert "pass" in events[first:]  # later passes follow the first probe


def test_traced_measurement_reports_layers_and_unwraps(tmp_path):
    m = harness.measure(TINY, seed=3, seconds=0.02, trace=True, work=tmp_path)
    assert _unwrapped()
    out = harness.layer_metrics(m)
    assert out["cli.main.calls"] == 1.0
    assert out["medium.gaussian_transmission_matrix.calls"] == 1.0
    assert out["medium.entries_generated"] == 4 * 32
    assert out["experiments.emit_scenario.bytes"] > 0
    assert out["twophoton.montecarlo_counts.calls"] == 0.0
    assert out["twophoton.montecarlo_counts.pulses_per_s"] == 0.0
    assert {harness.unit_of(name) for name in out} <= set(harness.UNITS.values())


def _run(m_reference, passes, checked):
    m = harness.Measurement(m_reference, passes)
    m.checks = checked
    return harness.outcome(m)


def _op(files, error=""):
    return harness.OpRun("alpha-scan-analytic", 1.0, 1.0, error, files)


def test_outcome_separates_criterion_from_exact_failures():
    files = {"fit.csv": b"x"}
    criterion = {"alpha-scan-analytic": [checks.Check("alpha_fidelity", False, False, "")]}
    exact = {"alpha-scan-analytic": [checks.Check("cosine_fit", False, True, "")]}
    passing = {"alpha-scan-analytic": [checks.Check("cosine_fit", True, True, "")]}
    result = _run([_op(files)], [[_op(files)]], criterion)
    assert (result.attempted, result.failed, result.correct) == (1, 1, True)
    assert result.reasons == ["alpha-scan-analytic: check alpha_fidelity"]
    result = _run([_op(files)], [[_op(files)]], exact)
    assert (result.failed, result.correct) == (1, False)
    result = _run([_op(files)], [[_op({"fit.csv": b"y"})], [_op(files)]], passing)
    assert (result.attempted, result.failed, result.correct) == (1, 1, False)
    result = _run([_op(files)], [[_op({}, error="exit code 2")]], passing)
    assert (result.failed, result.correct) == (1, False)


def test_outcome_counts_do_not_depend_on_the_number_of_passes():
    files = {"fit.csv": b"x"}
    criterion = {"alpha-scan-analytic": [checks.Check("alpha_fidelity", False, False, "")]}
    few = _run([_op(files)], [[_op(files)]], criterion)
    many = _run([_op(files)], [[_op(files)]] * 7, criterion)
    assert (few.attempted, few.failed) == (many.attempted, many.failed) == (1, 1)


def _artifacts(tmp_path, subcommand, config_text, seed=5):
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / f"{subcommand}.cfg"
    cfg.write_text(config_text)
    out = tmp_path / subcommand
    args = [subcommand, "--config", str(cfg), "--seed", str(seed), "--out", str(out), "--quiet"]
    assert specklesim.cli.main(args) == 0
    return {p.name.split(".", 1)[1]: p.read_bytes() for p in out.iterdir()}, parse_config(config_text)


def _failing(results):
    return {c.name for c in results if not c.ok}


# reference segment count; two output rows keep the medium small
SHAPED = "circuit = shaped\nn_out = 2\nsegments = 960\nalpha_grid = 0:pi:9\n"


def test_shaped_alpha_scan_rejects_sign_flipped_fit(tmp_path):
    files, config = _artifacts(tmp_path, "alpha-scan", SHAPED)
    assert _failing(checks.shaped_alpha_scan(files, config, 5)) == set()
    v0, err = files["fit.csv"].decode().splitlines()[1].split(",")
    flipped = dict(files, **{"fit.csv": f"v0_fit,v0_std_err\n{-float(v0)!r},{err}\n".encode()})
    assert _failing(checks.shaped_alpha_scan(flipped, config, 5)) == {"cosine_fit", "v0_overlap"}


def test_shaped_alpha_scan_rejects_visibility_off_the_closed_form(tmp_path):
    files, config = _artifacts(tmp_path, "alpha-scan", SHAPED)
    lines = files["visibility.csv"].decode().splitlines()
    alpha, v, err = lines[3].split(",")
    lines[3] = f"{alpha},{float(v) + 1e-5!r},{err}"
    tampered = dict(files, **{"visibility.csv": ("\n".join(lines) + "\n").encode()})
    assert "visibility_closed_form" in _failing(checks.shaped_alpha_scan(tampered, config, 5))


def test_classical_scan_rejects_scaled_intensities(tmp_path):
    files, config = _artifacts(tmp_path, "classical-scan", "circuit = shaped\nn_out = 2\nsegments = 960\nalpha = pi/2\n")
    assert _failing(checks.classical_scan(files, config, 5)) == set()
    lines = files["scan.csv"].decode().splitlines()
    rows = [lines[0]] + [",".join([t, repr(1.01 * float(m)), n]) for t, m, n in (x.split(",") for x in lines[1:])]
    scaled = dict(files, **{"scan.csv": ("\n".join(rows) + "\n").encode()})
    assert _failing(checks.classical_scan(scaled, config, 5)) == {"scan_closed_form"}


def _enhancement_csv(scale):
    lines = ["n_segments,mean_enhancement,std_enhancement,predicted"]
    for n in (64, 256, 960):
        law = 1.0 + (math.pi / 4.0) * (n - 1)
        lines.append(f"{n},{scale * law!r},1.5,{law!r}")
    return {"enhancement.csv": ("\n".join(lines) + "\n").encode()}


def test_enhancement_rejects_a_20_percent_miss():
    config = parse_config("")
    assert _failing(checks.enhancement_study(_enhancement_csv(1.0), config, 0)) == set()
    assert _failing(checks.enhancement_study(_enhancement_csv(0.8), config, 0)) == {"enhancement_law"}


def test_hom_scan_rejects_a_wrong_dip(tmp_path):
    text = "circuit = ideal\nt = 0.7071067811865476\nalpha = pi\nsource = filtered\n"
    files, config = _artifacts(tmp_path, "hom-scan", text)
    assert _failing(checks.hom_scan(files, config, 5)) == set()
    shallow = dict(files, **{"summary.csv": b"visibility\n-0.8\n"})
    assert _failing(checks.hom_scan(shallow, config, 5)) == {"hom_visibility"}


def test_multi_pair_check_rejects_swapped_sources(tmp_path):
    base = "circuit = ideal\nalpha_grid = 0:pi:5\ncounting = montecarlo\npulses_per_point = 100000\n"
    high, _ = _artifacts(tmp_path / "high", "alpha-scan", base + "source = highpower\n", seed=1)
    low, config = _artifacts(tmp_path / "low", "alpha-scan", base + "source = filtered\n", seed=2)
    assert _failing(checks.montecarlo_alpha_scan(high, config, 1)) == set()
    assert checks.multi_pair_reduction(high, low).ok
    assert not checks.multi_pair_reduction(low, high).ok


def test_unreadable_artifacts_fail_an_exact_check(tmp_path):
    cfg = tmp_path / "hom.cfg"
    cfg.write_text("")
    out = checks.check_operations({"hom-scan": {"scan.csv": b"garbage\n"}}, {"hom-scan": cfg}, {"hom-scan": 0})
    (check,) = out["hom-scan"]
    assert check.name == "artifacts_readable" and check.exact and not check.ok
