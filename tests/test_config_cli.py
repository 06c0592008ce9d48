import contextlib
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specklesim
from specklesim import cli, experiments
from specklesim.cli import main
from specklesim.config import (
    SCENARIOS, ConfigError, ScenarioConfig, format_config, parse_angle, parse_config, parse_grid, scenario_keys,
)
from specklesim.medium import gaussian_transmission_matrix, load_matrix
from specklesim.twophoton import SOURCE_PRESETS


# ---------------------------------------------------------------------------
# angle and grid parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/2", math.pi / 2.0),
        ("3pi/4", 3.0 * math.pi / 4.0),
        ("2pi", 2.0 * math.pi),
        ("0.5pi", 0.5 * math.pi),
        ("-pi/2", -math.pi / 2.0),
        ("0.25", 0.25),
        ("2e-3", 2e-3),
        ("0", 0.0),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=0.0)


def test_parse_angle_rejects_garbage():
    for bad in ("two pi", "pi/0", "pie", ""):
        with pytest.raises(ValueError):
            parse_angle(bad)
    for bad in (".pi", "e5pi"):  # a coefficient needs a digit
        with pytest.raises(ValueError, match=r"^expected an angle \(radians or pi expression\), got "):
            parse_angle(bad)


def test_parse_grid_inclusive_endpoints():
    grid = parse_grid("0:pi:9")
    assert grid.size == 9
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)
    assert np.allclose(np.diff(grid), math.pi / 8.0)


def test_parse_grid_accepts_comma_lists():
    assert parse_grid("0, pi/2,3").tolist() == [0.0, math.pi / 2.0, 3.0]
    assert parse_grid("-2e-12").tolist() == [-2e-12]


def test_parse_grid_errors():
    with pytest.raises(ValueError):
        parse_grid("0:pi")
    with pytest.raises(ValueError):
        parse_grid("0:pi:0")


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_empty_config_gives_defaults():
    config = parse_config("")
    assert config.n_out == 4000
    assert config.segments == 960
    assert config.resolved_n_in == 1920
    assert config.medium_seed is None
    assert config.resolved_medium_seed(0) == 0
    assert config.alpha_grid.size == 9


def test_config_sections_comments_and_values():
    text = """
# a comment
[medium]
medium_kind = unitary   # trailing comment
n_out = 64
n_in = 64

[shaping]
segments = 16
method = stepped
steps = 12

[scan]
alpha_grid = 0:pi:5
"""
    config = parse_config(text)
    assert config.medium_kind == "unitary"
    assert config.n_out == 64
    assert config.segments == 16
    assert config.method == "stepped"
    assert config.steps == 12
    assert config.alpha_grid.size == 5


def test_config_negative_segments_message():
    with pytest.raises(ConfigError) as err:
        parse_config("segments = -5")
    assert "expected positive integer" in str(err.value)
    assert "segments" in str(err.value)


def test_config_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config("n_out = 10\nsegmants = 5\n")
    message = str(err.value)
    assert "segmants" in message
    assert "line 2" in message


def test_config_unknown_section():
    with pytest.raises(ConfigError) as err:
        parse_config("[nosuch]\n")
    assert "nosuch" in str(err.value)


def test_config_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("n_out = 10\nn_out = 20\n")
    assert "duplicate" in str(err.value)


def test_config_syntax_error_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("n_out = 10\nnot a key value\n")
    assert "line 2" in str(err.value)


def test_config_inconsistent_dimensions_rejected():
    with pytest.raises(ConfigError):
        parse_config("n_in = 100\nsegments = 960\n")


@pytest.mark.parametrize(
    "kwargs,key",
    [
        (dict(source="nosuch"), "source"),
        (dict(mean_pairs_per_pulse=-0.1), "mean_pairs_per_pulse"),
        (dict(mean_pairs_per_pulse=math.inf), "mean_pairs_per_pulse"),
        (dict(mean_pairs_per_pulse=1e302), "mean_pairs_per_pulse"),  # its pair rate overflows
        (dict(medium_seed=-1), "medium_seed"),
        (dict(medium_seed=2**64), "medium_seed"),
    ],
)
def test_library_configs_get_the_parser_rules(kwargs, key):
    with pytest.raises(ValueError) as err:
        ScenarioConfig(**kwargs)
    assert str(err.value).startswith(f"{key}: expected ")


@st.composite
def scenario_configs(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    grids = st.one_of(
        st.builds(np.linspace, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(1, 30)),
        st.lists(finite, min_size=1, max_size=30).map(np.array),
    )
    segments = draw(st.integers(1, 50))
    n_in = draw(st.none() | st.integers(2 * segments, 200))
    medium_kind = draw(st.sampled_from(["gaussian", "unitary"]))
    n_out = (n_in or 2 * segments) if medium_kind == "unitary" else draw(st.integers(2, 300))
    output_m = draw(st.integers(0, n_out - 1))
    method = draw(st.sampled_from(["analytic", "stepped"]))
    return ScenarioConfig(
        medium_kind=medium_kind,
        n_out=n_out,
        n_in=n_in,
        medium_seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        segments=segments,
        output_m=output_m,
        output_n=draw(st.integers(0, n_out - 1).filter(lambda n: n != output_m)),
        circuit=draw(st.sampled_from(["ideal", "shaped"])),
        t=draw(st.floats(0.0, 1e300)),
        alpha=draw(finite),
        method=method,
        steps=draw(st.integers(3 if method == "stepped" else 1, 64)),
        alpha_grid=draw(grids),
        delta_theta_grid=draw(grids),
        delay_grid=draw(grids),
        source=draw(st.sampled_from(sorted(SOURCE_PRESETS))),
        overlap=draw(st.none() | st.floats(0.0, 1.0)),
        bandwidth_fwhm_nm=draw(st.none() | st.floats(1e-300, 1e296)),  # positive finite rms bandwidth
        mean_pairs_per_pulse=draw(st.none() | st.floats(0.0, 1e300)),
        counting=draw(st.sampled_from(["analytic", "montecarlo"])),
        pulses_per_point=draw(st.integers(1, 10**9)),
        seeds=draw(st.integers(1, 1000)),
        segment_counts=tuple(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5))),
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(scenario_configs())
def test_format_config_is_the_inverse_of_parse_config(config):
    text = format_config(config)
    again = parse_config(text)
    assert format_config(again) == text
    for f in fields(ScenarioConfig):
        before, after = getattr(config, f.name), getattr(again, f.name)
        if isinstance(before, np.ndarray):
            assert after.tobytes() == before.tobytes()
        else:
            assert type(after) is type(before) and after == before


def _one_ulp_off(grid: np.ndarray, index: int) -> np.ndarray:
    moved = grid.copy()
    moved[index % grid.size] = np.nextafter(moved[index % grid.size], np.inf)
    return moved


_ENDS = st.floats(-1e300, 1e300)
_LINSPACE = st.builds(np.linspace, _ENDS, _ENDS, st.integers(1, 300))
_GRIDS = st.one_of(
    _LINSPACE,
    st.lists(_ENDS, min_size=1, max_size=2).map(np.array),
    st.builds(lambda stop, count: np.linspace(-0.0, stop, count), _ENDS, st.integers(1, 20)),
    st.builds(lambda stop, count: np.r_[-0.0, np.linspace(0.0, stop, count)[1:]], _ENDS, st.integers(1, 20)),
    st.builds(_one_ulp_off, _LINSPACE, st.integers(0, 299)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30).map(np.array),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_GRIDS)
def test_grids_round_trip_bit_for_bit(grid):
    text = format_config(ScenarioConfig(alpha_grid=grid, delta_theta_grid=grid, delay_grid=grid))
    again = parse_config(text)
    for name in ("alpha_grid", "delta_theta_grid", "delay_grid"):
        assert getattr(again, name).tobytes() == grid.tobytes()
    (written,) = [line.partition(" = ")[2] for line in text.splitlines() if line.startswith("alpha_grid = ")]
    with np.errstate(all="ignore"):
        spaced = np.linspace(grid[0], grid[-1], grid.size)
    assert (":" in written) == (spaced.tobytes() == grid.tobytes())


def test_config_grids_are_read_only_copies():
    grid = np.linspace(0, np.pi, 9)
    config = ScenarioConfig(alpha_grid=grid)
    grid[0] = np.nan  # after validation: the config must not see it
    assert np.isfinite(config.alpha_grid).all()
    for name in ("alpha_grid", "delta_theta_grid", "delay_grid"):
        with pytest.raises(ValueError):
            getattr(config, name)[0] = np.nan


def test_default_grids_are_written_compact_and_others_as_lists():
    text = format_config(ScenarioConfig(alpha_grid=[-0.0, 1.0, 2.0], delay_grid=_one_ulp_off(np.linspace(0, 1, 5), 2)))
    assert "\ndelta_theta_grid = 0:6.2831853071795862:25\n" in text
    assert "\nalpha_grid = -0,1,2\n" in text
    assert "\ndelay_grid = 0,0.25,0.50000000000000011,0.75,1\n" in text
    assert "\ndelay_grid = -3.0000000000000001e-12:3.0000000000000001e-12:241\n" in format_config(ScenarioConfig())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _probabilities(tmp_path, config_text, *extra):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(config_text)
    return main(["probabilities", "--config", str(cfg), *extra])


def test_probabilities_ideal_hom(tmp_path, capsys):
    rc = _probabilities(tmp_path, "t = 0.70710678\nalpha = pi\n", "--out", str(tmp_path / "out"))
    out = capsys.readouterr().out
    assert rc == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines() if line.startswith("P("))
    assert float(lines["P(1m,1n)"]) == 0.0
    assert float(lines["P(2m,0n)"]) == pytest.approx(0.5, abs=1e-7)


def test_probabilities_writes_csv_to_out(tmp_path, capsys):
    out = tmp_path / "out"
    assert _probabilities(tmp_path, "t = 0.5\nalpha = 0\n", "--out", str(out), "--quiet") == 0
    assert capsys.readouterr().out == ""  # --quiet hides the P lines too
    csv = (out / "probabilities_seed0.outcomes.csv").read_text().splitlines()
    assert csv[0] == "outcome,probability"
    assert csv[1] == "2m0n,0.125"


def test_a_run_without_out_writes_under_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["probabilities", "--quiet"]) == 0
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "out", "out/probabilities_seed0.manifest.txt", "out/probabilities_seed0.outcomes.csv",
    ]


# a manifest as version 0.14.0 wrote it, with the output directory as a key
_MANIFEST_0_14_0 = """\
# scenario = alpha-scan
# artifact_version = 0.14.0
# stream_contract = 3
# numpy = 2.4.6
# master_seed = 3
circuit = ideal
t = 0.45000000000000001
alpha_grid = 0:3.1415926535897931:9
source = filtered
counting = analytic
out_dir = out
"""


@pytest.mark.parametrize(
    "subcommand,config_text",
    [
        ("probabilities", "out_dir = runs\n"),
        ("gen-medium", "n_out = 4\nsegments = 2\nout_dir = out\n"),
        ("alpha-scan", _MANIFEST_0_14_0),
    ],
)
def test_out_dir_is_an_unknown_key(tmp_path, monkeypatch, capsys, subcommand, config_text):
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(config_text)
    assert main([subcommand, "--config", "c.cfg", "--seed", "3"]) == 1
    assert "unknown key 'out_dir'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


@pytest.mark.parametrize(
    "subcommand,config_text,key",
    [
        ("gen-medium", "segments = 2147483648\n", "segments"),  # n_in defaults to 2 * segments
        ("gen-medium", "n_in = 4294967296\n", "n_in"),
        ("gen-medium", "medium_kind = unitary\nn_out = 4294967296\nn_in = 4294967296\n", "n_out"),
        ("enhancement-study", "segment_counts = 4294967296\n", "segment_counts"),
        ("enhancement-study", "n_out = 4294967296\n", "n_out"),
    ],
)
def test_channel_counts_follow_the_medium_rule_when_parsed(tmp_path, capsys, subcommand, config_text, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f" {key}: expected " in err and "below 2**32" in err
    assert not out.exists()
    # one below the bound parses, as parsing draws nothing
    parse_config(config_text.replace("2147483648", "2147483647").replace("4294967296", "4294967295"), subcommand)


def test_medium_seed_and_kind_keep_their_error_text():
    with pytest.raises(ValueError, match=r"^medium_seed: expected unsigned 64-bit integer, got 18446744073709551616$"):
        ScenarioConfig(medium_seed=2**64)
    with pytest.raises(ValueError, match=r"^medium_kind: expected one of gaussian, unitary, got 'lossy'$"):
        ScenarioConfig(medium_kind="lossy")


def test_probabilities_rejects_nonembeddable(tmp_path, capsys):
    out = tmp_path / "out"
    rc = _probabilities(tmp_path, "t = 0.6\nalpha = 0\n", "--out", str(out))
    captured = capsys.readouterr()
    assert rc == 2
    assert "0.5" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "config_text,message",
    [
        ("t = -0.3\nalpha = 0\n", "t: expected"),
        ("t = nan\nalpha = 0\n", "t: expected"),
        ("t = 0.3\nalpha = nan\n", "alpha: expected"),
        ("t = 0.3\nalpha = .pi\n", "key 'alpha': expected an angle"),
    ],
)
def test_probabilities_config_follows_the_key_rules(tmp_path, capsys, config_text, message):
    out = tmp_path / "out"
    assert _probabilities(tmp_path, config_text, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_probabilities_manifest_records_the_values_used(tmp_path, capsys):
    out = tmp_path / "out"
    assert _probabilities(tmp_path, "t = 0.5\nalpha = 0\n", "--out", str(out), "--quiet") == 0
    config = parse_config((out / "probabilities_seed0.manifest.txt").read_text(), "probabilities")
    assert (config.t, config.alpha) == (0.5, 0.0)


@pytest.mark.parametrize("module", ["specklesim", "specklesim.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    src = str(Path(specklesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env)

    cfg = tmp_path / "p.cfg"
    cfg.write_text("t = 0.5\nalpha = 0\n")
    done = run("probabilities", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert done.returncode == 0
    assert "P(1m,1n) = 0.25\n" in done.stdout
    assert run("nosuch").returncode == 1


def test_missing_subcommand(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_missing_subcommand_names_every_subcommand(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == (
        "specklesim: error: missing subcommand; choose one of: gen-medium, optimize, program, classical-scan, "
        "hom-scan, alpha-scan, enhancement-study, probabilities, selftest\n"
    )


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("t = 0.3  # caf\u00e9\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["probabilities", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"specklesim: error: {cfg}: not UTF-8 text: ") and captured.out == ""
    assert not out.exists()
    cfg.write_bytes("t = 0.3  # caf\u00e9\n".encode("utf-8"))
    assert main(["probabilities", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0


def test_a_byte_order_mark_reads_like_the_same_text_without_one(tmp_path, capsys):
    # some editors start a UTF-8 file with EF BB BF; it must not become part of the first key
    text = "t = 0.3\nalpha = pi/2\n".encode()
    written = {}
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(data)
        assert main(["probabilities", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"]) == 0
        written[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert sorted(written["bom"]) == ["probabilities_seed0.manifest.txt", "probabilities_seed0.outcomes.csv"]
    assert written["bom"] == written["plain"]
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + "t = 0.3  # caf\u00e9\n".encode("latin-1"))
    assert main(["probabilities", "--config", str(cfg), "--out", str(tmp_path / "latin1")]) == 1
    assert capsys.readouterr().err.startswith(f"specklesim: error: {cfg}: not UTF-8 text: ")
    assert not (tmp_path / "latin1").exists()


@pytest.mark.parametrize("flags", ["--nope", "--t 0", "--alpha 0", "--conf c.cfg"])  # no flag is abbreviated
def test_bad_flag(capsys, flags):
    assert main(["probabilities", *flags.split()]) == 1
    assert f"unrecognized arguments: {flags}" in capsys.readouterr().err


def test_bad_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["probabilities", "--threads", "0"]) == 1
    assert "--threads must be >= 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    builds = []
    real_build = cli._build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or real_build())
    namespaces = []
    real_parse = cli._Parser.parse_args

    def parse(self, argv):
        namespaces.append(real_parse(self, argv))
        return namespaces[-1]

    monkeypatch.setattr(cli._Parser, "parse_args", parse)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("circuit = ideal\nalpha_grid = 0:pi:3\n")
    scan = ["alpha-scan", "--config", str(cfg), "--out", str(tmp_path), "--force"]

    assert main(["probabilities", "--seed", "3", "--out", str(tmp_path), "--quiet"]) == 0
    assert main(scan) == 0
    assert builds == [1]
    assert namespaces[0].seed == 3 and namespaces[0].config is None and namespaces[0].quiet
    assert namespaces[1].seed == 0 and namespaces[1].config == str(cfg) and not namespaces[1].quiet
    out = capsys.readouterr().out
    assert "P(" not in out and "alpha scan done" in out  # --quiet did not stick

    assert main([*scan, "--nope"]) == 1
    assert "unrecognized arguments: --nope" in capsys.readouterr().err
    assert main(scan) == 0
    assert "alpha scan done" in capsys.readouterr().out
    assert builds == [1]


def test_gen_medium_round_trip(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("n_out = 24\nn_in = 12\nsegments = 6\n")
    rc = main(["gen-medium", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "out")])
    assert rc == 0
    stored = load_matrix(tmp_path / "out" / "gen-medium_seed5.medium.tmat")
    regenerated = gaussian_transmission_matrix(24, 12, 5)
    assert stored.entries.tobytes() == regenerated.entries.tobytes()


def test_write_failure_is_an_io_error_exit(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("n_out = 24\nn_in = 12\nsegments = 6\n")
    out = tmp_path / "out"
    (out / "gen-medium_seed5.medium.tmat").mkdir(parents=True)  # blocks the container path
    rc = main(["gen-medium", "--config", str(cfg), "--seed", "5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("specklesim: error: ")
    assert [p.name for p in out.iterdir()] == ["gen-medium_seed5.medium.tmat"]


def test_manifest_refusal_and_force(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("circuit = ideal\nalpha_grid = 0:pi:3\n")
    assert main(["alpha-scan", "--config", str(cfg), "--seed", "1", "--out", out]) == 0
    capsys.readouterr()
    assert main(["alpha-scan", "--config", str(cfg), "--seed", "1", "--out", out]) == 1
    assert "force" in capsys.readouterr().err
    assert main(["alpha-scan", "--config", str(cfg), "--seed", "1", "--out", out, "--force"]) == 0


def test_alpha_scan_byte_identical_across_threads(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "circuit = ideal\ncounting = montecarlo\npulses_per_point = 20000\n"
        "alpha_grid = 0:pi:3\nmean_pairs_per_pulse = 0.05\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["alpha-scan", "--config", str(cfg), "--seed", "42", "--out", str(out_a), "--threads", "1", "--quiet"]) == 0
    assert main(["alpha-scan", "--config", str(cfg), "--seed", "42", "--out", str(out_b), "--threads", "8", "--quiet"]) == 0
    for name in ("alpha-scan_seed42.manifest.txt", "alpha-scan_seed42.visibility.csv", "alpha-scan_seed42.fit.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_program_and_classical_scan(tmp_path, capsys):
    # program always shapes, so only classical-scan reads circuit and delta_theta_grid
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[medium]\nn_out = 64\nsegments = 32\n[circuit]\nalpha = pi\n")
    out = str(tmp_path / "out")
    rc = main(["program", "--config", str(cfg), "--seed", "3", "--out", out])
    assert rc == 0
    assert "alpha_fit" in capsys.readouterr().out
    assert (tmp_path / "out" / "program_seed3.pattern_k.csv").exists()
    assert (tmp_path / "out" / "program_seed3.circuit.csv").exists()
    out2 = str(tmp_path / "out2")
    cfg.write_text(cfg.read_text() + "circuit = shaped\ndelta_theta_grid = 0:2pi:17\n")
    rc = main(["classical-scan", "--config", str(cfg), "--seed", "3", "--out", out2])
    assert rc == 0
    scan_text = (tmp_path / "out2" / "classical-scan_seed3.scan.csv").read_text()
    assert scan_text.splitlines()[0] == "delta_theta_rad,intensity_m,intensity_n"
    assert len(scan_text.splitlines()) == 18


def test_hom_scan_cli(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("circuit = ideal\nt = 0.5\nalpha = pi\nsource = filtered\ndelay_grid = -2e-12:2e-12:41\n")
    out = str(tmp_path / "out")
    rc = main(["hom-scan", "--config", str(cfg), "--seed", "0", "--out", out])
    assert rc == 0
    summary = (tmp_path / "out" / "hom-scan_seed0.summary.csv").read_text().splitlines()
    assert summary[0] == "visibility"
    assert float(summary[1]) == pytest.approx(-0.86, abs=1e-6)


def test_optimize_cli_quiet(tmp_path, capsys):
    cfg = tmp_path / "o.cfg"
    cfg.write_text("n_out = 32\nsegments = 16\n")
    rc = main(["optimize", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""
    pattern = (tmp_path / "out" / "optimize_seed2.pattern_k.csv").read_text()
    assert pattern.splitlines()[0] == "segment,channel,phase_rad"


def test_enhancement_study_cli(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("n_out = 128\nsegment_counts = 2,16\nseeds = 5\n")
    out = str(tmp_path / "out")
    rc = main(["enhancement-study", "--config", str(cfg), "--seed", "6", "--out", out])
    assert rc == 0
    table = (tmp_path / "out" / "enhancement-study_seed6.enhancement.csv").read_text().splitlines()
    assert table[0] == "n_segments,mean_enhancement,std_enhancement,predicted"
    assert len(table) == 3


def test_outputs_stay_inside_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("circuit = ideal\nalpha_grid = 0:pi:3\n")
    out = tmp_path / "only_here"
    assert main(["alpha-scan", "--config", str(cfg), "--seed", "1", "--out", str(out), "--quiet"]) == 0
    created = {p.name for p in tmp_path.iterdir()}
    assert created == {"c.cfg", "only_here"}


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("segments = -5\n")
    assert main(["alpha-scan", "--config", str(cfg)]) == 1
    assert "expected positive integer" in capsys.readouterr().err


def test_zero_bandwidth_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bw.cfg"
    cfg.write_text("bandwidth_fwhm_nm = 0\n")
    assert main(["hom-scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "bandwidth_fwhm_nm" in capsys.readouterr().err


def test_bandwidth_whose_rms_overflows_is_a_config_error(tmp_path, capsys):
    # above about 1.4e296 nm the conversion to an rms angular bandwidth overflows
    cfg = tmp_path / "bw.cfg"
    out = tmp_path / "out"
    for width in ("1e300", "1.5e296"):
        cfg.write_text(f"circuit = ideal\nbandwidth_fwhm_nm = {width}\n")
        assert main(["hom-scan", "--config", str(cfg), "--out", str(out)]) == 1
        assert "bandwidth_fwhm_nm: expected positive number with a finite rms bandwidth" in capsys.readouterr().err
        assert not out.exists()
    cfg.write_text("circuit = ideal\nbandwidth_fwhm_nm = 1e296\ndelay_grid = 0\n")
    assert main(["hom-scan", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "hom-scan_seed0.summary.csv").exists()


def test_bandwidth_whose_rms_underflows_is_a_config_error(tmp_path, capsys):
    # below about 7.4e-315 nm the conversion to an rms angular bandwidth underflows to 0
    cfg = tmp_path / "bw.cfg"
    out = tmp_path / "out"
    for width in ("1e-320", "5e-315"):
        cfg.write_text(f"circuit = ideal\nbandwidth_fwhm_nm = {width}\n")
        assert main(["hom-scan", "--config", str(cfg), "--out", str(out)]) == 1
        assert "bandwidth_fwhm_nm: expected positive number with a finite rms bandwidth" in capsys.readouterr().err
        assert not out.exists()
    cfg.write_text("circuit = ideal\nbandwidth_fwhm_nm = 1e-314\ndelay_grid = 0\n")
    assert main(["hom-scan", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "hom-scan_seed0.summary.csv").exists()


def test_output_channel_beyond_n_out_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "ch.cfg"
    cfg.write_text("n_out = 100\noutput_m = 5000\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "output_m" in capsys.readouterr().err


def test_non_square_unitary_medium_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "u.cfg"
    cfg.write_text("medium_kind = unitary\nn_out = 32\nn_in = 16\nsegments = 8\n")
    out = tmp_path / "out"
    assert main(["gen-medium", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "n_out" in err and "n_in" in err
    assert not out.exists()  # no manifest, no data


def test_non_finite_alpha_is_a_config_error_when_programming(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("circuit = shaped\nn_out = 8\nsegments = 4\nalpha = nan\n")
    assert main(["program", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "alpha" in capsys.readouterr().err


def test_non_finite_alpha_is_a_config_error_for_an_ideal_hom_scan(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("circuit = ideal\nt = 0.5\nalpha = nan\n")
    assert main(["hom-scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand,line,key",
    [("alpha-scan", "alpha_grid = 0:nan:3", "alpha_grid"), ("hom-scan", "delay_grid = -inf:1:3", "delay_grid")],
)
def test_non_finite_grid_values_are_config_errors(tmp_path, capsys, subcommand, line, key):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"circuit = ideal\n{line}\n")
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err


def test_stepped_shaping_needs_three_steps(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_out = 8\nsegments = 4\nmethod = stepped\nsteps = 2\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "steps" in capsys.readouterr().err
    assert parse_config("method = analytic\nsteps = 1\n").steps == 1


@pytest.mark.parametrize(
    "subcommand,config_text",
    [
        ("alpha-scan", "circuit = ideal\nalpha_grid = 0,0.3,pi/2,3\nmean_pairs_per_pulse = 0.05\n"),
        ("alpha-scan", "circuit = shaped\nn_out = 6\nsegments = 8\noutput_n = 5\nalpha_grid = 0:pi:4\n"),
        ("hom-scan", "circuit = ideal\nt = 0.5\nalpha = 3pi/4\nsource = broadband\ndelay_grid = -2e-12:2e-12:21\n"),
        ("enhancement-study", "n_out = 32\nsegment_counts = 2,8\nseeds = 3\n"),
    ],
)
def test_manifest_reruns_the_scenario(tmp_path, capsys, subcommand, config_text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([subcommand, "--config", str(cfg), "--seed", "11", "--out", str(first), "--quiet"]) == 0
    manifest = first / f"{subcommand}_seed11.manifest.txt"
    assert main([subcommand, "--config", str(manifest), "--seed", "11", "--out", str(second), "--quiet"]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir()) and len(names) >= 2
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


_TINY_CONFIGS = {
    "gen-medium": "medium_kind = unitary\nn_out = 8\nn_in = 8\nsegments = 4\n",
    "optimize": "n_out = 16\nsegments = 8\nmethod = stepped\n",
    "program": "n_out = 16\nsegments = 8\nalpha = pi/3\n",
    "classical-scan": "circuit = shaped\nn_out = 16\nsegments = 8\ndelta_theta_grid = 0:2pi:9\n",
    "hom-scan": "circuit = shaped\nn_out = 16\nsegments = 8\ndelay_grid = -2e-12:2e-12:11\n",
    "alpha-scan": "circuit = ideal\nalpha_grid = 0:pi:5\ncounting = montecarlo\npulses_per_point = 5000\n",
    "enhancement-study": "n_out = 16\nsegment_counts = 2,4\nseeds = 2\n",
    "probabilities": "t = 0.3\nalpha = pi/2\n",
}


@pytest.mark.parametrize("subcommand", list(SCENARIOS))
def test_table_subcommands_write_exactly_the_runner_files(tmp_path, capsys, subcommand):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_TINY_CONFIGS[subcommand])
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    assert main([subcommand, "--config", str(cfg), "--seed", "5", "--out", str(out), "--quiet"]) == 0
    _, files = getattr(experiments, SCENARIOS[subcommand][0])(parse_config(cfg.read_text()), 5)
    prefix = f"{subcommand}_seed5."
    expected = {prefix + name: data if isinstance(data, bytes) else data.encode() for name, data in files.items()}
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = prefix + "manifest.txt"
    assert written[manifest].startswith(f"# scenario = {subcommand}\n".encode())
    # the manifest alone re-runs the scenario to the same bytes
    assert main([subcommand, "--config", str(out / manifest), "--seed", "5", "--out", str(rerun), "--quiet"]) == 0
    assert {p.name: p.read_bytes() for p in rerun.iterdir()} == written
    del written[manifest]
    assert written == expected


# each summary by its prefix: the part the config fixes, before the fitted numbers
_SUMMARIES = {
    "gen-medium": "generated unitary medium 8x8\n",
    "optimize": "optimized 8 segments onto output 0\n",
    "program": "programmed alpha = 1.0471975511965976: alpha_fit = ",
    "classical-scan": "classical scan done; sine phases m = ",
    "hom-scan": "hom scan done; visibility at zero delay = ",
    "alpha-scan": "alpha scan done; v0_fit = ",
    "enhancement-study": "enhancement study done; N=2: ",
    "probabilities": "P(2m,0n) = 0.016199999999999999\nP(0m,2n) = ",
}


@pytest.mark.parametrize("subcommand", list(_TINY_CONFIGS))
def test_each_subcommand_prints_its_summary(tmp_path, capsys, subcommand):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_TINY_CONFIGS[subcommand])
    assert main([subcommand, "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert out.startswith(_SUMMARIES[subcommand])
    assert out.count("\n") == (6 if subcommand == "probabilities" else 1) and out.endswith("\n")


def test_every_runner_is_reachable_from_the_cli():
    # the CLI is a thin table over experiments: a runner outside the table writes files nobody can ask for
    runners = {name for name in experiments.__all__ if name.startswith("run_")}
    assert runners == {row[0] for row in SCENARIOS.values()}


# ---------------------------------------------------------------------------
# each subcommand reads exactly its scenario_keys
# ---------------------------------------------------------------------------

_FIELDS = frozenset(f.name for f in fields(ScenarioConfig))


class _RecordingConfig(ScenarioConfig):
    """A config that records each field read after its construction."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "reads", set())

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name in _FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)


_SHAPED = "circuit = shaped\nn_out = 64\nsegments = 16\n"  # large enough to stay embeddable at seed 1
_MONTECARLO = "counting = montecarlo\npulses_per_point = 20000\nmean_pairs_per_pulse = 0.05\nalpha_grid = 0:pi:3\n"
_READ_CASES = [
    ("gen-medium", "n_out = 8\nsegments = 3\n"),  # a set n_in leaves segments to the rule n_in >= 2 * segments
    ("gen-medium", "medium_kind = unitary\nn_out = 8\nn_in = 8\nsegments = 4\n"),
    ("optimize", "n_out = 8\nsegments = 4\n"),
    ("optimize", "n_out = 8\nsegments = 4\nmethod = stepped\n"),
    ("program", "n_out = 64\nsegments = 16\n"),
    ("program", "n_out = 64\nsegments = 16\nmethod = stepped\n"),
    ("classical-scan", "circuit = ideal\n"),
    ("classical-scan", _SHAPED),
    ("hom-scan", "circuit = ideal\ndelay_grid = 0:1e-12:3\n"),
    ("hom-scan", _SHAPED + "method = stepped\ndelay_grid = 0:1e-12:3\n"),
    ("alpha-scan", "circuit = ideal\n"),
    ("alpha-scan", "circuit = ideal\n" + _MONTECARLO),
    ("alpha-scan", _SHAPED),
    ("alpha-scan", _SHAPED + "method = stepped\n"),
    ("enhancement-study", "n_out = 8\nsegment_counts = 2\nseeds = 2\n"),
    ("enhancement-study", "n_out = 8\nsegment_counts = 2\nseeds = 2\nmethod = stepped\n"),
    ("probabilities", ""),
]


# scenario_keys of every subcommand under every circuit, method and counting, as of version 0.15.0: a
# manifest lists exactly these keys, so a change here moves manifest bytes
_KEY_TABLE = {
    ("gen-medium", "ideal analytic analytic"): "medium_kind n_out n_in medium_seed segments",
    ("gen-medium", "ideal analytic montecarlo"): "medium_kind n_out n_in medium_seed segments",
    ("gen-medium", "ideal stepped analytic"): "medium_kind n_out n_in medium_seed segments",
    ("gen-medium", "ideal stepped montecarlo"): "medium_kind n_out n_in medium_seed segments",
    ("gen-medium", "shaped analytic analytic"): "medium_kind n_out n_in medium_seed segments",
    ("gen-medium", "shaped analytic montecarlo"): "medium_kind n_out n_in medium_seed segments",
    ("gen-medium", "shaped stepped analytic"): "medium_kind n_out n_in medium_seed segments",
    ("gen-medium", "shaped stepped montecarlo"): "medium_kind n_out n_in medium_seed segments",
    ("optimize", "ideal analytic analytic"): "medium_kind n_out n_in medium_seed segments output_m method",
    ("optimize", "ideal analytic montecarlo"): "medium_kind n_out n_in medium_seed segments output_m method",
    ("optimize", "ideal stepped analytic"): "medium_kind n_out n_in medium_seed segments output_m method steps",
    ("optimize", "ideal stepped montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m method steps",
    ("optimize", "shaped analytic analytic"): "medium_kind n_out n_in medium_seed segments output_m method",
    ("optimize", "shaped analytic montecarlo"): "medium_kind n_out n_in medium_seed segments output_m method",
    ("optimize", "shaped stepped analytic"):
        "medium_kind n_out n_in medium_seed segments output_m method steps",
    ("optimize", "shaped stepped montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m method steps",
    ("program", "ideal analytic analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method",
    ("program", "ideal analytic montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method",
    ("program", "ideal stepped analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method steps",
    ("program", "ideal stepped montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method steps",
    ("program", "shaped analytic analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method",
    ("program", "shaped analytic montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method",
    ("program", "shaped stepped analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method steps",
    ("program", "shaped stepped montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n alpha method steps",
    ("classical-scan", "ideal analytic analytic"): "circuit t alpha delta_theta_grid",
    ("classical-scan", "ideal analytic montecarlo"): "circuit t alpha delta_theta_grid",
    ("classical-scan", "ideal stepped analytic"): "circuit t alpha delta_theta_grid",
    ("classical-scan", "ideal stepped montecarlo"): "circuit t alpha delta_theta_grid",
    ("classical-scan", "shaped analytic analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method delta_theta_grid",
    ("classical-scan", "shaped analytic montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method delta_theta_grid",
    ("classical-scan", "shaped stepped analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method steps delta_theta_grid",
    ("classical-scan", "shaped stepped montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method steps delta_theta_grid",
    ("hom-scan", "ideal analytic analytic"):
        "circuit t alpha delay_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("hom-scan", "ideal analytic montecarlo"):
        "circuit t alpha delay_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("hom-scan", "ideal stepped analytic"):
        "circuit t alpha delay_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("hom-scan", "ideal stepped montecarlo"):
        "circuit t alpha delay_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("hom-scan", "shaped analytic analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method delay_grid source overlap "
        "bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("hom-scan", "shaped analytic montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method delay_grid source overlap "
        "bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("hom-scan", "shaped stepped analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method steps delay_grid source "
        "overlap bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("hom-scan", "shaped stepped montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit alpha method steps delay_grid source "
        "overlap bandwidth_fwhm_nm mean_pairs_per_pulse",
    ("alpha-scan", "ideal analytic analytic"):
        "circuit t alpha_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse counting",
    ("alpha-scan", "ideal analytic montecarlo"):
        "circuit t alpha_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse counting pulses_per_point",
    ("alpha-scan", "ideal stepped analytic"):
        "circuit t alpha_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse counting",
    ("alpha-scan", "ideal stepped montecarlo"):
        "circuit t alpha_grid source overlap bandwidth_fwhm_nm mean_pairs_per_pulse counting pulses_per_point",
    ("alpha-scan", "shaped analytic analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit method alpha_grid source overlap "
        "bandwidth_fwhm_nm mean_pairs_per_pulse counting",
    ("alpha-scan", "shaped analytic montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit method alpha_grid source overlap "
        "bandwidth_fwhm_nm mean_pairs_per_pulse counting pulses_per_point",
    ("alpha-scan", "shaped stepped analytic"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit method steps alpha_grid source overlap "
        "bandwidth_fwhm_nm mean_pairs_per_pulse counting",
    ("alpha-scan", "shaped stepped montecarlo"):
        "medium_kind n_out n_in medium_seed segments output_m output_n circuit method steps alpha_grid source overlap "
        "bandwidth_fwhm_nm mean_pairs_per_pulse counting pulses_per_point",
    ("enhancement-study", "ideal analytic analytic"): "n_out output_m method seeds segment_counts",
    ("enhancement-study", "ideal analytic montecarlo"): "n_out output_m method seeds segment_counts",
    ("enhancement-study", "ideal stepped analytic"): "n_out output_m method steps seeds segment_counts",
    ("enhancement-study", "ideal stepped montecarlo"): "n_out output_m method steps seeds segment_counts",
    ("enhancement-study", "shaped analytic analytic"): "n_out output_m method seeds segment_counts",
    ("enhancement-study", "shaped analytic montecarlo"): "n_out output_m method seeds segment_counts",
    ("enhancement-study", "shaped stepped analytic"): "n_out output_m method steps seeds segment_counts",
    ("enhancement-study", "shaped stepped montecarlo"): "n_out output_m method steps seeds segment_counts",
    ("probabilities", "ideal analytic analytic"): "t alpha",
    ("probabilities", "ideal analytic montecarlo"): "t alpha",
    ("probabilities", "ideal stepped analytic"): "t alpha",
    ("probabilities", "ideal stepped montecarlo"): "t alpha",
    ("probabilities", "shaped analytic analytic"): "t alpha",
    ("probabilities", "shaped analytic montecarlo"): "t alpha",
    ("probabilities", "shaped stepped analytic"): "t alpha",
    ("probabilities", "shaped stepped montecarlo"): "t alpha",
}


def test_scenario_keys_are_pinned_for_every_subcommand_and_mode():
    modes = itertools.product(("ideal", "shaped"), ("analytic", "stepped"), ("analytic", "montecarlo"))
    got = {}
    for sub, (c, m, k) in itertools.product(SCENARIOS, list(modes)):
        got[sub, f"{c} {m} {k}"] = " ".join(scenario_keys(sub, SimpleNamespace(circuit=c, method=m, counting=k)))
    assert got == _KEY_TABLE


def test_read_cases_cover_every_subcommand_and_mode():
    assert {sub for sub, _ in _READ_CASES} == set(SCENARIOS)
    configs = [parse_config(text) for _, text in _READ_CASES]
    for mode, values in (("circuit", {"ideal", "shaped"}), ("method", {"analytic", "stepped"}),
                         ("counting", {"analytic", "montecarlo"}), ("medium_kind", {"gaussian", "unitary"})):
        assert {getattr(c, mode) for (sub, _), c in zip(_READ_CASES, configs) if mode in scenario_keys(sub, c)} == values


@pytest.mark.parametrize("subcommand,config_text", _READ_CASES)
def test_runners_read_exactly_their_scenario_keys(subcommand, config_text):
    parsed = parse_config(config_text, subcommand)
    config = _RecordingConfig(**{name: getattr(parsed, name) for name in _FIELDS})
    getattr(experiments, SCENARIOS[subcommand][0])(config, 1)
    expected = set(scenario_keys(subcommand, parsed))
    if parsed.medium_kind == "unitary":  # only the square rule reads these
        expected -= {"n_in", "segments"}
    assert config.reads == expected


@pytest.mark.parametrize(
    "subcommand,config_text,key",
    [
        ("gen-medium", "n_out = 8\nalpha = pi\n", "alpha"),
        ("optimize", "circuit = shaped\n", "circuit"),
        ("optimize", "method = analytic\nsteps = 8\n", "steps"),
        ("program", "delta_theta_grid = 0:pi:3\n", "delta_theta_grid"),
        ("classical-scan", "circuit = ideal\nsegments = 8\n", "segments"),
        ("hom-scan", "circuit = ideal\nn_out = 1\n", "n_out"),  # the unread key, not the unread output_n
        ("alpha-scan", "pulses_per_point = 1000\n", "pulses_per_point"),
        ("alpha-scan", format_config(ScenarioConfig()), "medium_kind"),  # a manifest from before 0.12.0
        ("enhancement-study", "medium_kind = unitary\n", "medium_kind"),
        ("enhancement-study", "medium_seed = 3\n", "medium_seed"),
        ("probabilities", "t = 0.3\ncircuit = ideal\n", "circuit"),
    ],
)
def test_a_key_the_subcommand_does_not_read_is_a_config_error(tmp_path, capsys, subcommand, config_text, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{subcommand} does not read key {key!r}" in err and "output_n" not in err
    assert not out.exists()


def test_unread_key_message_names_the_line_and_the_modes():
    with pytest.raises(ConfigError, match=r"^line 3: hom-scan does not read key 'segments' with circuit = ideal$"):
        parse_config("circuit = ideal\n\nsegments = 8\n", "hom-scan")
    with pytest.raises(ConfigError, match="with circuit = shaped, method = analytic, counting = analytic$"):
        parse_config("circuit = shaped\npulses_per_point = 10\n", "alpha-scan")
    with pytest.raises(ValueError, match="unknown subcommand 'selftest'"):
        scenario_keys("selftest", ScenarioConfig())


def test_a_key_rule_comes_before_the_scope_and_the_scope_before_rules_between_keys():
    with pytest.raises(ConfigError, match="^line 2: alpha: expected finite angle"):
        parse_config("circuit = shaped\nalpha = nan\n", "program")
    with pytest.raises(ConfigError, match="does not read key 'n_out'"):
        parse_config("circuit = ideal\nn_out = 1\n", "hom-scan")
    with pytest.raises(ConfigError, match="output_n: expected a channel index below n_out = 1"):
        parse_config("circuit = ideal\nn_out = 1\n")


def test_format_config_writes_only_the_given_keys_in_field_order():
    assert format_config(ScenarioConfig(), ("t", "n_out")) == "n_out = 4000\nt = 0.45000000000000001\n"


@pytest.mark.parametrize(
    "subcommand,config_text,code,message",
    [
        # neither reads output_n, so its default 1 beside n_out = 1 breaks no rule
        ("gen-medium", "n_out = 1\nsegments = 1\n", 0, None),
        ("enhancement-study", "n_out = 1\nsegment_counts = 2\nseeds = 1\n", 0, None),
        ("optimize", "n_out = 1\nsegments = 1\n", 0, None),
        # the runs that read output_n still meet both output rules
        ("program", "n_out = 1\nsegments = 1\n", 1, "output_n: expected a channel index below n_out = 1, got 1"),
        ("hom-scan", "circuit = shaped\nn_out = 1\nsegments = 1\n", 1, "output_n: expected a channel index below"),
        ("program", "n_out = 4\nsegments = 1\noutput_m = 1\noutput_n = 1\n", 1, "output_m and output_n must differ"),
        ("optimize", "n_out = 4\nsegments = 1\noutput_m = 4\n", 1, "output_m: expected a channel index below n_out = 4"),
    ],
)
def test_output_rules_apply_only_to_the_outputs_a_subcommand_reads(tmp_path, capsys, subcommand, config_text, code,
                                                                   message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out), "--quiet"]) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == "" and (out / f"{subcommand}_seed0.manifest.txt").exists()
    else:
        assert message in err and not out.exists()


_ONE_POINT_SHAPED = ("circuit = shaped\nmedium_kind = unitary\nn_out = 3\nn_in = 3\nsegments = 1\nalpha_grid = 0\n"
                     "source = broadband\nmean_pairs_per_pulse = 1\n")


@pytest.mark.parametrize(
    "subcommand,config_text,key",
    [
        ("hom-scan", "mean_pairs_per_pulse = 0\n", "mean_pairs_per_pulse"),
        ("hom-scan", "circuit = shaped\nn_out = 8\nsegments = 2\nmean_pairs_per_pulse = 0\n", "mean_pairs_per_pulse"),
        ("alpha-scan", "counting = montecarlo\npulses_per_point = 10\nmean_pairs_per_pulse = 0\n",
         "mean_pairs_per_pulse"),
        ("hom-scan", "t = 0\n", "t"),
        ("alpha-scan", "circuit = ideal\nt = 0\n", "t"),
        ("alpha-scan", "alpha_grid = pi/2\n", "alpha_grid"),
        ("alpha-scan", "alpha_grid = pi/2, -pi/2\n", "alpha_grid"),
        ("alpha-scan", "circuit = shaped\nn_out = 8\nsegments = 2\nalpha_grid = pi/2:3pi/2:2\n", "alpha_grid"),
        # one counted point has no residual scatter for V0's error: at --seed 1 this exited 2 on its v0_fit
        ("alpha-scan", f"{_ONE_POINT_SHAPED}counting = montecarlo\npulses_per_point = 82\n", "alpha_grid"),
    ],
)
def test_a_run_with_no_pairs_or_no_fittable_phase_is_a_config_error(tmp_path, capsys, subcommand, config_text, key):
    # these once ran the whole scan, then exited 2 naming no key
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"specklesim: error: invalid configuration: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["hom-scan", "alpha-scan"])
def test_a_pair_rate_beyond_the_float_range_is_a_config_error(tmp_path, capsys, subcommand):
    # 1e302 pairs per pulse at 76 MHz overflow the rates: this once exited 2 naming no key
    cfg, out = tmp_path / "c.cfg", tmp_path / "out"
    cfg.write_text("circuit = ideal\nmean_pairs_per_pulse = 1e302\n")
    assert main([subcommand, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert "mean_pairs_per_pulse: expected nonnegative number with a finite pair rate" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("circuit = ideal\nmean_pairs_per_pulse = 1e300\n")
    assert main([subcommand, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0


@pytest.mark.parametrize(
    "subcommand,config_text",
    [("probabilities", "t = 0\nalpha = pi/2\n"), ("alpha-scan", "alpha_grid = pi/2, 0\n"),
     ("hom-scan", "circuit = shaped\nn_out = 8\nsegments = 2\n"), ("alpha-scan", _ONE_POINT_SHAPED)],
)
def test_the_pair_rate_rules_leave_other_runs_alone(tmp_path, capsys, subcommand, config_text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    # a shaped circuit reads no t, and library callers and a config without a subcommand keep every setting
    assert parse_config("t = 0\nmean_pairs_per_pulse = 0\nalpha_grid = pi/2\n").t == 0.0


def test_without_a_subcommand_every_output_rule_applies():
    # library callers build a ScenarioConfig freely; parse_config without a subcommand reads every output
    assert ScenarioConfig(output_m=1, output_n=1).output_n == 1
    with pytest.raises(ConfigError, match="output_m and output_n must differ"):
        parse_config("output_m = 1\noutput_n = 1\n")


def test_output_n_defaults_to_an_output_other_than_output_m():
    assert ScenarioConfig().output_n == 1
    assert ScenarioConfig(output_m=1).output_n == 0
    assert ScenarioConfig(output_m=2).output_n == 1


@pytest.mark.parametrize(
    "subcommand,config_text",
    [("optimize", "n_out = 16\nsegments = 4\noutput_m = 1\n"),
     ("enhancement-study", "n_out = 16\noutput_m = 1\nsegment_counts = 2\nseeds = 2\n")],
)
def test_optimize_and_enhancement_study_can_target_output_1(tmp_path, capsys, subcommand, config_text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    manifest = (tmp_path / "out" / f"{subcommand}_seed0.manifest.txt").read_text()
    assert "output_m = 1\n" in manifest and "output_n" not in manifest


def test_classical_scan_of_the_ideal_circuit_shows_alpha(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("circuit = ideal\nalpha = pi/2\n")
    assert main(["classical-scan", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    fits = (tmp_path / "classical-scan_seed0.fits.csv").read_text().splitlines()
    phase_m, phase_n = (float(line.split(",")[3]) for line in fits[1:])
    assert abs(math.remainder(phase_n - phase_m - math.pi / 2, 2 * math.pi)) < 1e-9


@pytest.mark.parametrize("grid,points", [("0", 1), ("0:2pi:2", 2)])
def test_classical_scan_runs_any_grid_and_writes_the_fits_of_the_default_grid(tmp_path, grid, points):
    # these grids once exited 1 ("need at least 3 samples", a degenerate design): the sinusoids are
    # read off the block, so they do not depend on the grid
    shaped = "circuit = shaped\nn_out = 16\nsegments = 8\nalpha = 2\n"
    runs = {}
    for name, text in (("default", shaped), ("grid", f"{shaped}delta_theta_grid = {grid}\n")):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
        cfg.write_text(text)
        assert main(["classical-scan", "--config", str(cfg), "--seed", "7", "--out", str(out), "--quiet"]) == 0
        runs[name] = {p.name.split(".", 1)[1]: p.read_bytes() for p in out.iterdir()}
    assert runs["grid"]["fits.csv"] == runs["default"]["fits.csv"]
    assert len(runs["grid"]["scan.csv"].splitlines()) == 1 + points
    manifest = tmp_path / "grid" / "classical-scan_seed7.manifest.txt"
    again = tmp_path / "again"
    assert main(["classical-scan", "--config", str(manifest), "--seed", "7", "--out", str(again), "--quiet"]) == 0
    assert {p.name.split(".", 1)[1]: p.read_bytes() for p in again.iterdir()} == runs["grid"]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    assert main(["alpha-scan", "--seed", seed]) == 1
    assert "seed: expected unsigned 64-bit integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# sha256 of artifacts at artifact version 0.3.1, and of enhancement.csv at
# 0.7.0.  None of them goes through a BLAS reduction, so their bytes do not
# depend on the linear-algebra build.
_PINNED_ARTIFACTS = [
    (
        ["gen-medium"], "n_out = 24\nn_in = 12\nsegments = 6\n", "medium.tmat",
        "3c5ccd38384a2840954c96d9d65a0df20e255bfdc7fb0d91104a21248da0c8bf",
    ),
    (
        ["optimize"], "n_out = 64\nsegments = 32\nmethod = analytic\n", "pattern_k.csv",
        "e4bd50011d5c6ff7ef56b4116c8984161e39a4f2d0af6a95004eb7659905f029",
    ),
    (
        ["probabilities"], "t = 0.3\nalpha = pi/2\n", "outcomes.csv",
        "d94146cc867dbb64d2ca66dfbeb9f905ef99d909b20cf4e4b2a3c8f0d199a4cf",
    ),
    (
        ["enhancement-study"], "n_out = 16\nsegment_counts = 2,4\nseeds = 2\n", "enhancement.csv",
        "50bcf7ee121b6321f6e55216a4874c8aaef2b8a16ae3b9f062d83f28b0d1f487",
    ),
]


@pytest.mark.parametrize("argv,config_text,name,digest", _PINNED_ARTIFACTS)
def test_artifacts_are_pinned(tmp_path, capsys, argv, config_text, name, digest):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    assert main([*argv, "--config", str(cfg), "--seed", "5", "--out", str(tmp_path), "--quiet"]) == 0
    assert hashlib.sha256((tmp_path / f"{argv[0]}_seed5.{name}").read_bytes()).hexdigest() == digest


def test_selftest_cli(capsys):
    assert main(["selftest", "--quiet"]) == 0


@pytest.mark.parametrize(
    "extra", [["--seed", "3"], ["--config", "missing.cfg"], ["--out", "x"], ["--force"], ["--threads", "2"]]
)
def test_selftest_takes_only_quiet(tmp_path, monkeypatch, capsys, extra):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest", "--quiet", *extra]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# whole-CLI guard: an accepted config runs, or fails on its data alone
# ---------------------------------------------------------------------------

# exit-2 causes that depend on the drawn medium, the counts or the splitter setting, not on a key's text
_DATA_DEPENDENT_CAUSES = (
    "block is not embeddable",
    "violates the embeddability bound",
    "no reference coincidences",
)


@st.composite
def small_scenario_texts(draw, subcommand):
    """Config text for ``subcommand`` that sets every key it reads, at desk scale."""
    modes = SimpleNamespace(circuit=draw(st.sampled_from(["ideal", "shaped"])),
                            method=draw(st.sampled_from(["analytic", "stepped"])),
                            counting=draw(st.sampled_from(["analytic", "montecarlo"])))
    angles = st.floats(-7.0, 7.0)
    segments = draw(st.integers(1, 4))
    medium_kind = draw(st.sampled_from(["gaussian", "unitary"]))
    n_out = draw(st.integers(2 * segments, 12)) if medium_kind == "unitary" else draw(st.integers(1, 12))
    config = ScenarioConfig(
        medium_kind=medium_kind,
        n_out=n_out,
        n_in=n_out if medium_kind == "unitary" else draw(st.none() | st.integers(2 * segments, 12)),
        medium_seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        segments=segments,
        output_m=draw(st.integers(0, n_out - 1)),
        output_n=draw(st.none() | st.integers(0, n_out - 1)),
        t=draw(st.floats(0.0, 1.0)),
        alpha=draw(angles),
        steps=draw(st.integers(3, 6)),
        alpha_grid=np.array(draw(st.lists(angles, min_size=1, max_size=5))),
        delta_theta_grid=np.array(draw(st.lists(angles, min_size=1, max_size=7))),
        delay_grid=np.array(draw(st.lists(st.floats(-5e-12, 5e-12), min_size=1, max_size=5))),
        source=draw(st.sampled_from(sorted(SOURCE_PRESETS))),
        overlap=draw(st.none() | st.floats(0.0, 1.0)),
        bandwidth_fwhm_nm=draw(st.none() | st.floats(0.1, 10.0)),
        mean_pairs_per_pulse=draw(st.none() | st.floats(0.0, 1.0)),
        pulses_per_point=draw(st.integers(1, 2000)),
        seeds=draw(st.integers(1, 2)),
        segment_counts=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
        **vars(modes),
    )
    return format_config(config, scenario_keys(subcommand, modes))


@pytest.mark.parametrize("subcommand", list(SCENARIOS))
@settings(derandomize=True, deadline=None, max_examples=6)
@given(data=st.data())
def test_an_accepted_config_runs_or_fails_only_on_its_data(subcommand, data):
    text = data.draw(small_scenario_texts(subcommand))
    try:
        parse_config(text, subcommand)
    except ConfigError:
        assume(False)
    seed = data.draw(st.integers(0, 2**64 - 1))
    with tempfile.TemporaryDirectory() as scratch:
        cfg, first, second = (Path(scratch) / name for name in ("c.cfg", "first", "second"))
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(cfg), "--seed", str(seed), "--out", str(first), "--quiet"])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert not list(first.glob("*.manifest.txt"))
            assert any(cause in err.getvalue() for cause in _DATA_DEPENDENT_CAUSES), err.getvalue()
            return
        manifest = first / f"{subcommand}_seed{seed}.manifest.txt"
        assert main([subcommand, "--config", str(manifest), "--seed", str(seed), "--out", str(second), "--quiet"]) == 0
        assert {p.name: p.read_bytes() for p in second.iterdir()} == {p.name: p.read_bytes() for p in first.iterdir()}
