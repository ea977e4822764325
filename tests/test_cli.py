import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eelink
from eelink import (
    OptimumResult,
    Regime,
    SystemParams,
    db_to_linear,
    dbm_to_watt,
    default_params,
)
from eelink.cli import _DEFAULTS, main


def fields(capsys):
    """Parse 'key = value' lines from captured stdout."""
    out = capsys.readouterr().out
    parsed = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            parsed[key.strip()] = value.strip()
    return parsed, out


class TestAnalyze:
    def test_published_point(self, capsys):
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "0.5323"]) == 0
        parsed, out = fields(capsys)
        assert float(parsed["ee_bits_per_joule"]) == pytest.approx(1.0623e5, rel=5e-3)
        assert float(parsed["effective_capacity_bps"]) == pytest.approx(1519.7e3, rel=1e-3)
        header = [l for l in out.splitlines() if l.startswith("theta,")]
        assert header, "CSV header missing"

    def test_no_gating_point(self, capsys):
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "0"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["ee_bits_per_joule"]) == pytest.approx(1.0478e5, rel=5e-3)

    def test_domain_error_exit_code(self, capsys):
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.strip()

    def test_missing_theta(self, capsys):
        assert main(["analyze", "--gamma0", "0.5"]) == 2

    def test_exact_method(self, capsys):
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "1.0", "--exact"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["effective_capacity_bps"]) == pytest.approx(867861.6, rel=1e-4)

    def test_exact_method_outside_closed_form_domain(self, capsys):
        # theta = 0.01 at gamma0 = 0 lies past the closed form's domain edge;
        # quadrature alone answers it.
        assert main(["analyze", "--exact", "--theta", "0.01", "--gamma0", "0"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["effective_capacity_bps"]) == pytest.approx(1.5338e6, rel=1e-4)

    def test_json_output(self, capsys):
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma0"] == 0.5

    def test_json_out_file(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        argv = ["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--json", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["gamma0"] == 0.5


class TestOptimize:
    def test_table_row(self, capsys):
        assert main(["optimize", "--theta", "1e-7"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["gamma0_opt"]) == pytest.approx(1.6636, abs=1e-3)
        assert float(parsed["ee_opt_bits_per_joule"]) == pytest.approx(1.1554e5, rel=5e-3)
        assert parsed["regime"] == "gated"

    def test_paper_defaults_flag(self, capsys):
        assert main(["optimize", "--theta", "1e-4", "--paper-defaults"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["gamma0_opt"]) == pytest.approx(0.5323, abs=1e-3)
        assert float(parsed["ee_opt_bits_per_joule"]) == pytest.approx(1.0623e5, rel=5e-3)
        assert float(parsed["ee_baseline_bits_per_joule"]) == pytest.approx(1.0478e5, rel=5e-3)

    def test_ungated_regime(self, capsys):
        assert main(["optimize", "--theta", "1e-3"]) == 0
        parsed, _ = fields(capsys)
        assert parsed["regime"] == "ungated"
        assert float(parsed["gamma0_opt"]) == 0.0

    def test_no_lower_bracket_option(self, tmp_path, capsys):
        # The search's lower end is fixed: a lower bracket is neither a flag
        # nor a config key.
        assert main(["optimize", "--theta", "1e-3", "--gamma0-lower", "0.01"]) == 2
        assert "--gamma0-lower" in capsys.readouterr().err
        cfg = tmp_path / "lower.cfg"
        cfg.write_text("gamma0_lower = 0.01\n")
        assert main(["optimize", "--theta", "1e-3", "--config", str(cfg)]) == 2
        assert "gamma0_lower" in capsys.readouterr().err

    def test_no_search_tolerance_options(self, tmp_path, capsys):
        # The bisection width and the bracket cap are fixed: neither is a
        # flag or a config key.
        assert main(["optimize", "--theta", "1e-4", "--epsilon", "1e-6"]) == 2
        assert "--epsilon" in capsys.readouterr().err
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("gamma0_cap = 32\n")
        assert main(["optimize", "--theta", "1e-4", "--config", str(cfg)]) == 2
        assert "gamma0_cap" in capsys.readouterr().err


class TestThetaThreshold:
    def test_published_boundary(self, capsys):
        assert main(["theta-threshold"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["theta_thr"]) == pytest.approx(7.219e-4, rel=1e-2)


class TestInvert:
    def test_published_bounds(self, capsys):
        assert main(["invert", "--theta", "1e-4", "--mu", "300e3"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["gamma0_bound"]) == pytest.approx(1.73, abs=0.01)

    def test_infeasible_rate(self, capsys):
        assert main(["invert", "--theta", "1e-4", "--mu", "3e6"]) == 4
        assert capsys.readouterr().err.startswith("error: infeasible:")


class TestSweep:
    def test_csv_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--theta-list", "1e-4,1e-5", "--gamma0-range", "0:3",
            "--steps", "301", "--quantity", "EE", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,gamma0,EE"
        assert len(lines) == 1 + 2 * 301
        rows = [line.split(",") for line in lines[1:]]
        first_block = [r for r in rows if float(r[0]) == 1e-4]
        best = max(first_block, key=lambda r: float(r[2]))
        assert float(best[1]) == pytest.approx(0.5323, abs=0.011)

    @pytest.mark.parametrize("thetas, gamma0_range, bad", [
        ("1e-4", "0-3", "'0-3'"),
        ("1e-4,abc", "0:3", "'abc'"),
    ])
    def test_unparsable_list_is_a_config_error(self, thetas, gamma0_range, bad, capsys):
        argv = ["sweep", "--theta-list", thetas, "--gamma0-range", gamma0_range,
                "--steps", "3", "--quantity", "EE"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: config: bad sweep range: could not convert string to float: {bad}\n"
        )
        assert captured.out == ""

    def test_two_step_grid(self, tmp_path):
        out = tmp_path / "tiny.csv"
        rc = main([
            "sweep", "--theta-list", "1e-4", "--gamma0-range", "0:1",
            "--steps", "2", "--quantity", "alpha", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_ten_significant_digits(self, tmp_path):
        out = tmp_path / "digits.csv"
        main([
            "sweep", "--theta-list", "1e-4", "--gamma0-range", "0:1",
            "--steps", "2", "--quantity", "alpha", "--out", str(out),
        ])
        value = out.read_text().splitlines()[1].split(",")[2]
        assert value == f"{float(value):.10g}"
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 9

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--theta-list", "1e-4,1e-6", "--gamma0-range", "0:2",
                "--steps", "50", "--quantity", "G"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, capsys):
        assert main([
            "sweep", "--theta-list", "1e-4,1e-5", "--gamma0-range", "0:1",
            "--steps", "2", "--quantity", "EE", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["theta"], r["gamma0"]) for r in rows] == [
            (1e-4, 0.0), (1e-4, 1.0), (1e-5, 0.0), (1e-5, 1.0),
        ]

    def test_trend_sign_regions(self, tmp_path):
        out = tmp_path / "g.csv"
        main([
            "sweep", "--theta-list", "1e-4,1e-3", "--gamma0-range", "0.01:3",
            "--steps", "100", "--quantity", "G", "--out", str(out),
        ])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        loose = [float(r[2]) for r in rows if float(r[0]) == 1e-4]
        strict = [float(r[2]) for r in rows if float(r[0]) == 1e-3]
        assert any(v > 0 for v in loose)
        assert all(v < 0 for v in strict)

    def test_exact_trend_at_zero_total_power(self, capsys):
        # No circuit or idle power: at gamma0 = 400 no slot transmits and EE
        # is undefined, but the trend is 0.
        assert main([
            "sweep", "--theta-list", "1e-4", "--gamma0-range", "0:400", "--steps", "3",
            "--quantity", "G", "--exact", "--circuit-power", "0", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["gamma0"] for r in rows] == [0.0, 200.0, 400.0]
        assert rows[0]["G"] > 0.0 and rows[2]["G"] == 0.0


class TestSimulate:
    def test_constant_power_baseline(self, capsys):
        assert main([
            "simulate", "--mu", "300e3", "--gamma0", "0", "--slots", "5000", "--seed", "3",
        ]) == 0
        parsed, _ = fields(capsys)
        expected = 300e3 / (0.1 + 10 ** 1.3)
        # stdout renders 10 significant digits
        assert float(parsed["empirical_ee_bits_per_joule"]) == pytest.approx(expected, rel=1e-9)

    def test_published_point(self, capsys):
        assert main([
            "simulate", "--mu", "1519.7e3", "--gamma0", "0.53",
            "--slots", "200000", "--seed", "4",
        ]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["empirical_ee_bits_per_joule"]) == pytest.approx(1.06e5, rel=0.02)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--mu", "300e3", "--gamma0", "1.0",
                "--slots", "20000", "--seed", "9"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_outage_measurement_and_estimate(self, capsys):
        assert main([
            "simulate", "--mu", "1519.7e3", "--gamma0", "0.53", "--slots", "50000",
            "--seed", "4", "--dmax", "0.01", "--theta", "1e-4",
        ]) == 0
        parsed, _ = fields(capsys)
        measured = float(parsed["delay_outage_hat"])
        estimate = float(parsed["delay_outage_estimate"])
        assert 0.0 <= measured <= 1.0
        assert 0.0 <= estimate <= 1.0

    def test_numerical_failure_exit_code(self, capsys):
        # An arrival rate far above capacity trips the queue guard.
        assert main(["simulate", "--mu", "1e13", "--gamma0", "0.5", "--slots", "500"]) == 3
        assert capsys.readouterr().err.startswith("error: numerical:")


class TestConfigFile:
    def test_file_matches_flags(self, tmp_path, capsys):
        cfg = tmp_path / "link.cfg"
        cfg.write_text(
            "# reference link, powers with unit suffixes\n"
            "tx_power = 43dBm\n"
            "circuit_power = 0.1W\n"
            "noise_density = -174dBm/Hz\n"
            "theta = 1e-4\n"
            "gamma0 = 0.5323\n"
        )
        assert main(["analyze", "--config", str(cfg)]) == 0
        from_file, _ = fields(capsys)
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "0.5323"]) == 0
        from_flags, _ = fields(capsys)
        assert from_file == from_flags

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "link.cfg"
        cfg.write_text("theta = 1e-4\ngamma0 = 0.1\n")
        assert main(["analyze", "--config", str(cfg), "--gamma0", "0.5323"]) == 0
        parsed, _ = fields(capsys)
        assert float(parsed["gamma0"]) == 0.5323

    def test_unknown_key_is_fatal(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("thetta = 1e-4\n")
        assert main(["analyze", "--config", str(cfg), "--gamma0", "0.5"]) == 2
        assert "thetta" in capsys.readouterr().err

    def test_bad_value_is_fatal(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tx_power = loud\n")
        assert main(["analyze", "--config", str(cfg), "--theta", "1e-4", "--gamma0", "0.5"]) == 2

    def test_config_round_trip(self, tmp_path, capsys):
        dumped = tmp_path / "effective.cfg"
        assert main([
            "analyze", "--theta", "1e-4", "--gamma0", "0.5323",
            "--dump-config", str(dumped),
        ]) == 0
        first, _ = fields(capsys)
        assert main(["analyze", "--config", str(dumped)]) == 0
        second, _ = fields(capsys)
        assert first == second

    def test_path_loss_replaces_distance(self, tmp_path, capsys):
        cfg = tmp_path / "pl.cfg"
        cfg.write_text("path_loss = 128.1dB\ntheta = 1e-4\ngamma0 = 0.5323\n")
        assert main(["analyze", "--config", str(cfg)]) == 0
        parsed, _ = fields(capsys)
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "0.5323"]) == 0
        reference, _ = fields(capsys)
        assert math.isclose(
            float(parsed["ee_bits_per_joule"]),
            float(reference["ee_bits_per_joule"]),
            rel_tol=1e-12,
        )

    def test_paper_defaults_refuses_config(self, tmp_path, capsys):
        cfg = tmp_path / "link.cfg"
        cfg.write_text("theta = 1e-4\n")
        rc = main(["optimize", "--config", str(cfg), "--paper-defaults"])
        assert rc != 0

    def test_dump_of_one_subcommand_configures_another(self, tmp_path, capsys):
        # analyze takes no --mu or --slots flag, but its config file may set them.
        dumped = tmp_path / "scenario.cfg"
        assert main([
            "simulate", "--mu", "300e3", "--gamma0", "0.5323", "--slots", "1000",
            "--dmax", "0.01", "--theta", "1e-4", "--dump-config", str(dumped),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", "--config", str(dumped)]) == 0
        from_file, _ = fields(capsys)
        assert main(["analyze", "--theta", "1e-4", "--gamma0", "0.5323"]) == 0
        from_flags, _ = fields(capsys)
        assert from_file == from_flags

    @pytest.mark.parametrize("option", ["--out", "--dump-config"])
    def test_unwritable_file_is_a_config_error(self, option, tmp_path, capsys):
        target = tmp_path / "missing" / "result"
        assert main(["optimize", "--theta", "1e-4", option, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: cannot write")
        assert "\n" not in err.strip()

    def test_failed_write_prints_no_result(self, tmp_path, capsys):
        target = tmp_path / "missing" / "result.csv"
        assert main(["optimize", "--theta", "1e-4", "--out", str(target)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text, message", [
        ("theta 1e-4\n", "{cfg}:1: expected key = value, got 'theta 1e-4'"),
        ("distance = 1\npath_loss = 1e13\n", "supply only one of distance / path_loss"),
    ])
    def test_malformed_config_is_a_config_error(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["analyze", "--config", str(cfg), "--theta", "1e-4", "--gamma0", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config: {message.format(cfg=cfg)}\n"
        assert captured.out == ""

    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"theta = 1e-4\xff\n")
        assert main(["optimize", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: cannot read config file")
        assert "\n" not in err.strip()


# The run keys each subcommand reads; every subcommand also takes the link keys.
RUN_KEYS = {
    "analyze": {"theta", "gamma0"},
    "optimize": {"theta"},
    "theta-threshold": set(),
    "invert": {"theta", "mu"},
    "sweep": set(),
    "simulate": {"theta", "dmax", "mu", "gamma0", "slots", "seed", "warmup"},
}


class TestKeyFlags:
    @pytest.mark.parametrize("command", RUN_KEYS)
    def test_help_lists_link_and_read_run_keys(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--([a-z0-9-]+) V\b", capsys.readouterr().out))
        link = {key.replace("_", "-") for key in LIBRARY_KEYS}
        assert listed == link | {key.replace("_", "-") for key in RUN_KEYS[command]}
        assert len(link) == 9

    @pytest.mark.parametrize("argv", [
        ["theta-threshold", "--theta", "5"],
        ["sweep", "--theta-list", "1e-4", "--gamma0-range", "0:1", "--steps", "2",
         "--quantity", "EE", "--theta", "1e-3"],
        ["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--mu", "1"],
        # a prefix of a flag is not that flag
        ["analyze", "--gamma0", "0.5", "--thet", "1e-4"],
    ], ids=" ".join)
    def test_unread_or_abbreviated_flag_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-2]}" in err
        # the usage of the subcommand, which lists the flags it does take
        assert err.startswith(f"usage: eelink {argv[0]} ")


# The config key of each SystemParams field, and a non-default value for it
# with the value the library must receive.
SYSTEM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}
NON_DEFAULT = {
    "slot_duration": ("2e-3", 2e-3),
    "bandwidth": ("360e3", 360e3),
    "noise_density": ("2e-20", 2e-20),
    "tx_power": ("5", 5.0),
    "circuit_power": ("0.3", 0.3),
    "idle_power": ("0.01", 0.01),
    "fading_m": ("1.5", 1.5),
    "distance": ("0.5", 0.5),
    "path_loss": ("1e13", 1e13),
}


def field_of(key):
    return "distance_km" if key == "distance" else key


LIBRARY_KEYS = [k for k in _DEFAULTS if field_of(k) in SYSTEM_FIELDS]


@pytest.fixture
def received(monkeypatch):
    """The params the optimize command hands the library."""
    seen = {}

    def fake(params, qos):
        seen.update(params=params)
        return OptimumResult(Regime.GATED, 1.0, 1.0, 1.0, 0, (0.0, 1.0))

    monkeypatch.setattr("eelink.cli.find_optimal_threshold", fake)
    return seen


def optimize_with(key, text, source, tmp_path):
    """main() on optimize with one key set by flag or by config file; on
    simulate for slots, which optimize takes no flag for."""
    argv = ["optimize", "--theta", "1e-4"]
    if key == "slots":
        argv = ["simulate", "--mu", "300e3", "--gamma0", "0.5"]
    if source == "flag":
        return main(argv + [f"--{key.replace('_', '-')}={text}"])
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {text}\n")
    return main(argv + ["--config", str(cfg)])


def delivered(seen, key):
    return getattr(seen["params"], field_of(key))


class TestKeysReachLibrary:
    def test_every_field_key_is_covered(self):
        assert set(LIBRARY_KEYS) == set(NON_DEFAULT)

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key", LIBRARY_KEYS)
    def test_key_arrives(self, key, source, received, tmp_path):
        text, expected = NON_DEFAULT[key]
        assert optimize_with(key, text, source, tmp_path) == 0
        value = delivered(received, key)
        assert value == expected
        assert value != delivered({"params": default_params()}, key)
        if key == "path_loss":
            assert received["params"].distance_km is None

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key, text, expected", [
        ("tx_power", "43 DBM", dbm_to_watt(43.0)),
        ("tx_power", "5 w", 5.0),
        ("circuit_power", "0.2W", 0.2),
        ("idle_power", "10 dBm", dbm_to_watt(10.0)),
        ("noise_density", "-170 DbM/hZ", dbm_to_watt(-170.0)),
        ("noise_density", "2e-20 W / Hz", 2e-20),
        ("path_loss", "125 dB", db_to_linear(125.0)),
    ])
    def test_unit_suffix(self, key, text, expected, source, received, tmp_path):
        assert optimize_with(key, text, source, tmp_path) == 0
        assert delivered(received, key) == expected

    def test_negative_value_joined_with_equals(self, received, capsys):
        # After a space, argparse takes a value that starts with "-" and is
        # not a plain number for an option; joined with "=" it is a value.
        argv = ["optimize", "--theta", "1e-4"]
        assert main(argv + ["--noise-density=-170dBm/Hz"]) == 0
        assert received["params"].noise_density == dbm_to_watt(-170.0)
        assert main(argv + ["--noise-density", "-170dBm/Hz"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key, text", [
        ("tx_power", "3dB"),
        ("tx_power", "4000dBm"),
        ("noise_density", "-174dBm"),
        ("circuit_power", "0.1W/Hz"),
        ("path_loss", "128dBm"),
        ("bandwidth", "180kHz"),
        ("slots", "1e3"),
    ])
    def test_wrong_suffix_is_fatal(self, key, text, source, received, tmp_path, capsys):
        assert optimize_with(key, text, source, tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("argv", [
    ["analyze", "--theta", "nan", "--gamma0", "0.5"],
    ["sweep", "--theta-list", "nan", "--gamma0-range", "0:1", "--steps", "2", "--quantity", "EE"],
    ["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--bandwidth", "inf"],
    ["simulate", "--mu", "300e3", "--gamma0", "1", "--slots", "100", "--seed", "-1"],
    ["invert", "--theta", "1e-4", "--mu", "nan"],
    ["simulate", "--mu", "300e3", "--gamma0", "nan", "--slots", "100"],
    ["simulate", "--mu", "300e3", "--gamma0", "1", "--slots", "100", "--dmax", "nan"],
    ["simulate", "--mu", "1e6", "--gamma0", "0.5", "--slots", "100", "--dmax=-1"],
    ["analyze", "--theta", "1e-4", "--gamma0", "nan"],
    # finite link values outside the domain
    ["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--tx-power", "0"],
    ["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--circuit-power", "-30"],
    ["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--distance", "1e100"],
    ["analyze", "--theta", "1e-4", "--gamma0", "0.5", "--fading-m", "172"],
    # no circuit power, and a threshold at which no slot transmits
    ["analyze", "--exact", "--theta", "1e-4", "--circuit-power", "0", "--gamma0", "400"],
    ["simulate", "--mu", "1e5", "--gamma0", "400", "--circuit-power", "0", "--slots", "1000"],
    # values past the float range: Gamma(1.974, 800) underflows to 0, and
    # the downward recurrence for Gamma(-257.7, z) overflows
    ["analyze", "--theta", "1e-4", "--gamma0", "400"],
    ["analyze", "--theta", "1", "--gamma0", "0.01"],
    ["theta-threshold", "--theta-hi", "1"],
    # at low mean SNR the closed-form log-MGF passes 709, so F = exp(log-MGF)
    # passes the float range
    ["analyze", "--theta", "0.5", "--gamma0", "0.01", "--tx-power", "1e-6"],
    ["sweep", "--theta-list", "0.5", "--gamma0-range", "0.01:1", "--steps", "3",
     "--tx-power", "1e-6", "--quantity", "F"],
    ["sweep", "--theta-list", "0.5", "--gamma0-range", "0.01:1", "--steps", "3",
     "--tx-power", "1e-6", "--quantity", "G"],
    # the arrivals per slot, or the service per slot, pass the float range:
    # the simulator printed a NaN mean queue with exit 0
    ["simulate", "--slot-duration", "1e307", "--bandwidth", "1", "--path-loss", "1",
     "--mu", "1e5", "--gamma0", "0.5", "--slots", "1000"],
    ["simulate", "--slot-duration", "1e307", "--bandwidth", "1", "--path-loss", "1",
     "--mu", "1e-300", "--gamma0", "0.5", "--slots", "1000"],
], ids=" ".join)
def test_nonfinite_input_is_a_domain_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: domain:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("argv", [
    ["analyze", "--theta", "5e-324", "--gamma0", "0.5"],
    ["analyze", "--theta", "5e-324", "--gamma0", "0.5", "--exact"],
    ["analyze", "--theta", "1e-30", "--gamma0", "0.5", "--slot-duration", "1e-300"],
    ["optimize", "--theta", "5e-324"],
    ["invert", "--theta", "5e-324", "--mu", "1e5"],
    ["theta-threshold", "--theta-lo", "5e-324"],
    ["sweep", "--theta-list", "5e-324", "--gamma0-range", "0.01:1", "--steps", "3",
     "--quantity", "EE"],
    # A subnormal theta * slot_duration: EE passed the float range with exit 0.
    ["optimize", "--theta", "5.711e-321", "--tx-power", "10.296dBm", "--distance", "1.616",
     "--circuit-power", "0.0001235", "--fading-m", "2", "--json"],
], ids=" ".join)
def test_theta_times_slot_rounding_to_zero_is_a_domain_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: domain: theta * slot_duration rounds to 0")
    assert "\n" not in err.strip()


def test_exact_deep_idle_point_is_finite(capsys):
    # F is the idle mass 5.65e-21 there, which 1 - p_tr rounds to 0.
    argv = ["analyze", "--exact", "--fading-m", "20", "--theta", "0.627", "--gamma0", "0.042",
            "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["service_mgf"] == pytest.approx(5.654e-21, rel=1e-3)


@pytest.mark.parametrize("m", ["2", "171"])
def test_exact_point_where_no_slot_transmits(m, capsys):
    # p_tr rounds to 0. The quadrature's integrand overflowed there, a numpy
    # RuntimeWarning that the suite's warning filter turns into an error.
    argv = ["analyze", "--exact", "--theta", "1e-4", "--gamma0", "1e306", "--fading-m", m,
            "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["p_tr"], payload["effective_capacity_bps"]) == (0.0, 0.0)
    assert (payload["service_mgf"], payload["ee_bits_per_joule"]) == (1.0, 0.0)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0**e)


def floats_in(payload):
    if isinstance(payload, float):
        yield payload
    elif isinstance(payload, dict):
        for value in payload.values():
            yield from floats_in(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from floats_in(value)


@settings(max_examples=150, deadline=None)
@given(
    tx_dbm=st.floats(min_value=0.0, max_value=46.0),
    distance_km=st.floats(min_value=0.1, max_value=3.2),
    circuit_power=st.one_of(st.just(0.0), log_uniform(1e-4, 1.0)),
    m=st.integers(min_value=1, max_value=40).map(lambda k: k / 2),
    theta=log_uniform(1e-8, 1.0),
    gamma0=st.one_of(st.just(0.0), log_uniform(1e-6, 316.0)),
    mu=log_uniform(1e2, 1e7),
    quantity=st.sampled_from(["EE", "alpha", "G", "F"]),
    form=st.sampled_from(["analyze", "analyze --exact", "sweep", "sweep --exact", "optimize",
                          "invert", "theta-threshold"]),
)
def test_documented_domain_exits_cleanly(
    tx_dbm, distance_km, circuit_power, m, theta, gamma0, mu, quantity, form
):
    # Every call in the documented domain exits 0, 2, 3 or 4 without raising,
    # and a successful --json output holds only finite numbers.
    command, *flags = form.split()
    argv = [command, *flags, "--json", "--tx-power", f"{tx_dbm!r}dBm",
            "--distance", repr(distance_km), "--circuit-power", repr(circuit_power),
            "--fading-m", repr(m)]
    if circuit_power == 0.0:
        argv += ["--idle-power", "0"]
    if command == "analyze":
        argv += ["--theta", repr(theta), "--gamma0", repr(gamma0)]
    elif command == "sweep":
        argv += ["--theta-list", repr(theta), "--gamma0-range", f"0:{gamma0 or 316.0!r}",
                 "--steps", "3", "--quantity", quantity]
    elif command == "theta-threshold":
        argv += ["--theta-lo", repr(theta), "--theta-hi", repr(min(1.0, 1e3 * theta))]
    else:
        argv += ["--theta", repr(theta)]
        if command == "invert":
            argv += ["--mu", repr(mu)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code == 0:
        payload = json.loads(out.getvalue())
        assert all(math.isfinite(x) for x in floats_in(payload)), (argv, payload)


def fresh_heavy_modules(argv):
    """Exit code of main(argv) in a fresh interpreter (0 for an empty argv,
    which only imports eelink.cli), and which of numpy and scipy it loaded."""
    src = str(Path(eelink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import contextlib, io, json, sys, eelink.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = eelink.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "top = {m.partition('.')[0] for m in sys.modules}\n"
        "print(json.dumps([rc, sorted(top & {'numpy', 'scipy'})]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    # Every CLI call pays for what `import eelink.cli` loads; scipy, and then
    # numpy, used to be most of it.
    assert fresh_heavy_modules([]) == [0, []]


@pytest.mark.parametrize("argv", [
    ["analyze", "--theta", "1e-4", "--gamma0", "0.5323"],
    ["optimize", "--theta", "1e-4"],
    ["theta-threshold"],
    ["invert", "--theta", "1e-4", "--mu", "300e3"],
    ["sweep", "--theta-list", "1e-4,1e-5", "--gamma0-range", "0:3", "--steps", "40",
     "--quantity", "EE"],
], ids=lambda argv: argv[0])
def test_closed_form_call_loads_no_numpy(argv):
    assert fresh_heavy_modules(argv) == [0, []]


@pytest.mark.parametrize("quantity", ["G", "F", "alpha"])
def test_closed_form_sweep_loads_no_numpy(quantity):
    argv = ["sweep", "--theta-list", "1e-4,1e-5", "--gamma0-range", "0:3", "--steps", "40",
            "--quantity", quantity]
    assert fresh_heavy_modules(argv) == [0, []]


def test_exact_call_loads_numpy():
    # At gamma0 = 0 the exact route's series does not converge, so it
    # integrates.
    argv = ["analyze", "--exact", "--theta", "1e-4", "--gamma0", "0"]
    assert fresh_heavy_modules(argv) == [0, ["numpy"]]


def test_exact_call_the_series_answers_loads_no_numpy():
    argv = ["analyze", "--exact", "--theta", "1e-4", "--gamma0", "0.5323"]
    assert fresh_heavy_modules(argv) == [0, []]


def readme_examples():
    """The eelink command lines of the sh block under "Command line" in
    README.md, backslash continuations joined, as argv lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("eelink ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    examples = readme_examples()
    assert {argv[0] for argv in examples} == {
        "analyze", "optimize", "theta-threshold", "invert", "sweep", "simulate"
    }
    monkeypatch.chdir(tmp_path)  # so --out lands here
    for argv in examples:
        assert main(argv) == 0, argv
