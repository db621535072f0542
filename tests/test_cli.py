"""Command line behaviour: formats, determinism, exit codes, scenario files."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import fdmix
from fdmix.analytic import NetworkConfig, ThroughputReport
from fdmix.cli import (
    _CSV_COLUMNS,
    Scenario,
    _render_json,
    _sig,
    build_parser,
    cmd_simulate,
    cmd_theory,
    cmd_validate,
    load_scenario,
    main,
    parse_scenario,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("fdmix: error:"), err


# Each command's payload, given the threshold that validate takes.
PAYLOADS = {
    "theory": lambda scenario, z_max: cmd_theory(scenario),
    "simulate": lambda scenario, z_max: cmd_simulate(scenario),
    "validate": lambda scenario, z_max: cmd_validate(scenario, z_max)[0],
}


def render_like_plain(numpy_config, plain_config):
    """Each command's payload for a short run given in numpy scalars, parsed.

    Asserts that each renders byte-identically to the same run given in
    plain numbers.  ``numpy_config`` may also be any object with the five
    config fields.
    """
    sim = {"slots": 2_000, "capacity": 4, "seed": 3}
    numpy_sim = {key: np.int64(value) for key, value in sim.items()}
    payloads = {}
    for command, payload in PAYLOADS.items():
        rendered = _render_json(payload(Scenario(numpy_config, **numpy_sim), np.float32(4.0)))
        assert rendered == _render_json(payload(Scenario(plain_config, **sim), 4.0)), command
        payloads[command] = json.loads(rendered)
    return payloads


class TestTheory:
    def test_preset_payload(self, capsys):
        payload = run_json(capsys, "theory", "--preset", "dca", "--m", "2", "--n", "2")
        assert payload["preset"] == "dca"
        assert payload["config"] == {"m": 2, "n": 2, "p_A": 0.2, "p_F": 0.2, "p_H": 0.2}
        assert payload["theory"]["p"] == 1.0
        assert payload["theory"]["sum"] == 1.4

    def test_floats_rounded_to_12_significant_digits(self, capsys):
        payload = run_json(capsys, "theory", "--preset", "dca", "--m", "1", "--n", "3")
        assert payload["theory"]["hd_down"] == float("0.0666666666667")

    # every float in every output, sweep rows included, takes this format
    @given(st.floats())
    @example(-0.0)
    @example(5e-324)
    @example(5e-06)
    @example(float("-inf"))
    @example(float("nan"))
    def test_sig_is_format_12g(self, value):
        assert _sig(value) == format(value, ".12g")

    def test_huge_station_count_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "theory", "--preset", "dca", "--m", str(10**400), "--n", "1",
        )
        assert_one_error_line(code, out, err)
        assert "m must be <=" in err

    def test_numpy_counts_render(self):
        config = NetworkConfig(np.int64(1), np.int64(1), 0.6, 0.3, 0.1)
        payload = render_like_plain(config, NetworkConfig(1, 1, 0.6, 0.3, 0.1))["theory"]
        assert payload["config"]["m"] == 1
        assert payload["theory"]["p"] == 0.75

    def test_numpy_real_scalars_render(self):
        # exact in binary, so the closure holds in floats as well
        config = NetworkConfig(1, 1, np.float32(0.5), np.float32(0.25), np.float32(0.25))
        payload = render_like_plain(config, NetworkConfig(1, 1, 0.5, 0.25, 0.25))["theory"]
        assert payload["config"]["p_A"] == float(format(float(np.float32(0.5)), ".12g"))
        assert payload["theory"]["p"] == 0.75

    def test_duck_typed_config_renders(self):
        # judged and converted like a NetworkConfig, not handed on as it is
        config = SimpleNamespace(m=1, n=1, p_A=0.6, p_F=0.3, p_H=0.1)
        payload = render_like_plain(config, NetworkConfig(1, 1, 0.6, 0.3, 0.1))["theory"]
        assert payload["config"] == {"m": 1, "n": 1, "p_A": 0.6, "p_F": 0.3, "p_H": 0.1}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "theory.json"
        code, out, _ = run_cli(
            capsys, "theory", "--preset", "fair", "--m", "2", "--n", "2",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["theory"]["sum"] == float(
            format(4 / 3, ".12g")
        )


# Exact stdout of the closed-form commands, so that a change in the report
# type cannot silently reorder or reformat their output.
THEORY_GOLDEN = """\
{
  "preset": null,
  "config": {
    "m": 1,
    "n": 1,
    "p_A": 0.6,
    "p_F": 0.3,
    "p_H": 0.1
  },
  "theory": {
    "p": 0.75,
    "hd_down": 0.45,
    "hd_up": 0.1,
    "fd_down": 0.45,
    "fd_up": 0.45,
    "sum": 1.45
  }
}
"""

SWEEP_GOLDEN = """\
preset,m,n,p_A,p_F,p_H,p,hd_down,hd_up,fd_down,fd_up,sum,hd_down_total,hd_up_total,fd_down_total,fd_up_total
dca,0,4,0.2,0,0.2,1,0.05,0.2,0,0,1,0.2,0.8,0,0
dca,1,3,0.2,0.2,0.2,1,0.0666666666667,0.2,0.2,0.2,1.2,0.2,0.6,0.2,0.2
dca,2,2,0.2,0.2,0.2,1,0.1,0.2,0.2,0.2,1.4,0.2,0.4,0.4,0.4
dca,3,1,0.2,0.2,0.2,1,0.2,0.2,0.2,0.2,1.6,0.2,0.2,0.6,0.6
dca,4,0,0.2,0.2,0,0,0,0,0.25,0.25,2,0,0,1,1
fair,0,4,0.5,0,0.125,1,0.125,0.125,0,0,1,0.5,0.5,0,0
fair,1,3,0.428571428571,0.142857142857,0.142857142857,1,0.142857142857,0.142857142857,0.142857142857,0.142857142857,1.14285714286,0.428571428571,0.428571428571,0.142857142857,0.142857142857
fair,2,2,0.333333333333,0.166666666667,0.166666666667,1,0.166666666667,0.166666666667,0.166666666667,0.166666666667,1.33333333333,0.333333333333,0.333333333333,0.333333333333,0.333333333333
fair,3,1,0.2,0.2,0.2,1,0.2,0.2,0.2,0.2,1.6,0.2,0.2,0.6,0.6
fair,4,0,0,0.25,0,0,0,0,0.25,0.25,2,0,0,1,1
"""


# Exact stdout of a seeded simulation and of its judgement.  The simulated
# counters and the empirical flows pin the random stream and the simulator;
# the validate flows pin each flow's error rule, the aggregate's included.
SEEDED_RUN = ("--preset", "dca", "--m", "2", "--n", "2", "--slots", "20000", "--seed", "3")

SIMULATE_GOLDEN = """\
{
  "preset": "dca",
  "config": {
    "m": 2,
    "n": 2,
    "p_A": 0.2,
    "p_F": 0.2,
    "p_H": 0.2
  },
  "sim": {
    "slots": 20000,
    "warmup": 10000,
    "capacity": 40,
    "seed": 3,
    "rng": "pcg64"
  },
  "empirical": {
    "p": 1.0,
    "hd_down": 0.097975,
    "hd_up": 0.201725,
    "fd_down": 0.2003,
    "fd_up": 0.2003,
    "sum": 1.4006
  },
  "counters": {
    "total_slots": 20000,
    "ap_wins": 3919,
    "ap_wins_hd_head": 3919,
    "fd_wins_no_packet": 8012
  }
}
"""

VALIDATE_GOLDEN = """\
{
  "preset": "dca",
  "config": {
    "m": 2,
    "n": 2,
    "p_A": 0.2,
    "p_F": 0.2,
    "p_H": 0.2
  },
  "sim": {
    "slots": 20000,
    "warmup": 10000,
    "capacity": 40,
    "seed": 3,
    "rng": "pcg64"
  },
  "z_max": 4.0,
  "theory": {
    "p": 1.0,
    "hd_down": 0.1,
    "hd_up": 0.2,
    "fd_down": 0.2,
    "fd_up": 0.2,
    "sum": 1.4
  },
  "flows": [
    {
      "name": "hd_down",
      "theory": 0.1,
      "mean": 0.097975,
      "std_error": 0.00148640421298,
      "z": -1.36234813001,
      "verdict": "pass"
    },
    {
      "name": "hd_up",
      "theory": 0.2,
      "mean": 0.201725,
      "std_error": 0.00200643978464,
      "z": 0.859731756322,
      "verdict": "pass"
    },
    {
      "name": "fd_down",
      "theory": 0.2,
      "mean": 0.2003,
      "std_error": 0.00200112412159,
      "z": 0.149915738241,
      "verdict": "pass"
    },
    {
      "name": "fd_up",
      "theory": 0.2,
      "mean": 0.2003,
      "std_error": 0.00200112412159,
      "z": 0.149915738241,
      "verdict": "pass"
    },
    {
      "name": "p",
      "theory": 1.0,
      "mean": 1.0,
      "std_error": 0.0,
      "z": null,
      "verdict": "pass"
    },
    {
      "name": "sum",
      "theory": 1.4,
      "mean": 1.4006,
      "std_error": 0.00346496493489,
      "z": 0.173161925525,
      "verdict": "pass"
    }
  ],
  "overall": "pass"
}
"""


class TestGoldenOutput:
    def test_theory_bytes(self, capsys):
        code, out, err = run_cli(
            capsys, "theory", "--m", "1", "--n", "1",
            "--pA", "0.6", "--pF", "0.3", "--pH", "0.1",
        )
        assert (code, out, err) == (0, THEORY_GOLDEN, "")
        assert list(json.loads(out)["theory"]) == list(ThroughputReport._fields)

    def test_sweep_bytes(self, capsys):
        assert run_cli(capsys, "sweep", "--total-stations", "4") == (0, SWEEP_GOLDEN, "")

    def test_simulate_bytes(self, capsys):
        assert run_cli(capsys, "simulate", *SEEDED_RUN) == (0, SIMULATE_GOLDEN, "")

    def test_validate_bytes(self, capsys):
        assert run_cli(capsys, "validate", *SEEDED_RUN) == (0, VALIDATE_GOLDEN, "")


class TestSimulate:
    def test_payload_and_example_range(self, capsys):
        payload = run_json(
            capsys, "simulate", "--preset", "dca", "--m", "1", "--n", "1",
            "--slots", "200000",
        )
        assert payload["sim"] == {
            "slots": 200000, "warmup": 10000, "capacity": 20,
            "seed": 0, "rng": "pcg64",
        }
        counters = payload["counters"]
        assert counters["total_slots"] == 200000
        assert counters["ap_wins"] >= counters["ap_wins_hd_head"] >= 0
        # equal-contention pair: aggregate close to 4/3
        assert 1.30 <= payload["empirical"]["sum"] <= 1.37

    def test_seed_changes_output(self, capsys):
        a = run_json(capsys, "simulate", "--preset", "dca", "--m", "2", "--n", "2",
                     "--slots", "20000", "--seed", "1")
        b = run_json(capsys, "simulate", "--preset", "dca", "--m", "2", "--n", "2",
                     "--slots", "20000", "--seed", "2")
        assert a["counters"] != b["counters"]

    @pytest.mark.parametrize("source", ["flags", "scenario"])
    @pytest.mark.parametrize("field,minimum", [("slots", 1), ("warmup", 0), ("capacity", 1), ("seed", 0)])
    def test_sim_minimum_runs_and_one_less_is_refused(self, capsys, tmp_path, source, field, minimum):
        def simulate(value):
            sim = {"slots": 100, field: value}
            if source == "flags":
                flags = [arg for key, v in sim.items() for arg in (f"--{key}", str(v))]
                return run_cli(capsys, "simulate", "--preset", "dca", "--m", "1", "--n", "1", *flags)
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({"preset": "dca", "m": 1, "n": 1, "sim": sim}))
            return run_cli(capsys, "simulate", "--scenario", str(path))

        code, out, err = simulate(minimum)
        assert code == 0, err
        assert json.loads(out)["sim"][field] == minimum
        assert_one_error_line(*simulate(minimum - 1))


class TestValidate:
    def test_agreement_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "validate", "--m", "1", "--n", "1",
            "--pA", "0.6", "--pF", "0.3", "--pH", "0.1", "--slots", "150000",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["overall"] == "pass"
        assert [flow["name"] for flow in payload["flows"]] == [
            "hd_down", "hd_up", "fd_down", "fd_up", "p", "sum",
        ]
        assert all(flow["verdict"] == "pass" for flow in payload["flows"])
        assert payload["z_max"] == 4.0

    def test_impossible_threshold_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--m", "1", "--n", "1",
            "--pA", "0.6", "--pF", "0.3", "--pH", "0.1",
            "--slots", "50000", "--z-max", "0.001",
        )
        assert code == 1
        assert json.loads(out)["overall"] == "fail"

    @pytest.mark.parametrize("z_max", ["-1", "nan", "0", "inf"])
    def test_z_max_must_be_finite_and_positive(self, capsys, z_max):
        # -1, nan and 0 would fail every run and inf would pass every run
        assert_one_error_line(*run_cli(
            capsys, "validate", "--preset", "dca", "--m", "1", "--n", "1",
            "--slots", "100", "--z-max", z_max,
        ))

    def test_not_applicable_rows_have_null_estimates(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--preset", "dca", "--m", "0", "--n", "3",
            "--slots", "20000",
        )
        assert code == 0
        flows = {f["name"]: f for f in json.loads(out)["flows"]}
        assert flows["fd_down"]["verdict"] == "not applicable"
        assert flows["fd_down"]["mean"] is None
        assert flows["fd_down"]["z"] is None

    @pytest.mark.parametrize("argv", [
        ["--preset", "dca", "--m", "0", "--n", "3", "--slots", "1"],
        ["--preset", "dca", "--m", "1", "--n", "1", "--slots", "1"],
        ["--preset", "fair", "--m", "2", "--n", "2", "--slots", "3", "--seed", "1"],
    ])
    def test_short_runs_judge_zero_error_flows_at_the_theory(self, capsys, argv):
        # every trial of a flow alike gives it zero standard error; it is
        # judged by the binomial error at the theory value, not by equality
        code, out, err = run_cli(capsys, "validate", *argv)
        assert code == 0, out
        flows = json.loads(out)["flows"]
        assert all(f["verdict"] != "fail" for f in flows)
        assert any(f["std_error"] == 0.0 and f["z"] is not None for f in flows)


class TestSweep:
    def test_shape_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--total-stations", "40")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == _CSV_COLUMNS
        assert len(lines) == 1 + 2 * 41
        assert lines[1].startswith("dca,0,40,")
        assert lines[42].startswith("fair,0,40,")
        assert out.endswith("\n")
        assert run_cli(capsys, "sweep") == (code, out, "")  # 40 stations by default

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--total-stations", "3",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == _CSV_COLUMNS

    def test_rejects_empty_network(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--total-stations", "0")
        assert code == 2
        assert "total_stations" in err
        code, out, _ = run_cli(capsys, "sweep", "--total-stations", "1")  # the smallest network
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 2


class TestScenarioFiles:
    def write(self, tmp_path, payload):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_explicit_scenario(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "m": 1, "n": 1, "p_A": 0.6, "p_F": 0.3, "p_H": 0.1,
            "sim": {"slots": 30000, "seed": 4},
        })
        payload = run_json(capsys, "simulate", "--scenario", path)
        assert payload["sim"]["slots"] == 30000
        assert payload["sim"]["seed"] == 4
        assert payload["config"]["p_A"] == 0.6

    def test_load_scenario_parses_the_file(self, tmp_path):
        raw = {"m": 1, "n": 1, "p_A": 0.6, "p_F": 0.3, "p_H": 0.1, "sim": {"seed": 4}}
        assert load_scenario(self.write(tmp_path, raw)) == parse_scenario(raw)

    def test_load_scenario_names_a_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="broken.json: not valid JSON"):
            load_scenario(str(path))

    def test_load_scenario_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(str(tmp_path / "absent.json"))

    def test_preset_scenario(self, capsys, tmp_path):
        path = self.write(tmp_path, {"preset": "fair", "m": 2, "n": 2})
        payload = run_json(capsys, "theory", "--scenario", path)
        assert payload["preset"] == "fair"
        assert payload["config"]["p_A"] == float(format(1 / 3, ".12g"))

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        # RFC 8259 section 8.1 lets a parser ignore a leading UTF-8 mark
        plain = self.write(tmp_path, {"preset": "fair", "m": 2, "n": 2})
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        expected = run_cli(capsys, "theory", "--scenario", plain)
        assert expected[0] == 0
        assert run_cli(capsys, "theory", "--scenario", str(marked)) == expected

    def test_flag_overrides_file(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "preset": "dca", "m": 1, "n": 1, "sim": {"slots": 30000},
        })
        payload = run_json(capsys, "simulate", "--scenario", path,
                           "--slots", "20000")
        assert payload["sim"]["slots"] == 20000

    def test_integer_probabilities_print_as_floats(self, capsys, tmp_path):
        path = self.write(tmp_path, {"m": 1, "n": 0, "p_A": 0, "p_F": 1, "p_H": 0})
        code, out, _ = run_cli(capsys, "theory", "--scenario", path)
        assert code == 0
        assert '"p_A": 0.0' in out and '"p_F": 1.0' in out

    def test_huge_station_count_exits_two(self, capsys, tmp_path):
        path = self.write(tmp_path, {"preset": "dca", "m": 10**400, "n": 1})
        code, out, err = run_cli(capsys, "theory", "--scenario", path)
        assert_one_error_line(code, out, err)
        assert "m must be <=" in err

    @pytest.mark.parametrize("payload,fragment", [
        ({"m": 1, "n": 1, "p_A": 0.6, "p_F": 0.3, "p_H": 0.1, "extra": 1},
         "unknown scenario fields"),
        ({"preset": "dca", "m": 1, "n": 1, "sim": {"slot": 10}},
         "unknown sim fields"),
        ({"preset": "dca", "m": 1, "n": 1, "p_A": 0.5},
         "may not also be given"),
        ({"preset": "nope", "m": 1, "n": 1}, "unknown preset"),
        ({"preset": "dca", "m": 1}, "need"),
        ({"m": 1, "n": 1, "p_A": 0.6}, "missing scenario fields"),
        ({"m": 1.5, "n": 1, "p_A": 0.6, "p_F": 0.3, "p_H": 0.1},
         "must be an integer"),
        ({"preset": "dca", "m": 1, "n": 1, "sim": {"slots": 0}}, "sim.slots"),
        ({"preset": "dca", "m": 1, "n": 1, "sim": {"seed": -1}}, "sim.seed"),
        ({"m": 1, "n": 0, "p_A": False, "p_F": True, "p_H": 0},
         "p_F must be a number"),
        ({"preset": ["dca"], "m": 1, "n": 1}, "unknown preset"),
        # integral probabilities are summed as floats
        ({"m": 1, "n": 0, "p_A": 1, "p_F": 1, "p_H": 0},
         "fdmix: error: p_A + m*p_F + n*p_H must equal 1 within 1e-09, got 2.0\n"),
        ([1, 2], "scenario must be a JSON object"),
    ])
    def test_rejected_scenarios_exit_two(self, capsys, tmp_path, payload, fragment):
        path = self.write(tmp_path, payload)
        code, _, err = run_cli(capsys, "theory", "--scenario", path)
        assert code == 2
        assert fragment in err

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "theory", "--scenario", str(path))
        assert code == 2

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "theory", "--scenario", str(tmp_path / "absent.json")
        )
        assert code == 2

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "theory", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("fdmix: error:")


class TestFlagErrors:
    @pytest.mark.parametrize("argv", [
        ["theory"],                                       # no network given
        ["theory", "--preset", "dca"],                    # preset without m, n
        ["theory", "--preset", "dca", "--m", "1", "--n", "1", "--pA", "0.2"],
        ["theory", "--m", "1", "--n", "1", "--pA", "0.6"],  # partial explicit
        ["theory", "--scenario", "x.json", "--m", "1"],   # file plus flags
    ])
    def test_usage_errors_exit_two(self, capsys, argv):
        # the flags go through the scenario parser, so these are one-line
        # errors from main(), not argparse usage dumps
        assert_one_error_line(*run_cli(capsys, *argv))

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--bogus", "1"])
        assert exc.value.code == 2

    def test_invalid_probabilities_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "theory", "--m", "1", "--n", "1",
            "--pA", "0.5", "--pF", "0.2", "--pH", "0.2",
        )
        assert code == 2
        assert "must equal 1" in err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        assert_one_error_line(*run_cli(
            capsys, "theory", "--preset", "dca", "--m", "1", "--n", "1",
            "--out", str(tmp_path / "missing" / "x.json"),
        ))

    def test_window_too_large_to_index_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "dca", "--m", "1", "--n", "1",
            "--slots", "10", "--capacity", str(sys.maxsize + 1),
        )
        assert_one_error_line(code, out, err)
        assert "capacity must be <=" in err

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("fdmix.simulator.run", exhausted)
        assert_one_error_line(*run_cli(
            capsys, "simulate", "--preset", "dca", "--m", str(10**15), "--n", "1",
            "--slots", "1", "--capacity", "1",
        ))


def call_main(argv):
    """main() with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err, ok=(0,)):
    if code in ok:
        json.loads(out)
        assert err == ""
    else:
        assert_one_error_line(code, out, err)


json_leaves = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(-10**400, 10**400)
    | st.floats(0.0, 1.0) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["dca", "fair"])
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
sim_blocks = st.dictionaries(
    st.sampled_from(["slots", "warmup", "capacity", "seed", "slot"]), json_values, max_size=3
)
small_counts = st.integers(0, 4)
scenario_json = (
    json_values
    | st.dictionaries(
        st.sampled_from(["preset", "m", "n", "p_A", "p_F", "p_H", "sim", "extra"]),
        json_values | sim_blocks,
        max_size=7,
    )
    # mostly well-formed, so that the success path is exercised too
    | st.fixed_dictionaries(
        {"preset": st.sampled_from(["dca", "fair"]), "m": small_counts, "n": small_counts},
        optional={"sim": sim_blocks, "p_A": json_values},
    )
)
flag_values = (
    st.integers(-10**30, 10**400).map(str) | st.floats().map(repr)
    | st.text(max_size=4)
    | st.sampled_from(["dca", "fair", "1", "2", "0.5"])
)
flag_sets = st.dictionaries(
    st.sampled_from(["--m", "--n", "--pA", "--pF", "--pH", "--preset"]), flag_values
) | st.fixed_dictionaries(
    {"--preset": st.sampled_from(["dca", "fair"]), "--m": flag_values | small_counts.map(str),
     "--n": small_counts.map(str)},
    optional={"--pA": flag_values},
)
# Short simulations only: small station counts, capacities and spans.
prob_values = st.floats(0.0, 1.0).map(repr) | st.floats().map(repr) | st.sampled_from(
    ["0", "0.2", "0.25", "0.5", "1"]
)
network_flags = st.fixed_dictionaries(
    {"--preset": st.sampled_from(["dca", "fair"]), "--m": small_counts.map(str),
     "--n": small_counts.map(str)}
) | st.fixed_dictionaries(
    {"--m": small_counts.map(str), "--n": small_counts.map(str),
     "--pA": prob_values, "--pF": prob_values, "--pH": prob_values}
)
# mostly in range, so that most examples simulate
sim_flags = st.fixed_dictionaries({
    "--slots": (st.integers(1, 50) | st.integers(-1, 50)).map(str),
    "--warmup": (st.integers(0, 200) | st.integers(-1, 200)).map(str),
    "--capacity": (st.integers(1, 60) | st.integers(-1, 60)).map(str),
    "--seed": (st.integers(0, 2**64) | st.integers(-10**30, 10**400)).map(str),
})


def call_main_with_flags(command, *flag_dicts):
    """main() on ``--flag=value`` arguments; argparse refusals count as exit 2."""
    argv = [command] + [f"{k}={v}" for flags in flag_dicts for k, v in flags.items()]
    try:
        return call_main(argv)
    except SystemExit as exc:
        assert exc.code == 2  # argparse refused a value, e.g. --m=1.5
        return None


class TestFuzz:
    """main() keeps its exit-code contract on any input."""

    @settings(max_examples=150, deadline=None)
    @given(raw=scenario_json)
    def test_scenario_files(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz_scenario.json"
        path.write_text(json.dumps(raw))
        assert_contract(*call_main(["theory", "--scenario", str(path)]))

    @settings(max_examples=150, deadline=None)
    @given(flags=flag_sets)
    def test_config_flags(self, flags):
        result = call_main_with_flags("theory", flags)
        if result is not None:
            assert_contract(*result)

    @settings(max_examples=100, deadline=None)
    @given(network=network_flags, sim=sim_flags)
    def test_simulate_flags(self, network, sim):
        result = call_main_with_flags("simulate", network, sim)
        if result is not None:
            assert_contract(*result)

    @settings(max_examples=100, deadline=None)
    @given(network=network_flags, sim=sim_flags,
           z_max=st.sampled_from([{}, {"--z-max": "4"}, {"--z-max": "0.5"}, {"--z-max": "nan"}]))
    def test_validate_flags(self, network, sim, z_max):
        # 1 is a statistical mismatch, with the JSON payload on stdout
        result = call_main_with_flags("validate", network, sim, z_max)
        if result is not None:
            assert_contract(*result, ok=(0, 1))


def fresh_process(*args):
    """Run ``python *args`` in a new interpreter that imports this suite's fdmix."""
    # the child imports the fdmix this suite imports, installed or not
    path = [str(Path(fdmix.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


class TestParserReuse:
    """main() reuses one parser; no call may leave state for the next."""

    def test_z_max_returns_to_its_default(self):
        network = ["--preset", "dca", "--m", "2", "--n", "2", "--slots", "200", "--seed", "1"]
        code, out, _ = call_main(["validate", "--z-max", "2", *network])
        assert code in (0, 1) and json.loads(out)["z_max"] == 2.0
        code, out, _ = call_main(["validate", *network])
        assert code in (0, 1) and json.loads(out)["z_max"] == 4.0

    def test_out_file_is_not_kept(self, tmp_path):
        target = tmp_path / "theory.json"
        argv = ["theory", "--preset", "fair", "--m", "2", "--n", "2"]
        assert call_main([*argv, "--out", str(target)]) == (0, "", "")
        code, out, _ = call_main(argv)
        assert code == 0 and out == target.read_text()

    def test_refusal_then_good_call_matches_a_fresh_process(self):
        with pytest.raises(SystemExit) as exc:
            call_main(["theory", "--m", "1.5"])
        assert exc.value.code == 2
        argv = ["theory", "--m", "1", "--n", "1", "--pA", "0.6", "--pF", "0.3", "--pH", "0.1"]
        fresh = fresh_process("-m", "fdmix.cli", *argv)
        assert call_main(argv) == (0, fresh.stdout, fresh.stderr)
        assert fresh.returncode == 0


@pytest.mark.parametrize("argv", [
    ["theory", "--preset", "dca", "--m", "2", "--n", "2"],
    ["sweep", "--total-stations", "4"],
])
def test_closed_form_commands_do_not_import_numpy(argv):
    child = (
        "import sys\n"
        "from fdmix.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = fresh_process("-c", child, *argv)
    assert proc.returncode == 0
    assert proc.stdout
    assert proc.stderr == "False\n"


def test_module_entry_point_help():
    proc = fresh_process("-m", "fdmix.cli", "--help")
    assert proc.returncode == 0
    for word in ("theory", "simulate", "sweep", "validate"):
        assert word in proc.stdout


# Each subcommand's option strings in order, and the help of the command
# that takes the most flags, as argparse printed them before the shared
# flag groups became parent parsers.
CONFIG_OPTIONS = ["--preset", "--m", "--n", "--pA", "--pF", "--pH", "--scenario", "--out"]
SIM_OPTIONS = ["--slots", "--warmup", "--capacity", "--seed"]
OPTION_STRINGS = {
    "theory": ["-h", "--help", *CONFIG_OPTIONS],
    "simulate": ["-h", "--help", *CONFIG_OPTIONS, *SIM_OPTIONS],
    "validate": ["-h", "--help", *CONFIG_OPTIONS, *SIM_OPTIONS, "--z-max"],
    "sweep": ["-h", "--help", "--total-stations", "--out"],
}
VALIDATE_HELP_80_COLUMNS = """\
usage: fdmix validate [-h] [--preset {dca,fair}] [--m M] [--n N] [--pA PA]
                      [--pF PF] [--pH PH] [--scenario FILE] [--out FILE]
                      [--slots SLOTS] [--warmup WARMUP] [--capacity CAPACITY]
                      [--seed SEED] [--z-max Z_MAX]

options:
  -h, --help           show this help message and exit
  --preset {dca,fair}
  --m M                full-duplex station count
  --n N                half-duplex station count
  --pA PA              AP transmit probability
  --pF PF              per full-duplex station probability
  --pH PH              per half-duplex station probability
  --scenario FILE      JSON scenario file
  --out FILE           write output here instead of stdout
  --slots SLOTS        measured slots (default 1000000)
  --warmup WARMUP      warmup slots (default 1%, min 10000)
  --capacity CAPACITY  queue window size (default 10 per station)
  --seed SEED          RNG seed (default 0)
  --z-max Z_MAX        acceptance threshold in standard errors (default 4)
"""


def test_each_subcommand_keeps_its_options_in_order():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [option for action in parser._actions for option in action.option_strings]
        for name, parser in sub.choices.items()
    }
    assert options == OPTION_STRINGS


def test_validate_help_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["validate", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VALIDATE_HELP_80_COLUMNS
