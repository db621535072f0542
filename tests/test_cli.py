"""Command line behaviour: formats, determinism, exit codes, scenario files."""

import json
import subprocess
import sys

import pytest

from fdmix.cli import _CSV_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestTheory:
    def test_preset_payload(self, capsys):
        payload = run_json(capsys, "theory", "--preset", "dca", "--m", "2", "--n", "2")
        assert payload["preset"] == "dca"
        assert payload["config"] == {"m": 2, "n": 2, "p_A": 0.2, "p_F": 0.2, "p_H": 0.2}
        assert payload["theory"]["p"] == 1.0
        assert payload["theory"]["sum"] == 1.4

    def test_explicit_flags(self, capsys):
        payload = run_json(
            capsys, "theory", "--m", "1", "--n", "1",
            "--pA", "0.6", "--pF", "0.3", "--pH", "0.1",
        )
        assert payload["preset"] is None
        assert payload["theory"]["p"] == 0.75
        assert payload["theory"]["hd_down"] == 0.45

    def test_floats_rounded_to_12_significant_digits(self, capsys):
        payload = run_json(capsys, "theory", "--preset", "dca", "--m", "1", "--n", "3")
        assert payload["theory"]["hd_down"] == float("0.0666666666667")

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

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            code, _, err = run_cli(
                capsys, "simulate", "--preset", "dca", "--m", "2", "--n", "2",
                "--slots", "50000", "--out", str(target),
            )
            assert code == 0, err
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_output(self, capsys):
        a = run_json(capsys, "simulate", "--preset", "dca", "--m", "2", "--n", "2",
                     "--slots", "20000", "--seed", "1")
        b = run_json(capsys, "simulate", "--preset", "dca", "--m", "2", "--n", "2",
                     "--slots", "20000", "--seed", "2")
        assert a["counters"] != b["counters"]


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

    def test_bit_stable(self, capsys):
        _, first, _ = run_cli(capsys, "sweep", "--total-stations", "17")
        _, second, _ = run_cli(capsys, "sweep", "--total-stations", "17")
        assert first == second

    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--total-stations", "4")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        dca22 = next(r for r in rows if r[0] == "dca" and r[1] == "2")
        cols = _CSV_COLUMNS.split(",")
        assert dca22[cols.index("sum")] == "1.4"
        assert dca22[cols.index("hd_down_total")] == "0.2"
        fair40 = next(r for r in rows if r[0] == "fair" and r[1] == "4")
        assert fair40[cols.index("p_A")] == "0"
        assert fair40[cols.index("sum")] == "2"

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

    def test_preset_scenario(self, capsys, tmp_path):
        path = self.write(tmp_path, {"preset": "fair", "m": 2, "n": 2})
        payload = run_json(capsys, "theory", "--scenario", path)
        assert payload["preset"] == "fair"
        assert payload["config"]["p_A"] == float(format(1 / 3, ".12g"))

    def test_flag_overrides_file(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "preset": "dca", "m": 1, "n": 1, "sim": {"slots": 30000},
        })
        payload = run_json(capsys, "simulate", "--scenario", path,
                           "--slots", "20000")
        assert payload["sim"]["slots"] == 20000

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

    def test_non_object_exits_two(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "theory", "--scenario", str(path))
        assert code == 2


class TestFlagErrors:
    @pytest.mark.parametrize("argv", [
        ["theory"],                                       # no network given
        ["theory", "--preset", "dca"],                    # preset without m, n
        ["theory", "--preset", "dca", "--m", "1", "--n", "1", "--pA", "0.2"],
        ["theory", "--m", "1", "--n", "1", "--pA", "0.6"],  # partial explicit
        ["theory", "--scenario", "x.json", "--m", "1"],   # file plus flags
    ])
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

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

    def test_bad_sim_values_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--preset", "dca", "--m", "1", "--n", "1",
            "--slots", "0",
        )
        assert code == 2


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fdmix.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for word in ("theory", "simulate", "sweep", "validate"):
        assert word in proc.stdout
