"""Smoke runs of the scripts: the two studies at tiny sizes, the digest, and
the mutation audit's mutants, its list of equivalent survivors, its
``--since`` filter and its stop on SIGTERM (the audit itself runs the suite,
so it runs here only on a one-test suite of its own, or with its pytest
faked).

The studies are checked for exit code and the shape of their output only:
at these run lengths the verdict on the head composition depends on the
seed.  The digest is checked line for line against its pinned value.
"""

import contextlib
import os
import runpy
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_sweep_figure(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code = script_main("sweep_figure.py")(["--total-stations", "4", "--out", str(out)])
    assert code == 0
    csv_lines = out.read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 1 + 2 * 5  # header, then m = 0..4 per preset
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out}"
    table = lines[lines.index("aggregate packets per slot, 4 stations") + 2:]
    assert [row.split()[:2] for row in table] == [[str(m), str(4 - m)] for m in range(5)]
    for row in table:
        dca_sum, fair_sum = map(float, row.split()[2:])
        assert 1.0 <= dca_sum <= 2.0 and 1.0 <= fair_sum <= 2.0


def test_validate_presets(capsys):
    module = runpy.run_path(str(SCRIPTS / "validate_presets.py"))
    code = module["main"](["--slots", "2000", "--seeds", "1"])
    assert code in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    runs = lines[:-2]
    assert len(runs) == len(module["CASES"])
    for (name, _), line in zip(module["CASES"], runs):
        words = line.split()
        assert words[:2] == [name, "seed=0"]
        assert words[2] in ("pass", "FAIL")
        assert [cell.split("=")[0] for cell in words[3:]] == [
            "hd_down", "hd_up", "fd_down", "fd_up", "p", "sum",
        ]
    assert lines[-2] == ""
    failing = int(lines[-1].split()[0])
    assert lines[-1] == f"{failing} failing run(s)"
    assert code == (1 if failing else 0)


@pytest.mark.parametrize("name, argv", [
    ("sweep_figure.py", ["--total-stations", "0"]),
    ("validate_presets.py", ["--slots", "0"]),
    ("validate_presets.py", ["--z-max", "nan"]),
    ("validate_presets.py", ["--seeds", "0"]),
    ("validate_presets.py", ["--seeds", "-1"]),
    ("mutants.py", ["--module", "nosuch"]),
    ("mutants.py", ["--since", "no-such-revision"]),
])
def test_bad_arguments_exit_2(capsys, name, argv):
    # one argparse error line and exit 2, as the CLI does, not a traceback;
    # each is rejected before anything is written
    with pytest.raises(SystemExit) as stop:
        script_main(name)(argv)
    assert stop.value.code == 2
    assert ": error: " in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("flag", ["--slots", "--seeds"])
def test_validate_presets_names_the_flag(capsys, flag):
    # the error names the flag, not the library parameter it feeds
    with pytest.raises(SystemExit):
        script_main("validate_presets.py")([flag, "0"])
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.endswith(f": error: {flag[2:]} must be >= 1, got 0")


# A change that moves seeded output on purpose updates these and says why.
SEEDED_DIGEST = [
    "a120ff3be61956dd5675a1b3915729986c93c7b65d440eee845e52093f606502  run",
    "43791b1bce26672f406b062b6c3866e6919008f3b974e76854e64cdad8757aef  step",
    "1b71a157f6a965caa30580ff4b39dc09821504822c266e46bfa450756763b33d  cli",
]


def test_seeded_digest(capsys):
    assert script_main("seeded_digest.py")() == 0
    assert capsys.readouterr().out.splitlines() == SEEDED_DIGEST


def test_mutants_change_one_site_each():
    mutants = runpy.run_path(str(SCRIPTS / "mutants.py"))["mutants"]
    source = "def f(a, b):\n    a -= 2.5\n    return not (a < b and a * b)\n"
    found = [(site.line, site.change, text.splitlines()[1:]) for site, text in mutants(source)]
    assert found == [
        (2, "-= -> +=", ["    a += 2.5", "    return not (a < b and a * b)"]),
        (2, "2.5 -> 3.5", ["    a -= 3.5", "    return not (a < b and a * b)"]),
        (3, "not dropped", ["    a -= 2.5", "    return a < b and a * b"]),
        (3, "and -> or", ["    a -= 2.5", "    return not (a < b or a * b)"]),
        (3, "< -> <=", ["    a -= 2.5", "    return not (a <= b and a * b)"]),
        (3, "* -> /", ["    a -= 2.5", "    return not (a < b and a / b)"]),
    ]


def test_mutants_equivalent_keys_name_live_lines():
    # an edited or deleted line leaves a key that no survivor can match
    equivalent = runpy.run_path(str(SCRIPTS / "mutants.py"))["EQUIVALENT"]
    package = SCRIPTS.parent / "src" / "fdmix"
    lines = {}
    for module in {module for module, _, _ in equivalent}:
        source = (package / f"{module}.py").read_text(encoding="utf-8")
        lines[module] = {line.strip() for line in source.splitlines()}
    assert [key for key in sorted(equivalent) if key[1] not in lines[key[0]]] == []


def test_mutants_since_mutates_only_changed_lines(tmp_path, capsys, monkeypatch):
    # a git repository whose one module, since its commit, kept a line with
    # two sites, edited one to a survivor listed as equivalent and one to a
    # survivor that is not; pytest is faked to pass, so none starts
    tree = tmp_path / "tree"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(SCRIPTS / "mutants.py", tree / "scripts")
    package = tree / "src" / "fdmix"
    package.mkdir(parents=True)
    module = package / "stats.py"
    head = "def judge(z, z_max):\n    z = z - 0.5\n"
    module.write_text(head + "    ok = abs(z) < z_max\n    return ok\n", encoding="utf-8")
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True, capture_output=True)
    module.write_text(head + "    ok = abs(z) <= z_max\n    return ok, 2\n", encoding="utf-8")
    main = runpy.run_path(str(tree / "scripts" / "mutants.py"))["main"]
    monkeypatch.setitem(main.__globals__, "_pytest", lambda copy: "survived")
    assert main(["--since", "HEAD"]) == 0
    out, err = capsys.readouterr()
    assert sorted(err.splitlines()) == [
        "stats.py:3:9 [<= -> <] survived", "stats.py:4:15 [2 -> 3] survived",
    ]
    assert out.splitlines() == [
        "stats.py: 0 of 2 killed (0 by the timeout, 1 survivors listed as equivalent)",
        "  stats.py:4:15  return ok, 2  [2 -> 3]",
    ]


def test_mutants_sigterm_kills_pytest_and_removes_copies(tmp_path):
    # a tree with a two-site module and a one-test suite that records its
    # pytest's pid and sleeps, so the signal lands while that pytest runs,
    # with both mutants still queued
    tree = tmp_path / "tree"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(SCRIPTS / "mutants.py", tree / "scripts")
    package = tree / "src" / "fdmix"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "stats.py").write_text("def f(a):\n    return a + 1\n", encoding="utf-8")
    (tree / "pytest.ini").write_text("[pytest]\n", encoding="utf-8")
    (tree / "tests").mkdir()
    pids = tmp_path / "pids"
    (tree / "tests" / "test_sleep.py").write_text(
        "import os, time\n"
        "def test_sleep():\n"
        f"    with open({str(pids)!r}, 'a') as out:\n"
        "        out.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(60)\n",
        encoding="utf-8",
    )
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    audit = subprocess.Popen(
        [sys.executable, str(tree / "scripts" / "mutants.py")],
        env={**os.environ, "TMPDIR": str(scratch)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not (pids.exists() and pids.read_text(encoding="utf-8").endswith("\n")):
            assert audit.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        audit.send_signal(signal.SIGTERM)
        assert audit.wait(timeout=10) == 128 + signal.SIGTERM
        [pid] = map(int, pids.read_text(encoding="utf-8").split())  # no mutant ran
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        assert list(scratch.glob("mutants-*")) == []
    finally:
        audit.kill()
        audit.wait()
        if pids.exists():
            for pid in map(int, pids.read_text(encoding="utf-8").split()):
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pid, signal.SIGKILL)
