#!/usr/bin/env python3
"""Mutation audit: how many one-site changes to ``src/fdmix`` the suite kills.

Each mutant changes one site of one module: a comparison swapped (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``), ``+`` and ``-`` swapped (in
``+=`` and ``-=`` too), ``*`` and ``/`` swapped, ``and`` and ``or``
swapped, a numeric constant moved up by one, or a ``not`` dropped.  A
mutated module is the original parsed and unparsed with ``ast``, so it has
no comments; the suite must first pass on every module unparsed unmutated.

Each mutant runs the tier-1 suite with ``-x``, a fixed Hypothesis seed and
a 150-s timeout, in a copy of the repository.  It leaves out criterion 6b,
which fails by design, and the test of ``EQUIVALENT``'s keys, which reads
the modules' source text that the copy holds unparsed.  At most two pytest
processes run at a time.  A mutant is killed when pytest fails or times
out.  The report gives the kill count per module, then each survivor's
``file:line:column``, its source line and the change, except the survivors
listed in ``EQUIVALENT``::

    python3 scripts/mutants.py                      # every module
    python3 scripts/mutants.py --module simulator   # one file
    python3 scripts/mutants.py --since HEAD~1       # the lines changed since a commit

``--since REV`` mutates only the sites on lines of the modules as they are
now that ``git diff -U0 REV`` adds or changes; with no such site it runs no
pytest.

Progress goes to stderr, one line per mutant.  SIGTERM stops the audit:
the running pytest processes are killed, the queued mutants are skipped and
the copies are removed before the script exits with status 143.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fdmix"
JOBS = 2  # pytest processes at a time
TIMEOUT = 150.0  # seconds per pytest run; a mutant that loops forever is killed by it
DESELECTED = (
    "tests/test_acceptance.py::test_criterion_06b_million_slots_fairness",
    "tests/test_scripts.py::test_mutants_equivalent_keys_name_live_lines",
)
STOP = threading.Event()  # set by SIGTERM: no pytest starts after it
RUNNING: set[subprocess.Popen] = set()  # the pytest processes now running

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or",
}

# Known survivors that no test of the program's outputs can kill, each under
# its reason, keyed by module, stripped source line (comment included) and
# change.  A line that moves keeps its key; an edited line loses it, so its
# survivors are reported again until they are judged anew.
EQUIVALENT = {
    # near 1, closure - 1.0 is a multiple of 2**-53 and CLOSURE_TOL is not
    ("analytic", "if not abs(closure - 1.0) <= CLOSURE_TOL:", "<= -> <"),
    ("analytic", "and abs(p_A + m * p_F + n * p_H - 1.0) <= CLOSURE_TOL", "<= -> <"),
    # at either bound as_count's slow path returns the same int (both sites)
    ("analytic", "if type(value) is int and minimum <= value and "
     "(maximum is None or value <= maximum):", "<= -> <"),
    # _show's value has over 4300 digits, so it is never 0 and never in (0, 1)
    ("analytic", 'sign = "a negative" if value < 0 else "an"', "< -> <="),
    ("analytic", 'sign = "a negative" if value < 0 else "an"', "0 -> 1"),
    # the estimate stays at or below the true digit count; the loop corrects it
    ("analytic", "digits = int((size.bit_length() - 1) * math.log10(2))  # at most one short",
     "- -> +"),
    ("analytic", "digits = int((size.bit_length() - 1) * math.log10(2))  # at most one short",
     "1 -> 2"),
    # SimStats defaults: the stats property passes every field, and a test
    # that leaves these out reads nothing that depends on them
    ("simulator", "ap_wins_hd_head: int = 0", "0 -> 1"),
    ("simulator", "fd_wins_no_packet: int = 0", "0 -> 1"),
    # a cache size changes no outcome
    ("simulator", "@lru_cache(maxsize=16)", "16 -> 17"),
    # _winners: an absent class's station index is never read
    ("simulator", "if n > 0:", "> -> >="),
    ("simulator", "if m > 0:", "> -> >="),
    # when run() compacts the window changes no head it meets
    ("simulator", "if len(queue.entries) > 4 * queue.capacity:  # amortised O(1) per hit",
     "> -> >="),
    ("simulator", "if len(queue.entries) > 4 * queue.capacity:  # amortised O(1) per hit",
     "* -> /"),
    ("simulator", "if len(queue.entries) > 4 * queue.capacity:  # amortised O(1) per hit",
     "4 -> 5"),
    # differs only at a z of exactly z_max, which no judged run gives
    ("stats", "ok = abs(z) <= z_max", "<= -> <"),
}


class Site(NamedTuple):
    """Where a mutant changes its module, and the change in words."""

    line: int
    column: int
    change: str


def _sites(tree: ast.AST) -> Iterator[tuple[ast.AST, int | None]]:
    """Every mutable site of ``tree`` in ``ast.walk`` order: its node, and for
    a comparison the index of the operator."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield from ((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                yield node, None
        elif isinstance(node, ast.Constant):
            if type(node.value) in (int, float):
                yield node, None
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, None


def _mutate(tree: ast.AST, node: ast.AST, index: int | None) -> str:
    """Change ``tree`` at one site, in place; return the change in words."""
    if isinstance(node, ast.Compare):
        op = type(node.ops[index])
        node.ops[index] = SWAPS[op]()
        return f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"
    if isinstance(node, ast.Constant):
        old = node.value
        node.value += 1
        return f"{old!r} -> {node.value!r}"
    if isinstance(node, ast.UnaryOp):
        for parent in ast.walk(tree):
            for name, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, name, node.operand)
                elif isinstance(value, list):
                    value[:] = [node.operand if item is node else item for item in value]
        return "not dropped"
    op = type(node.op)
    node.op = SWAPS[op]()
    eq = "=" if isinstance(node, ast.AugAssign) else ""
    return f"{SYMBOLS[op]}{eq} -> {SYMBOLS[SWAPS[op]]}{eq}"


def mutants(source: str, lines: set[int] | None = None) -> Iterator[tuple[Site, str]]:
    """Each one-site mutant of ``source``, or of its sites on ``lines`` when
    given: its site and its text."""
    for k, (node, _) in enumerate(_sites(ast.parse(source))):
        if lines is not None and node.lineno not in lines:
            continue
        tree = ast.parse(source)
        node, index = next(islice(_sites(tree), k, None))
        change = _mutate(tree, node, index)
        yield Site(node.lineno, node.col_offset, change), ast.unparse(tree)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and every process it started; not once it is reaped, as
    its pid may then belong to another process."""
    if proc.returncode is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def _on_sigterm(signum, frame) -> None:
    """Kill every running pytest, stop new ones, and unwind the main thread,
    which removes the copies on its way out.  A second signal is ignored."""
    signal.signal(signum, signal.SIG_IGN)
    STOP.set()
    for proc in list(RUNNING):
        _kill_group(proc)
    raise SystemExit(128 + signum)


def _pytest(copy: Path) -> str:
    """``"survived"``, ``"killed"`` or ``"timeout"``: tier-1 without
    ``DESELECTED`` in ``copy``; ``"skipped"`` once SIGTERM has come."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *(f"--deselect={test}" for test in DESELECTED)]
    with subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        RUNNING.add(proc)
        try:
            if STOP.is_set():  # the signal came before this process was listed
                return "skipped"
            return "survived" if proc.wait(TIMEOUT) == 0 else "killed"
        except subprocess.TimeoutExpired:
            return "timeout"
        finally:
            RUNNING.discard(proc)
            if proc.poll() is None:
                _kill_group(proc)
                proc.wait()


def _touched_lines(rev: str, path: Path) -> set[int]:
    """The lines of ``path`` as it is now that ``git diff -U0 rev`` adds or
    changes; ValueError when git refuses ``rev``."""
    diff = subprocess.run(
        ["git", "diff", "--no-color", "--no-ext-diff", "-U0", "--end-of-options", rev,
         "--", str(path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if diff.returncode:
        # outside a repository git prints a warning and its usage: keep one line
        raise ValueError((diff.stderr.strip() or f"git diff exited with {diff.returncode}")
                         .splitlines()[0])
    lines: set[int] = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff.stdout, re.MULTILINE):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def _judge_all(sources: dict[str, str], work: list[tuple[str, Site, str]]) -> list[str] | None:
    """Each mutant's result, in ``work``'s order; None when the suite fails on
    the modules of ``sources`` unparsed unmutated."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies: queue.Queue[Path] = queue.Queue()
        for i in range(JOBS):
            copy = Path(tmp) / str(i)
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", ".hypothesis", ".pytest_cache", "__pycache__", "perfbench_out"))
            copies.put(copy)

        def play(texts: dict[str, str]) -> str:
            copy = copies.get()
            try:
                for name, text in texts.items():
                    (copy / "src" / "fdmix" / f"{name}.py").write_text(text, encoding="utf-8")
                return _pytest(copy)
            finally:
                for name in texts:
                    (copy / "src" / "fdmix" / f"{name}.py").write_text(sources[name], encoding="utf-8")
                copies.put(copy)

        if play({name: ast.unparse(ast.parse(text)) for name, text in sources.items()}) != "survived":
            return None

        def judge(job: tuple[str, Site, str]) -> str:
            if STOP.is_set():
                return "skipped"
            name, site, text = job
            result = play({name: text})
            if STOP.is_set():  # its pytest was killed, not judged
                return "skipped"
            print(f"{name}.py:{site.line}:{site.column} [{site.change}] {result}",
                  file=sys.stderr, flush=True)
            return result

        with ThreadPoolExecutor(JOBS) as pool:
            return list(pool.map(judge, work))


def main(argv=None) -> int:
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--module", choices=modules, help="mutate this module only")
    parser.add_argument("--since", metavar="REV",
                        help="mutate only the lines changed since this git revision")
    args = parser.parse_args(argv)
    chosen = [args.module] if args.module else modules
    touched = None
    if args.since is not None:
        try:
            touched = {name: _touched_lines(args.since, PACKAGE / f"{name}.py") for name in chosen}
        except (OSError, ValueError) as exc:
            parser.error(f"--since {args.since}: {exc}")
    sources = {name: (PACKAGE / f"{name}.py").read_text(encoding="utf-8") for name in chosen}
    work = [(name, site, text) for name in chosen
            for site, text in mutants(sources[name], None if touched is None else touched[name])]

    results = _judge_all(sources, work) if work else []
    if results is None:
        print("the suite fails on the unmutated modules; no mutant can be judged", file=sys.stderr)
        return 1
    survivors = [
        (name, site, sources[name].splitlines()[site.line - 1].strip())
        for (name, site, _), result in zip(work, results) if result == "survived"
    ]
    for name in chosen:
        outcomes = [result for (module, _, _), result in zip(work, results) if module == name]
        killed = sum(result != "survived" for result in outcomes)
        timeouts = outcomes.count("timeout")
        listed = sum(module == name and (module, line, site.change) in EQUIVALENT
                     for module, site, line in survivors)
        print(f"{name}.py: {killed} of {len(outcomes)} killed ({timeouts} by the timeout, "
              f"{listed} survivors listed as equivalent)")
    for name, site, line in survivors:
        if (name, line, site.change) not in EQUIVALENT:
            print(f"  {name}.py:{site.line}:{site.column}  {line}  [{site.change}]")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_sigterm)
    sys.exit(main())
