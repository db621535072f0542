#!/usr/bin/env python3
"""Mutation audit: how many one-site changes to ``src/fdmix`` the suite kills.

Each mutant changes one site of one module: a comparison swapped (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``), ``+`` and ``-`` swapped (in
``+=`` and ``-=`` too), ``*`` and ``/`` swapped, ``and`` and ``or``
swapped, a numeric constant moved up by one, or a ``not`` dropped.  A
mutated module is the original parsed and unparsed with ``ast``, so it has
no comments; the suite must first pass on every module unparsed unmutated.

Each mutant runs the tier-1 suite with ``-x``, a fixed Hypothesis seed and
a 150-s timeout, without criterion 6b, which fails by design, in a copy of the
repository.  At most two pytest processes run at a time.  A mutant is
killed when pytest fails or times out.  The report gives the kill count
per module, then each survivor's ``file:line:column``, its source line and
the change::

    python3 scripts/mutants.py                      # every module
    python3 scripts/mutants.py --module simulator   # one file

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
CRITERION_6B = "tests/test_acceptance.py::test_criterion_06b_million_slots_fairness"
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


def mutants(source: str) -> Iterator[tuple[Site, str]]:
    """Each one-site mutant of ``source``: its site and its text."""
    for k in range(sum(1 for _ in _sites(ast.parse(source)))):
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
    """``"survived"``, ``"killed"`` or ``"timeout"``: tier-1 without 6b in ``copy``;
    ``"skipped"`` once SIGTERM has come."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--deselect", CRITERION_6B]
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


def main(argv=None) -> int:
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--module", choices=modules, help="mutate this module only")
    args = parser.parse_args(argv)
    chosen = [args.module] if args.module else modules
    sources = {name: (PACKAGE / f"{name}.py").read_text(encoding="utf-8") for name in chosen}
    work = [(name, site, text) for name in chosen for site, text in mutants(sources[name])]

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

        if play({name: ast.unparse(ast.parse(sources[name])) for name in chosen}) != "survived":
            print("the suite fails on the unmutated modules; no mutant can be judged", file=sys.stderr)
            return 1

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
            results = list(pool.map(judge, work))

    for name in chosen:
        outcomes = [result for (module, _, _), result in zip(work, results) if module == name]
        killed = sum(result != "survived" for result in outcomes)
        timeouts = outcomes.count("timeout")
        print(f"{name}.py: {killed} of {len(outcomes)} killed ({timeouts} by the timeout)")
    for (name, site, _), result in zip(work, results):
        if result == "survived":
            line = sources[name].splitlines()[site.line - 1].strip()
            print(f"  {name}.py:{site.line}:{site.column}  {line}  [{site.change}]")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_sigterm)
    sys.exit(main())
