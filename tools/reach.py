"""List the statements of ``src/skqe`` that no command and no tiny workload runs.

    python3 tools/reach.py          # about ten seconds on 2 cores

Under ``sys.settrace`` it runs, in this process:

- every ``skqe`` subcommand through ``cli.main`` on a tiny generated graph:
  ``eval`` and ``answer`` under both union modes, and ``train`` under each
  t-norm and both embedding modes;
- the ``gen_queries``, ``train_paper`` and ``eval_rank`` workloads through
  ``perfbench/run.py --workload W --size tiny --seconds 0.5`` (their records go to
  ``perfbench/out/`` as on any run).

Then it prints, per function of ``src/skqe``, the first lines of the
statements that never ran (``a-b`` where they follow one another line by
line), or ``never ran`` for a function none of whose statements ran, and a
summary line. A statement counts as run when the tracer saw a line of its
own (for a compound statement, a line of its header). Only statements inside
functions are counted; module and class bodies run at import.

It imports ``skqe`` from the ``src`` directory next to this file, so a copy
of another checkout with this file in its ``tools/`` lists that checkout's
statements. Uses the standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skqe"
WORKLOADS = ("gen_queries", "train_paper", "eval_rank")
TNORMS = ("luk", "prod", "min")
UNIONS = ("dnf", "dm")
QUERIES = (  # an OR-join, a negated intersection and a negated projection
    "EXISTS V,T . r0(e1,V) OR r1(e2,V) AND r2(V,T)",
    "EXISTS T . r0(e1,T) AND NOT r1(e2,T)",
    "EXISTS V,T . r0(e1,V) AND NOT r1(e2,V) AND r2(V,T)",
)


def _header(stmt: ast.stmt) -> range:
    """The lines of a simple statement, or of a compound statement's header."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(stmt.lineno, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def function_statements(path: Path) -> dict[tuple[int, str], list[range]]:
    """(def line, qualified name) -> the header lines of each statement the
    function itself holds (nested functions are entries of their own) that
    compiles to at least one instruction."""
    source = path.read_text(encoding="utf-8")
    executable = _executable_lines(compile(source, str(path), "exec"))
    found: dict[tuple[int, str], list[range]] = {}

    def visit(stmts, prefix: str, owner: list[range] | None) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + stmt.name
                visit(stmt.body, name + ".<locals>.", found.setdefault((stmt.lineno, name), []))
                continue
            if isinstance(stmt, ast.ClassDef):
                visit(stmt.body, prefix + stmt.name + ".", None)
                continue
            lines = _header(stmt)
            if owner is not None and executable.intersection(lines):
                owner.append(lines)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), prefix, owner)
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body, prefix, owner)
            for case in getattr(stmt, "cases", []):
                visit(case.body, prefix, owner)

    visit(ast.parse(source).body, "", None)
    return found


class LineTracer:
    """Records the lines run in a set of files, one set of lines per file."""

    def __init__(self, paths):
        self.hits: dict[str, set[int]] = {str(p): set() for p in paths}
        self._local = {name: self._local_tracer(lines) for name, lines in self.hits.items()}

    @staticmethod
    def _local_tracer(lines: set[int]):
        add = lines.add

        def trace(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace

        return trace

    def _global(self, frame, event, arg):
        return self._local.get(frame.f_code.co_filename)

    @contextlib.contextmanager
    def running(self):
        sys.settrace(self._global)
        threading.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_cli(tmp: Path) -> list[str]:
    """Every ``skqe`` subcommand on a tiny graph; returns the failed commands."""
    from skqe import algebra, cli

    kg, train_q, eval_q = str(tmp / "kg"), str(tmp / "train.jsonl"), str(tmp / "eval.jsonl")
    ckpt = str(tmp / "model.npz")
    commands = [
        ["gen-kg", "--entities", "60", "--relations", "3", "--seed", "1", "--out", kg],
        ["gen-queries", "--kg", kg, "--mode", "train", "--per-structure", "8",
         "--seed", "1", "--out", train_q],
        ["gen-queries", "--kg", kg, "--mode", "generalization", "--per-structure", "4",
         "--structures", ",".join(algebra.STRUCTURE_NAMES), "--negation-frac", "0.5",
         "--seed", "2", "--out", eval_q],
    ]
    small = ["--d", "16", "--h", "8", "--negatives", "4", "--batch-size", "16", "--steps", "2"]
    for kind in TNORMS:
        for mode in ("bounds", "point"):
            out = str(tmp / f"{kind}-{mode}.npz")
            commands.append(["train", "--kg", kg, "--queries", train_q, "--out", out,
                             "--tnorm", kind, "--mode", mode, *small])
    commands.append(["train", "--kg", kg, "--queries", train_q, "--out", ckpt,
                     "--log", str(tmp / "log.csv"), "--checkpoint-every", "1", *small])
    inputs = ["--kg", kg, "--ckpt", ckpt, "--queries", eval_q]
    for union in UNIONS:
        commands.append(["eval", *inputs, "--union", union, "--out", str(tmp / f"{union}.csv")])
        for query in QUERIES:
            commands.append(["answer", "--kg", kg, "--ckpt", ckpt, "--query", query,
                             "--topk", "3", "--union", union])
    commands.append(["correlate", *inputs, "--emit-plot-data", str(tmp / "plot.csv"),
                     "--out", str(tmp / "correlations.csv")])
    for query in QUERIES:
        for splits in ([], ["--splits", "train"]):
            commands.append(["oracle", "--kg", kg, "--query", query, *splits])
    failed = []
    for argv in commands:
        errors = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
            code = cli.main(argv)
        if code != 0:
            failed.append(f"skqe {' '.join(argv)}: exit {code}, {errors.getvalue().strip()}")
    return failed


def run_workloads() -> list[str]:
    """The tiny benchmark workloads in this process; returns the failed ones."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # where run.py finds its modules as a script
    bench = runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="perfbench_run")
    failed = []
    for name in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = bench["main"](["--workload", name, "--size", "tiny", "--seconds", "0.5"])
        if code != 0:
            failed.append(f"perfbench {name} (exit {code})")
    return failed


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(line) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def report(tracer: LineTracer, files: list[Path]) -> None:
    total = unrun = dead_functions = 0
    for path in files:
        hits = tracer.hits[str(path)]
        for (def_line, name), stmts in sorted(function_statements(path).items()):
            missed = sorted(s.start for s in stmts if not hits.intersection(s))
            total += len(stmts)
            unrun += len(missed)
            if not missed:
                continue
            where = f"{path.relative_to(ROOT)}:{def_line} {name}"
            if len(missed) == len(stmts):
                dead_functions += 1
                print(f"{where}: never ran ({len(stmts)} statements)")
            else:
                print(f"{where}: {_ranges(missed)}")
    print(f"{unrun} of {total} statements in functions never ran; "
          f"{dead_functions} functions never ran")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    files = sorted(SRC.glob("*.py"))
    tracer = LineTracer(files)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, tracer.running():
        failed = run_cli(Path(tmp)) + run_workloads()
    report(tracer, files)
    print(f"traced in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
