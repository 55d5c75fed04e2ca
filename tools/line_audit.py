#!/usr/bin/env python3
"""List the statements of src/cotraffic/ that a fixed set of runs never
executes.

Usage, from any directory:

    python3 tools/line_audit.py

The runs, TRAFFIC below, go in this process under `sys.settrace`, and
under `threading.settrace` in the threads they start: every CLI subcommand
and method at small budgets on the 1x1, 1x6 and 3x3 scenarios, then one pass
of each perfbench workload through perfbench/workloads.py, imported and not
edited, pool probe included. The package is imported under the trace, so
its module-level statements count too. Pool worker processes are not
traced: a statement that runs only in a worker counts as never run.

The audit prints `module:line: statement` for every statement of the package
that no traced frame executed, then the count. A statement is an executable
`ast` statement, shown by its first line; a compound statement counts by its
header, and docstrings do not count. Standard library only; a command that
exits non-zero or a workload operation that fails stops the audit.
"""
import ast
import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cotraffic"
GRID_3X3 = str(ROOT / "configs" / "grid3x3.cfg")
LEARNED = ("cotv", "cotv-star", "i-cotv", "m-cotv", "flowcav", "presslight")
CLASSICAL = ("baseline-static", "actuated", "max-pressure", "glosa")
SCENARIOS = {"1x1": ["--grid", "1x1"], "1x6": ["--grid", "1x6"],
             "3x3": ["--config", GRID_3X3]}
TRAIN = ["--iterations", "1", "--train-episodes", "1", "--horizon", "60"]

# ("cli", argv) runs `cotraffic.cli.main(argv)` with "{out}" replaced by a
# scratch directory; ("workload", name) runs one perfbench pass of `name`
TRAFFIC = [
    *(("cli", ["train", "--method", method, *TRAIN,
               "--out", f"{{out}}/train-{method}"]) for method in LEARNED),
    ("cli", ["train", "--method", "cotv", "--iterations", "2",
             "--train-episodes", "2", "--horizon", "60", "--workers", "2",
             "--penetration", "0.5", "--verbose", "--out", "{out}/pool"]),
    *(("cli", ["train", "--method", "cotv", *TRAIN, *SCENARIOS[grid],
               "--out", f"{{out}}/train-cotv-{grid}"]) for grid in ("1x6",
                                                                    "3x3")),
    *(("cli", ["baseline", "--method", method, *SCENARIOS[grid],
               "--episodes", "1", "--horizon", "120",
               "--out", f"{{out}}/{method}-{grid}"])
      for method in CLASSICAL for grid in SCENARIOS),
    ("cli", ["baseline", "--method", "actuated", "--penetration", "0.5",
             "--episodes", "2", "--horizon", "120",
             "--trace", "{out}/baseline-trace.csv", "--out", "{out}/mixed"]),
    *(("cli", ["evaluate", "--checkpoint-dir", f"{{out}}/train-{method}",
               "--episodes", "1", "--horizon", "120",
               "--out", f"{{out}}/eval-{method}"]) for method in LEARNED),
    *(("cli", ["evaluate", "--checkpoint-dir", f"{{out}}/train-cotv-{grid}",
               "--episodes", "1", "--horizon", "120",
               "--out", f"{{out}}/eval-cotv-{grid}"]) for grid in ("1x6",
                                                                  "3x3")),
    ("cli", ["evaluate", "--checkpoint-dir", "{out}/train-cotv",
             "--penetration", "0.5", "--episodes", "2", "--horizon", "120",
             "--trace", "{out}/eval-trace.csv", "--out", "{out}/eval-half"]),
    ("cli", ["sweep", "--checkpoint-dir", "{out}/train-cotv",
             "--rates", "0,0.5,1", "--episodes", "1", "--horizon", "120",
             "--out", "{out}/sweep"]),
    ("cli", ["report", "--baseline", "static={out}/baseline-static-1x1",
             "--run", "cotv={out}/eval-cotv", "--run",
             "max-pressure={out}/max-pressure-1x1", "--out", "{out}/report"]),
    ("workload", "train-1x1"),
    ("workload", "eval-1x6"),
    ("workload", "baseline-1x6"),
]
WORKLOAD_SEED = 1


class LineTrace:
    """`sys.settrace` hook that records the lines executed in `files`."""

    def __init__(self, files):
        self.hits = {str(path): set() for path in files}

    def __call__(self, frame, event, arg):
        if frame.f_code.co_filename in self.hits:
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line


def code_lines(code):
    """Every line that an instruction of `code` or of its nested code
    objects carries."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path):
    """(first line, own lines) of each executable statement in `path`.

    A simple statement owns all its lines; a compound one owns its header,
    decorators included, up to its body's first line."""
    source = path.read_text()
    tree = ast.parse(source)
    executable = code_lines(compile(source, str(path), "exec"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        if hasattr(node, "body"):
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", [])])
            own = range(first, max(node.lineno, node.body[0].lineno - 1) + 1)
        else:
            own = range(node.lineno, node.end_lineno + 1)
        if executable.intersection(own):
            out.append((node.lineno, own))
    return sorted(out, key=lambda s: s[0])


def run_traffic(traffic, out):
    """Run each entry of `traffic`; `out` is the scratch directory."""
    import cotraffic.cli

    for kind, what in traffic:
        if kind == "cli":
            argv = [arg.replace("{out}", out) for arg in what]
            code = cotraffic.cli.main(argv)
            if code != 0:
                raise SystemExit(f"error: cotraffic {' '.join(argv)} exited "
                                 f"{code}")
        else:
            import workloads

            rec = workloads.Recorder()
            workload = workloads.WORKLOADS[what](WORKLOAD_SEED)
            workload.setup(rec)
            workload.run_pass(rec)
            workload.pool(rec)
            if rec.failed:
                raise SystemExit(f"error: workload {what}: "
                                 f"{'; '.join(rec.failures)}")


def audit(traffic):
    """Run `traffic` under the line trace; returns the never-run statements
    as (module, line, text) and the number of statements."""
    files = sorted(PACKAGE.glob("*.py"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    trace = LineTrace(files)
    # threads cover the pool's feeder and result threads, which pickle the
    # tasks and unpickle the results in this process
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with (tempfile.TemporaryDirectory() as out,
              open(os.devnull, "w") as quiet,
              contextlib.redirect_stdout(quiet)):
            run_traffic(traffic, out)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    never, total = [], 0
    for path in files:
        lines = path.read_text().splitlines()
        hit = trace.hits[str(path)]
        for first, own in statements(path):
            total += 1
            if not hit.intersection(own):
                never.append((f"cotraffic.{path.stem}", first,
                              lines[first - 1].strip()))
    return never, total


def main():
    never, total = audit(TRAFFIC)
    for module, line, text in never:
        print(f"{module}:{line}: {text}")
    print(f"{len(never)} of {total} statements never ran")


if __name__ == "__main__":
    main()
