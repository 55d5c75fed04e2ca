"""tools/line_audit.py: the package statements that a set of runs never
executes."""
import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cotraffic"
LEDGER = ROOT / "tools" / "line_audit.txt"

# the audit in a fresh interpreter, so that the package is imported under
# the trace, with its traffic cut to one short baseline episode
SHORT_AUDIT = """
import sys
sys.path.insert(0, sys.argv[1])
import line_audit
line_audit.TRAFFIC = [("cli", ["baseline", "--method", "baseline-static",
                               "--episodes", "1", "--horizon", "30",
                               "--out", "{out}/baseline"])]
line_audit.main()
"""


def function_body(path, name):
    """The statements of module-level function `name` in `path`, its
    docstring left out."""
    fn = next(node for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return fn.body[1:] if ast.get_docstring(fn) is not None else fn.body


def test_line_audit_lists_what_the_traffic_never_runs():
    proc = subprocess.run([sys.executable, "-c", SHORT_AUDIT,
                           str(ROOT / "tools")], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *listed, summary = proc.stdout.splitlines()
    count = re.fullmatch(r"(\d+) of (\d+) statements never ran", summary)
    assert count and int(count[1]) == len(listed) < int(count[2])
    assert all(re.match(r"cotraffic\.\w+:\d+: \S", line) for line in listed)
    # no run reads the paper profile; every episode steps the simulator
    (paper_return,) = function_body(PACKAGE / "ppo.py", "paper_profile")
    step_first = function_body(PACKAGE / "simulation.py", "step")[0]
    assert f"cotraffic.ppo:{paper_return.lineno}: return PpoConfig()" in listed
    assert not [line for line in listed if line.startswith(
        f"cotraffic.simulation:{step_first.lineno}:")]


def test_ledger_names_the_statements_at_its_lines():
    """tools/line_audit.txt is the audit's committed output; a `src/` edit
    that moves or removes a statement it lists must rerun the audit."""
    *listed, summary = LEDGER.read_text().splitlines()
    count = re.fullmatch(r"(\d+) of (\d+) statements never ran", summary)
    assert count and int(count[1]) == len(listed)
    modules = {}
    for line in listed:
        module, lineno, text = re.fullmatch(
            r"cotraffic\.(\w+):(\d+): (.+)", line).groups()
        if module not in modules:
            source = (PACKAGE / f"{module}.py").read_text()
            modules[module] = (source.splitlines(), {
                node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.stmt)})
        lines, first_lines = modules[module]
        assert int(lineno) in first_lines, line
        assert lines[int(lineno) - 1].strip() == text, line
