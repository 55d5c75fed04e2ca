"""The package holds only code that production uses, loads only what a run
uses, and every module reads what it imports."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def perfbench_source():
    return "\n".join(p.read_text()
                     for p in sorted((ROOT / "perfbench").glob("*.py")))


def names_a_perfbench_source(name, bench):
    return re.search(rf"\b{re.escape(name)}\b", bench) is not None


def test_every_src_definition_has_a_production_use():
    """Every function, method and class defined in `src/cotraffic/` is
    referenced by name in `src/` code (a `Name`, an `Attribute` or an import
    alias), is named as a word in a `perfbench/` source (the tracer and the
    workloads name layers by string), or is a dunder. This is a name-level
    fence: a name defined twice, or shared with an attribute of another
    object, counts as used through either. Reference forms that only tests
    call live in tests/reference.py."""
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "cotraffic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    bench = perfbench_source()
    unused = [f"{module}:{name}" for module, name in defined
              if name not in used
              and not names_a_perfbench_source(name, bench)
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"no production use: {', '.join(unused)}"


def test_every_import_is_read():
    """Every name an `import` binds in `src/cotraffic/`, `tests/` or
    `tools/` is read somewhere in its module, is listed in the module's
    `__all__`, or, under `src/`, is named as a word in a `perfbench/`
    source (the tracer wraps `build_sim`, `idm_accel` and `step` in
    `baselines`' namespace)."""
    bench = perfbench_source()
    unread = []
    for folder in ("src/cotraffic", "tests", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            bound, read, exported = [], set(), set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    bound += [a.asname or a.name.split(".")[0]
                              for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    bound += [a.asname or a.name for a in node.names
                              if a.name != "*"]
                elif (isinstance(node, ast.Name)
                      and not isinstance(node.ctx, ast.Store)):
                    read.add(node.id)
                elif (isinstance(node, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "__all__"
                              for t in node.targets)):
                    exported.update(ast.literal_eval(node.value))
            unread += [f"{folder}/{path.name}:{name}" for name in bound
                       if name not in read and name not in exported
                       and not (folder.startswith("src")
                                and names_a_perfbench_source(name, bench))]
    assert not unread, f"imported but never read: {', '.join(unread)}"


SERIAL_RUN = """
import sys
import cotraffic.cli
from cotraffic.env import CooperationMode, EnvConfig, cav_obs_dim, tl_obs_dim
from cotraffic.network import grid_scenario
from cotraffic.policy import init_params
from cotraffic.rollout import collect_episodes

cotv = EnvConfig(CooperationMode.COTV)
scen = grid_scenario("1x1", penetration=1.0, seed=3)
tl = init_params("tl", tl_obs_dim(scen.network, cotv.mode), seed=1)
cav = init_params("cav", cav_obs_dim(cotv.mode), seed=1)
results = collect_episodes(scen, cotv, tl, cav, [1, 2], 30, workers=1)
assert len(results) == 2
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_serial_run_does_not_load_the_process_pool():
    # only collect_episodes' workers > 1 branch imports the pool, so a
    # serial process never pays its import time or resident memory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SERIAL_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
