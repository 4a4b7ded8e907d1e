"""The benchmark harness still runs against the package."""

import ast
import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selfcheck_passes():
    """`python3 bench/selfcheck.py` runs a tiny grid and one search cell
    through the benchmark's own code and exits 0 only if every check
    holds; it writes only under the ignored bench/out/.  A source change
    that breaks a name the benchmark uses fails here."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selfcheck passed")


def test_trace_plan_names_exist():
    """Every (module, name) that bench/run.py's TRACE_PLAN wraps resolves in
    the package, except the names the benchmark is due to retire, whose
    per-layer metrics read 0.  TRACE_PLAN is read with ast, so the harness
    is not imported.  A rename that silently zeroes a metric fails here."""
    with open(os.path.join(ROOT, "bench", "run.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    (plan,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACE_PLAN"]
    ]
    missing = set()
    for entry in plan.elts:
        module_name, qualname = (ast.literal_eval(e) for e in entry.elts[:2])
        owner = importlib.import_module(f"flagsieve.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{qualname}")
    assert missing == {
        "permgroup.subgroup_classes",
        "permgroup.conjugate_perm",
        "designsearch.set_stabilizer",
    }
