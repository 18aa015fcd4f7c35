"""The package spreads its work over threads in one place.

``qutrit.fan_out`` is the only code that spreads computation over the cores,
and ``harness.run_trial`` runs the lab on a thread of its own (the
pipeline); no other code builds an executor.  Every thread's scratch arrays
come from the one ``threading.local`` of ``qutrit.thread_buffer``.  Only
the survival cache and the lab's truth call the simulator, so design and
update share every simulated entry, and only the survival kernel's
propagators call ``expm``, with the norm bounds their coefficients give.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nvbed"


def calls(name: str) -> list:
    """``module.definition`` (the innermost enclosing function or class, or
    the module alone) of every call in the package of a callee named
    ``name``, bare or as an attribute of whatever it is reached through."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.append(where)
            visit(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_executors_are_built_only_by_the_fan_out_and_the_lab_pipeline():
    assert sorted(calls("ThreadPoolExecutor")) == [
        "harness.run_trial",
        "qutrit.fan_out",
    ]


def test_one_thread_local_holds_every_scratch_buffer():
    assert calls("local") == ["qutrit"]


def test_only_the_cache_and_the_lab_simulate():
    assert sorted(calls("survival_table")) == [
        "heuristics.SurvivalTableCache._fill",
        "qutrit.survival_probability",
    ]
    assert calls("survival_probability") == ["lab.TrueSystem.execute"]


def test_only_the_kernel_propagators_exponentiate():
    assert calls("expm") == ["qutrit._propagators"]
