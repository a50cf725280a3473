"""Every demo runs to completion as a script, with the stdout that
PINNED_STDOUT holds, and every name the package exports is reached by its
own code, a demo or the benchmark."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
PACKAGE = ROOT / "src" / "soficlab"
# stdout of the demos whose output is pinned, byte for byte
PINNED_STDOUT = {
    "01_projective_group_basics": (
        'q = 5: enumerated 60 elements, formula gives q(q^2-1)/2 = 60\n'
        'q = 7: enumerated 168 elements, formula gives q(q^2-1)/2 = 168\n'
        'q = 11: enumerated 660 elements, formula gives q(q^2-1)/2 = 660\n'
        'q = 13: enumerated 1092 elements, formula gives q(q^2-1)/2 = 1092\n'
        '\n'
        'shear orbit of 0: 0 1 2 3 4 5 6 0 \n'
        'flip sends infinity to 0\n'
        '\n'
        'centralizer fractions at q = 7:\n'
        '  identity: 1\n'
        '  shear:    1/24\n'
        '  q=5: worst nontrivial fraction 1/12 <= 1/(2(q-1)) = 1/8: True\n'
        '  q=7: worst nontrivial fraction 1/21 <= 1/(2(q-1)) = 1/12: True\n'
        '  q=11: worst nontrivial fraction 1/55 <= 1/(2(q-1)) = 1/20: True\n'
        '  q=13: worst nontrivial fraction 1/84 <= 1/(2(q-1)) = 1/24: True\n'
    ),
    "04_permutation_model": (
        'domain size 367416, mode exact\n'
        'fixed fraction of the t image: 593/729 (= 0.8134, at least 1/3)\n'
        'worst defect over 20 t-free word pairs: 0\n'
        '\n'
        'commutators of t with the right generators:\n'
        '  against b1: defect 0 = 0.0000\n'
        '  against b2: defect 0 = 0.0000\n'
        '  against b3: defect 1075/5103 = 0.2107\n'
        '\n'
        'four-condition report:\n'
        '  (1) max t-free defect: 0\n'
        '  (2) t fixed fraction:  593/729\n'
        '  (3) witness word: b3 with defect 1075/5103\n'
        '  (4) min slice displacement: 272/729 >= 1/243: True\n'
    ),
    "05_product_model": (
        'product domain size: 242,494,560\n'
        'fixed-point budget 1/(2(r-1)) = 1/20\n'
        '\n'
        'fixed fractions of sampled evaluations (left word nontrivial):\n'
        '  (a1, b1^-1 b2): 0 = 0.00e+00\n'
        '  (a1 a4^-1 t^-1 t^-1 t^-1, e): 0 = 0.00e+00\n'
        '  (a3^-1, b2^-1 b3): 0 = 0.00e+00\n'
        '  (a2 a2 a2 t^-1 a4^-1, b3^-1 b2^-1): 0 = 0.00e+00\n'
        '  (a4^-1 t, b2^-1 b3^-1 b3^-1): 0 = 0.00e+00\n'
        '  (a3^-1 a4 a3 t^-1, b2^-1 b3^-1 b2): 0 = 0.00e+00\n'
        '\n'
        'right translations displace every point:\n'
        '  (e, b1): distance from identity = 1\n'
        '  (e, b2): distance from identity = 1\n'
        '  (e, b3): distance from identity = 1\n'
        '\n'
        'commutator defect of (t, e) against (e, b3): 1075/5103 (the second factor contributes none of it)\n'
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if demo.stem in PINNED_STDOUT:
        assert done.stdout == PINNED_STDOUT[demo.stem]


# public names that no workflow reaches, each kept by decision: read_perm
# is the reader of the .sprm files that build writes
UNREACHED = {"perms.read_perm"}


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield first.value


def _references(path):
    """The names a file reads or imports, and the dotted parts of its string
    constants other than docstrings (the benchmark's tracer names its
    targets in strings); the name a def or class statement binds is not
    among them."""
    tree = ast.parse(path.read_text())
    docstrings = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            yield from node.value.split(".")


def test_every_export_is_reached_outside_the_tests():
    # every name the package exports and every public module-level function
    # and class is read by the package, a demo or the benchmark; test
    # oracles live in tests/, not in the package
    init = PACKAGE / "__init__.py"
    exported = [alias.asname or alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    defined = {f"{path.stem}.{node.name}": node.name
               for path in PACKAGE.glob("*.py") for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    files = [f for f in (*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                         *(ROOT / "perfbench").glob("*.py")) if f != init]
    used = {name for f in files for name in _references(f)}
    assert [name for name in exported if name not in used] == []
    assert sorted(key for key, name in defined.items() if name not in used) \
        == sorted(UNREACHED)
