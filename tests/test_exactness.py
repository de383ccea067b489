"""Exact arithmetic and deterministic reports, as properties of the tree.

No float enters `src/tclass`: it holds no float literal, no `float(...)`
call, no true division `/` and no use of a `math` function that returns a
float.  (A non-integral JSON number reaches the coordinate reader as its
text; `test_cli.py` checks that it reads as the same spelling quoted.)

No report depends on string hashing: `verify` and `decompose` on three
golden specs write the same `--json` bytes under two `PYTHONHASHSEED`s,
each hash seed one interpreter that runs all six commands.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import SPECS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tclass"

# The `math` functions that return an int on int or rational arguments.
INT_MATH = frozenset({"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm",
                      "prod", "trunc"})


def float_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) of each float literal, `float(...)` call, true division
    and float-returning `math` name in one module."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "math"}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            sites.append((node.lineno, f"{node.func.id}(...)"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "true division"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr not in INT_MATH):
            sites.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            sites += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in INT_MATH]
    return sites


def test_float_sites_are_seen():
    tree = ast.parse("import math as m\nfrom math import sqrt, gcd\n"
                     "x = 0.5 + float('1') + m.log(2) + m.gcd(4, 6) + 3 / 2\nx /= 2\n")
    assert sorted(what for _, what in float_sites(tree)) == [
        "float(...)", "literal 0.5", "math.log", "math.sqrt", "true division", "true division"]


def test_no_float_in_the_package():
    found = [f"{path.name}:{line}: {what}" for path in sorted(PACKAGE.glob("*.py"))
             for line, what in float_sites(ast.parse(path.read_text()))]
    assert found == []


DETERMINISM_SPECS = ["valuation:Q,Z,Z[1/2]", "pruefer:Z|Z,Z[1/3]|Q", "poly_ext:Z[1/3]"]
RUN_ALL = """\
import io, json, os, sys, tempfile
from contextlib import redirect_stdout
from tclass.cli import main
out = []
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "report.json")
    for spec in json.loads(sys.argv[1]):
        for argv in (["verify", spec, "--samples", "50", "--seed", "3"], ["decompose", spec]):
            with redirect_stdout(io.StringIO()):
                code = main(argv + ["--json", path])
            with open(path, encoding="utf-8") as fh:
                out.append([code, fh.read()])
print(json.dumps(out))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    specs = json.dumps([json.dumps(SPECS[name][0]) for name in DETERMINISM_SPECS])
    runs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", RUN_ALL, specs], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert [code for code, _ in runs[0]] == [0] * 6
    assert runs[0] == runs[1]
