"""No dead public API: every public module-level function or class of
`src/tclass`, every public method or property of a public class, and every
public annotated field of a public dataclass or `NamedTuple` (or of a
private one of its module that it subclasses) has a reference in `src/`
or `bench/` outside its own definition: a name only tests call is deleted.

References to module-level names are resolved per module: `C.mul` with
`from . import cuts as C` counts for `cuts.mul` only, `from .cuts import
Cut` for `cuts.Cut`, and a bare name for the module that defines it.
Methods, properties and fields are matched by name alone against the
attributes a file reads (`x.mul` counts for every method called `mul`),
since the type behind `x` is not known; assigning `x.f` does not read the
field `f`, and reading `C.mul` through a module alias is a reference to
`cuts.mul`, not to a method.

Each file is read and parsed once per session, and its references once.

No hidden benchmark-only API: every public name that `bench/` references
and `src/` does not is listed in BENCH_ONLY with its call site and why no
command calls it, so a change that drops the benchmark's caller drops the
name with it.

A method name that two or more public classes define is a duck-typed
protocol: a read of `x.mul` counts for every class's `mul`, so one
class's method could go unused unseen.  PROTOCOL lists each such name
with the function in `semigroups` or `checks` that calls it on whichever
class it is handed; a shared name missing from it, or an entry no longer
shared or no longer read there, fails.

No drawing below `verify`: the kernel, the models and the Cayley-table
oracle (`MODEL_LAYERS`) import neither `random` nor `tclass.sampling`; the
seeded draws are the checks' own, in `checks`, the one module besides the
box oracle that imports `tclass.sampling`.

No one-valued parameter: every defaulted parameter of a public function or
method (a class's `__init__` included) is passed by some call in `src/` or
`bench/`, or has an entry in ONE_VALUED saying why not.  A parameter that
no call sets is a constant.

The size of `src/tclass` in lines and `ast` nodes (node count does not
change with formatting) is recorded, not gated; to print it per module
and in total: `PYTHONPATH=src python tests/test_api_surface.py`.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tclass"

BOX_ORACLE = "the box oracle runs under no command; ROADMAP F puts it in `verify`"
BENCH_ONLY = {
    "boxes.check_mul": f"`bench/workloads.py` `_box_check`: {BOX_ORACLE}",
    "boxes.check_quotient": f"`bench/workloads.py` `_box_check`: {BOX_ORACLE}",
    "boxes.check_same_set": f"`bench/workloads.py` `_same_set`: {BOX_ORACLE}",
    "cuts.ValuationClassModel":
        "`bench/workloads.py` `_closure`: the one-component `pruefer.PrueferClassModel` "
        "does the same (pinned in `test_semigroups.py`) and replaces it at that call site",
    "semigroups.CrossCheckReport.passed":
        "`bench/workloads.py` `_closure`: the benchmark reports the verdict, commands "
        "report the `mismatches` it is computed from",
}

ONE_VALUED = {
    "cli.main.argv": "the console script calls `main()` with none; tests pass argument lists",
}

# Shared method name -> the function that calls it on the class it is handed
# (today the two class adapters, `cuts.ValuationClassModel` and
# `pruefer.PrueferClassModel`).
PROTOCOL = {
    "class_of": "checks.semigroup_cross_check",
    "row": "semigroups.sample_closure",
    "idempotent_of": "semigroups.cross_check",
    "describe": "semigroups.cross_check",
}


@functools.cache
def parsed(path: Path) -> ast.Module:
    """The file's syntax tree, read once; callers must not change it."""
    return ast.parse(path.read_text())


def _module_of(node: ast.ImportFrom):
    """The tclass module an import reads from, or None for anything else."""
    if node.level:
        return node.module or "tclass"
    if node.module == "tclass" or (node.module or "").startswith("tclass."):
        return node.module
    return None


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def definitions() -> dict:
    """module -> public module-level function and class names."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parsed(path)
        out[path.stem] = {
            n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
        }
    return out


def _has_fields(cls: ast.ClassDef) -> bool:
    """A dataclass or a `NamedTuple`: its annotated names are fields."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list) \
        or any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in cls.bases)


def _member_name(node, cls: ast.ClassDef):
    """The name a class-body statement defines as a method, property or
    (in a dataclass or `NamedTuple`) annotated field, or None."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
            and _has_fields(cls):
        return node.target.id
    return None


def members() -> set:
    """module.Class.name for each public method, property and dataclass or
    `NamedTuple` field of a public class, those it takes from a private
    base of its module included (`cuts.Cut`'s fields are `_CutFields`')."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        body = parsed(path).body
        private = {n.name: n for n in body
                   if isinstance(n, ast.ClassDef) and n.name.startswith("_")}
        for cls in body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                bases = (private[b.id] for b in cls.bases if getattr(b, "id", None) in private)
                own = [cls, *bases]
                names = (_member_name(n, c) for c in own for n in c.body)
                out |= {f"{path.stem}.{cls.name}.{n}" for n in names
                        if n and not n.startswith("_")}
    return out


def aliases(tree: ast.Module) -> dict:
    """name -> tclass name for each name a file imports from the package
    itself (`from tclass import cuts as C`) or binds to one of its modules
    (`import tclass.cuts as C`)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_of(node) == "tclass":
            out.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.asname, _short(a.name)) for a in node.names
                       if a.name.startswith("tclass.") and a.asname)
    return out


@functools.cache
def attributes(path: Path) -> set:
    """Attribute names a source file reads, skipping a method's references
    to its own name inside its own body and reads through a module alias,
    which `references` resolves per module."""
    tree = parsed(path)
    modules = {name for name, mod in aliases(tree).items() if (PACKAGE / f"{mod}.py").exists()}
    names = set()

    def visit(node, own):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr != own \
                and not (isinstance(node.value, ast.Name) and node.value.id in modules):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            method = isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
            visit(child, child.name if method else own)

    visit(tree, None)
    return names


@functools.cache
def references(path: Path) -> set:
    """(module, name) pairs a source file refers to, skipping a module's
    references to a name inside that name's own top-level definition."""
    here = path.stem if path.parent == PACKAGE else None
    tree = parsed(path)
    names, refs = aliases(tree), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _module_of(node)) not in (None, "tclass"):
            refs.update((_short(mod), a.name) for a in node.names)

    def visit(node, inside):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in names:
                refs.add((names[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and here and node.id != inside:
            refs.add((here, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        visit(top, own)
    return refs


def defined() -> set:
    return {f"{mod}.{name}" for mod, names in definitions().items() for name in names} | members()


def callers() -> list:
    """The files whose references count: the package and the benchmark."""
    return [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]


def unreferenced(files=None) -> set:
    """The public names that `files` (by default `callers()`) never refer to."""
    refs, attrs = set(), set()
    for path in callers() if files is None else files:
        refs |= references(path)
        attrs |= attributes(path)
    return ({f"{mod}.{name}" for mod, names in definitions().items()
             for name in names if (mod, name) not in refs}
            | {m for m in members() if m.rsplit(".", 1)[1] not in attrs})


def test_every_public_name_has_a_caller():
    missing = unreferenced()
    assert not missing, f"public names only tests call (delete them): {sorted(missing)}"


def bench_only() -> set:
    """The public names that only `bench/` refers to."""
    return unreferenced(PACKAGE.glob("*.py")) - unreferenced()


def test_every_bench_only_name_has_a_reason():
    missing = bench_only() - set(BENCH_ONLY)
    assert not missing, f"public names only the benchmark calls (list them): {sorted(missing)}"


def test_bench_only_table_is_current():
    gone = set(BENCH_ONLY) - defined()
    assert not gone, f"bench-only names that no longer exist: {sorted(gone)}"
    stale = set(BENCH_ONLY) - bench_only()
    assert not stale, f"bench-only names that `src/` now calls or nothing calls: {sorted(stale)}"


def test_a_module_function_read_hides_no_method(tmp_path):
    # `C.normalize` names `cuts.normalize`; a method called `normalize`
    # that nothing reads as an attribute stays unreferenced.
    path = tmp_path / "caller.py"
    path.write_text("from tclass import cuts as C\nC.normalize(g, a)\nx.mul(y)\n")
    assert ("cuts", "normalize") in references(path)
    assert attributes(path) == {"mul"}


def test_named_tuple_fields_are_members():
    # A `NamedTuple`'s annotated names are fields, as a dataclass's are; a
    # plain class's annotations are not.
    named, plain = ast.parse("class K(NamedTuple):\n    f: int\nclass P:\n    f: int\n").body
    assert _member_name(named.body[0], named) == "f"
    assert _member_name(plain.body[0], plain) is None
    assert {"cuts.CutClass.n", "cuts.CutClass.d", "checks.Check.label"} <= members()


def test_fields_of_a_private_named_tuple_base_are_members():
    # `cuts.Cut` subclasses a private `NamedTuple` to run its guards in
    # `__new__`; its fields stay under the dead-field rule.
    assert {"cuts.Cut.level", "cuts.Cut.boundary", "cuts.Cut.side"} <= members()
    assert not any(m.startswith("cuts._CutFields.") for m in members())


def shared_methods() -> set:
    """The public method names that two or more public classes define."""
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in parsed(path).body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        owners.setdefault(fn.name, set()).add(f"{path.stem}.{cls.name}")
    return {name for name, classes in owners.items() if len(classes) > 1}


def test_every_shared_method_name_is_listed():
    missing = shared_methods() - set(PROTOCOL)
    assert not missing, f"method names two classes define (list their call site): {sorted(missing)}"


def test_protocol_table_is_current():
    stale = set(PROTOCOL) - shared_methods()
    assert not stale, f"PROTOCOL names that one class or none defines now: {sorted(stale)}"
    for name, site in PROTOCOL.items():
        module, function = site.split(".")
        fn, = (n for n in parsed(PACKAGE / f"{module}.py").body
               if isinstance(n, ast.FunctionDef) and n.name == function)
        reads = {n.attr for n in ast.walk(fn)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        assert name in reads, f"{site} no longer reads `.{name}`"


def defaulted() -> dict:
    """module.function.param -> (callee name, position after the required
    and bound arguments) for each defaulted parameter of a public function,
    and of a public method or `__init__` of a public class (called by the
    class name)."""
    out = {}

    def add(prefix, fn, callee, bound):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for pos, arg in enumerate(positional[first:], first):
            out[f"{prefix}.{arg.arg}"] = (callee, pos - bound)
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out[f"{prefix}.{arg.arg}"] = (callee, None)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in parsed(path).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                add(f"{path.stem}.{node.name}", node, node.name, 0)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and \
                            (fn.name == "__init__" or not fn.name.startswith("_")):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list)
                        callee = node.name if fn.name == "__init__" else fn.name
                        add(f"{path.stem}.{node.name}.{fn.name}", fn, callee, 0 if static else 1)
    return out


def passed() -> set:
    """(callee name, keyword or position) for every argument some call in
    `src/` or `bench/` passes; a `*args` or `**kwargs` at a call passes
    everything."""
    out = set()
    for path in callers():
        for call in ast.walk(parsed(path)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                out.add((name, "*"))
            out.update((name, pos) for pos in range(len(call.args)))
            out.update((name, k.arg) for k in call.keywords)
    return out


def one_valued() -> set:
    calls = passed()
    return {qual for qual, (callee, pos) in defaulted().items()
            if not {(callee, "*"), (callee, qual.rsplit(".", 1)[1]), (callee, pos)} & calls}


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    missing = one_valued() - set(ONE_VALUED)
    assert not missing, f"defaulted parameters no call sets (make them constants): {sorted(missing)}"


def test_one_valued_table_is_current():
    stale = set(ONE_VALUED) - one_valued()
    assert not stale, f"ONE_VALUED entries that a call now sets or that are gone: {sorted(stale)}"


MODEL_LAYERS = ("groups", "cuts", "pruefer", "polyext", "semigroups")
DRAWING = {"random", "tclass.sampling"}


def imported(path: Path) -> set:
    """The modules a file imports, the package's own as `tclass.<name>`
    whether named relatively (`from .sampling import x`, `from . import
    sampling`) or absolutely."""
    out = set()
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = _module_of(node)
            if mod is None:
                out.add(node.module)
            elif mod == "tclass":
                out.update(f"tclass.{a.name}" for a in node.names)
            else:
                out.add(f"tclass.{_short(mod)}")
    return out


def test_the_model_layers_draw_nothing():
    drawing = {name: imported(PACKAGE / f"{name}.py") & DRAWING for name in MODEL_LAYERS}
    assert not any(drawing.values()), f"model layers that draw: {drawing}"


def test_only_the_checks_draw_for_a_command():
    # `boxes` reuses `sampling._below` for its seeded check points; every
    # other draw is `checks`', so `cli` imports neither.
    drawing = {p.stem: imported(p) & DRAWING for p in PACKAGE.glob("*.py")}
    assert {name for name, mods in drawing.items() if "tclass.sampling" in mods} == {
        "boxes", "checks"}
    assert not drawing["cli"]


def test_the_import_reader_sees_every_form(tmp_path):
    path = tmp_path / "caller.py"
    path.write_text("import random\nfrom . import sampling as S\nfrom .sampling import x\n"
                    "from tclass.sampling import y\nfrom random import Random\n")
    assert imported(path) == DRAWING
    assert imported(PACKAGE / "checks.py") >= DRAWING


def size() -> dict:
    """module -> (lines, `ast` nodes) for each module of `src/tclass`."""
    return {path.stem: (len(path.read_text().splitlines()), sum(1 for _ in ast.walk(parsed(path))))
            for path in sorted(PACKAGE.glob("*.py"))}


if __name__ == "__main__":
    sizes = size()
    for module, (lines, nodes) in sizes.items():
        print(f"{module:12} {lines:5} lines {nodes:6} nodes")
    print(f"{'total':12} {sum(l for l, _ in sizes.values()):5} lines "
          f"{sum(n for _, n in sizes.values()):6} nodes")
