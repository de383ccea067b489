"""No dead public API: every public module-level function or class of
`src/tclass`, every public method or property of a public class, and every
public annotated field of a public dataclass has a reference in `src/` or
`bench/` outside its own definition, or an entry in ALLOWED saying why
tests alone may call it.

References to module-level names are resolved per module: `C.mul` with
`from . import cuts as C` counts for `cuts.mul` only, `from .cuts import
Cut` for `cuts.Cut`, and a bare name for the module that defines it.
Methods, properties and fields are matched by name alone against the
attributes a file reads (`x.mul` counts for every method called `mul`),
since the type behind `x` is not known; assigning `x.f` does not read the
field `f`.
A reference made inside an allowlisted definition does not count: what
only a test-only name calls is test-only too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tclass"

ALLOWED = {
    "cuts.group_inv": "the group inverse, so that the group-axiom tests run a whole group",
    "cuts.is_subset": "containment of cuts, the order the box-oracle tests compare against",
    "groups.UndefinedQuotientError":
        "what `quotient_has_least_positive` raises for the zero quotient G/H_0",
    "groups.quotient_has_least_positive": "the discreteness criterion the density flags restate",
    "sampling.random_raw_cut": "non-canonical cut literals for the normalize tests",
    "pruefer.quotient":
        "the tuple residual, behind `show_principal` and the componentwise arithmetic tests",
    "pruefer.show_principal":
        "the principality certificate behind the trivial class group the reports state",
    "semigroups.ConstituentGroup.identity":
        "the idempotent's position in the group, which the group-axiom tests read",
}


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
        tree = ast.parse(path.read_text())
        out[path.stem] = {
            n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
        }
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _member_name(node, cls: ast.ClassDef):
    """The name a class-body statement defines as a method, property or
    (in a dataclass) annotated field, or None."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
            and _is_dataclass(cls):
        return node.target.id
    return None


def members() -> set:
    """module.Class.name for each public method, property and dataclass
    field of a public class."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                names = (_member_name(n, cls) for n in cls.body)
                out |= {f"{path.stem}.{cls.name}.{n}" for n in names
                        if n and not n.startswith("_")}
    return out


def source(path: Path) -> ast.Module:
    """The parsed file, without the allowlisted definitions."""
    tree = ast.parse(path.read_text())

    def kept(node, prefix):
        return f"{prefix}.{getattr(node, 'name', '')}" not in ALLOWED

    if path.parent == PACKAGE:
        tree.body = [n for n in tree.body if kept(n, path.stem)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                cls.body = [n for n in cls.body if kept(n, f"{path.stem}.{cls.name}")]
    return tree


def attributes(path: Path) -> set:
    """Attribute names a source file reads, skipping a method's references
    to its own name inside its own body."""
    names = set()

    def visit(node, own):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr != own:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            method = isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
            visit(child, child.name if method else own)

    visit(source(path), None)
    return names


def references(path: Path) -> set:
    """(module, name) pairs a source file refers to, skipping a module's
    references to a name inside that name's own top-level definition."""
    here = path.stem if path.parent == PACKAGE else None
    tree = source(path)
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _module_of(node)):
            for a in node.names:
                if mod == "tclass":
                    aliases[a.asname or a.name] = a.name
                else:
                    refs.add((_short(mod), a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("tclass.") and a.asname:
                    aliases[a.asname] = _short(a.name)

    def visit(node, inside):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
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


def unreferenced() -> set:
    refs, attrs = set(), set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        refs |= references(path)
        attrs |= attributes(path)
    return ({f"{mod}.{name}" for mod, names in definitions().items()
             for name in names if (mod, name) not in refs}
            | {m for m in members() if m.rsplit(".", 1)[1] not in attrs})


def test_every_public_name_has_a_caller_or_a_reason():
    missing = unreferenced() - set(ALLOWED)
    assert not missing, f"public names only tests call (delete them or allow them): {sorted(missing)}"


def test_allowlist_is_current():
    gone = set(ALLOWED) - defined()
    assert not gone, f"allowed names that no longer exist: {sorted(gone)}"
    stale = set(ALLOWED) - unreferenced()
    assert not stale, f"allowed names that now have a caller: {sorted(stale)}"
