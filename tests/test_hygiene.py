"""Source hygiene: no module of the package imports a name it never uses,
no private module-level function goes unreferenced, the production path
does not reach the definitional oracles or list an open lattice, the
oracles do not lean on a production family, every name the traced
benchmark run wraps is bound, indented JSON has one writer, the command
line keeps no cache from one call to the next but its parser, only
`rudin_sets` builds a Rudin witness and only the theorem builders of
`families` a closed family without their checks, and no module takes
functools.cached_property's lock."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topolab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Module-level bindings made by import statements, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "FiniteSpace" or "Iterator[int]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def _references(tree: ast.AST) -> Counter:
    """Names read, attributes taken and names imported under `tree`."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_private_functions_are_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                # a function that only calls itself is still dead
                if refs[node.name] == _references(node)[node.name]:
                    unreferenced.append(f"{name}: {node.name} (line {node.lineno})")
    assert not unreferenced, f"private functions never referenced: {', '.join(unreferenced)}"


PRODUCTION_MODULES = ("core_space", "families", "hyperspaces", "reflections", "symbolic")
THEOREM_FUNCTIONS = ("predicates", "satisfies_category")  # in products_properties


def _imports_oracles(node: ast.AST) -> bool:
    """`node` holds an import statement that reaches the oracles module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            if (sub.module or "").split(".")[-1] == "oracles" or \
                    any(alias.name == "oracles" for alias in sub.names):
                return True
        elif isinstance(sub, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in sub.names):
                return True
    return False


def _oracle_bindings(tree: ast.Module) -> set[str]:
    """Module-level names bound to the oracles module or to its members."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports_oracles(node):
            names.update(alias.asname or alias.name.split(".")[-1] for alias in node.names)
    return names


@pytest.mark.parametrize("module", PRODUCTION_MODULES)
def test_production_modules_do_not_import_oracles(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert not _imports_oracles(tree), f"{module} imports the oracles module"


def test_oracles_take_only_the_category_tag_from_families():
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "families":
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the module itself, as `from . import families` or `import topolab.families`
            taken.update("families" for alias in node.names
                         if alias.name.split(".")[-1] == "families")
    assert taken <= {"CategoryTag"}, f"oracles takes {sorted(taken)} from families"


@pytest.mark.parametrize("function", THEOREM_FUNCTIONS)
def test_theorem_functions_do_not_use_oracles(function):
    tree = ast.parse((PACKAGE / "products_properties.py").read_text(encoding="utf-8"))
    oracle_names = _oracle_bindings(tree)
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    used = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    assert not _imports_oracles(body), f"{function} imports the oracles module"
    assert not used & oracle_names, f"{function} uses {sorted(used & oracle_names)}"


LATTICE_FREE_MODULES = PRODUCTION_MODULES + ("products_properties",)
LATTICE_READERS = {("core_space", "opens"), ("core_space", "closed_sets"),
                   ("hyperspaces", "smyth_power")}  # (module, enclosing function)


def _lattice_reads(tree: ast.Module) -> list[tuple[str | None, int]]:
    """Each read of an `.opens` or `.closed_sets` attribute, with the name of
    the innermost function around it and its line."""
    out = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("opens", "closed_sets"):
                out.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return out


@pytest.mark.parametrize("module", LATTICE_FREE_MODULES)
def test_production_modules_read_no_open_lattice(module):
    """Only the lattice views themselves and the Smyth power space, whose
    points are the opens, list a lattice; the rest works on the order rows."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    reads = [f"{function} (line {line})" for function, line in _lattice_reads(tree)
             if (module, function) not in LATTICE_READERS]
    assert not reads, f"{module} reads an open or closed lattice in {', '.join(reads)}"


def _exports() -> dict[str, str]:
    """Each name `topolab/__init__` imports from a package module, with that
    module's name."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _shown_by_exports(exports: dict[str, str]) -> set[str]:
    """Names in the return annotation of an exported function or among the
    bases of an exported class: a result type or an error base is kept for
    the export that shows it."""
    shown = set()
    for module in set(exports.values()):
        for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in exports and node.returns:
                shown |= _used_names(node.returns)
            elif isinstance(node, ast.ClassDef) and node.name in exports:
                for base in node.bases:
                    shown |= _used_names(base)
    return shown


def test_exports_are_referenced_outside_their_module():
    """A public name is kept for a caller: another module of the package, a
    test, or an export that returns or subclasses it.  Its own module and
    the re-export do not count."""
    tests = Path(__file__).resolve().parent
    refs = {p.name: _references(ast.parse(p.read_text(encoding="utf-8")))
            for p in sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py"))
            if p.name != "__init__.py"}
    exports = _exports()
    shown = _shown_by_exports(exports)
    unused = [f"{name} (from {module})" for name, module in exports.items()
              if name not in shown
              and not any(counts[name] for file, counts in refs.items() if file != f"{module}.py")]
    assert not unused, f"exported but referenced nowhere else: {', '.join(unused)}"


def test_benchmark_trace_names_are_bound():
    """Each (module, name) that the traced benchmark run wraps resolves in
    its topolab module, so a rename cannot leave that run to die with an
    AttributeError in `Tracer.install`."""
    path = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wanted = [(module, name) for module, name, _ in tracing.SPANS]
    wanted.append(tracing.CONSTRUCTOR[:2])
    unbound = [f"{module}.{name}" for module, name in wanted
               if not hasattr(importlib.import_module(f"topolab.{module}"), name)]
    assert not unbound, f"perfbench/tracing.py wraps unbound names: {', '.join(unbound)}"


def _indented_dumps(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
            and any(k.arg == "indent" for k in node.keywords)]


def _keywords(call: ast.Call) -> dict:
    return {k.arg: ast.literal_eval(k.value) for k in call.keywords}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    """Indented JSON has one writer: `cli_io._dump_json` calls json.dumps
    with the arguments that README gives for the `--json` text, and no
    other code of the package calls it with `indent=`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writer = [call for node in tree.body if path.name == "cli_io.py"
              and isinstance(node, ast.FunctionDef) and node.name == "_dump_json"
              for call in _indented_dumps(node)]
    stray = [call.lineno for call in _indented_dumps(tree) if call not in writer]
    assert not stray, f"{path.name} calls json.dumps with indent= on lines {stray}"
    if path.name == "cli_io.py":
        readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
        documented = re.search(r"`(json\.dumps\(doc,[^`]*\))`", readme).group(1)
        (call,) = writer
        assert _keywords(call) == _keywords(ast.parse(" ".join(documented.split())).body[0].value)


def test_cli_io_caches_nothing_across_calls_but_its_parser():
    """One process may run the command line on many documents, as the
    in-process query benchmark does: a module-level functools cache in
    cli_io would carry work from one call into the next.  The parser, which
    no document changes, is the one thing it keeps."""
    tree = ast.parse((PACKAGE / "cli_io.py").read_text(encoding="utf-8"))
    uses = [node.lineno for node in ast.walk(tree)
            if getattr(node, "id", getattr(node, "attr", None)) in ("cache", "lru_cache")]
    parser = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "build_parser")
    assert uses == [d.lineno for d in parser.decorator_list], \
        f"cli_io uses functools caches on lines {uses}"


def _attribute_users(attr: str) -> list[str]:
    """`file:function` for each place in the package, the tests and the
    benchmark that takes the attribute `attr`, in file and source order."""
    tests = Path(__file__).resolve().parent
    files = sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py")) + \
        sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))
    users = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.partition(':')[0]}:{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                users.append(where)
            visit(child, where)

    for path in files:
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.name}:<module>")
    return users


def test_only_rudin_sets_builds_unchecked_witnesses():
    """`RudinWitness._of_point` skips the witness checks, which hold for the
    witnesses `rudin_sets` reads off the order by theorem; a witness from
    any other caller goes through `RudinWitness(...)` and is validated."""
    users = _attribute_users("_of_point")
    assert users == ["families.py:rudin_sets"], f"unchecked witnesses built in {users}"


def test_only_the_theorem_builders_build_unchecked_families():
    """`ClosedFamily._of_point_closures` hands out the space's point
    closures unchecked, which is the theorem of the five builders in
    `families` (each of their families is S_c on a finite T0 space); a
    family from any other caller goes through `ClosedFamily(...)` and is
    validated."""
    users = _attribute_users("_of_point_closures")
    assert users == [f"families.py:{name}" for name in (
        "point_closures", "directed_closures", "irreducible_closed", "rudin_sets",
        "k_family")], f"unchecked families built in {users}"


def test_no_module_uses_functools_cached_property():
    """Lazy views are `core_space.lazy`: functools.cached_property takes a
    class-wide lock at each first read on Python 3.10 and 3.11, a cost that
    every query pays on each view it builds."""
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = node.names if isinstance(node, ast.ImportFrom) else []
            if any(alias.name == "cached_property" for alias in named) or \
                    getattr(node, "attr", None) == "cached_property":
                users.append(f"{path.name}:{node.lineno}")
    assert not users, f"functools.cached_property used at {users}"
