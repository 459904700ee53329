"""Import checks: every module uses each name it imports, every name is
imported from the module that defines it, every public name has a caller
outside the tests, every record field is read and every default, of a
parameter or a field, is set outside the tests, only corpus frames CSV
and opens output files, and no package module needs scipy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("import os\nfrom csv import reader as r, writer\nwriter\n") == ["os", "r"]
    modules = [path for folder in ("src/reportsignal", "tests") for path in sorted((ROOT / folder).glob("*.py"))]
    assert modules
    unused = {
        path.relative_to(ROOT).as_posix(): names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment;
    a name it only imports is not among them."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = (n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
            names.update(n.id for n in stored if isinstance(n.ctx, ast.Store))
    return names


def imported_from(path: Path, node: ast.ImportFrom) -> Path | None:
    """The source file that ``from ... import`` in ``path`` reads, when it
    is a module of the package or of the tests."""
    parts = node.module.split(".") if node.module else []
    if node.level:
        folder = path.parents[node.level - 1]
    elif parts[0] in ("reportsignal", "tests"):
        folder = ROOT / "src" if parts[0] == "reportsignal" else ROOT
    else:
        return None
    target = folder.joinpath(*parts)
    return target / "__init__.py" if target.is_dir() else target.with_suffix(".py")


def test_every_name_is_imported_from_the_module_that_defines_it():
    """A name has one import path: ``from m import x`` names an ``x`` that
    ``m`` defines, or a submodule of package ``m``, never a name ``m`` only
    imports from elsewhere."""
    sample = "import os\nfrom m import y\nA = B = 1\nC: int\nx, (z, w) = f()\nd[k] = 1\ndef g(): h = 1\n"
    assert defined_names(ast.parse(sample + "class E: F = 1\n")) == {"A", "B", "C", "x", "z", "w", "g", "E"}
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src/reportsignal", "tests", "bench")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    defined = {path: defined_names(tree) for path, tree in trees.items()}
    assert defined[ROOT / "src" / "reportsignal" / "__init__.py"] == {"__version__"}
    indirect = [
        f"{path.relative_to(ROOT).as_posix()}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (module := imported_from(path, node))
        for alias in node.names
        if alias.name not in defined[module]
        and not (module.name == "__init__.py" and module.with_name(f"{alias.name}.py") in trees)
    ]
    assert indirect == []


def public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes of a module, and the public
    methods of its classes (as ``Class.method``)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, defs[:2]) and not item.name.startswith("_")
            ]
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads, attribute it takes, name it imports, and
    string constant it holds (a name looked up with getattr)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.asname or node.name, node.name.split(".")[-1]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def package_and_benchmark_trees() -> tuple[list[Path], dict[Path, ast.Module]]:
    """The package's modules, and the parsed trees of those and of the
    benchmark modules that are not its tests."""
    package = sorted((ROOT / "src" / "reportsignal").glob("*.py"))
    bench = [path for path in sorted((ROOT / "bench").glob("*.py")) if not path.name.startswith("test_")]
    return package, {path: ast.parse(path.read_text(encoding="utf-8")) for path in package + bench}


def test_every_public_name_has_a_caller_outside_tests():
    """Each public function, class and method of the package is named by
    some package or benchmark module; a name only tests use is dead API."""
    sample = ast.parse("class A:\n    def f(self): pass\n    def _g(self): pass\ndef h(): pass\ndef _k(): pass\n")
    assert public_definitions(sample) == ["A", "A.f", "h"]
    assert referenced_names(ast.parse("import a.b as c\nx.y\ngetattr(m, 'z')\n")) >= {"c", "b", "x", "y", "z"}
    package, trees = package_and_benchmark_trees()
    used = set().union(*map(referenced_names, trees.values()))
    uncalled = [
        f"{path.name}::{name}"
        for path in package
        for name in public_definitions(trees[path])
        if name.rpartition(".")[2] not in used
    ]
    assert uncalled == []


def record_fields(tree: ast.Module) -> dict[str, list[str]]:
    """The fields of each dataclass and NamedTuple a module defines, by class."""
    records = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (
            any(ast.unparse(d).partition("(")[0] == "dataclass" for d in node.decorator_list)
            or any(ast.unparse(base) == "NamedTuple" for base in node.bases)
        ):
            annotated = (item for item in node.body if isinstance(item, ast.AnnAssign))
            records[node.name] = [item.target.id for item in annotated if isinstance(item.target, ast.Name)]
    return records


def fields_read(tree: ast.Module, records: dict[str, list[str]]) -> set[str]:
    """The fields ``tree`` reads: ``x.field``, ``getattr(x, "field")``, and
    every field of a record class named in the parameter annotations of a
    function that hands its values to ``asdict``."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr":
            read.update(arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant))
        elif isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and ast.unparse(call.func).rpartition(".")[2] == "asdict"
            for call in ast.walk(node)
        ):
            annotated = [arg.annotation for arg in node.args.args if arg.annotation is not None]
            named = {n.id for annotation in annotated for n in ast.walk(annotation) if isinstance(n, ast.Name)}
            read.update(field for cls in named & records.keys() for field in records[cls])
    return read


def test_every_record_field_is_read_outside_tests():
    """Each field of a package dataclass or NamedTuple is read by some
    package or benchmark module; a field only tests read is dead output."""
    sample = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int = 0\n"
        "class B(NamedTuple):\n    c: int\nclass C:\n    d: int\n"
    )
    assert record_fields(sample) == {"A": ["a", "b"], "B": ["c"]}
    reader = ast.parse("x.a\ngetattr(x, 'c')\ny.e = 1\ndef f(rows: list[A]):\n    return [asdict(r) for r in rows]\n")
    assert fields_read(reader, {"A": ["a", "b"], "B": ["c", "d"]}) == {"a", "b", "c"}
    package, trees = package_and_benchmark_trees()
    records = {cls: fields for path in package for cls, fields in record_fields(trees[path]).items()}
    read = set().union(*(fields_read(tree, records) for tree in trees.values()))
    unread = [
        f"{path.name}::{cls}.{field}"
        for path in package
        for cls, fields in record_fields(trees[path]).items()
        for field in fields
        if field not in read
    ]
    assert unread == []


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position) of each parameter with a default of a
    module's top-level functions and its classes' methods. The callee of
    ``__init__`` is its class; positions count from the first argument a
    call passes (after ``self``), and a keyword-only parameter has none."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            methods = (item for item in node.body if isinstance(item, ast.FunctionDef))
            functions = [(node.name if func.name == "__init__" else func.name, func, 1) for func in methods]
        else:
            continue
        for callee, func, skipped in functions:
            positional = (func.args.posonlyargs + func.args.args)[skipped:]
            with_default = positional[len(positional) - len(func.args.defaults) :]
            found += [(callee, arg.arg, positional.index(arg)) for arg in with_default]
            keyword = zip(func.args.kwonlyargs, func.args.kw_defaults)
            found += [(callee, arg.arg, None) for arg, default in keyword if default is not None]
    return found


def arguments_set(tree: ast.Module) -> set[tuple[str, str | int]]:
    """(callee, keyword) and (callee, position) of each argument a call in
    ``tree`` passes; ``**mapping`` sets keyword "**" and ``*sequence``
    position "*", which stand for any keyword and any position."""
    found: set[tuple[str, str | int]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            found.update((callee, "*" if isinstance(arg, ast.Starred) else i) for i, arg in enumerate(node.args))
            found.update((callee, keyword.arg or "**") for keyword in node.keywords)
    return found


# Defaults that only tests set, each kept for the tests named.
TEST_ONLY_DEFAULTS = {
    ("delta_volume", "window"): "the hand-sized market fixtures pass 2-5 day windows through tests/helpers.gather",
    ("load_external_scores", "sum_tolerance"): "the simplex acceptance test loads noisy scores with a 0.05 tolerance",
}


def test_every_default_is_set_outside_tests():
    """Each parameter with a default is set by some package or benchmark
    call, by keyword, by position, through ``*``/``**``, or by a call to
    the class for ``__init__``; a default no such call overrides is an
    option only tests use. ``TEST_ONLY_DEFAULTS`` names the kept ones."""
    sample = ast.parse(
        "def f(a, b=1, *, c=2): pass\nclass K:\n    def __init__(self, d=3): pass\n    def g(self, e, h=4): pass\n"
    )
    assert defaulted_parameters(sample) == [("f", "b", 1), ("f", "c", None), ("K", "d", 0), ("g", "h", 1)]
    assert arguments_set(ast.parse("f(1, *r, c=2)\nK(**m)\n")) == {("f", 0), ("f", "*"), ("f", "c"), ("K", "**")}
    package, trees = package_and_benchmark_trees()
    passed = set().union(*map(arguments_set, trees.values()))
    unset = {
        (callee, name)
        for path in package
        for callee, name, position in defaulted_parameters(trees[path])
        if not {(callee, name), (callee, "**"), (callee, "*"), (callee, position)} & passed
    }
    assert unset == set(TEST_ONLY_DEFAULTS)


def defaulted_fields(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(class, field, position) of each field with a default of a module's
    dataclasses and NamedTuples. The position is the field's place among
    the arguments a call to the class takes; the fields of a keyword-only
    class and a ``field(init=False)`` have none."""
    found = []
    records = record_fields(tree)
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in records):
            continue
        kw_only = any("kw_only=True" in ast.unparse(d) for d in node.decorator_list)
        position = 0
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                init = item.value is None or "init=False" not in ast.unparse(item.value)
                if item.value is not None:
                    found.append((node.name, item.target.id, position if init and not kw_only else None))
                position += init
    return found


def splatted_keys(tree: ast.Module) -> set[tuple[str, str]]:
    """(callee, key) for each callee that ``tree`` passes a ``**mapping``
    and each key of a ``dict(...)`` or ``{...}`` in ``tree``."""
    keys: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "dict":
            keys.update(keyword.arg for keyword in node.keywords if keyword.arg)
    splatted = {callee for callee, arg in arguments_set(tree) if arg == "**"}
    return {(callee, key) for callee in splatted for key in keys}


def built_from_schema(tree: ast.Module) -> set[str]:
    """Classes that ``tree`` both lists with ``fields(Class)`` and calls
    with ``**``, so filling every field from a mapping built over them."""
    listed = {
        ast.unparse(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "fields" and node.args
    }
    return listed & {callee for callee, arg in arguments_set(tree) if arg == "**"}


def stored_attributes(tree: ast.Module) -> set[str]:
    """Attributes that ``tree`` assigns or assigns into: ``x.a = v``,
    ``x.a += v`` and ``x.a[k] = v``."""
    stored: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, ast.Store):
            while isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute):
                stored.add(node.attr)
    return stored


# Field defaults that only tests set, each kept for the tests named.
TEST_ONLY_FIELDS = {
    ("SynthSpec", "noise"): "the zero-noise, heavy-noise and range-clamp tests set the outcome noise",
    ("SynthSpec", "multi_stock_rate"): "the 0 and 1 extremes and their comparison with the scalar reference",
}


def test_every_field_default_is_set_outside_tests():
    """Each field with a default of a package dataclass or NamedTuple is
    set by some package or benchmark module: a call to the class passes it
    by keyword or position, it is a key of a ``dict(...)`` or ``{...}`` in a
    module that splats a mapping into the class, code assigns it or into
    it, or the class is built from ``fields(Class)``; a default no such
    code overrides is an option only tests use. ``TEST_ONLY_FIELDS`` names
    the kept ones."""
    sample = ast.parse(
        "@dataclass\nclass A:\n    a: int\n    b: int = 0\n    c: list = field(init=False)\n    d: int = 1\n"
        "@dataclass(kw_only=True)\nclass B:\n    e: int = 2\n"
    )
    assert defaulted_fields(sample) == [("A", "b", 1), ("A", "c", None), ("A", "d", 2), ("B", "e", None)]
    splat = ast.parse("A(**m)\nm = dict(b=1)\nn = {'d': 2, k: 3}\nf(x=1)\n")
    assert splatted_keys(splat) == {("A", "b"), ("A", "d")}
    assert built_from_schema(ast.parse("fields(B)\nfields(A)\nB(**v)\nA(x=1)\n")) == {"B"}
    assert stored_attributes(ast.parse("x.a = 1\ny.b[k][j] = 2\nz.c += 3\nw.d[k]\ne[x.f] = 4\n")) == {"a", "b", "c"}
    package, trees = package_and_benchmark_trees()
    passed = set().union(*map(arguments_set, trees.values()), *map(splatted_keys, trees.values()))
    stored = set().union(*map(stored_attributes, trees.values()))
    schema_built = set().union(*map(built_from_schema, trees.values()))
    unset = {
        (cls, name)
        for path in package
        for cls, name, position in defaulted_fields(trees[path])
        if cls not in schema_built
        and name not in stored
        and not {(cls, name), (cls, "*"), (cls, position)} & passed
    }
    assert unset == set(TEST_ONLY_FIELDS)


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_only_corpus_frames_csv():
    """Every input and output CSV goes through corpus.read_csv_rows or
    corpus.write_csv_rows, so no other module imports csv."""
    assert imported_modules("import csv as _csv\nfrom os import path\nfrom . import x\n") == {"csv", "os"}
    importers = [
        path.name
        for path in sorted((ROOT / "src" / "reportsignal").glob("*.py"))
        if "csv" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert importers == ["corpus.py"]


# An open() mode that creates, truncates, appends to or updates a file.
WRITE_MODE = re.compile(r"[rbt]*[wax+][rwxabt+]*")


def output_calls(source: str) -> list[str]:
    """Calls in ``source`` that write a file or move one into place: ``open``
    with a mode that writes, ``write_text``/``write_bytes`` on a path, and
    ``os.replace``/``os.rename``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "open":
            # open(path, mode) and Path.open(mode); a mode that is no literal counts
            modes = node.args[1:] if isinstance(func, ast.Name) else node.args
            modes = modes + [k.value for k in node.keywords if k.arg == "mode"]
            writes = any(not isinstance(m, ast.Constant) or re.fullmatch(WRITE_MODE, str(m.value)) for m in modes)
        else:
            path_write = isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes")
            writes = path_write or ast.unparse(func) in ("os.replace", "os.rename")
        if writes:
            found.append(ast.unparse(node))
    return found


def test_only_corpus_opens_outputs():
    """Every output file goes through corpus.open_output, the one writer
    that moves a whole file into place and reports a failure as exit 1."""
    sample = (
        "open(p)\nopen(p, 'rb')\nopen(p, 'r', encoding='utf-8')\nopen(p, 'w')\nopen(p, mode='ab')\n"
        "open(p, m)\np.open('r+')\nq.write_text(s)\nq.write_bytes(b)\nos.replace(a, b)\nos.rename(a, b)\n"
        "s.replace(a, b)\nwrite_text(q, s)\n"
    )
    assert output_calls(sample) == [
        "open(p, 'w')",
        "open(p, mode='ab')",
        "open(p, m)",
        "p.open('r+')",
        "q.write_text(s)",
        "q.write_bytes(b)",
        "os.replace(a, b)",
        "os.rename(a, b)",
    ]
    writers = {
        path.name: calls
        for path in sorted((ROOT / "src" / "reportsignal").glob("*.py"))
        if path.name != "corpus.py" and (calls := output_calls(path.read_text(encoding="utf-8")))
    }
    assert writers == {}


def test_no_package_module_imports_scipy():
    """p-values are computed in the package, so scipy is no dependency."""
    assert "scipy" in imported_modules("from scipy.special import betainc\n")
    importers = [
        path.name
        for path in sorted((ROOT / "src" / "reportsignal").glob("*.py"))
        if "scipy" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert importers == []


def test_p_values_leave_scipy_unloaded():
    """Computing p-values, as analyze does, loads no scipy module; a
    ``None`` entry in ``sys.modules`` blocks an import and loads nothing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from reportsignal.econometrics import mean_difference_test, student_t_sf2\n"
        "assert 0.0 < student_t_sf2(2.0, 65) < 0.05\n"
        "assert 0.0 < mean_difference_test([1.0, 2.0, 4.0], [0.0, 0.5, 1.5]).p_value < 1.0\n"
        "print(sorted(m for m, loaded in sys.modules.items() if loaded is not None and m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
