import ast
import re
import subprocess
import sys
from pathlib import Path

import kstab


def _library_nodes():
    files = sorted(Path(kstab.__file__).parent.glob("*.py"))
    assert len(files) >= 9
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_floats():
    # arithmetic stays exact: no float literal and no float(...) call
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert found == []


def test_appendix_stays_independent():
    # appendix re-derives the degree-4 bound to cross-check alphabound, so
    # from the package it may use only the error types and the lattice
    path = Path(kstab.__file__).parent / "appendix.py"
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.level:
                used.update([node.module.split(".")[0]] if node.module else names)
            elif node.module.split(".")[0] == "kstab":
                parts = node.module.split(".")
                used.update(parts[1:2] or names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kstab":
                    used.add(parts[1] if len(parts) > 1 else "kstab")
    assert used <= {"errors", "lattice"}
    assert used  # the scan sees the imports that are there


def test_library_imports_dataclasses_only_where_it_raises():
    # the records are plain classes: no module imports dataclasses at its
    # top level, and the one import inside a function raises FrozenInstanceError
    top, inner = [], []
    for path in sorted(Path(kstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [(node.module or "").split(".")[0]]
            else:
                continue
            if "dataclasses" in modules:
                (top if node in tree.body else inner).append(f"{path.name}:{node.lineno}")
    assert top == []
    assert [entry.split(":")[0] for entry in inner] == ["lattice.py", "lattice.py"]


def test_a_cold_cli_import_loads_no_dataclasses_inspect_or_typing():
    # a fresh interpreter without site, as a one-shot `kstab check` starts
    src = str(Path(kstab.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import kstab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr


def test_library_reads_no_environment_and_starts_no_processes():
    # no environment knob and no process pool: nothing reads os.environ or
    # os.getenv, and nothing imports multiprocessing
    banned = {"environ", "environb", "getenv", "getenvb", "multiprocessing"}
    found = []
    for path, node in _library_nodes():
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]] + [a.name for a in node.names]
        if banned.intersection(names):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_library_has_no_unused_imports():
    # every name a module imports is used in it; the package's __init__
    # re-exports, and a line marked "noqa: F401" is a deliberate re-export
    found = []
    for path in sorted(Path(kstab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_library_has_no_unused_private_definitions():
    # every module-level private function, class or constant is loaded or
    # imported somewhere in the library; a dead helper is deleted, not kept
    defined, used = [], set()
    for path in sorted(Path(kstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [f"{path.name}: {name}" for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert defined  # the scan sees the private helpers that are there
    assert [d for d in defined if d.split(": ")[1] not in used] == []


_ROW_HELPERS = {"_row_dot", "_row_sum", "_row_less", "_row_combination", "_anticanonical_row"}


def test_row_helpers_live_only_in_lattice():
    # the integer-row format has one home: no other module defines these
    homes = {
        (path.name, node.name)
        for path, node in _library_nodes()
        if isinstance(node, ast.FunctionDef) and node.name in _ROW_HELPERS
    }
    assert homes == {("lattice.py", name) for name in _ROW_HELPERS}


def test_is_nef_lp_stays_independent_of_is_nef():
    # is_nef_lp cross-checks is_nef, so it shares none of is_nef's sign
    # test: its objective pairs the rows of the record's generator classes
    # by _row_dot, not through pairings or a packed table
    path = Path(kstab.__file__).parent / "cones.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "is_nef_lp"]
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert {"_row_dot", "cone"} <= names  # the scan sees the names that are there
    packed = {"pairings", "_table_pairings", "line_table", "cone_table", "rows", "is_nef"}
    assert names.isdisjoint(packed)


def test_only_cones_imports_ratlp():
    # the linear program has one home: cones poses every program the
    # library solves, so taking mu off the simplex touches one module
    importers = set()
    for path, node in _library_nodes():
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [a.name for a in node.names]
            if module.split(".")[-1] == "ratlp" or (module in ("", "kstab") and "ratlp" in names):
                importers.add(path.name)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "ratlp" for a in node.names):
                importers.add(path.name)
    assert importers == {"cones.py"}


_KERNEL = {
    "alphabound.py": {
        "_parts",
        "_five_point_parts",
        "_plane_parts",
        "_f1_parts",
        "_p1p1_parts",
        "_largest_subset_sum",
        "_plane_curves",
        "_section",
        "_ruling_curves",
        "certificate",
        "compare_with_slope",
    },
    "cones.py": {"reconstruct", "_class_row"},
    "appendix.py": {"_check", "_decide", "_sides", "_margin", "_largest_sum", "_case_sum"},
}


def test_certificate_kernel_stays_on_ints():
    # the parts builders, the subset-sum helper, the named-curve tables,
    # the public certificate entries, the slope comparison with its
    # degree-4 cross-check, and reconstruct compute every coefficient, row
    # and margin as ints: they name no Fraction, and read neither the
    # Fraction fields a and delta of the contraction data (its integer
    # weights serve them) nor a class's Fraction coordinates h and e
    kernel = []
    for name, functions in _KERNEL.items():
        path = Path(kstab.__file__).parent / name
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in functions]
        assert {fn.name for fn in found} == functions
        kernel += found
    found = []
    for fn in kernel:
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in ("Fraction", "Rational"):
                found.append(f"{fn.name}:{node.lineno}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in ("a", "delta", "h", "e"):
                found.append(f"{fn.name}:{node.lineno}: .{node.attr}")
    assert found == []


def test_the_fiber_shift_has_one_home():
    # the parts builders work at delta = 0 on integer rows: none takes
    # delta or the contraction data, and F1 defers to the plane builder
    # instead of branching on the degree, so _parts alone adds delta
    path = Path(kstab.__file__).parent / "alphabound.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    builders = {"_five_point_parts", "_plane_parts", "_f1_parts", "_p1p1_parts"}
    found = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in builders}
    assert set(found) == builders
    params = {name: {a.arg for a in fn.args.args} for name, fn in found.items()}
    assert all(p and p.isdisjoint({"delta", "cd"}) for p in params.values()), params
    degree_tests = [
        node.lineno
        for node in ast.walk(found["_f1_parts"])
        if isinstance(node, ast.Attribute) and node.attr == "degree"
    ]
    assert degree_tests == []
    assert any(
        isinstance(node, ast.Attribute) and node.attr == "degree"
        for node in ast.walk(found["_p1p1_parts"])
    )  # the scan sees a degree test where there is one


def test_named_curves_are_derived_only_in_the_tables():
    # a face's named curves are derived and checked once, in the cached
    # tables: no parts builder takes a row difference or looks a row up,
    # and only the tables call the line lookup and the two class solvers
    path = Path(kstab.__file__).parent / "alphabound.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    derive = {"_row_less", "_as_line", "_as_fiber", "_divided", "_plane_pullback", "_other_ruling"}
    used = {
        fn.name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} & derive
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
    }
    builders = {"_five_point_parts", "_plane_parts", "_f1_parts", "_p1p1_parts"}
    assert builders <= set(used)
    assert {name: used[name] for name in builders} == dict.fromkeys(builders, set())
    checks = {"_as_line", "_plane_pullback", "_other_ruling"}
    callers = {name for name, names in used.items() if names & checks}
    assert callers == {"_plane_curves", "_section", "_ruling_curves"}


def _functions(name):
    path = Path(kstab.__file__).parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def _called(fn):
    return {
        n.func.id
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def _attributes(fn):
    return {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}


def _tables_methods():
    path = Path(kstab.__file__).parent / "curves.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (record,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Tables"]
    return {n.name: n for n in record.body if isinstance(n, ast.FunctionDef)}


def test_sign_tests_read_the_packed_tables():
    # the sign tests against a per-degree curve table pair the class with
    # the whole table in one packed product, from a table of the degree's
    # record; pairings, for any list of rows, keeps its per-row loop, and
    # the packed product falls back to it past the slot bound
    methods = _tables_methods()
    sign_tests = {
        "cones.py": {"is_nef": "cone_table", "_ample_signs": "cone_table"},
        "curves.py": {"negative_curves": "line_table"},
    }
    for name, tests in sign_tests.items():
        functions = _functions(name)
        for test, table in tests.items():
            called = _called(functions[test])
            assert {"_table_pairings", "_tables"} <= called, test
            assert table in _attributes(functions[test]), test
            assert "pairings" not in called, test
    assert "_table_pairings" in _called(methods["masks"])
    assert "line_table" in _attributes(methods["masks"])
    assert "pairings" not in _called(methods["masks"])
    # both tables are packed once, when the record is built
    init = methods["__init__"]
    assert "_packed" in _called(init)
    assert {"line_table", "cone_table"} <= _attributes(init)
    curves = _functions("curves.py")
    assert [d.func.id for d in curves["_tables"].decorator_list] == ["lru_cache"]
    loop = curves["pairings"]
    assert any(isinstance(n, ast.ListComp) for n in ast.walk(loop))
    names = {n.id for n in ast.walk(loop) if isinstance(n, ast.Name)}
    assert names.isdisjoint({"_table_pairings", "_packed", "array", "_tables"})
    assert "pairings" in _called(curves["_table_pairings"])
    assert "pairings" in _called(curves["disjoint_sets"])
    # the face search and the verdict's helpers read the signs of the
    # product their caller made, and pair the class with no table again;
    # the verdict makes that product once, by the ampleness test
    readers = {"cones.py": ("_face_data",), "stability.py": ("_six_line_parameter", "_upper_bound")}
    pairing = {"_table_pairings", "pairings", "negative_curves", "is_nef", "ample_violation", "nu"}
    pairing |= {"_ample_signs", "is_ample"}
    for name, names in readers.items():
        functions = _functions(name)
        for reader in names:
            assert "signs" in [a.arg for a in functions[reader].args.args], reader
            assert _called(functions[reader]).isdisjoint(pairing), reader
    called = _called(_functions("stability.py")["verdict"])
    assert called & pairing == {"_ample_signs"}


# The lru_cache functions whose one argument is the degree, and why each
# has its own cache.  Every other per-degree table is a field of the record
# curves._tables builds, so each is built once and has one home.
_DEGREE_CACHES = {
    ("curves.py", "_tables"): "builds the record itself",
    ("cones.py", "_mu_rows"): "holds the rows of mu's linear program, which leave with it",
    ("cli.py", "_line_json"): "holds each line's rendered JSON, which is output, not a curve table",
}


def _cache_decorators(fn):
    names = []
    for d in fn.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        names.append(d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
    return {"lru_cache", "cache"}.intersection(names)


def test_tables_is_the_one_degree_keyed_cache():
    found = set()
    for path, node in _library_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            if params == ["degree"] and _cache_decorators(node):
                found.add((path.name, node.name))
    assert found == set(_DEGREE_CACHES)


def test_request_coordinates_parse_on_ints():
    # an explicit class and the family classes are parsed by
    # lattice._rational_row into one integer row over the lcm: the builders
    # call neither rational nor Fraction themselves
    functions = _functions("cli.py")
    builders = ("_class_from_json", "_expand_family", "_anticanonical_plus")
    called = {name: _called(functions[name]) for name in builders}
    assert "_rational_row" in called["_class_from_json"] | called["_expand_family"]
    assert {name: names & {"rational", "Fraction"} for name, names in called.items()} == dict.fromkeys(
        builders, set()
    )


def test_the_check_path_reads_the_face_record():
    # a check finds its face as the one face record, a ContractionData that
    # _contraction builds without the constructor's checks (it names the
    # class only for object.__new__), and hands it to the public
    # certificate and compare_with_slope: no function on that path calls
    # the ContractionData constructor, which checks a face again, or
    # reconstruct, which rebuilds the class
    path = {
        "stability.py": ("verdict", "_upper_bound"),
        "cones.py": ("_face_decompose", "_face_data", "_contraction", "_class_row"),
        "alphabound.py": ("certificate", "compare_with_slope", "_parts", "_finish"),
    }
    calls = {}
    for name, names in path.items():
        functions = _functions(name)
        for fn in names:
            calls[fn] = {
                n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                for n in ast.walk(functions[fn])
                if isinstance(n, ast.Call)
            }
            assert calls[fn].isdisjoint({"ContractionData", "reconstruct"}), fn
    assert {"_face_decompose", "certificate", "compare_with_slope"} <= calls["_upper_bound"]
    assert "_contraction" in calls["_face_data"]  # the scan sees the calls that are there


def _raises_not_ample(fn):
    """Whether fn raises a message that says a class is not ample."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise):
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and n.id == "_NOT_AMPLE":
                    return True
                if isinstance(n, ast.Constant) and re.search(r"\bample\b", str(n.value)):
                    return True
    return False


def test_ampleness_is_tested_in_one_place():
    # one cones function squares the class, pairs it with the curve-cone
    # table and words the refusal; nothing else in the library raises an
    # "is not ample" message, and ample_violation and is_ample read that test
    cones = _functions("cones.py")
    products = {
        name
        for name, fn in cones.items()
        if "_table_pairings" in _called(fn) and "cone_table" in _attributes(fn)
    }
    assert products == {"is_nef", "_ample_signs"}
    assert "_scaled_square" in _called(cones["_ample_signs"])
    assert "_scaled_square" not in _called(cones["is_nef"])
    refusals = {
        (path.name, node.name)
        for path, node in _library_nodes()
        if isinstance(node, ast.FunctionDef) and _raises_not_ample(node)
    }
    assert refusals == {("cones.py", "_ample_signs")}
    assert "_ample_signs" in _called(cones["ample_violation"])
    assert "ample_violation" in _called(cones["is_ample"])


def test_cli_reaches_the_computations_through_their_public_entries():
    # parse_input only parses; check and mu call the public verdict and mu,
    # which test ampleness themselves, and alpha-bound calls the ampleness
    # test before _upper_bound, the core it shares with the verdict
    path = Path(kstab.__file__).parent / "cli.py"
    imported = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module in ("cones", "stability"):
            imported[node.module] = {a.name for a in node.names}
    assert imported["cones"] == {"_ample_signs", "mu"}
    # the rest are the status names and the Verdict type
    entries = {name for name in imported["stability"] if not name[0].isupper()}
    assert entries == {"verdict", "_upper_bound", "cubic_line_family_report"}
    cli = _functions("cli.py")
    assert _called(cli["parse_input"]).isdisjoint({"_ample_signs", "ample_violation", "is_ample"})
    assert {"parse_input", "verdict"} <= _called(cli["_cmd_check"])
    assert {"parse_input", "mu"} <= _called(cli["_cmd_mu"])
    assert {"parse_input", "_ample_signs", "_upper_bound"} <= _called(cli["_cmd_alpha_bound"])
