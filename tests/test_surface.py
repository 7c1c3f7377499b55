"""Every public function, class, method and property of the package, and
every field of its records, has a reader outside its own unit tests, and
every defaulted parameter or field a setter there: a caller in the
package, the benchmark, or the acceptance suite.  The documented entries
below are the only exceptions, each listed with its reason; what only
they read counts as unread.  The references that unit tests compare live
code against live in tests/oracles.py, outside the package."""

import ast
import copy
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypercut"

ORACLES = {
    "quotient_distance": "the documented scalar entry of the quotient "
                         "distance kernel",
}

# Methods kept for their documented readers; methods of ORACLES classes
# count as such too.
METHOD_ORACLES = {
    "RadialMeasure.from_csv": "the documented reader of the CLI's radial "
                              "CSVs",
}

# Defaulted parameters and fields kept for their documented setters, though
# only unit tests pass them.
OPTION_ORACLES = {
    "heat_radial_density.grid": "the semigroup and convolution oracles need "
                                "coarse grids: the default grid at t = 1 has "
                                "about 10,000 cells, and the pairwise "
                                "oracle's cost grows with the square of the "
                                "cell count",
}


def _names_used(tree) -> set:
    """Identifiers a syntax tree reads: names, attributes, and strings that
    are identifiers (the benchmark wraps functions by name)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return used


def _units(node):
    """(method name or None, identifiers read) of a top-level statement: a
    class splits into each method and the rest of its body."""
    if not isinstance(node, ast.ClassDef):
        return [(None, _names_used(node))]
    methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
    rest = copy.copy(node)
    rest.body = [n for n in node.body if n not in methods]
    return [(None, _names_used(rest))] + [(m.name, _names_used(m))
                                          for m in methods]


def _package_statements():
    """(defined name or None, method name or None, identifiers read) of
    each top-level statement of the package, classes split by _units."""
    return [(getattr(node, "name", None), method, used)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            for method, used in _units(node)]


def _public_names(statements) -> list:
    return [name for name, method, _ in statements
            if name is not None and method is None
            and not name.startswith("_")]


def _outside() -> set:
    outside = set()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        outside |= _names_used(ast.parse(path.read_text()))
    return outside


def test_public_names_have_readers():
    statements = _package_statements()
    outside = _outside()
    unread = []
    for name in _public_names(statements):
        if name in ORACLES or name in outside:
            continue
        if not any(name in used for other, _, used in statements
                   if other != name and other not in ORACLES):
            unread.append(name)
    assert unread == [], (
        f"reached only by their own tests: {unread}; give each a caller, "
        "list it in ORACLES with a reason, or delete it")


def test_public_methods_have_readers():
    statements = _package_statements()
    outside = _outside()
    unread = []
    for owner, method, _ in statements:
        if method is None or method.startswith("_") or owner in ORACLES \
                or f"{owner}.{method}" in METHOD_ORACLES or method in outside:
            continue
        if not any(method in used for other, m, used in statements
                   if (other, m) != (owner, method) and other not in ORACLES):
            unread.append(f"{owner}.{method}")
    assert unread == [], (
        f"reached only by their own tests: {unread}; give each a caller, "
        "list it in METHOD_ORACLES with a reason, or delete it")


def test_every_oracle_is_defined():
    statements = _package_statements()
    defined = set(_public_names(statements))
    assert set(ORACLES) <= defined, sorted(set(ORACLES) - defined)
    methods = {f"{owner}.{m}" for owner, m, _ in statements if m is not None}
    assert set(METHOD_ORACLES) <= methods, sorted(set(METHOD_ORACLES)
                                                  - methods)
    options = set(_package_options())
    assert set(OPTION_ORACLES) <= options, sorted(set(OPTION_ORACLES)
                                                  - options)


def _record_fields(node) -> list:
    """Field names of a dataclass or NamedTuple class definition, else []."""
    def name(expr):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return getattr(expr, "id", getattr(expr, "attr", None))

    if "dataclass" not in map(name, node.decorator_list) \
            and "NamedTuple" not in map(name, node.bases):
        return []
    return [n.target.id for n in node.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]


def _fields_read(tree) -> set:
    """Attribute names a syntax tree loads, and strings that are
    identifiers (getattr and the benchmark read fields by name)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            read.add(node.value)
    return read


def test_record_fields_have_readers():
    """Every field of a package dataclass or NamedTuple has a reader: a
    package statement outside its class, a method of its class other than
    __post_init__ (whose reads only validate or derive), the benchmark, or
    the acceptance suite.  The check is by name, so a field sharing a
    common name such as q, seed or r1 with some other attribute passes
    whether or not anything reads it."""
    outside = set().union(*(
        _fields_read(ast.parse(path.read_text()))
        for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                     ROOT / "tests" / "test_acceptance.py"]))
    statements = [node for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    unread = []
    for cls in statements:
        if not isinstance(cls, ast.ClassDef):
            continue
        readers = outside.union(
            *(_fields_read(other) for other in statements if other is not cls),
            *(_fields_read(m) for m in cls.body
              if isinstance(m, ast.FunctionDef) and m.name != "__post_init__"))
        unread += [f"{cls.name}.{f}" for f in _record_fields(cls)
                   if f not in readers]
    assert unread == [], (
        f"fields read only in __post_init__ or by unit tests: {unread}; "
        "give each a reader or delete it")


def _defaulted(fn, owner=None) -> list:
    """(label, position or None, keyword) of each defaulted parameter of a
    function definition; a method's first parameter is bound, so positions
    count from the one after it.  __init__ options are labelled after the
    class alone, as its calls name it."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if owner is not None and not any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list):
        positional = positional[1:]
    prefix = (owner if fn.name == "__init__"
              else f"{owner}.{fn.name}" if owner else fn.name)
    first = len(positional) - len(args.defaults)
    return ([(f"{prefix}.{a.arg}", i, a.arg)
             for i, a in enumerate(positional) if i >= first]
            + [(f"{prefix}.{a.arg}", None, a.arg)
               for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _init_field(stmt) -> bool:
    """Whether a record field's default is a field(init=False) call."""
    value = stmt.value
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False
        for k in value.keywords)


def _package_options() -> dict:
    """{label: (called name, position or None, keyword)} of every
    defaulted parameter of a package function or method, and of every
    defaulted field of a package record, which its class's calls set."""
    options = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                for label, pos, kw in _defaulted(node):
                    options[label] = (node.name, pos, kw)
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    called = node.name if fn.name == "__init__" else fn.name
                    for label, pos, kw in _defaulted(fn, node.name):
                        options[label] = (called, pos, kw)
            if _record_fields(node):
                fields = [n for n in node.body if isinstance(n, ast.AnnAssign)
                          and isinstance(n.target, ast.Name)
                          and not _init_field(n)]
                for i, n in enumerate(fields):
                    if n.value is not None:
                        options[f"{node.name}.{n.target.id}"] = (
                            node.name, i, n.target.id)
    return options


def _passes(call, pos, kw) -> bool:
    """Whether a call passes the parameter at ``pos`` or named ``kw``: by
    keyword, by position, or through *args or **kwargs."""
    return (any(k.arg in (kw, None) for k in call.keywords)
            or pos is not None
            and any(isinstance(arg, ast.Starred) or i == pos
                    for i, arg in enumerate(call.args)))


def test_options_have_setters():
    """Every defaulted parameter of a package function or method, and every
    defaulted field of a package dataclass or NamedTuple, is passed at some
    call of that name in the package, the benchmark, or the acceptance
    suite; a call of a class counts for its fields and its __init__.  The
    match is by the called name only, so a call of another callable that
    shares the name counts too, and a callable reached only under another
    name (a callback, cls(...)) has no setters."""
    calls = {}
    for path in [*sorted(PACKAGE.glob("*.py")),
                 *sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = [label for label, (name, pos, kw) in _package_options().items()
             if label not in OPTION_ORACLES
             and not any(_passes(c, pos, kw) for c in calls.get(name, []))]
    assert unset == [], (
        f"options only unit tests set: {unset}; give each a caller, list it "
        "in OPTION_ORACLES with a reason, or delete it")


def _bound_names(path) -> set:
    """Names that a module's top-level definitions and assignments bind."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_oracles_stay_out_of_the_package():
    """No name of tests/oracles.py is defined at the top level of a
    package module or as a package method."""
    oracles = _bound_names(ROOT / "tests" / "oracles.py")
    package = set().union(*(_bound_names(path)
                            for path in sorted(PACKAGE.glob("*.py"))))
    methods = {m for _, m, _ in _package_statements() if m is not None}
    assert oracles & package == set(), sorted(oracles & package)
    assert oracles & methods == set(), sorted(oracles & methods)


def test_package_root_binds_only_the_version():
    """Library names are imported from their submodules; the package root
    re-exports none of them."""
    assert _bound_names(PACKAGE / "__init__.py") == {"__version__"}


def _package_import(node) -> bool:
    """Whether an import statement loads a module of the package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "hypercut"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "hypercut" for a in node.names)
    return False


def test_no_package_import_inside_a_function():
    """Every module imports the package's other modules at module level;
    only the third-party imports listed in the next test are deferred into
    a function."""
    deferred = sorted({f"{path.name}:{node.lineno}"
                       for path in sorted(PACKAGE.glob("*.py"))
                       for fn in ast.walk(ast.parse(path.read_text()))
                       if isinstance(fn, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                       for node in ast.walk(fn) if _package_import(node)})
    assert deferred == [], f"package imports inside functions: {deferred}"


def test_deferred_imports_are_listed():
    """The one import deferred into a function is scipy.special's log_ndtr
    in walks.ad_statistic_normal, so that only `walk --run-clt-check` loads
    scipy; any other deferred import, scipy or not, fails here."""
    deferred = {}
    for path in sorted(PACKAGE.glob("*.py")):
        # ast.walk visits outer functions first, so a nested import is
        # named after the outermost function that holds it
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)) \
                        and not _package_import(node):
                    modules = ([node.module]
                               if isinstance(node, ast.ImportFrom)
                               else [a.name for a in node.names])
                    for module in modules:
                        deferred.setdefault(
                            (path.stem, node.lineno, module),
                            f"{path.stem}.{fn.name}: {module}")
    assert sorted(deferred.values()) == \
        ["walks.ad_statistic_normal: scipy.special"], sorted(deferred.values())


def test_tile_rule_lives_in_quadrature():
    """No package module but quadrature.py reads or imports PRODUCT_COLS or
    TILE_BYTES: every kernel table is tiled and reduced by
    quadrature.tiled_products, whose rule keeps its sums rounding as on one
    BLAS thread."""
    rule = {"PRODUCT_COLS", "TILE_BYTES"}
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        if path.name != "quadrature.py" \
                and rule & (_names_used(tree) | imported):
            readers.append(path.name)
    assert readers == [], f"tile rule read outside quadrature: {readers}"


def test_level_comes_from_the_point():
    """No package function or method takes a parameter named q beside one
    annotated QuotientPoint: the point carries its level, so a second copy
    of it could only disagree."""
    both = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if "q" in {a.arg for a in params} and any(
                    "QuotientPoint" in ast.unparse(a.annotation)
                    for a in params if a.annotation is not None):
                both.append(f"{path.stem}.{fn.name}")
    assert both == [], f"take both q and a QuotientPoint: {both}"


def test_each_stream_tag_has_one_call_site():
    """Every walks.stream call in the package passes its tag as a literal
    keyword, and no two call sites share one: two experiments that shared a
    tag would draw the same numbers for one seed."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "stream":
                tags = [k.value for k in node.keywords if k.arg == "tag"]
                assert len(tags) == 1 and isinstance(tags[0], ast.Constant), \
                    f"{path.name}:{node.lineno} passes no literal tag="
                sites.setdefault(tags[0].value, []).append(
                    f"{path.stem}:{node.lineno}")
    shared = {tag: where for tag, where in sites.items() if len(where) > 1}
    assert shared == {}, f"stream tags used at more than one site: {shared}"
    assert sorted(sites) == [1, 2, 3, 4, 5, 6]


def test_cli_handlers_trust_the_declared_types():
    """No call of int, float, str or bool in cli.py takes a cfg[...]
    subscript as its argument: _resolve gives every option its declared
    type, so a conversion in a handler could only restate that."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    casts = [f"cli.py:{node.lineno} {ast.unparse(node)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("int", "float", "str",
                                                    "bool")
             and any(isinstance(arg, ast.Subscript)
                     and getattr(arg.value, "id", None) == "cfg"
                     for arg in node.args)]
    assert casts == [], f"handlers convert resolved options: {casts}"
