"""Every public function and class of the package has a reader outside its
own unit tests: a caller in the package, the benchmark, or the acceptance
suite.  Reference implementations that unit tests compare live code
against are the only exceptions, each listed with its reason; what only
they read counts as unread."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypercut"

ORACLES = {
    "reduce_fundamental": "exact scalar reduction that reduce_points_arrays "
                          "is checked against",
    "GroupElement": "the exact group word reduce_fundamental returns",
    "sphere_point": "scalar sphere step that the array sphere steps are "
                    "checked against",
    "mobius_apply": "the isometry that the distance and walk invariance "
                    "tests move points by",
    "MobiusReal": "the matrices mobius_apply applies",
    "convolve": "two-measure convolution behind radial_mixture's semigroup "
                "check",
    "quotient_distance": "the documented scalar entry of the quotient "
                         "distance kernel",
    "step_kernel_cdf": "scalar law-of-cosines kernel, kept for the banded "
                       "kernel rework",
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


def _package_statements():
    """(defined name or None, identifiers read) of each top-level statement
    of the package; the re-exports of __init__.py reach nothing, so that
    file is left out."""
    return [(getattr(node, "name", None), _names_used(node))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"
            for node in ast.parse(path.read_text()).body]


def _public_names(statements) -> list:
    return [name for name, _ in statements
            if name is not None and not name.startswith("_")]


def test_public_names_have_readers():
    statements = _package_statements()
    outside = set()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        outside |= _names_used(ast.parse(path.read_text()))
    unread = []
    for name in _public_names(statements):
        if name in ORACLES or name in outside:
            continue
        if not any(name in used for other, used in statements
                   if other != name and other not in ORACLES):
            unread.append(name)
    assert unread == [], (
        f"reached only by their own tests: {unread}; give each a caller, "
        "list it in ORACLES with a reason, or delete it")


def test_every_oracle_is_defined():
    defined = set(_public_names(_package_statements()))
    assert set(ORACLES) <= defined, sorted(set(ORACLES) - defined)
