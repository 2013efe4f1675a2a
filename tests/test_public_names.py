"""Public names that nothing in the package uses, and private names that one
module reads from another, found by AST scans.

A name in a module's `__all__` counts as used when the package reads it
somewhere besides its definition: as a name in its own module, as
`module.name` in another module of the package, or through
`from .module import name`.  Every public name that is not used is pinned
below with the reason it is kept; a new one fails here until it gets a
library caller, is deleted, or is pinned with a reason of its own.

A private name (one that starts with `_`) read by another module, as
`module._name` or through `from .module import _name`, ties that reader to
the module's insides.  Every such (reader, name) pair is pinned below with
the reason it is kept; a new one fails here until it goes through a public
name, is deleted, or is pinned with a reason of its own.
"""

import ast
import pathlib

import biwind

PACKAGE = pathlib.Path(biwind.__file__).parent

# Kept without a library caller, each for the reason given.
UNUSED_PUBLIC_NAMES = {
    "core.psi_residual": "oracle of criterion 9: the residual of the radial equation",
    "core.vector_field": "the public field, used by the tests and perfbench",
    "core.harmonic_field": "check of the field: the second-order harmonic-map analogue",
    "core.harmonic_energy": "check of the field: the harmonic-map analogue's energy",
    "regions.w_system_residual": "oracle of criterion 9 and the regions tests",
    "regions.xi_system_residual": "oracle of criterion 9 and the regions tests",
    "regions.in_cone": "oracle of the regions tests",
    "regions.sos_identity_check": "oracle of the regions tests",
    "regions.growth_bound_check": "run by tools/fit_growth_constant.py until GROWTH_C1 is proved",
    "profile.laplacian_components": "checked by the profile tests; write_profile_csv reads _laplacian_at",
    "taylor.coefficients": "kept for the interval Taylor enclosures and the manifold parameterization",
    "taylor.mp_context": "kept for the interval Taylor enclosures and the manifold parameterization",
    "taylor.jet": "kept with taylor.coefficients: it sums their series at a step",
    "manifold.refine_heteroclinic": "kept until shoot delivers the refined connecting orbit",
}

# Private names read across modules, each for the reason given.
PRIVATE_READS = {
    ("integrate", "core._check_dim"): "the one dimension check of every entry point",
    ("integrate", "core._make_rhs"): "the field on numpy arrays, for the lanes and every start",
    ("integrate", "core._field_scope"): "binds the field's constants into the generated loop",
    ("integrate", "core._function_code"): "compiles the generated loop as core compiles the field",
    ("manifold", "core._components"): "the end jet's four floats in a grid CSV row",
    ("manifold", "integrate._gate_end"): "classifies theta* from its ungated orbit, no second run",
    ("profile", "core._make_rhs"): "the fourth derivative on a whole orbit at once",
    ("profile", "integrate._interpolant"): "the dense output that locates each pi crossing",
    ("profile", "manifold._check_eps0"): "the seed radius rule, kept in one place",
    ("regions", "core._check_dim"): "the one dimension check of every entry point",
    ("regions", "core._make_rhs"): "the fourth derivative on an orbit's jets",
    ("regions", "core._field_constants"): "the field's constants in the closed-form systems",
    ("taylor", "core._check_dim"): "the one dimension check of every entry point",
    ("taylor", "core._field_constants"): "the field's constants in the Taylor recursion",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _public(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _used(modules: dict[str, ast.Module]) -> set[str]:
    """`module.name` for every name the package reads as described above."""
    used = set()
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(f"{mod}.{node.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update(f"{node.module}.{alias.name}" for alias in node.names)
    return used


def unused_public_names() -> set[str]:
    modules = _modules()
    used = _used(modules)
    return {f"{mod}.{name}" for mod, tree in modules.items() for name in _public(tree)
            if f"{mod}.{name}" not in used}


def test_unused_public_names_are_the_pinned_ones():
    assert unused_public_names() == set(UNUSED_PUBLIC_NAMES)


def test_the_scan_sees_each_kind_of_use():
    used = _used({
        "a": ast.parse("from .b import f\nx = g\n"),
        "c": ast.parse("from . import b\nb.h()\n"),
    })
    assert {"b.f", "a.g", "b.h"} <= used
    assert "a.x" not in used


def private_reads(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(reader, `module._name`) for every private name a module reads from another."""
    reads = set()
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.value.id != mod):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules:
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            reads.update((mod, f"{owner}.{name}") for owner, name in names if name.startswith("_"))
    return reads


def test_private_reads_across_modules_are_the_pinned_ones():
    assert private_reads(_modules()) == set(PRIVATE_READS)


def test_the_private_scan_sees_each_kind_of_read():
    reads = private_reads({
        "a": ast.parse("from .b import _f, g\nfrom . import b\nb._h()\nb.k()\n"),
        "b": ast.parse("_f = _h = g = k = None\n_f\nb._x = 1\n"),
        "c": ast.parse("import os\nos._exit\n"),
    })
    assert reads == {("a", "b._f"), ("a", "b._h")}
