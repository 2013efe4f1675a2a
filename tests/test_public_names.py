"""Public names that nothing in the package uses, found by an AST scan.

A name in a module's `__all__` counts as used when the package reads it
somewhere besides its definition: as a name in its own module, as
`module.name` in another module of the package, or through
`from .module import name`.  Every public name that is not used is pinned
below with the reason it is kept; a new one fails here until it gets a
library caller, is deleted, or is pinned with a reason of its own.
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
