"""Every public function of the package is reached from package code, or is a listed exception."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "weylscope"

UNREACHED = (
    "m_matrix",  # the first example's M; a test-side copy would call the private _shoot_m
    "cauchy_transform",  # the same for the private _cauchy_at
    "build_adjoint_spaces",  # criteria 04 and 05 call it; ROADMAP item 2 keeps its signature
    "reducing_residual",  # ROADMAP item 6 will report it for the Hain-Lust triple
    "green_pair_residual",  # ROADMAP item 10 will report it in the ex reports
    "saturated_sampling",  # the plan alone, which criteria 04 and 05 read
    "density_residual",  # criterion 06 calls it, the density check of the first-order example
    "triple_to_dict",  # writes the triple-v1 files that check reads, for tests
)


def test_every_public_function_is_referenced_by_package_code():
    defs, refs = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                defs[top.name] = top
            refs += [(n.id if isinstance(n, ast.Name) else n.attr, top) for n in ast.walk(top)
                     if isinstance(n, (ast.Name, ast.Attribute))]
    # a function's reference to its own name (recursion) does not reach it
    reached = {name for name, top in refs if defs.get(name) is not top}
    assert sorted(set(defs) - reached) == sorted(UNREACHED)
