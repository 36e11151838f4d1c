"""Every public function, method and defaulted parameter of the package is reached from
package code, or is a listed exception; every exception class is caught by package code."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "weylscope"

UNREACHED = (
    "m_matrix",  # the first example's M; a test-side copy would call the private _shoot_m
    "cauchy_transform",  # the same for the private _cauchy_at
    "build_adjoint_spaces",  # criteria 04 and 05 call it; ROADMAP item 2 keeps its signature
    "build_resolvent_space",  # the same; commands call krylov_spaces, which shares one inverse
    "reducing_residual",  # ROADMAP item 6 will report it for the Hain-Lust triple
    "green_pair_residual",  # ROADMAP item 10 will report it in the ex reports
    "saturated_sampling",  # the plan alone, which criteria 04 and 05 read
    "density_residual",  # criterion 06 calls it, the density check of the first-order example
    "triple_to_dict",  # writes the triple-v1 files that check reads, for tests
)

UNSET = (
    "make_triple.adj_bnd2",  # its singular-defect-block message sends callers there
    "random_triple.real",  # tests draw real-coefficient triples through it
    "random_extension.real",  # and real-coefficient restrictions of them
    "reducing_residual.mask_override",  # its negative control, kept for ROADMAP item 6
    "main.argv",  # the command line when None; tests pass their own
)

UNREFERENCED = (
    "PiecewisePoly.constant",  # a test helper; moving it into tests/ gains nothing
    "ShootingResult.wronskian",  # the same
)


def _modules():
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]


def _public_defs(modules):
    """(qualified name, def node, 1 for a method and 0 for a function) of each public def."""
    for tree in modules:
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                yield top.name, top, 0
            elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{top.name}.{item.name}", item, 1


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(modules):
    """(callee name, positional count, keyword names, call node) of each package call.

    functools.partial(f, ...) is a call of f; a starred argument or a ** mapping
    may set any parameter, so it counts as every position or every keyword.
    """
    for tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, args = _name(node.func), node.args
            if callee == "partial" and args:
                callee, args = _name(args[0]), args[1:]
            count = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
            names = {k.arg for k in node.keywords}
            yield callee, count, names, node


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


def _unset_parameters():
    """function.parameter of each defaulted parameter that no package call sets."""
    modules = _modules()
    calls = list(_calls(modules))
    unset = []
    for qualname, node, offset in _public_defs(modules):
        own = {id(n) for n in ast.walk(node)}
        positional = node.args.posonlyargs + node.args.args
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(node.args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if d is not None]
        for index, arg in defaulted:
            if not any(callee == node.name and id(call) not in own
                       and (arg in names or None in names
                            or (index is not None and index < count + offset))
                       for callee, count, names, call in calls):
                unset.append(f"{qualname}.{arg}")
    return sorted(unset)


def _unreferenced_methods():
    """Class.method of each public method or property no package code outside it names."""
    modules = _modules()
    attrs = [n for tree in modules for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    unreferenced = []
    for qualname, node, offset in _public_defs(modules):
        if not offset:
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(a.attr == node.name and id(a) not in own for a in attrs):
            unreferenced.append(qualname)
    return sorted(unreferenced)


def test_every_defaulted_parameter_is_set_by_package_code():
    # a default that no call overrides is a constant; self and cls count in the position
    assert _unset_parameters() == sorted(UNSET)


def test_every_public_method_and_property_is_referenced_by_package_code():
    assert _unreferenced_methods() == sorted(UNREFERENCED)


def test_every_exception_class_is_caught_by_package_code():
    # a class that no except clause names is one no caller tells apart: raise its base
    modules = _modules()
    classes = {node.name for node in ast.walk(ast.parse((PACKAGE / "errors.py").read_text()))
               if isinstance(node, ast.ClassDef)}
    caught = {_name(n) for tree in modules for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for n in ast.walk(handler.type)}
    assert sorted(classes - caught) == []
