import ast
from pathlib import Path

import deformopt

PACKAGE = Path(deformopt.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in deformopt.__all__
               if not hasattr(deformopt, name)]
    assert not missing
    assert len(set(deformopt.__all__)) == len(deformopt.__all__)


def private_imports(tree):
    """The modules of numpy and scipy, or of their subpackages, whose name
    has a part with a leading underscore, that `tree` imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{alias.name}"
                                      for alias in node.names]
    return [name for name in names
            if name.split(".")[0] in ("numpy", "scipy")
            and any(part.startswith("_") for part in name.split(".")[1:])]


def test_no_private_numpy_or_scipy_module_imported():
    """The program uses the public APIs of numpy and scipy only: a private
    module may change or vanish in any release."""
    found = {str(path.relative_to(PACKAGE)):
             private_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def unused_imports(tree):
    """The names that `tree` imports at module level and never uses.  A
    name is used if it is read or equals a string constant: an entry of
    `__all__` or a quoted annotation."""
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(name for name in imported if name not in used)


def test_no_unused_import():
    found = {str(path.relative_to(PACKAGE)):
             unused_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_no_einsum():
    """Every per-element kernel sums its short axes term by term, in a
    fixed order, on arrays with the element axis last; the package calls
    no `einsum`."""
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "einsum"]
    assert found == []


def test_one_splu_call():
    """Every factorization is one SuperLU call at one site: minimum degree
    on A + A^T, panels of one column, diagonal pivots in symmetric mode,
    and no other option.  `relax=64, panel_size=32` crashed scipy's
    SuperLU on K's block at h=0.01, so no larger value is set, nor tried
    here."""
    calls = [node for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) == "splu"
                  or getattr(node.func, "id", None) == "splu")]
    assert len(calls) == 1
    (call,) = calls
    assert all(isinstance(kw.value, (ast.Constant, ast.Dict))
               for kw in call.keywords)
    assert {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords} == {
        "permc_spec": "MMD_AT_PLUS_A", "panel_size": 1,
        "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def public_definitions(tree):
    """The public functions and classes that `tree` defines at top level."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def referenced_names(tree):
    """The names that `tree` reads, looks up as an attribute or imports
    from a module; an assignment's target is not a read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unread_definitions(definitions):
    """Per module, the names of `definitions(tree)` that no module of the
    package reads and `deformopt.__all__` does not export."""
    trees = {str(path.relative_to(PACKAGE)): ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    used = set(deformopt.__all__).union(*map(referenced_names,
                                             trees.values()))
    found = {name: sorted(definitions(tree) - used)
             for name, tree in trees.items()}
    return {name: dead for name, dead in found.items() if dead}


def test_no_unreferenced_public_name():
    """Every public top-level function and class of the package is used by
    some module of it or exported by `deformopt.__all__`: library code that
    nothing calls is dead."""
    assert unread_definitions(public_definitions) == {}


def constant_definitions(tree):
    """The UPPER_CASE names, public or with a leading underscore, that
    `tree` assigns at module level."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names |= {target.id for target in targets
                  if isinstance(target, ast.Name)
                  and target.id.lstrip("_").isupper()}
    return names


def test_no_unread_module_constant():
    """Every module-level UPPER_CASE constant of the package is read by
    some module of it or exported by `deformopt.__all__`: a tolerance that
    nothing reads documents a rule the code does not follow."""
    assert unread_definitions(constant_definitions) == {}
