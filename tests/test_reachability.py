"""The library is what the runs reach.

Every public top-level function or class of ``src/qworkbench`` outside
``qcore`` must be reached by a scenario runner (named in the registry), a
demo script or the benchmark, through the call graph of the package; or
it must be an oracle: an independent formula that a test compares shipped
output against, listed below with the test that uses it.  References are
resolved per module (local imports included) and through the imported
package, so a re-exported name counts at its definition and a same-named
attribute of another object does not count at all.
"""
import ast
import importlib
import inspect
from pathlib import Path

import qworkbench

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(qworkbench.__file__).resolve().parent

#: unreached on purpose: each is the oracle of the named test
ORACLES = {
    "qworkbench.openmaster.dyson_term":
        "test_openmaster.py::test_batched_samples_match_dyson_term",
    "qworkbench.openmaster.liouvillian_matrix":
        "test_openmaster.py::test_liouvillian_matrix_matches_kron_formula",
    "qworkbench.openmaster.nonhermitian_bound":
        "test_openmaster.py::test_nonhermitian_perturbative_bound",
    "qworkbench.eqs.decode_matrix":
        "test_eqs.py::test_embedded_hamiltonian_properties_and_intertwining",
    "qworkbench.eqs.conjugation_gate":
        "test_eqs.py::test_embedded_dynamics_equivalence",
    "qworkbench.daqs.collective_y_rotation":
        "test_daqs.py::test_daqs_step_matches_literal_rotated_product",
    "qworkbench.daqs.commutator_defect_estimate":
        "test_daqs.py::test_defect_below_commutator_estimate",
    "qworkbench.timecorr.fermion_operator_dense":
        "test_timecorr.py::test_jordan_wigner_matches_dense",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _key(obj):
    """``module.name`` of a package function or class, else None."""
    if (inspect.isfunction(obj) or inspect.isclass(obj)) \
            and obj.__module__.startswith("qworkbench"):
        return f"{obj.__module__}.{obj.__name__}"
    return None


def _import_aliases(tree, package: str | None) -> dict:
    """Local name -> the object it binds, for every import of the package
    anywhere in the file (function-local imports included); ``package``
    anchors relative imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qworkbench"):
                    if alias.asname:
                        aliases[alias.asname] = importlib.import_module(alias.name)
                    else:
                        aliases["qworkbench"] = qworkbench
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            if not base.startswith("qworkbench"):
                continue
            source = importlib.import_module(base)
            for alias in node.names:
                try:
                    obj = getattr(source, alias.name)
                except AttributeError:
                    obj = importlib.import_module(f"{base}.{alias.name}")
                aliases[alias.asname or alias.name] = obj
    return aliases


def _references(node, own: dict, aliases: dict) -> set:
    """Keys of the package functions and classes that ``node`` names."""

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return own.get(expr.id, aliases.get(expr.id))
        if isinstance(expr, ast.Attribute):
            base = resolve(expr.value)
            if inspect.ismodule(base):
                return getattr(base, expr.attr, None)
        return None

    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            key = _key(resolve(sub))
            if key:
                out.add(key)
    return out


def _scan():
    """(every public library key outside qcore, the keys the runs reach)."""
    edges, roots, public = {}, set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), str(path))
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        aliases = _import_aliases(tree, package)
        live = importlib.import_module(module)
        own = {node.name: getattr(live, node.name) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = f"{module}.{node.name}"
                edges[key] = _references(node, own, aliases)
                if node.name.startswith("__"):      # module __getattr__ and kin
                    roots.add(key)
                elif not node.name.startswith("_") and ".qcore" not in module:
                    public.add(key)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _references(node, own, aliases)   # runs at import

    registry = ast.parse((PACKAGE / "harness" / "scenarios.py").read_text())
    for node in ast.walk(registry):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_register":
            roots.add(f"qworkbench.harness.runners.{node.args[-1].value}")
    scripts = sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    assert scripts, "no demos or perfbench scripts found next to the tests"
    for path in scripts:
        tree = ast.parse(path.read_text(), str(path))
        roots |= _references(tree, {}, _import_aliases(tree, None))

    reached, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in reached:
            reached.add(key)
            stack.extend(edges.get(key, ()))
    return public, reached


def test_every_public_function_is_reached_or_a_named_oracle():
    public, reached = _scan()
    unreached = sorted(public - reached - set(ORACLES))
    assert not unreached, unreached
    # an oracle that a run reaches is no longer only an oracle
    reached_oracles = sorted(set(ORACLES) & reached)
    assert not reached_oracles, reached_oracles


def test_each_oracle_is_used_by_its_named_test():
    for key, where in ORACLES.items():
        filename, test_name = where.split("::")
        tree = ast.parse((REPO / "tests" / filename).read_text())
        tests = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert test_name in tests, where
        names = {sub.attr if isinstance(sub, ast.Attribute) else sub.id
                 for sub in ast.walk(tests[test_name])
                 if isinstance(sub, (ast.Attribute, ast.Name))}
        assert key.rpartition(".")[2] in names, f"{where} does not use {key}"
