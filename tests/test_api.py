import ast
import functools
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import quadham

ROOT = pathlib.Path(__file__).parents[1]

# exported names that only the tests call, each kept as a reference check
TEST_ONLY_EXPORTS = {
    "quadratic_commutator": "reference for the conservation check of "
                            "tests/test_acceptance.py",
    "build_fock_matrix": "dense reference the oracle's blocks are checked "
                         "against, and a per-layer name in BENCHMARK.json",
}

# public methods of exported classes that only the tests call, each kept as
# the arithmetic or numerics of a reference check
TEST_ONLY_METHODS = {
    "ComplexRational.conjugate": "arithmetic of the ref_* kernel of "
                                 "tests/test_exact_kernel.py",
    "ComplexRational.to_complex": "arithmetic of the ref_* kernel of "
                                  "tests/test_exact_kernel.py",
    "PolyGaussian.evaluate": "the quadrature cross-check and the exact "
                             "family of tests/digests.py",
}

# the sites in src/quadham that build an instance through object.__new__,
# past its class's checks, each kept for the cost it saves
UNCHECKED_CONSTRUCTORS = {
    "wavefunctions.PolyGaussian._from_kernel": "the exact kernel already holds "
                                               "integer pairs over a positive "
                                               "denominator, which __init__ "
                                               "would rebuild from a polynomial",
}


def test_every_exported_name_resolves():
    missing = [name for name in quadham.__all__ if not hasattr(quadham, name)]
    assert missing == []
    assert len(set(quadham.__all__)) == len(quadham.__all__)


def test_traced_benchmark_names_are_public_layer_functions():
    # the traced benchmark run reads 0 for a per-layer metric whose function
    # was renamed or made private, so each name must resolve here
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    traced = [n.split(".")[:2] for n in names
              if n.endswith(".self_s") and n.count(".") == 2]
    assert traced
    bad = []
    for layer, func in traced:
        mod = importlib.import_module(f"quadham.{layer}")
        obj = getattr(mod, func, None)
        if (func.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__):
            bad.append(f"{layer}.{func}")
    assert bad == []


def test_import_and_oracle_stay_numpy_only():
    # scipy is installed next to numpy but is not a declared dependency, so
    # neither the import nor the Fock oracle may pull it in
    src = pathlib.Path(quadham.__file__).parents[1]
    code = (
        "import sys, quadham\n"
        "q = quadham.random_positive_definite_form(2, seed=1)\n"
        "quadham.oracle_spectrum(q, quadham.FockTruncation(4, 2))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_digest_tool_runs():
    # tests/digests.py is the bit-for-bit check between two checkouts and
    # imports helpers from the test modules, so a change to those must not
    # break it; its hashes follow the platform's LAPACK bits, so only the
    # shape of its output is checked
    tool = ROOT / "tests" / "digests.py"
    families = re.findall(r"^- ([\w-]+):", ast.get_docstring(ast.parse(
        tool.read_text(encoding="utf-8"))), flags=re.MULTILINE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(tool)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert len(lines) == 10
    assert {name.split("[")[0] for name, _, _ in lines} == set(families)
    assert all(int(count) > 0 and re.fullmatch(r"[0-9a-f]{64}", digest)
               for _, count, digest in lines)


def test_no_module_reads_the_process_environment():
    # settings such as the tolerance scale arrive as arguments, config keys or
    # the context variable, never as ambient process state
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted((ROOT / "src" / "quadham").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in reads
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(alias.name in reads for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_lapack_call_goes_through_one_boundary():
    # a numpy.linalg call raises LinAlgError; phase_space._lapack turns it
    # into EigensolverError (CLI exit code 3), so every other call is passed
    # to it instead of made in place
    found = []
    for path in sorted((ROOT / "src" / "quadham").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr != "norm"
                    and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg"
                    and isinstance(f.value.value, ast.Name) and f.value.value.id == "np"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _used_names(files) -> set[str]:
    """Names, attributes and imported names that the files' code refers to."""
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    return used


def _used_outside_the_tests() -> set[str]:
    """_used_names of the package's modules but __init__.py, bench and demos."""
    package = ROOT / "src" / "quadham"
    files = [f for f in package.glob("*.py") if f.name != "__init__.py"]
    for tree in ("bench", "demos"):
        files += sorted((ROOT / tree).rglob("*.py"))
    return _used_names(files)


def test_every_export_has_a_caller_outside_the_tests():
    used = _used_outside_the_tests()
    unused = {name for name in quadham.__all__ if name not in used}
    assert unused == set(TEST_ONLY_EXPORTS)


def _private_helpers(trees):
    """(module, name, node) of each module-level function or class whose
    name starts with one underscore."""
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                yield path.name, node.name, node


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper that only the tests call is dead code its tests keep alive;
    # a reference inside the helper itself (recursion) does not count
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "quadham").glob("*.py"))}
    # an import alone is no use: a stale `from ._x import _helper` is the
    # shape dead code takes after a refactor
    refs = {}  # name -> ids of the names and attributes naming it
    for tree in trees.values():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            refs.setdefault(name, set()).add(id(node))
    helpers = list(_private_helpers(trees))
    unused = [f"{module}:{name}" for module, name, definition in helpers
              if not refs.get(name, set()) - set(map(id, ast.walk(definition)))]
    assert len(helpers) > 50 and unused == []


def test_every_public_method_has_a_caller_outside_the_tests():
    # goes by name, as the export check does: a method whose name is used
    # anywhere else in src, bench or demos passes, so such a name hides a
    # dead method (as "frequency" and "canonical" hid LadderSpec.frequency
    # and PolyGaussian.canonical before they were deleted), and operators
    # (dunder methods) are not seen at all
    used = _used_outside_the_tests()
    kinds = (property, classmethod, staticmethod, functools.cached_property)
    unused = set()
    for name in quadham.__all__:
        cls = getattr(quadham, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if (not attr.startswith("_") and attr not in used
                    and (inspect.isfunction(value) or isinstance(value, kinds))):
                unused.add(f"{name}.{attr}")
    assert unused == set(TEST_ONLY_METHODS)


def _object_new_sites(node, scope):
    """Dotted scope of each object.__new__ under node, in source order."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                and isinstance(child.value, ast.Name) and child.value.id == "object"):
            yield scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _object_new_sites(child, f"{scope}.{child.name}" if named else scope)


def test_object_new_only_at_allowlisted_sites():
    found = []
    for path in sorted((ROOT / "src" / "quadham").rglob("*.py")):
        found += _object_new_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == sorted(UNCHECKED_CONSTRUCTORS)
