"""Import layering, read from the source with ``ast``: the oracle shares no
code with the solver beyond the problem representation, and the cut
operators depend on nothing above the model."""

import ast
from pathlib import Path

import cutlearn

PACKAGE = Path(cutlearn.__file__).resolve().parent

# The solver's activity kernels and the row methods built on them.
KERNELS = {
    "Activity",
    "activity",
    "global_contributions",
    "infeasible_over",
    "global_span",
    "int_scaled",
}


def package_imports(path):
    """(package module, imported names) for every import of a package
    module in the source file ``path``: ``from .model import x`` and
    ``from cutlearn.model import x`` give ("model", ["x"]), and
    ``from . import model`` and ``import cutlearn.model`` give ("model", [])."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name.partition(".")[0] != "cutlearn":
                    continue
                name = name.partition(".")[2]
            if name:
                yield name, [a.name for a in node.names]
            else:
                yield from ((a.name, []) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                package, _, name = a.name.partition(".")
                if package == "cutlearn":
                    yield name, []


def imported_modules(module):
    return {name for name, _ in package_imports(PACKAGE / f"{module}.py")}


def test_oracle_imports_only_model_and_rationals():
    assert imported_modules("oracle") <= {"model", "rationals"}


def test_oracle_uses_no_activity_kernel():
    path = PACKAGE / "oracle.py"
    imported = {n for _, names in package_imports(path) for n in names}
    assert not imported & KERNELS
    tree = ast.parse(path.read_text())
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attributes & KERNELS


def test_cuts_imports_nothing_above_the_model():
    assert not imported_modules("cuts") & {"trail", "propagation", "conflict", "search"}


def test_package_imports_reads_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "import cutlearn.trail\n"
        "from . import search\n"
        "from .model import activity\n"
        "from cutlearn.conflict import analyze\n"
        "from fractions import Fraction\n"
    )
    assert sorted(package_imports(probe)) == [
        ("conflict", ["analyze"]),
        ("model", ["activity"]),
        ("search", []),
        ("trail", []),
    ]
