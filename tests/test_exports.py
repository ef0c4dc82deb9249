import ast
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import torsionflow
from torsionflow import catalog, unstruct
from torsionflow.catalog import build_structure, flat_kahler, spec_from_config
from torsionflow.diagnostics import run_diagnostics
from torsionflow.flow import descend
from torsionflow.geometry import MIN_JET_DEGREE
from torsionflow.unstruct import StructureJets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(torsionflow.__file__).parent


def test_every_exported_name_resolves():
    # a deleted function must not leave its name behind in __all__
    names = ["torsionflow"] + [f"torsionflow.{m.name}" for m in pkgutil.iter_modules(torsionflow.__path__)]
    assert len(names) == 10
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], (name, missing)


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a module reads: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_names_kept_for_the_tests_are_exported_and_unused_by_the_package():
    # a docstring's "Kept for the tests only" list must stay true: a name
    # another module calls is production code and leaves the list
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for stem, tree in trees.items():
        _, found, tail = (ast.get_docstring(tree) or "").partition("Kept for the tests only")
        if not found:
            continue
        kept = set(re.findall(r"``(\w+)``", tail.split("\n\n")[0]))
        exported = importlib.import_module(f"torsionflow.{stem}").__all__
        assert kept and kept <= set(exported), (stem, kept)
        readers = {other: kept & _names_read(t) for other, t in trees.items() if other != stem}
        assert not any(readers.values()), (stem, readers)


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is that module's API and carries no underscore
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("torsionflow")):
                private += [(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


def _reaches(path: Path) -> list[tuple[object, str]]:
    """(owner, attribute) for every package name a perfbench script reads."""
    tree = ast.parse(path.read_text())
    modules, reads = {}, []  # modules: local alias -> torsionflow module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [a for a in node.names if a.asname and a.name.startswith("torsionflow.")]
            modules.update({a.asname: importlib.import_module(a.name) for a in aliases})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torsionflow"):
            for a in node.names:
                if node.module == "torsionflow":
                    modules[a.asname or a.name] = importlib.import_module(f"torsionflow.{a.name}")
                else:
                    reads.append((importlib.import_module(node.module), a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.append((modules[node.value.id], node.attr))
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            reads += [(StructureJets, a) for _, attrs in ast.literal_eval(node.value) for a in attrs]
    return reads


def test_benchmark_harness_reaches_existing_names():
    # perfbench reaches into the package from outside it: a rename must fail here
    reads = {p.name: _reaches(p) for p in sorted(PERFBENCH.glob("*.py"))}
    traced = {(getattr(owner, "__name__", None), attr) for owner, attr in reads["traced.py"]}
    assert {("StructureJets", "gh_fields"), ("torsionflow.diagnostics", "run_diagnostics"),
            ("torsionflow.flow", "descend"), ("torsionflow.catalog", "spec_from_config")} <= traced
    missing = [(name, attr) for name, pairs in reads.items() for owner, attr in pairs if not hasattr(owner, attr)]
    assert missing == []
    # workloads.armijo_trials reads the default first step
    assert "step0" in inspect.signature(descend).parameters


def test_the_reader_picks_the_jet_degree():
    # structures and their factories take no degree; each evaluator call
    # names the degree it reads, and perfbench reads GeometrySpec.degree
    builders = [
        unstruct.AlmostHermitianStructure, unstruct.random_structure, unstruct.random_curved_structure,
        catalog.GeometrySpec, catalog.flat_kahler, catalog.conformal, catalog.hopf_chart, catalog.s6_nearly_kahler,
    ]
    assert [b.__name__ for b in builders if "degree" in inspect.signature(b).parameters] == []
    assert spec_from_config({"type": "hopf", "n": 2}).degree == MIN_JET_DEGREE


def test_benchmark_harness_reads_per_point_views():
    # traced.py reads one.residuals[0] and one.scales[0] of a one-point report
    structure = build_structure(flat_kahler(1))
    one = run_diagnostics(structure, [[0.1, 0.2]])
    row, scale = one.residuals[0], one.scales[0]
    assert list(row) == list(one.max_residuals)
    assert all(type(v) is float for v in row.values())
    assert type(scale) is float


def test_structure_jets_is_the_only_memo():
    # one memo object per block of points: a class that caches a derived
    # quantity on first use extends StructureJets instead of wrapping it
    memos = []
    for info in pkgutil.iter_modules(torsionflow.__path__):
        module = importlib.import_module(f"torsionflow.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                if any(isinstance(v, functools.cached_property) for v in vars(cls).values()):
                    memos.append(cls)
    assert StructureJets in memos
    assert [cls.__qualname__ for cls in memos if not issubclass(cls, StructureJets)] == []
