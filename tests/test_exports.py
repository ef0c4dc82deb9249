import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import torsionflow
from torsionflow.flow import descend
from torsionflow.unstruct import StructureJets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    # a deleted function must not leave its name behind in __all__
    names = ["torsionflow"] + [f"torsionflow.{m.name}" for m in pkgutil.iter_modules(torsionflow.__path__)]
    assert len(names) == 10
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], (name, missing)


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
