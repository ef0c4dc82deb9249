import importlib
import pkgutil

import torsionflow


def test_every_exported_name_resolves():
    # a deleted function must not leave its name behind in __all__
    names = ["torsionflow"] + [f"torsionflow.{m.name}" for m in pkgutil.iter_modules(torsionflow.__path__)]
    assert len(names) == 10
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], (name, missing)
