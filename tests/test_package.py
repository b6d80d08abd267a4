import ast
import importlib
import inspect
import pkgutil

import seriaccel


def test_every_public_name_resolves():
    checked = set()
    for info in pkgutil.iter_modules(seriaccel.__path__):
        module = importlib.import_module(f"seriaccel.{info.name}")
        if hasattr(module, "__all__"):
            checked.add(info.name)
            assert [name for name in module.__all__ if not hasattr(module, name)] == [], info.name
    assert {"field", "jets", "prediction", "remainders", "report", "series_library",
            "transforms"} <= checked


def test_the_package_imports_only_public_names():
    imports = [node for node in ast.parse(inspect.getsource(seriaccel)).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        public = importlib.import_module(f"seriaccel.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module
