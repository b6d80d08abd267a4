import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_importing_the_cli_loads_no_dataclasses_json_or_csv():
    # Only the modules the import adds count, not those ``site`` preloads.
    src = str(Path(seriaccel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import seriaccel.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    added = set(proc.stdout.split())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "seriaccel.cli" in added
    assert added & {"dataclasses", "json", "csv"} == set()


def test_every_subcommand_loads_only_the_standard_library():
    # mpmath and hypothesis are installed here, so an optional import of
    # either would show up.
    script = Path(__file__).with_name("_stdlib_only.py")
    src = str(Path(seriaccel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    assert proc.stdout.splitlines()[-1] == "modules outside the standard library:"


@pytest.mark.console
def test_the_console_smoke_passes_through_the_module_entry_point():
    # The commands CI runs through the installed ``seriaccel`` script.
    script = Path(__file__).with_name("_console_smoke.py")
    src = str(Path(seriaccel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script), sys.executable, "-m", "seriaccel.cli"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=900)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 of 25 commands failed"
