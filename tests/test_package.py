"""The package surface: exactly the union of the library modules' ``__all__``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import timebins

# the command-line driver and its ``python -m`` entry are not library modules
NOT_LIBRARY = {"cli", "__main__"}


def library_modules():
    names = sorted(
        info.name
        for info in pkgutil.iter_modules(timebins.__path__)
        if info.name not in NOT_LIBRARY
    )
    return [importlib.import_module(f"timebins.{name}") for name in names]


def test_package_exports_the_union_of_the_library_modules():
    exported = [name for module in library_modules() for name in module.__all__]
    assert sorted(timebins.__all__) == sorted(exported + ["__version__"])


def test_every_exported_name_resolves():
    for name in timebins.__all__:
        assert hasattr(timebins, name), name


def test_no_name_is_exported_by_two_modules():
    owner = {}
    for module in library_modules():
        for name in module.__all__:
            assert name not in owner, f"{name} in {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__


def child_stdout(code: str) -> str:
    """Standard output of ``python -c code`` with this package importable."""
    src = str(Path(timebins.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_importing_the_package_leaves_numpy_fft_unloaded():
    # numpy loads numpy.fft on first use, and nothing in the package uses
    # it, so importing the package does not pay for it
    code = "import sys, timebins, timebins.cli; print('numpy.fft' in sys.modules)"
    assert child_stdout(code).strip() == "False"


def test_importing_the_package_builds_no_csv_table():
    # the CSV kernel's power-of-ten and digit tables are built on its first call
    code = (
        "import timebins, timebins.cli; from timebins import experiments as e; "
        "print(e._pow10_table.cache_info().currsize, e._digit_tables.cache_info().currsize)"
    )
    assert child_stdout(code).split() == ["0", "0"]
