"""Session fixtures shared by the test modules."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def compiled_core(tmp_path_factory):
    """The compiled kernel module, built once through setup.py if not installed.

    The extension is built into a temporary directory, so the source tree is
    left untouched.  Skips only when no extension could be built, for example
    on a machine without a C compiler.
    """
    try:
        from toursplit import _core

        return _core
    except ImportError:
        pass
    out = tmp_path_factory.mktemp("core_build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = sorted((out / "toursplit").glob("_core.*"))
    if not built:
        pytest.skip(f"compiled core could not be built: {proc.stderr.strip()[-500:]}")
    # The toursplit package under src/ shadows a path entry, so load by file.
    spec = importlib.util.spec_from_file_location("toursplit._core", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
