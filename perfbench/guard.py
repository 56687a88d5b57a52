"""Import and environment guard.

The benchmark times this checkout's `src/`, never an installed nlie and
never a cell read back from the oracle's JSON cache.  `install` puts
`src/` first on the import path of this process and, through PYTHONPATH,
of every child process; it removes NLIE_ORACLE_CACHE from the
environment, and it checks where `nlie` is imported from, here and in a
child interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_ENV_VAR = "NLIE_ORACLE_CACHE"


class GuardError(RuntimeError):
    """nlie would not be imported from this checkout's src/."""


def _check_origin(origin: str) -> None:
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise GuardError(f"nlie is imported from {origin}, not from {SRC}")


def install() -> None:
    if not (SRC / "nlie" / "__init__.py").is_file():
        raise GuardError(f"no nlie package under {SRC}")
    os.environ.pop(CACHE_ENV_VAR, None)
    # argparse wraps --help to the terminal width; fix it so output is
    # the same in every run.
    os.environ["COLUMNS"] = "80"
    old = os.environ.get("PYTHONPATH")
    if not old or old.split(os.pathsep)[0] != str(SRC):
        os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    if not sys.path or sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import nlie

    _check_origin(nlie.__file__)


def check_child() -> None:
    """Start one interpreter the way the workloads do and check its nlie."""
    out = subprocess.run(
        [sys.executable, "-c", "import nlie; print(nlie.__file__)"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    _check_origin(out.stdout.strip())
