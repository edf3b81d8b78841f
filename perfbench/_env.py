"""Locate the program under test and keep every file the benchmark
touches inside the checkout.

The benchmark runs from the root of a source checkout and imports the
program from ``src/``.  Everything it writes -- generated inputs,
snapshot directories, temp files, result files -- goes under
``.perfbench/`` in that checkout.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
INPUT_ROOT = STATE / "inputs"
WORK_ROOT = STATE / "work"
RESULT_ROOT = STATE / "results"


def prepare_env() -> None:
    """Put ``src/`` on the import path and pin process-wide settings.

    Exits with status 2 when the checkout holds no program to measure.
    Flat buffers use the in-process ``bytes`` backend so that no segment
    is created in ``/dev/shm``, outside the checkout; temp files land in
    ``.perfbench/tmp``.  Must run before ``repro`` is imported.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_FLAT_BACKEND"] = "bytes"
    os.environ["REPRO_FLAT_DIR"] = str(tmp)
    tempfile.tempdir = None
