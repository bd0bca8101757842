"""Print the executable lines of src/openhealth that a pytest run never runs.

    PYTHONPATH=src python tools/line_coverage.py [pytest arguments]

It traces the pytest process alone, with sys.settrace, so lines that run
only in a forked shard or a CLI subprocess count as never run. The run is
about twice as slow as plain pytest. A function's def line counts as run
when the def statement runs, not when the function is called.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src" / "openhealth")
ran: set[tuple[str, int]] = set()  # (file name as the code object gives it, line)
traced: dict[str, bool] = {}  # file name -> whether it is in SRC


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in traced:  # a relative PYTHONPATH gives relative file names
        traced[name] = os.path.abspath(name).startswith(SRC)
    return _lines if traced[name] else None


def executable(code) -> set[int]:
    """The lines of code and of the code nested in it, less each function's def line
    and the line 0 a module's code starts at."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


if __name__ == "__main__":
    threading.settrace(_calls)
    sys.settrace(_calls)
    status = pytest.main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"])
    sys.settrace(None)
    for path in sorted(Path(SRC).glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(executable(code) - {line for name, line in ran if os.path.abspath(name) == str(path)})
        for line in missed:
            print(f"{path.relative_to(Path(SRC).parent.parent)}:{line}")
    sys.exit(status)
