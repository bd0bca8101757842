"""Check that a pytest run runs every executable line of src/openhealth.

    PYTHONPATH=src python tools/line_coverage.py [pytest arguments]

It traces the pytest process alone, with sys.settrace, so lines that run
only in a forked shard or a CLI subprocess count as never run. The run is
about twice as slow as plain pytest, so it is run by hand, not by tier-1.
A function's def line counts as run when the def statement runs, not when
the function is called.

It prints each line that never ran and is not in ALLOWED, and each ALLOWED
entry that names no line, and exits 1 if there is any (or with pytest's
status if the tests fail).
"""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src" / "openhealth")
# (file, the line's text less its indent) -> why no test in the pytest process runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the __main__ guard: the tests call main() itself",
    ("simengine.py", "return os.cpu_count() or 1"): "_usable_cpus on a platform without os.sched_getaffinity",
    ("simengine.py", 'return Path(path).read_text(encoding="utf-8").splitlines()'): "read_trace: only perfbench calls it",
    ("classifier.py", "break  # rounding left d no descent direction"): "L-BFGS: only rounding makes d no descent",
}
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
    present = set()  # (file, line text) of every line, to find stale ALLOWED entries
    for path in sorted(Path(SRC).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = [row.strip() for row in text.splitlines()]
        present |= {(path.name, row) for row in source}
        missed = executable(compile(text, str(path), "exec"))
        missed -= {line for name, line in ran if os.path.abspath(name) == str(path)}
        for line in sorted(missed):
            if (path.name, source[line - 1]) not in ALLOWED:
                print(f"never ran: {path.relative_to(Path(SRC).parent.parent)}:{line}: {source[line - 1]}")
                status = status or 1
    for name, line in sorted(ALLOWED.keys() - present):
        print(f"ALLOWED names no line of {name}: {line}")
        status = status or 1
    sys.exit(status)
