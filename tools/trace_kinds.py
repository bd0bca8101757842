"""Print how a trace's lines and bytes split by (kind, entity, frame type).

    PYTHONPATH=src python tools/trace_kinds.py TRACE

It reads TRACE once, streaming, through simengine.trace_records, so a trace
that breaks the grammar stops it at that line. A device entity counts as
"dev", as in the entity column of docs/formats/trace.md, and a line whose
kind names no frame type shows "-" for it. Bytes are UTF-8 bytes, line
ends included. Rows come largest first, then the totals.
"""

import sys
from collections import Counter

from openhealth.simengine import TRACE_LINES, trace_records

# kind -> the index of its "type" detail, for the kinds that name a frame type
TYPE_AT = {kind: names.index("type") for kind, (_, names, _) in TRACE_LINES.items() if "type" in names}


def tally(path: str) -> tuple[Counter, Counter]:
    """(lines, bytes) per (kind, entity, frame type) of the trace at path."""
    lines, sizes = Counter(), Counter()
    size = 0

    def measured(f):
        nonlocal size
        for line in f:
            size = len(line.encode("utf-8"))
            yield line

    with open(path, encoding="utf-8") as f:
        # trace_records takes one line a record, so size is the record's line's
        for _, _, kind, entity, details in trace_records(measured(f), parse=()):
            key = (kind, "dev" if entity.startswith("dev") else entity,
                   details[TYPE_AT[kind]] if kind in TYPE_AT else "-")
            lines[key] += 1
            sizes[key] += size
    return lines, sizes


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: PYTHONPATH=src python tools/trace_kinds.py TRACE", file=sys.stderr)
        return 2
    lines, sizes = tally(argv[0])
    total_lines, total_bytes = sum(lines.values()), sum(sizes.values())
    print(f"{'kind':<18}{'entity':<8}{'type':<10}{'lines':>8}{'bytes':>10}{'share':>8}")
    for key, size in sorted(sizes.items(), key=lambda item: (-item[1], item[0])):
        print(f"{key[0]:<18}{key[1]:<8}{key[2]:<10}{lines[key]:>8}{size:>10}{size / total_bytes:>8.1%}")
    print(f"{'total':<36}{total_lines:>8}{total_bytes:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
