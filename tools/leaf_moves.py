"""Report leaves that moved between two runs of the same configs.

    python3 tools/leaf_moves.py PARENT_DIR CHANGE_DIR

Each directory holds one subdirectory per experiment with its report.json,
as `asclt-lab run --out DIR/<experiment>` writes it. For every report.json
under PARENT_DIR this prints each leaf whose value differs in CHANGE_DIR,
with its relative move, and the largest relative move of the report. It
exits 1 if a report is missing, a leaf other than a float changed, or a
float moved by more than 1e-9 relative (the benchmark's gate), else 0.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from reference import flatten  # noqa: E402

BOUND = 1e-9


def main(parent: str, change: str) -> int:
    failed = False
    for path in sorted(Path(parent).glob("*/report.json")):
        other = Path(change) / path.parent.name / "report.json"
        old = flatten(json.loads(path.read_text()))
        new = flatten(json.loads(other.read_text())) if other.exists() else {}
        worst, moved = 0.0, 0
        for leaf in sorted(old.keys() | new.keys()):
            a, b = old.get(leaf), new.get(leaf)
            if type(a) is type(b) and (a == b or a != a and b != b):
                continue
            if type(a) is float and type(b) is float:
                move = abs(b - a) / max(abs(a), abs(b))
                worst, moved = max(worst, move), moved + 1
                print(f"  {leaf}: {move:.2g}")
            else:
                failed = True
                print(f"  {leaf}: {a!r} -> {b!r}")
        failed |= not other.exists() or worst > BOUND or math.isnan(worst)
        print(f"{path.parent.name}: {moved} of {len(old)} leaves moved, "
              f"largest relative move {worst:.2g}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
