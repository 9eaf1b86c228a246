"""Report leaves and CSV cells that moved between two runs of the same configs.

    python3 tools/leaf_moves.py PARENT_DIR CHANGE_DIR

Each directory holds one subdirectory per experiment with its report.json
and CSVs, as `asclt-lab run --out DIR/<experiment>` writes them. For every
report.json under PARENT_DIR this prints each leaf whose value differs in
CHANGE_DIR, with its relative move, and the largest relative move of the
report. For every CSV next to it, it prints the rows that moved, the
largest relative move of a cell, and each cell that changed but is not a
number on both sides. It exits 1 if a report or CSV is missing, a leaf other
than a float or a cell other than a number changed, or a value moved by
more than 1e-9 relative (the benchmark's gate), else 0.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from reference import flatten  # noqa: E402

BOUND = 1e-9


def _relative(a: float, b: float) -> float:
    return abs(b - a) / max(abs(a), abs(b))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def report_moves(path: Path, other: Path) -> bool:
    """Print the moved leaves of one report; True if the pair fails."""
    old = flatten(json.loads(path.read_text()))
    new = flatten(json.loads(other.read_text())) if other.exists() else {}
    failed, worst, moved = not other.exists(), 0.0, 0
    for leaf in sorted(old.keys() | new.keys()):
        a, b = old.get(leaf), new.get(leaf)
        if type(a) is type(b) and (a == b or a != a and b != b):
            continue
        if type(a) is float and type(b) is float:
            move = _relative(a, b)
            worst, moved = max(worst, move), moved + 1
            print(f"  {leaf}: {move:.2g}")
        else:
            failed = True
            print(f"  {leaf}: {a!r} -> {b!r}")
    print(f"{path.parent.name}: {moved} of {len(old)} leaves moved, "
          f"largest relative move {worst:.2g}")
    return failed or worst > BOUND or math.isnan(worst)


def csv_moves(path: Path, other: Path) -> bool:
    """Print the moved rows of one CSV; True if the pair fails."""
    old = path.read_text().splitlines()
    new = other.read_text().splitlines() if other.exists() else []
    failed, worst, moved = len(old) != len(new), 0.0, 0
    for i, (a_row, b_row) in enumerate(zip(old, new)):
        if a_row == b_row:
            continue
        moved += 1
        a_cells, b_cells = a_row.split(","), b_row.split(",")
        if len(a_cells) != len(b_cells):
            failed = True
            print(f"  {path.name} line {i + 1}: {a_row!r} -> {b_row!r}")
            continue
        for a, b in zip(a_cells, b_cells):
            x, y = _number(a), _number(b)
            if a == b:
                continue
            if x is None or y is None or x == y:
                failed = True
                why = "not numeric" if x is None or y is None else "same number, other text"
                print(f"  {path.name} line {i + 1}: {a!r} -> {b!r} ({why})")
            else:
                worst = max(worst, _relative(x, y))
    print(f"{path.parent.name}/{path.name}: {moved} of {len(old) - 1} rows moved, "
          f"largest relative move {worst:.2g}" + ("" if other.exists() else " (missing)"))
    return failed or worst > BOUND or math.isnan(worst)


def main(parent: str, change: str) -> int:
    failed = False
    for path in sorted(Path(parent).glob("*/report.json")):
        target = Path(change) / path.parent.name
        failed |= report_moves(path, target / "report.json")
        for csv in sorted(path.parent.glob("*.csv")):
            failed |= csv_moves(csv, target / csv.name)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
