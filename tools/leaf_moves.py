"""Report leaves, CSV cells and summary lines that moved between two runs of
the same configs.

    python3 tools/leaf_moves.py PARENT_DIR CHANGE_DIR

Each directory holds one subdirectory per experiment with its report.json,
CSVs and summary.txt, as `asclt-lab run --out DIR/<experiment>` writes them.
For every report.json this prints each leaf whose value differs between the
two sides, with its relative move, and the largest relative move of the
report. For every CSV it prints the rows that moved, the largest relative
move of a cell, and each cell that changed but is not a number on both
sides. For every summary.txt it prints each line that changed. It exits 1
if one of these files is present on one side only, a leaf other than a
float or a cell other than a number changed, a value moved by more than
1e-9 relative (the benchmark's gate), or a summary line changed, else 0.
"""

import itertools
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
    new = flatten(json.loads(other.read_text()))
    failed, worst, moved = False, 0.0, 0
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
    new = other.read_text().splitlines()
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
          f"largest relative move {worst:.2g}")
    return failed or worst > BOUND or math.isnan(worst)


def summary_moves(path: Path, other: Path) -> bool:
    """Print the changed lines of one summary.txt; True if any changed."""
    old, new = path.read_text().splitlines(), other.read_text().splitlines()
    changed = [(i, a, b) for i, (a, b) in enumerate(itertools.zip_longest(old, new), 1)
               if a != b]
    for i, a, b in changed:
        print(f"  {path.name} line {i}: {a!r} -> {b!r}")
    print(f"{path.parent.name}/{path.name}: {len(changed)} of {len(old)} lines changed")
    return bool(changed)


def _outputs(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.glob("*/*")
            if p.name in ("report.json", "summary.txt") or p.suffix == ".csv"}


def main(parent: str, change: str) -> int:
    roots = Path(parent), Path(change)
    old, new = map(_outputs, roots)
    for rel in sorted(old ^ new):
        print(f"{rel}: only in {parent if rel in old else change}")
    failed = bool(old ^ new)
    for rel in sorted(old & new):
        pair = (roots[0] / rel, roots[1] / rel)
        if rel.name == "report.json":
            failed |= report_moves(*pair)
        elif rel.name == "summary.txt":
            failed |= summary_moves(*pair)
        else:
            failed |= csv_moves(*pair)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
