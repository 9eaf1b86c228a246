"""tools/leaf_moves.py: report leaves and CSV cells that moved between runs."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "leaf_moves", Path(__file__).resolve().parents[1] / "tools" / "leaf_moves.py")
leaf_moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(leaf_moves)


def _run(tmp_path, side: str, report: dict, csv: str) -> Path:
    out = tmp_path / side / "exp"
    out.mkdir(parents=True)
    (out / "report.json").write_text(json.dumps(report))
    (out / "rows.csv").write_text(csv)
    return tmp_path / side


def test_leaf_moves_counts_report_and_csv_moves(tmp_path, capsys):
    parent = _run(tmp_path, "a", {"x": 1.0, "y": [2.0, 3.0]},
                  "n,v\n1,0.5\n2,0.25\n3,0.125\n")
    change = _run(tmp_path, "b", {"x": 1.0, "y": [2.0 * (1 + 2**-52), 3.0]},
                  "n,v\n1,0.5\n2,0.25000000000000006\n3,0.125\n")
    assert leaf_moves.main(str(parent), str(change)) == 0
    out = capsys.readouterr().out
    assert "exp: 1 of 3 leaves moved, largest relative move 2.2e-16" in out
    assert "exp/rows.csv: 1 of 3 rows moved, largest relative move 2.2e-16" in out


def test_leaf_moves_flags_text_changes_and_large_moves(tmp_path, capsys):
    parent = _run(tmp_path, "a", {"x": 1.0}, "n,v\n1,np.float64(0.5)\n2,0.25\n3,1.0\n")
    text = _run(tmp_path, "b", {"x": 1.0}, "n,v\n1,0.5\n2,0.25\n3,1.0\n")
    assert leaf_moves.main(str(parent), str(text)) == 1
    assert "'np.float64(0.5)' -> '0.5' (not numeric)" in capsys.readouterr().out
    large = _run(tmp_path, "c", {"x": 1.5}, "n,v\n1,np.float64(0.5)\n2,0.25\n3,1.0\n")
    assert leaf_moves.main(str(parent), str(large)) == 1
    same = _run(tmp_path, "d", {"x": 1.0}, "n,v\n1,np.float64(0.5)\n2,0.250\n3,1.0\n")
    assert leaf_moves.main(str(parent), str(same)) == 1
    assert "(same number, other text)" in capsys.readouterr().out


def test_leaf_moves_fails_on_summary_lines_and_one_sided_files(tmp_path, capsys):
    parent = _run(tmp_path, "a", {"x": 1.0}, "n,v\n1,0.5\n")
    change = _run(tmp_path, "b", {"x": 1.0}, "n,v\n1,0.5\n")
    for side, verdict in ((parent, "consistent"), (change, "flagged")):
        (side / "exp" / "summary.txt").write_text(f"exp:\n  check: yes\nverdict: {verdict}\n")
    assert leaf_moves.main(str(parent), str(change)) == 1
    assert "summary.txt line 3: 'verdict: consistent' -> 'verdict: flagged'" in (
        capsys.readouterr().out)
    (change / "exp" / "summary.txt").write_text("exp:\n  check: yes\nverdict: consistent\n")
    assert leaf_moves.main(str(parent), str(change)) == 0
    (change / "exp" / "extra.csv").write_text("n,v\n1,0.5\n")
    assert leaf_moves.main(str(parent), str(change)) == 1
    assert f"exp/extra.csv: only in {change}" in capsys.readouterr().out
