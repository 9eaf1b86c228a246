"""tools/leaf_moves.py: report leaves and CSV cells that moved between runs;
tools/simd_matrix.py: default reports at each SIMD level of this CPU."""

import importlib.util
import json
from pathlib import Path

import pytest


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


leaf_moves = _tool("leaf_moves")
simd_matrix = _tool("simd_matrix")


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


def test_simd_matrix_kernels_decay_stays_put_at_avx2(tmp_path, capsys):
    # kernels_decay reads none of the float64 loops whose AVX-512 versions
    # round differently, so at the AVX2 level (X86_V3, AVX-512 off) its
    # outputs keep every byte of the native run.
    if "X86_V3" not in dict(simd_matrix.levels()):
        pytest.skip("no NPY_DISABLE_CPU_FEATURES set on this CPU leaves X86_V3 on top")
    assert simd_matrix.main([str(tmp_path), "kernels_decay"]) == 0
    out = capsys.readouterr().out
    block = out.split("== X86_V3:")[1].split("\n== ")[0]
    assert "simd_dispatch ['X86_V3']" in block
    assert "kernels_decay: byte-identical" in block
