"""Default reports at each SIMD level this CPU can run, against the native run.

    python3 tools/simd_matrix.py OUT_DIR [EXPERIMENT ...]

Runs each default experiment (all nine when none is named) with
`asclt-lab run --workers 1`, once natively and once per level below it:
for each SIMD target that NumPy dispatches to on this CPU, from the highest
down, a run with `NPY_DISABLE_CPU_FEATURES` naming that target and every
one above it, so NumPy runs the loops of the level below. The variable is
set in the child's environment only. Outputs go to OUT_DIR/native/<exp>
and OUT_DIR/<level>/<exp>, where <level> is the highest target left
("baseline" when none is). For every level it prints the `simd_dispatch`
that the runs recorded in run_meta.json, whether each experiment's outputs
are byte-identical to the native run, and what moved, through
tools/leaf_moves.py. It exits 1 if leaf_moves fails for some level (a move
past its gate, a changed summary line, a missing file), else 0.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ("asclt_fbm", "asclt_hermite_sub", "asclt_hermite_crit", "asclt_general_f",
               "non_gaussian", "kernels_decay", "delta_exactness", "malliavin_bounds",
               "sigma_limits")

_SPEC = importlib.util.spec_from_file_location("leaf_moves", ROOT / "tools" / "leaf_moves.py")
leaf_moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(leaf_moves)


def _child_env(disabled: str | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return env


def levels() -> list[tuple[str, str]]:
    """(level, NPY_DISABLE_CPU_FEATURES value) for each level below the
    native one, highest first: the dispatch targets active on this CPU, in
    NumPy's order (lowest first), are turned off from the top down."""
    code = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__;"
            "print(' '.join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)))")
    active = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                            capture_output=True, text=True).stdout.split()
    return [(active[i - 1] if i else "baseline", " ".join(active[i:]))
            for i in reversed(range(len(active)))]


def run_defaults(out: Path, experiments, disabled: str | None) -> None:
    """Each experiment's default config at --workers 1 into out/<exp>."""
    env = _child_env(disabled)
    for exp in experiments:
        cfg = out / f"{exp}.config.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": exp}) + "\n")
        code = subprocess.run([sys.executable, "-m", "asclt_lab.cli", "run", "--config", str(cfg),
                               "--out", str(out / exp), "--workers", "1"],
                              env=env, stdout=subprocess.DEVNULL).returncode
        if code not in (0, 2):  # 2 is a flagged verdict, still a full report
            raise RuntimeError(f"{exp} exited with {code} ({disabled or 'native'})")


def _same_bytes(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir() if p.name != "run_meta.json")
    return names == sorted(p.name for p in b.iterdir() if p.name != "run_meta.json") and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in names)


def main(argv: list[str]) -> int:
    out, experiments = Path(argv[0]), tuple(argv[1:]) or EXPERIMENTS
    native = out / "native"
    run_defaults(native, experiments, None)
    failed = False
    for level, disabled in levels():
        side = out / level
        run_defaults(side, experiments, disabled)
        dispatch = json.loads((side / experiments[0] / "run_meta.json").read_text())
        print(f"== {level}: NPY_DISABLE_CPU_FEATURES={disabled!r}, "
              f"simd_dispatch {dispatch['simd_dispatch']}")
        for exp in experiments:
            same = _same_bytes(native / exp, side / exp)
            print(f"{exp}: {'byte-identical' if same else 'moved'}")
        failed |= bool(leaf_moves.main(str(native), str(side)))
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
