"""Reference reports and the comparison that decides whether a run is correct.

``references/<workload>.json`` holds, for every config of the workload, the
exit code, sha256 and report at ``REFERENCE_SEED``, and ``seed_free``: the
float leaves that came out bit-identical at ``REFERENCE_SEED`` and
``REFERENCE_SEED + 1`` (exact normalizers, criteria fits, contraction
scans), which no seed may change. ``record.py`` writes them from the
unchanged program.

Every run must exit with the reference exit code and write an empty
``failures`` list, and its seed-free leaves must match. At
``REFERENCE_SEED`` the whole report must match. Floats match within a
relative tolerance, so that declared last-digit moves pass; every other
leaf, and the document's shape, match exactly. The sha256 is reported so
that byte moves stay visible even when they pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_SEED = 1
REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def flatten(doc, where: str = "$") -> dict:
    """Leaf path -> leaf value; empty containers count as leaves."""
    if isinstance(doc, dict) and doc:
        items = ((f"{where}.{k}", v) for k, v in doc.items())
    elif isinstance(doc, list) and doc:
        items = ((f"{where}[{i}]", v) for i, v in enumerate(doc))
    else:
        return {where: doc}
    out = {}
    for path, value in items:
        out.update(flatten(value, path))
    return out


def same(ref, got) -> bool:
    """Float leaves within tolerance (NaN equals NaN), others exactly."""
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(ref) is type(got) and ref == got


def compare(ref: dict, got: dict, whole: bool = True) -> list[str]:
    """Differences between flattened reports, one line each. With
    ``whole=False`` only the reference's paths are checked."""
    problems = [f"{p}: not in the reference" for p in got.keys() - ref.keys() if whole]
    for path, value in ref.items():
        if path not in got:
            problems.append(f"{path}: missing")
        elif not same(value, got[path]):
            problems.append(f"{path}: {got[path]!r} differs from reference {value!r}")
    return problems


def seed_free(a: dict, b: dict) -> list[str]:
    """Paths of the float leaves two flattened reports share bit for bit."""
    return sorted(p for p, v in a.items()
                  if isinstance(v, float) and isinstance(b.get(p), float) and b[p] == v)


def check_run(ref: dict, seed: int, exit_code: int, report_bytes: bytes | None) -> list[str]:
    """Problems with one config run against its reference entry."""
    if report_bytes is None:
        return ["no report.json written"]
    problems = []
    if exit_code != ref["exit_code"]:
        problems.append(f"exit code {exit_code}, reference {ref['exit_code']}")
    report = json.loads(report_bytes)
    if report.get("failures"):
        problems.append(f"replicate failures: {report['failures'][:3]}")
    expected = flatten(ref["report"])
    if seed != REFERENCE_SEED:
        expected = {p: expected[p] for p in ref["seed_free"]}
    return problems + compare(expected, flatten(report), whole=seed == REFERENCE_SEED)[:10]


def load(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
