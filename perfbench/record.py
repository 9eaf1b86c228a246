"""Record the reference reports that ``run.py`` checks runs against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every config of each workload at ``reference.REFERENCE_SEED`` and at
the seed after it, and writes ``references/<workload>.json``: per
experiment the exit code, the report's sha256, the report, and the paths
of its seed-free float leaves. Record only from a commit whose reports are
known good; a later change that moves report bytes on purpose re-records
and says which bytes moved and why.
"""

from __future__ import annotations

import json
import sys

import reference
import run


def _reports(workload: str, seed: int) -> tuple[list[int], list[bytes]]:
    work = run.WORK / f"record-{workload}-{seed}"
    configs = run.write_configs(workload, seed, run.NPROC, work)
    _, result, error = run.run_child(configs, work / "child.log")
    if result is None:
        raise SystemExit(f"{workload}: {error}")
    return result["exit_codes"], [
        (work / experiment / "report.json").read_bytes()
        for experiment, _ in run.WORKLOADS[workload]
    ]


def record(workload: str) -> None:
    codes, reports = _reports(workload, reference.REFERENCE_SEED)
    _, others = _reports(workload, reference.REFERENCE_SEED + 1)
    refs = {}
    for (experiment, _), code, data, other in zip(run.WORKLOADS[workload], codes,
                                                  reports, others):
        report = json.loads(data)
        free = reference.seed_free(reference.flatten(report),
                                   reference.flatten(json.loads(other)))
        refs[experiment] = {"exit_code": code, "sha256": reference.sha256(data),
                            "report": report, "seed_free": free}
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference.REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: " + ", ".join(
        f"{e} exit {r['exit_code']}, {len(r['seed_free'])} seed-free leaves"
        for e, r in refs.items()))


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(run.WORKLOADS):
        record(name)
