"""asclt-lab benchmark: `asclt-lab run` workloads timed end to end, and a
traced run that splits the time by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. Each
workload is a list of registry-default experiment configs with a few sizes
overridden (``WORKLOADS``); ``--seed`` becomes ``seeds.master_seed`` and the
program sees only the generated config files. Every iteration runs in a
fresh interpreter, so module caches start cold as they do for a CLI user.
Children get ``BLAS_THREADS`` BLAS threads, chosen so that processes times
threads stays within the cores available.

``--trace 0`` runs the workload at ``--workers`` = nproc until ``--seconds``
have passed and reports the medians of

* ``setup_s``: interpreter launch to validated configs (imports plus
  ``validate_config``), from separate set-up-only launches;
* ``wall_s``: ``cli.run`` over every config, reports and CSVs written;
* ``cpu_s``: user plus system CPU of the run process and its pool workers
  over the same interval;
* ``peak_rss_mb``: the larger of the run process's and the largest pool
  worker's peak RSS;

and ``ok_share``, the share of config runs that pass the checks of
``reference.py``. It is one minus the failed share, which would read 0 on
every good run and so could carry no relative bound.

``--trace 1`` alternates untraced and traced runs at ``--workers 1`` so all
spans stay in one process, checks that both write the same report bytes,
and reports the per-layer metrics of ``spans.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and every config run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from hashlib import sha256
from pathlib import Path
from statistics import median

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"

# Workload -> (experiment, overrides of its registry defaults). Replicates and
# grids are cut to fit a run while keeping what each workload is for.
WORKLOADS: dict[str, tuple[tuple[str, dict], ...]] = {
    # Replicate pipeline: long paths (2^16), many path-independent v2_prefix
    # normalizers, and no contraction calls at all.
    "mc_general_f": (("asclt_general_f", {"seeds": {"replicates": 24}}),),
    # Contraction-bound: the criteria stage and the boundedness scan, with
    # n = 3072 so that both the dense route (n <= 2048) and the block-FFT
    # route (2465, 3072) run. The default n_max caps the criteria grid at
    # 4096 and scans to 16384, which alone takes longer than a whole run.
    "kernel_crit": (("asclt_hermite_crit",
                     {"n_max": 3072, "n_grid": [256, 1024, 3072],
                      "seeds": {"replicates": 24}}),),
    # Thousands of short paths and the Malliavin D^2G trace, at defaults.
    "short_paths": (("malliavin_bounds", {}), ("delta_exactness", {})),
}

NPROC = min(len(os.sched_getaffinity(0)), 64)
BLAS_THREADS = max(1, len(os.sched_getaffinity(0)) // NPROC)
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0
TIMED = ("wall_s", "cpu_s", "peak_rss_mb")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def write_configs(workload: str, seed: int, workers: int, out: Path) -> list[Path]:
    """One config file per experiment of the workload, from registry defaults."""
    paths = []
    for experiment, overrides in WORKLOADS[workload]:
        doc = {"schema_version": 1, "experiment": experiment, **overrides,
               "seeds": {**overrides.get("seeds", {}), "master_seed": seed},
               "workers": workers, "out_dir": str(out / experiment)}
        path = out / f"{experiment}.config.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths.append(path)
    return paths


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(configs: list[Path], log: Path, *flags: str) -> tuple[float, dict | None, str]:
    """Launch child.py; returns (set-up seconds, its JSON result, error).

    The child leads its own process group, so a timeout also ends its pool
    workers, and nothing it started outlives the call."""
    cmd = [sys.executable, str(CHILD), *flags, *map(str, configs)]
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                              cwd=ROOT, text=True, start_new_session=True) as proc:
            timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                rest = proc.stdout.read()
                code = proc.wait()
            finally:
                timer.cancel()
                _kill_group(proc.pid)
                proc.wait()
    if ready.strip() != "READY" or code != 0:
        return setup_s, None, f"child exited with {code} (see {log.relative_to(ROOT)})"
    if "--setup-only" in flags:
        return setup_s, {}, ""
    return setup_s, json.loads(rest.strip().splitlines()[-1]), ""


class Checker:
    """Checks every config run of one benchmark run and counts failures."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.experiments = [experiment for experiment, _ in WORKLOADS[workload]]
        self.refs = reference.load(workload)
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out: Path, result: dict | None, error: str, label: str) -> None:
        codes = result["exit_codes"] if result else [None] * len(self.experiments)
        for experiment, code in zip(self.experiments, codes):
            self.attempted += 1
            report = out / experiment / "report.json"
            data = report.read_bytes() if result and report.is_file() else None
            problems = [error] if error else reference.check_run(
                self.refs[experiment], self.seed, code, data)
            if data is not None:
                first = self.first.setdefault(experiment, data)
                if data != first:
                    problems.append("report.json bytes differ from this run's first report")
            self.failed += bool(problems)
            print(json.dumps({"config": experiment, "run": label, "exit_code": code,
                              "sha256": reference.sha256(data) if data else None,
                              "problems": problems}))
            if data is not None:
                report.unlink()


def environment(workers: int) -> dict:
    """Where and with what the numbers were taken. A checkout outside git
    has no commit; the sources' digest identifies the code either way."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "workers": workers,
            "blas_threads": BLAS_THREADS}


def end_to_end(args, work: Path, checker: Checker) -> dict | None:
    configs = write_configs(args.workload, args.master_seed, NPROC, work / "out")
    log = work / "child.log"
    run_child(configs, log, "--setup-only")  # compiles bytecode; not timed
    setups = []
    for _ in range(SETUP_SAMPLES):
        setup_s, result, _ = run_child(configs, log, "--setup-only")
        if result is not None:
            setups.append(setup_s)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        _, result, error = run_child(configs, log)
        checker.check(work / "out", result, error, f"iteration {len(runs)}")
        if result is None:
            break
        runs.append(result)
        print(json.dumps({"iteration": len(runs) - 1, **{k: result[k] for k in TIMED}}))
        if time.perf_counter() - start + (time.perf_counter() - t0) > RUN_BUDGET_S:
            break
    if not runs or not setups:
        return None
    print(json.dumps({"versions": runs[0]["versions"]}))
    ok = checker.attempted - checker.failed
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(r["wall_s"] for r in runs), "s"),
        "cpu_s": (median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in runs), "MB"),
        "ok_share": (ok / checker.attempted, "ratio"),
    }


def traced(args, work: Path, checker: Checker) -> dict | None:
    configs = write_configs(args.workload, args.master_seed, 1, work / "out")
    log = work / "child.log"
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        _, plain, error = run_child(configs, log)
        checker.check(work / "out", plain, error, f"untraced {len(pairs)}")
        _, result, error = run_child(configs, log, "--trace")
        checker.check(work / "out", result, error, f"traced {len(pairs)}")
        if plain is None or result is None:
            break
        pairs.append((plain, result))
        print(json.dumps({"pair": len(pairs) - 1, "untraced_wall_s": plain["wall_s"],
                          "traced_wall_s": result["wall_s"]}))
        if time.perf_counter() - start + (time.perf_counter() - t0) > RUN_BUDGET_S:
            break
    if not pairs:
        return None
    print(json.dumps({"versions": pairs[0][1]["versions"]}))
    counts = [{k: v for k, v in r["layers"].items() if spans.unit(k) in ("count", "n")}
              for _, r in pairs]
    if any(c != counts[0] for c in counts):
        checker.problems.append("traced counts differ between repeats")
    layers = {k: median(r["layers"][k] for _, r in pairs) for k in pairs[0][1]["layers"]}
    layers.update(counts[0])
    layers["trace.wall_s"] = median(r["wall_s"] for _, r in pairs)
    layers["trace.overhead_s"] = median(r["wall_s"] - p["wall_s"] for p, r in pairs)
    return {name: (layers[name], spans.unit(name)) for name in spans.METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asclt_lab" / "cli.py").is_file():
        print(f"error: no asclt_lab sources under {SRC}", file=sys.stderr)
        return 2
    # master_seed must be a non-negative integer; the same seed always maps
    # to the same master seed.
    args.master_seed = args.seed % 2**32

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(json.dumps({"env": environment(1 if args.trace else NPROC)}))
    checker = Checker(args.workload, args.master_seed)
    metrics = (traced if args.trace else end_to_end)(args, work, checker)
    if checker.problems:
        print(json.dumps({"problems": checker.problems}))
    if metrics is None:
        print("error: no iteration completed; see the problems above", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
