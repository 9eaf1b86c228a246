"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py [--setup-only] [--trace] CONFIG [CONFIG ...]

Loads and validates every config (this is set-up), prints READY on its own
line, then runs each config through ``asclt_lab.cli.run`` and prints one
JSON line: wall and CPU seconds over the runs, the peak RSS of this process
and its pool workers, each run's exit code, and the library versions. With
``--trace`` the JSON also carries the per-layer metrics of ``spans``.
The configs name their own ``out_dir`` and ``workers``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np
import scipy

import asclt_lab.cli as cli

READY = "READY"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    setup_only = "--setup-only" in argv
    trace = "--trace" in argv
    paths = [a for a in argv if not a.startswith("--")]
    configs = [cli.load_config(p) for p in paths]
    print(READY, flush=True)
    if setup_only:
        return 0

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    codes, errors = [], []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for cfg in configs:
        try:
            codes.append(cli.run(cfg))
        except (ValueError, RuntimeError) as exc:
            codes.append(1)
            errors.append(f"{cfg.experiment}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "exit_codes": codes,
        "errors": errors,
        "versions": _versions(),
    }
    if tracer is not None:
        from spans import layer_metrics

        out["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
