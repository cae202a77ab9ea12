"""Run one workload of the svpo benchmark and print its metrics.

    python3 svpobench/run.py --workload search-hard --seed 1 --seconds 60 --trace 0

Run from the repository root. The run builds its inputs from ``--seed``,
repeats passes over them until ``--seconds`` have gone by, checks every
output, and prints each metric with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). A traced run alternates untraced and traced
passes, so it also reports its own tracing overhead.

Records of every run (digest, quality, environment) are appended to
``.svpobench_out/runs.jsonl``; the spans of a traced run are written to
``.svpobench_out/trace-<workload>-<seed>.json``.

Exit codes: 0 on a sound run, 1 when an output check fails, 2 when the
program or the arguments are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".svpobench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import svpo.cli, svpo.evaluate; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-medium", "search-hard"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds(env: dict) -> float:
    """Time to import the program in a fresh interpreter, in reference
    seconds."""
    from svpobench.speed import slowdown_now
    slowdown = slowdown_now()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout) / slowdown


def run_passes(workload, seconds: float, traced: bool, env: dict):
    """Repeat passes while another one fits in `seconds`, judged by the
    slowest pass so far; a traced run alternates untraced and traced
    passes and does at least one of each. An import probe precedes each
    pass, so that the probes are spread over the run like the passes;
    at least IMPORT_REPEATS are made. Returns (passes, import times)."""
    passes, imports = [], []
    longest = 0.0
    start = time.perf_counter()
    while (not passes or (traced and len(passes) < 2)
           or time.perf_counter() - start + longest <= seconds):
        t0 = time.perf_counter()
        imports.append(import_seconds(env))
        passes.append(workload.run_pass(traced and len(passes) % 2 == 1))
        longest = max(longest, time.perf_counter() - t0)
    while len(imports) < IMPORT_REPEATS:
        imports.append(import_seconds(env))
    return passes, imports


def consistency_problems(passes) -> list[str]:
    """Passes repeat the same inputs, so their outputs must agree."""
    first = passes[0]
    return [f"pass {i} digest {p.digest[:12]} / quality differ from pass 0"
            for i, p in enumerate(passes)
            if p.digest != first.digest or p.quality != first.quality]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "svpo" / "__init__.py").is_file():
        print(f"svpo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy

    from svpobench.metrics import (
        END_TO_END, PER_LAYER, REPORTED, medians, pass_per_layer,
        run_end_to_end,
    )
    from svpobench.workloads import WORKLOADS

    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    passes, imports = run_passes(workload, args.seconds, bool(args.trace),
                                 child_env)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    failures = consistency_problems(passes)
    attempted = 1 + sum(p.checks.attempted for p in passes)
    failed = int(bool(failures)) + sum(p.checks.failed for p in passes)
    for p in passes:
        failures.extend(p.checks.failures)

    e2e = run_end_to_end(plain)
    e2e["setup_s"] = median(imports) + median(p.setup_s for p in passes)
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e.update(passes[0].quality)
    e2e["failed_share"] = failed / attempted
    info = {"python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "passes": len(passes),
            "sbs_b3_samples_per_pass": sum(
                kind == "sbs_b3" for kind, *_ in plain[0].rec.decodes),
            "digest": passes[0].digest}

    print(f"# svpo benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for i, p in enumerate(passes):
        print(f"# pass {i}: {'traced' if p.traced else 'untraced'} "
              f"wall_s={p.wall_s:.4f} setup_s={p.setup_s:.5f} "
              f"checks={p.checks.attempted - p.checks.failed}/"
              f"{p.checks.attempted}")
    for message in failures[:20]:
        print(f"# FAILED: {message}")
    for name, unit, *_ in END_TO_END + REPORTED:
        value = e2e.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<28} {shown:>14} {unit}")

    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **info,
              "end_to_end": e2e, "attempted": attempted, "failed": failed,
              "failures": failures[:20]}
    if traced:
        layers = medians([pass_per_layer(p) for p in traced])
        layers["trace.overhead_s"] = (run_end_to_end(traced)["wall_s"]
                                      - e2e["wall_s"])
        record["per_layer"] = layers
        print_spans(traced[0].rec)
        for name, unit in PER_LAYER:
            print(f"{name:<36} {layers[name]:>14.6g} {unit}")
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            [p.rec.to_record() for p in traced]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def print_spans(rec) -> None:
    """Per span name of one traced pass: count, total and self time."""
    count, total, own = rec.span_totals()
    print(f"# {'span':<34} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name in sorted(count, key=lambda n: -total[n]):
        print(f"# {name:<34} {count[name]:>7} {total[name]:>10.4f} "
              f"{own[name]:>10.4f}")


if __name__ == "__main__":
    sys.exit(main())
