"""eegalign benchmark: one workload, one seed, one closed-loop run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run it from the root of a source checkout; it imports the package from
``src/`` there and from nowhere else. The metric names, units and
directions are declared in ``BENCHMARK.json`` at the same root. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` it carries the end-to-end metrics; with ``--trace 1``
the per-layer ones, from spans recorded around each module's public
functions. The line before it is a fuller record (environment, sample
counts, reference values, directions), also written with the spans of a
traced run under ``benchmarks/out/``. ``--toy`` shrinks every workload to
seconds; the self-check (``selfcheck.py``) uses it.
"""
import ctypes
import os
import sys

# Pin BLAS to one thread before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ADDR_NO_RANDOMIZE = 0x0040000
RELAUNCHED = "EEGALIGN_BENCH_FIXED_LAYOUT"


def address_layout_fixed() -> bool:
    """Whether this process runs with address-space randomisation off."""
    try:
        persona = ctypes.CDLL(None, use_errno=True).personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return False
    return persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)


def fix_address_layout() -> None:
    """Re-execute this process once with address-space randomisation off.

    Where the interpreter and numpy land in memory set how fast the same
    work runs: one process in six or so ran a train step 20 % slower than
    the rest, for its whole life, beside an unchanged reference unit. With
    randomisation off every run gets the same layout. The flag is this
    process's own personality, inherited across exec; where it cannot be
    set, the run goes on with a random layout.
    """
    if os.environ.get(RELAUNCHED) or address_layout_fixed():
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona == -1 or libc.personality(persona | ADDR_NO_RANDOMIZE) == -1:
            return
    except (OSError, AttributeError):
        return
    os.environ[RELAUNCHED] = "1"
    os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


fix_address_layout()

import argparse
import dataclasses
import json
import math
import platform
import resource
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = Path(__file__).resolve().parent / "out"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "address_layout_fixed": address_layout_fixed(),
        "machine": platform.machine(),
    }


def source_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((SRC / "eegalign").rglob("*.py")))


def layer_metrics(declared: list[dict], tracer, counters: dict) -> dict[str, float]:
    """Every declared per-layer metric; a span the workload never calls reads 0.

    Every span and counter must be declared; of a span's four figures only
    the declared ones are reported (``out_mib`` of a call returning no
    arrays is left out).
    """
    names = {m["name"] for m in declared}
    values = dict(counters)
    values["code.src_lines"] = source_lines()
    totals = tracer.layer_totals()
    undeclared = sorted(n for n in [*values, *(f"{s}.calls" for s in totals)] if n not in names)
    if undeclared:
        raise SystemExit(f"error: per-layer metrics missing from {SPEC.name}: {undeclared}")
    for span, row in totals.items():
        for key, value in row.items():
            values[f"{span}.{key}"] = value
    return {m["name"]: float(values.get(m["name"], 0.0)) for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="shrink the workload to seconds")
    args = parser.parse_args(argv)

    if not (SRC / "eegalign" / "__init__.py").is_file():
        print(f"error: no eegalign sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: no {SPEC.name} at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import eegalign
    if Path(eegalign.__file__).resolve().parent != SRC / "eegalign":
        print(f"error: imported eegalign from {eegalign.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    checks = workloads.Checks()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as workdir:
        outcome = workloads.run(args.workload, args.seed, args.seconds, Path(workdir),
                                tracer, checks, toy=args.toy)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        declared = spec["per_layer"]
        values = layer_metrics(declared, tracer, outcome.layers)
    else:
        declared = spec["end_to_end"]
        values = dict(outcome.metrics, peak_rss_mib=peak_rss_mib)
        missing = sorted({m["name"] for m in declared} - set(values))
        if missing:
            raise SystemExit(f"error: workload produced no value for {missing}")
    for name, value in values.items():
        if not math.isfinite(value):
            checks.check(False, f"metric {name} is {value}")
            values[name] = 0.0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "environment": environment(),
        "info": outcome.info,
        "quality": outcome.quality,
        "peak_rss_mib": peak_rss_mib,
        "failures": checks.messages,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"]}
                    for m in declared},
    }
    if tracer is not None:
        spans_path = OUT / f"spans-{stem}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record))
    record["setup"] = dataclasses.asdict(outcome.setup)
    record["windows"] = [dataclasses.asdict(w) for w in outcome.windows]
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
