"""Self-check for the benchmark harness.

    python3 benchmarks/selfcheck.py

Runs from any directory and takes under a minute. It checks that
``BENCHMARK.json`` keeps to the harness's limits, runs every workload at
toy size (``--toy --seconds 1``) with tracing off and on, and fails unless
each run exits 0, passes its output checks and emits exactly the declared
metrics, each with its declared unit and direction. A traced run must also
report a span for every layer its workload calls. Last, it copies only
``BENCHMARK.json`` and the benchmark directory elsewhere and checks that
the harness refuses to run there, without printing a result.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# spans each workload must record in a traced run
MODEL_SPANS = {
    "model.encode_images", "eeg.encode", "dynfilter.generate", "dynfilter.apply",
    "backbone.patch_embed", "backbone.insert_prompts", "backbone.vit", "backbone.project",
    "fusion.fuse", "trainer.save_checkpoint", "trainer.load_checkpoint", "trainer.build_model",
    "trainer.embed_split", "data.make_batch", "data.generate", "data.save", "data.load_split",
    "metrics.build_report", "metrics.map_relevance",
}
TRAIN_SPANS = MODEL_SPANS | {"model.forward", "losses.total", "tensor.backward", "trainer.adam",
                             "trainer.fit", "trainer.step", "trainer.validation"}
EXPECTED_SPANS = {"train-quickstart": TRAIN_SPANS, "train-desk": TRAIN_SPANS,
                  "retrieve": MODEL_SPANS | {"eval.pass"}}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {message}")


def check_spec(spec: dict) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
            f"unexpected keys {sorted(spec)}")
    require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    require(1 <= len(spec["paths"]) <= 16, "paths count")
    for path in spec["paths"]:
        require(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) is not None and not path.startswith("/")
                and ".." not in path.split("/"), f"path {path!r}")
        require((ROOT / path).is_dir(), f"path {path!r} is not a directory")
    require(len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"]), "command")
    require(2 <= len(spec["workloads"]) <= 8, "workload count")
    require(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    require(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = []
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
                f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"metric {m}")
    for m in spec["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, f"metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(UNIT.fullmatch(m["unit"]) is not None and m["better"] in ("lower", "higher"), f"metric {m}")
        names.append(m["name"])
    require(all(NAME.fullmatch(n) for n in names), "a name breaks the naming rule")
    require(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
            "setup_s must be declared in seconds, lower is better")
    require(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
            "setup_s must carry the largest bound")
    require(len(SPEC.read_bytes()) <= 64 * 1024, "BENCHMARK.json is over 64 KiB")


def check_run(spec: dict, workload: str, trace: int) -> None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    require(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{where}: {record['failures']}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    require(set(result["metrics"]) == {m["name"] for m in declared},
            f"{where}: emitted metrics differ from the declared ones")
    for m in declared:
        emitted, described = result["metrics"][m["name"]], record["metrics"][m["name"]]
        value = emitted["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {m['name']} = {value}")
        require(emitted["unit"] == m["unit"], f"{where}: {m['name']} has unit {emitted['unit']!r}")
        require(described["better"] == m["better"], f"{where}: {m['name']} has no direction")
        if not trace:
            require(value > 0, f"{where}: end-to-end metric {m['name']} is {value}")
    if trace:
        silent = sorted(s for s in EXPECTED_SPANS[workload] if result["metrics"][f"{s}.calls"]["value"] <= 0)
        require(not silent, f"{where}: no spans recorded for {silent}")
        require((ROOT / record["spans_file"]).is_file(), f"{where}: spans were not written")
    print(f"ok  {where}: {len(declared)} metrics, {result['attempted']} checks")


def check_refuses_without_sources() -> None:
    """With only BENCHMARK.json and the benchmark files, the harness must fail."""
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out", prefix="bare-") as bare:
        shutil.copy2(SPEC, Path(bare) / SPEC.name)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "train-desk", "--seed", "0",
                "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    require(proc.returncode != 0, "the harness ran without the program's sources")
    require('"correct"' not in proc.stdout, "the harness printed a result without the sources")
    print("ok  refuses to run without the program's sources")


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    check_spec(spec)
    print("ok  BENCHMARK.json")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
