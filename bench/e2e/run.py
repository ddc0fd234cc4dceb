#!/usr/bin/env python3
"""End-to-end benchmark of the RAMR runtime.

Builds the ramr libraries (tests, benches and examples off), installs them
into build-e2e/stage, builds the harness in this directory against that
installed package, and runs each workload in a fresh process with every
RAMR_* variable removed from the environment.

    python3 bench/e2e/run.py --seed 1                  # all workloads
    python3 bench/e2e/run.py --workload wc-zipf --seed 3 --trace 0
    python3 bench/e2e/run.py --trace                   # per-layer metrics
    python3 bench/e2e/run.py --smoke                   # 1/64 size, seconds

Each workload measures for run_seconds of BENCHMARK.json, traced or not.
--seconds is accepted only with that same value, so two commits are
always measured for the same length.

Prints one "workload metric value unit" line per metric, writes
build-e2e/BENCH_e2e.json (BENCH_e2e_trace.json when traced), and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
when any job failed, produced a wrong output, or a declared metric is
missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
HARNESS = BUILD / "harness" / "ramr_e2e"
WORKLOADS = ["wc-zipf", "hg-pixels", "pca-cov", "svc-small"]
HARNESS_SOURCES = ["CMakeLists.txt", "harness.cpp", "measure.hpp"]
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 64
SMOKE_SECONDS = 1.0


def clean_env():
    """The caller's environment without any RAMR_* knob: several paths
    (simd dispatch, atomic shards, io config, huge pages, adapt) read
    ambient env, and the benchmark measures the defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RAMR_")}


def source_files():
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("cmake", "src"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    files += [HERE / name for name in HARNESS_SOURCES]
    return files


def source_stamp():
    h = hashlib.sha256()
    for path in source_files():
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def build():
    """Builds and installs the libraries and the harness, unless the stamp
    of every source they depend on is unchanged since the last build."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no ramr source tree at {ROOT}")
    stamp_file = BUILD / "stamp"
    stamp = source_stamp()
    if HARNESS.is_file() and stamp_file.is_file() and \
            stamp_file.read_text() == stamp:
        return
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    stage = BUILD / "stage"
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(BUILD / "lib"),
         "-DCMAKE_BUILD_TYPE=Release", "-DRAMR_BUILD_TESTS=OFF",
         "-DRAMR_BUILD_BENCHES=OFF", "-DRAMR_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", str(BUILD / "lib"), "-j", jobs],
        ["cmake", "--install", str(BUILD / "lib"), "--prefix", str(stage)],
        ["cmake", "-S", str(HERE), "-B", str(BUILD / "harness"),
         "-DCMAKE_BUILD_TYPE=Release", f"-DCMAKE_PREFIX_PATH={stage}"],
        ["cmake", "--build", str(BUILD / "harness"), "-j", jobs],
    ]
    # A header deleted from src/ must not survive in the stage.
    shutil.rmtree(stage, ignore_errors=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    stamp_file.write_text(stamp)


def run_workload(name, seed, seconds, trace, scale):
    cmd = [str(HARNESS), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", str(scale), "--dir", str(BUILD)]
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {name} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: {name} printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="per-layer run (spans, replays)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at 1/64 size, traced and untraced")
    ap.add_argument("--out", type=Path,
                    help="also write the run document to this file")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        sys.exit(f"run.py: --seconds {args.seconds:g}: the run length is "
                 f"run_seconds of BENCHMARK.json ({spec['run_seconds']})")
    build()
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.smoke:
        modes = [0, 1]
        seconds, scale = SMOKE_SECONDS, SMOKE_SCALE
    else:
        modes = [args.trace]
        seconds, scale = spec["run_seconds"], 1

    correct = True
    attempted = failed = 0
    docs = {0: {}, 1: {}}
    for trace in modes:
        for name in workloads:
            res = run_workload(name, args.seed, seconds, trace, scale)
            attempted += res["attempted"]
            failed += res["failed"]
            correct = correct and res["correct"]
            missing = [m for m in names[trace] if m not in res["metrics"]]
            if missing:
                correct = False
                print(f"run.py: {name} did not report {missing}",
                      file=sys.stderr)
            for metric, m in sorted(res["metrics"].items()):
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            docs[trace][name] = res

    for trace in modes:
        doc = {"schema": "ramr-e2e-v1", "seed": args.seed,
               "seconds": seconds, "scale": scale, "trace": trace,
               "nproc": os.cpu_count(), "workloads": docs[trace]}
        suffix = "_trace" if trace else ""
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        (BUILD / f"BENCH_e2e{suffix}.json").write_text(text)
        if args.out:
            args.out.write_text(text)

    # The last line: the declared metrics of the (last) mode. One workload
    # keys them by metric name; several prefix each with its workload.
    trace = modes[-1]
    metrics = {}
    for name, res in docs[trace].items():
        for metric in names[trace]:
            if metric in res["metrics"]:
                key = metric if len(workloads) == 1 else f"{name}/{metric}"
                m = res["metrics"][metric]
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
