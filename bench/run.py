"""Benchmark for statelab: four workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py            # every workload, each in its own process

A run imports statelab from src/ and builds the workload's inputs twice
before each pass of the workload's job (for the `setup_s` median), runs
passes for about --seconds seconds (at least three), checks every pass's
outputs against independent references, and prints one JSON
object as its last line of output. With --trace 0 its metrics are
`wall_s` (median pass), `setup_s` and `peak_rss_mb`; with --trace 1 it
then installs span wrappers on a fresh import, builds the inputs and runs
one more pass under them, and reports the per-layer metrics and the
tracing overhead instead. Result and trace files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUPS_PER_PASS = 2
MIN_PASSES = 3

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402  (the benchmark's own modules, next to this file)
from workloads import KNOWN_FAULT, OK, WORKLOADS  # noqa: E402


def fresh_import():
    """Import statelab from source, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "statelab" or m.startswith("statelab.")]:
        del sys.modules[name]
    return importlib.import_module("statelab")


def machine_facts() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


class Verifier:
    """Checks each pass's outputs. The first pass over an input set is
    compared with the references; a later pass over the same set must
    repeat that pass's outputs exactly, and then shares its verdicts."""

    def __init__(self, workload, sl, inputs):
        self.workload, self.sl, self.inputs = workload, sl, inputs
        self.first = {}  # input set index -> (outputs, [(op, status, detail)])
        self.cache = {}  # reference results shared between input sets
        self.attempted = self.failed = 0
        self.known = {}
        self.wrong = {}

    def verify(self, k: int, outputs: list) -> None:
        index = k % self.workload.input_sets
        if index not in self.first:
            checked = self.workload.check(self.sl, self.inputs, k, outputs, self.cache)
            self.first[index] = (outputs, checked)
        first_outputs, checked = self.first[index]
        for op, status, detail in checked:
            self.attempted += 1
            if status != OK:
                self.failed += 1
                (self.known if status == KNOWN_FAULT else self.wrong)[op] = detail
        if outputs != first_outputs:
            repeated = dict(first_outputs)
            for op, value in outputs:
                if repeated.get(op) != value:
                    self.failed += 1
                    self.wrong[op] = f"output differs from pass {index} over the same inputs"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]

    # set-ups are interleaved with the passes, so that the set-up median
    # samples the same stretch of time as the pass median
    setup_times, pass_times, outputs = [], [], []
    begin = clock()
    while True:
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            start = clock()
            sl = fresh_import()
            inputs = workload.build(sl, seed)
            setup_times.append(clock() - start)
        gc.collect()
        start = clock()
        out = workload.run(sl, inputs, len(pass_times))
        end = clock()
        pass_times.append(end - start)
        outputs.append(out)
        per_round = (end - begin) / len(pass_times)
        if len(pass_times) >= MIN_PASSES and end - begin + per_round > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verifier = Verifier(workload, sl, inputs)
    for k, out in enumerate(outputs):
        verifier.verify(k, out)
    del outputs

    wall_s = statistics.median(pass_times)
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine_facts(),
        "pass_s": pass_times, "pass_quartiles_s": statistics.quantiles(pass_times, n=4),
        "setup_s": setup_times,
    }

    if traced:
        tracer = spans.Tracer()
        sl = fresh_import()
        spans.install(tracer, sl)
        with tracer.span("bench.setup"):
            traced_inputs = workload.build(sl, seed)
        gc.collect()
        start = clock()
        with tracer.span("bench.pass"):
            traced_out = workload.run(sl, traced_inputs, 0)
        traced_wall = clock() - start
        verifier.verify(0, traced_out)
        layers = spans.layer_metrics(tracer, list(workload.experiments))
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - wall_s
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        metrics = {key: {"value": value, "unit": units[key]}
                   for key, value in layers.items() if key in units}
        metrics.update({key: {"value": 0, "unit": unit}
                        for key, unit in units.items() if key not in metrics})
        record["trace_file"] = write_json(f"trace-{name}-seed{seed}.json",
                                          {"workload": name, "seed": seed,
                                           "machine": record["machine"], **tracer.dump()})

    result = {
        "correct": not verifier.wrong,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }
    record.update(result)
    record["known_faults"] = verifier.known
    record["wrong"] = {op: str(detail) for op, detail in verifier.wrong.items()}
    write_json(f"result-{name}-seed{seed}-trace{int(traced)}.json", record)
    for op, detail in sorted(verifier.known.items()):
        print(f"failed operation (known fault) {name} {op}: {detail}")
    for op, detail in sorted(verifier.wrong.items()):
        print(f"WRONG {name} {op}: {detail}")
    return result


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def write_json(filename: str, payload: dict) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / filename
    path.write_text(json.dumps(payload, default=str) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process; prints each one's result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        print(f"{name}: {json.dumps(result)}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "statelab" / "__init__.py").is_file():
        print(f"statelab sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
