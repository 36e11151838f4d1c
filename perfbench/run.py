"""Benchmark of weylscope: time to a verified result, end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
hainlust, triples-rational.

One process, no thread pool: WEYL_SCOPE_THREADS is removed from the
environment and the BLAS thread count is recorded, not set.  Each
repetition of the timed section calls `weylscope.cli.main` in-process once
per invocation of the workload, on generated config and triple-v1 files.
Repetitions run until the next one would end after `--seconds`, with at
least two, so that reports can be compared byte for byte.

With `--trace 0` the last line reports the end-to-end metrics:
  wall_s       median over repetitions of the wall time inside cli.main
  setup_s      median of 11 set-ups; each re-imports the weylscope package
               (numpy stays loaded) and regenerates the input files
  peak_rss_mb  peak resident memory of the process after the timed section
With `--trace 1`, repetitions alternate untraced and traced (see spans.py)
and the last line reports the per-layer metrics.  Counts are per
repetition; times are medians over traced repetitions.

Also printed on every run, and written with all samples to
perfbench/_work/<workload>-s<seed>-t<trace>/result.json: machine and BLAS
information, a hash of the generated inputs, the wall_s sample count and
tail percentile, the time of a fixed pure-Python loop before and after the
timed section (the speed of a shared machine drifts by tens of percent
over minutes; this shows which state a run saw), ops_failed_share
(invocations that crashed, exited with an unexpected code, failed
verification or changed output between repetitions, over those attempted)
and checks_failed (`"pass": false` entries of `check` reports, with their
names).  The last two are not in BENCHMARK.json because they are zero on
most workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
MIN_REPS = 2
TAIL_SAMPLES = 10
REF_LOOP = 200_000
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "WEYL_SCOPE_THREADS")


def load_weylscope():
    """Import weylscope afresh (numpy stays loaded) and return its modules."""
    for name in [m for m in sys.modules if m == "weylscope" or m.startswith("weylscope.")]:
        del sys.modules[name]
    package = importlib.import_module("weylscope")
    mods = {short: importlib.import_module(f"weylscope.{short}")
            for short in spans.DOMAIN_MODULES}
    return SimpleNamespace(package=package, **mods)


def generate_inputs(name, seed, ws, inputs_dir):
    files, invocations = workloads.build(name, seed, ws, inputs_dir)
    for fname, payload in files.items():
        with open(f"{inputs_dir}/{fname}", "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
    return invocations


def inputs_digest(inputs_dir):
    digest = hashlib.sha256()
    for path in sorted(Path(inputs_dir).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def reference_kernel():
    """Seconds taken by a fixed interpreter-bound loop, a probe of machine speed."""
    start = perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return perf_counter() - start


@dataclass
class Rep:
    """One repetition of the timed section."""

    wall: float     # seconds inside cli.main, summed over the invocations
    codes: list     # exit code per invocation; None when it raised
    outputs: list   # report bytes per invocation; None when none was written
    traced: bool


def run_rep(ws, invocations, inputs_dir, out_dir, traced=False):
    for path in Path(out_dir).iterdir():
        path.unlink()
    argvs = [inv.argv(inputs_dir, out_dir) for inv in invocations]
    codes = []
    start = perf_counter()
    for argv in argvs:
        try:
            codes.append(ws.cli.main(argv))
        except Exception:  # a crash is counted as a failed invocation
            traceback.print_exc()
            codes.append(None)
    wall = perf_counter() - start
    outputs = []
    for argv in argvs:
        path = Path(argv[-1])
        outputs.append(path.read_bytes() if path.is_file() else None)
    return Rep(wall, codes, outputs, traced)


def measure(ws, invocations, inputs_dir, out_dir, seconds, tracer):
    """Repetitions until the next would end after `seconds`; odd ones traced if asked."""
    reps = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        with tracer.installed(ws) if traced else contextlib.nullcontext():
            if traced:
                tracer.begin_rep()
            reps.append(run_rep(ws, invocations, inputs_dir, out_dir, traced))
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def _blas_runtime():
    """(config string, thread count) of the OpenBLAS bundled with numpy, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), get_threads()
    return "unknown", None


def machine_info(thread_env):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas_config, blas_threads = _blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_runtime": blas_config,
        "blas_threads": blas_threads,
        "thread_env": thread_env,
    }


def timing(samples):
    """Median, sample count and the highest percentile with TAIL_SAMPLES samples above it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6f} s of {n} samples; tail "
    if n <= TAIL_SAMPLES:
        return text + f"none (needs more than {TAIL_SAMPLES} samples)"
    return text + f"p{100.0 * (n - TAIL_SAMPLES) / n:.1f} {sorted(samples)[n - TAIL_SAMPLES - 1]:.6f} s"


def verify(invocations, reps):
    """(failures, failed check names) over every invocation of every repetition."""
    failures, checks_failed, verdicts = [], [], {}
    first = reps[0]
    for i, inv in enumerate(invocations):
        if first.outputs[i] is not None and first.codes[i] is not None:
            verdicts[i] = inv.verify(first.outputs[i], first.codes[i])
            checks_failed += [f"{inv.label}:{name}" for name in verdicts[i].failed_checks]
    for rep_no, rep in enumerate(reps):
        for i, inv in enumerate(invocations):
            if rep.codes[i] is None:
                why = "crashed"
            elif rep.outputs[i] is None:
                why = f"wrote no output (exit code {rep.codes[i]})"
            elif (rep.codes[i], rep.outputs[i]) != (first.codes[i], first.outputs[i]):
                why = "output differs from the first repetition"
            elif verdicts[i].problems:
                why = "; ".join(verdicts[i].problems[:3])
            else:
                continue
            failures.append(f"{inv.label} (repetition {rep_no}): {why}")
    return failures, checks_failed


def layer_report(tracer, reps, invocations, work):
    """Per-layer metric values, whether counts repeat, and the report lines."""
    plain = statistics.median(r.wall for r in reps if not r.traced)
    traced = statistics.median(r.wall for r in reps if r.traced)
    counts = [spans.rep_counts(rep) for rep in tracer.reps]
    repeat = all(c == counts[0] for c in counts)
    per_rep = [spans.rep_times(rep) for rep in tracer.reps]
    times = {key: statistics.median(t[key] for t in per_rep) for key in per_rep[0]}
    values = spans.layer_metrics(counts[0], times, traced / plain - 1.0)
    tracer.write_jsonl(work / "spans.jsonl", [inv.label for inv in invocations])
    lines = [f"traced wall_s      median {traced:.6f} s of {len(tracer.reps)} samples; "
             f"counts repeat across repetitions: {repeat}"]
    lines += [f"  {name:40s} {values[name]:.6g} {unit}" for name, unit, _ in spans.PER_LAYER]
    lines.append(f"spans written to {work / 'spans.jsonl'}")
    return values, counts[0], repeat, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weylscope" / "__init__.py").is_file():
        print(f"error: no weylscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    thread_env = {key: os.environ.get(key) for key in THREAD_ENV}
    os.environ.pop("WEYL_SCOPE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    work = Path("perfbench/_work") / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir, out_dir = f"{work}/inputs", f"{work}/out"
    os.makedirs(inputs_dir)
    os.makedirs(out_dir)

    start = perf_counter()
    ws = load_weylscope()
    first_import_s = perf_counter() - start
    if Path(ws.package.__file__).resolve().parent != (ROOT / "src" / "weylscope").resolve():
        print(f"error: imported weylscope from {ws.package.__file__}", file=sys.stderr)
        return 2
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ws = load_weylscope()
        invocations = generate_inputs(args.workload, args.seed, ws, inputs_dir)
        setups.append(perf_counter() - start)
    digest = inputs_digest(inputs_dir)
    machine = machine_info(thread_env)

    tracer = spans.Tracer() if args.trace else None
    refs = [reference_kernel()]
    reps = measure(ws, invocations, inputs_dir, out_dir, args.seconds, tracer)
    refs.append(reference_kernel())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, checks_failed = verify(invocations, reps)
    attempted = len(reps) * len(invocations)
    walls = [r.wall for r in reps if not r.traced]
    setup_s = statistics.median(setups)
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}",
        "machine " + "  ".join(f"{k}={v}" for k, v in machine.items()),
        f"inputs sha256 {digest}",
        f"wall_s            {timing(walls)}",
        f"speed probe       {refs[0] * 1e3:.3f} ms before, {refs[1] * 1e3:.3f} ms after "
        f"the timed section",
        f"setup_s           {setup_s:.6f} s median of {len(setups)} "
        f"(first import {first_import_s:.6f} s)",
        f"peak_rss_mb       {peak_rss_mb:.3f} MB",
        f"ops_failed_share  {len(failures) / attempted:.6f} share "
        f"({len(failures)} of {attempted} invocations)",
        f"checks_failed     {len(checks_failed)} count"
        + (f" ({', '.join(checks_failed)})" if checks_failed else ""),
    ]
    lines += [f"FAILED {f}" for f in failures]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "inputs_sha256": digest,
        "invocations": [inv.label for inv in invocations],
        "wall_samples_s": walls, "traced_wall_samples_s": [r.wall for r in reps if r.traced],
        "speed_probe_s": refs, "setup_samples_s": setups,
        "first_import_s": first_import_s, "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "checks_failed": len(checks_failed), "checks_failed_names": checks_failed,
    }

    correct = not failures
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        values, counts, repeat, layer_lines = layer_report(tracer, reps, invocations, work)
        correct = correct and repeat
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
        result.update({"counts": counts, "counts_repeat": repeat, "per_layer": values})
        lines += layer_lines
    with open(work / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
