"""Outside-in benchmark of the RebQ laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` the run sets up three
times (set-up time is their median), measuring a third of ``--seconds``
with nothing wrapped after each set-up, and reports the end-to-end metrics.
With ``--trace 1`` it sets up once under the set-up wrappers, then three
times measures a third of ``--seconds`` untraced and replays the same
operations under the per-layer wrappers, and reports the per-layer metrics.
Either way one unmeasured warm-up operation runs after the first set-up.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with machine facts, counts, failures and the results digest, goes to
``perfbench/out/``. ``--workload all`` runs every workload in its own
process and prints a table.

The load is one process. BLAS threads are capped at the number of cores
this process may run on. ``--record-digest`` stores the run's results digest
as the baseline for its workload and seed in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
# the keys of workloads.WORKLOADS; that module imports numpy, which must not
# load before the BLAS thread cap is set
WORKLOAD_NAMES = ("train-b4-eta70", "train-b32-eta0", "eval-eta70")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads():
    """Cap BLAS threads at the cores available; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(min(max(wanted, 1), cores))


def _blas_threads(numpy_module) -> int | None:
    import ctypes
    libs = Path(numpy_module.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(numpy),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "git_sha": _git_sha()}


def _stored_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def _record_digest(workload: str, seed: int, digest: str):
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _finite(value: float) -> float:
    # a failed run can leave NaN, which JSON cannot carry; it is flagged by "correct"
    return value if math.isfinite(value) else 0.0


def run_one(args) -> dict:
    import tracing
    import workloads as W

    scale = W.Scale()
    workload = W.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict = {}
    checks: list[tuple[str, bool, str]] = []   # whole-run checks: stage, passed, what

    def warm_up(ctx) -> "W.Measurement":
        # The first operation in a process pays one-off costs (heap growth,
        # first touch of the autograd tape's memory); it runs once unmeasured,
        # and must give the same results when operation 0 is measured.
        return W.measure(ctx, math.inf, tracing.NullTracer(), max_ops=1)

    # The run length is measured in slices, each after its own set-up
    # (untraced) or followed by its traced replay (traced). Spreading the
    # measurement over a longer stretch of wall time averages out the
    # tens-of-seconds slow spells of a shared machine.
    slice_s = args.seconds / W.SLICES
    if args.trace:
        setup_tracer = tracing.Tracer()
        tracing.install_setup(setup_tracer)
        try:
            start = time.perf_counter()
            ctx = W.setup(scale, workload, args.seed, out_dir)
            setup_times = [time.perf_counter() - start]
        finally:
            setup_tracer.restore()
        warm = warm_up(ctx)
        plain, traced = W.Measurement(), W.Measurement()
        tracer = tracing.Tracer()
        for _ in range(W.SLICES):
            part = W.measure(ctx, slice_s, tracing.NullTracer(), first_op=len(plain.ops))
            tracing.install_measure(tracer)
            try:
                # the same operations again, so both sides do identical work
                replay = W.measure(ctx, math.inf, tracer, first_op=len(plain.ops),
                                   max_ops=len(part.ops))
            finally:
                tracer.restore()
            plain.ops += part.ops
            traced.ops += replay.ops
        metrics = tracing.setup_metrics(setup_tracer)
        metrics.update(tracing.measure_metrics(tracer, traced.seconds))
        metrics["trace.overhead_pct"] = 100.0 * (traced.seconds / plain.seconds - 1.0)
        runs = [warm, plain, traced]
        checks.append(("trace", traced.digest == plain.digest,
                       "traced results equal untraced results"))
        counts["self_seconds"] = tracer.self_seconds()
    else:
        setup_times = []
        fingerprints = set()
        plain, warm = W.Measurement(), None
        for _ in range(W.SLICES):
            start = time.perf_counter()
            ctx = W.setup(scale, workload, args.seed, out_dir)
            setup_times.append(time.perf_counter() - start)
            fingerprints.add(ctx.backbone.parameter_bytes())
            if warm is None:
                warm = warm_up(ctx)
            plain.ops += W.measure(ctx, slice_s, tracing.NullTracer(),
                                   first_op=len(plain.ops)).ops
        checks.append(("setup", len(fingerprints) == 1,
                       "pretraining from a fixed seed gives one backbone"))
        runs = [warm, plain]
        metrics = {
            "samples_per_s": plain.samples / plain.seconds,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_loss": W.train_loss(ctx, plain),
        }
    digest = plain.digest
    checks.append(("determinism", warm.digest == digest,
                   "operation 0 run twice gives identical results"))

    failures = [{"op": None, "stage": stage, "detail": f"failed: {what}"}
                for stage, passed, what in checks if not passed]
    failed = len(failures) + sum(1 for m in runs for o in m.ops if o.failures)
    attempted = len(checks) + sum(len(m.ops) for m in runs)
    for m in runs:
        failures.extend(f.to_dict() for f in m.failures)
    counts.update({
        "operations": len(plain.ops),
        "samples": plain.samples,
        "train_sample_epochs": sum(o.train_samples for o in plain.ops),
        "eval_samples": sum(o.eval_samples for o in plain.ops),
        "steps": sum(o.steps for o in plain.ops),
        "measured_s": plain.seconds,
        "op_seconds": [o.seconds for o in plain.ops],
        "warm_up_s": warm.seconds,
        "setup_s": setup_times,
    })
    if args.record_digest and digest is not None and not failures:
        _record_digest(workload.name, args.seed, digest)
    baseline = _stored_digest(workload.name, args.seed)
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "counts": counts,
        "digest": {"value": digest, "baseline": baseline,
                   "match": None if baseline is None else digest == baseline},
        "failures": failures,
        "result": {"correct": not failures, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def _print_record(rec: dict, units: dict[str, str]):
    machine = rec["machine"]
    print(f"machine: nproc={machine['nproc']} blas={machine['blas']} "
          f"{machine['blas_version']} threads={machine['blas_threads']} "
          f"numpy={machine['numpy']} python={machine['python']} git={machine['git_sha']}")
    counts = rec["counts"]
    print(f"{rec['workload']} seed={rec['seed']}: {counts['operations']} operations, "
          f"{counts['samples']} samples ({counts['train_sample_epochs']} training "
          f"sample-epochs, {counts['eval_samples']} evaluated), {counts['steps']} steps "
          f"in {counts['measured_s']:.3f} s measured; set-up runs {counts['setup_s']}")
    digest = rec["digest"]
    status = {None: "no stored baseline for this seed", True: "matches the stored baseline",
              False: "DIFFERS from the stored baseline"}[digest["match"]]
    print(f"results digest {digest['value']}: {status}")
    for f in rec["failures"]:
        print(f"FAILED op {f['op']} [{f['stage']}] {f['detail'].strip().splitlines()[-1]}")
    for name, value in rec["result"]["metrics"].items():
        print(f"  {name:36s} {value:14.6f} {units.get(name, '')}")


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record_digest:
            cmd.append("--record-digest")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    units = _units()
    metric_names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':36s} {'unit':>8s} " + " ".join(f"{n:>16s}" for n in results))
    for metric in metric_names:
        print(f"{metric:36s} {units.get(metric, ''):>8s} "
              + " ".join(f"{r['metrics'][metric]['value']:16.6f}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's results digest as the baseline for its seed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "rebq").is_dir():
        print(f"error: no rebq package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    rec = run_one(args)
    result = rec["result"]
    result["metrics"] = {name: _finite(v) for name, v in result["metrics"].items()}
    (HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=2, sort_keys=True, default=str) + "\n")
    units = _units()
    _print_record(rec, units)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": v, "unit": units.get(name, "")}
                                  for name, v in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
