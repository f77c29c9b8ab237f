"""One workload in a fresh process: set-up, the timed loop, oracles, tracing.

    python worker.py setup   --workload W --seed S
    python worker.py measure --workload W --seed S --seconds T --trace 0|1

``setup`` prints {"setup_s": ...}: ``import braidrep`` plus one warm-up op of
each kind.  ``measure`` prints one JSON line with the op counts, failures and
metrics; ``run.py`` starts both with the checkout's ``src`` on ``PYTHONPATH``.

The loop is a closed loop with one client: the next op starts when the last
one returns.  It stops at the first block boundary after ``T`` seconds once
``MIN_OPS`` ops are done.

``--trace 1`` first runs untraced for T/2 seconds, then traced over a fixed
number of blocks (``TRACE_BLOCKS``), so per-layer counts and totals do not
depend on how fast the host was; the tracing overhead compares the two
passes' throughputs.  End-to-end metrics come only from ``--trace 0``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
HARD_CAP_FACTOR = 3.0      # a loop never runs longer than this many T
MAX_FAILURES_SHOWN = 5
CYCLO_DS = sorted(set(workloads.SWEEP_D + workloads.UNIPOTENT_D))
LAYERS = sorted({name.split(".")[0] for _, _, name in tracing.SPANS + tracing.COUNTERS})
# traced blocks per workload: about T/2 of work on a 2-core x86 VM at T = 30
TRACE_BLOCKS = {"sweep": 16, "unipotent": 6, "symbolic": 4}


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _streams(workload, seed: int):
    """(warm-up ops, a fresh iterator of blocks) for this seed."""
    warm = workload.warmups(random.Random(f"{seed}/warmup"))
    return warm, workload.blocks(random.Random(seed))


def _setup(workload, warm: list) -> tuple:
    """(import seconds, set-up seconds): the import, then one op of each kind."""
    t0 = time.perf_counter()
    workloads._lib()
    t1 = time.perf_counter()
    for op in warm:
        workload.run(op)
    return t1 - t0, time.perf_counter() - t0


def _loop(run, blocks, seconds: float, min_ops: int, max_ops: int | None = None,
          max_blocks: int | None = None) -> tuple:
    """Ops in whole blocks until ``seconds`` and ``min_ops`` are both
    reached, or exactly ``max_blocks`` blocks.

    Returns (latencies, [(op, output, error)], blocks done); an op that
    raises is recorded with its error and the loop goes on.
    """
    latencies, results = [], []
    start = time.perf_counter()
    done = 0
    for block in blocks:
        for op in block:
            t0 = time.perf_counter()
            try:
                out, err = run(op), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            results.append((op, out, err))
            if max_ops is not None and len(results) >= max_ops:
                return latencies, results, done
        done += 1
        elapsed = time.perf_counter() - start
        if max_blocks is not None:
            if done >= max_blocks:
                break
        elif (elapsed >= seconds and len(results) >= min_ops) or \
                elapsed >= HARD_CAP_FACTOR * max(seconds, 1.0):
            break
    return latencies, results, done


def _check(results: list, check) -> list:
    failures = []
    for op, out, err in results:
        reason = err if err is not None else check(op, out)
        if reason is not None:
            failures.append({"op": list(op), "reason": reason})
    return failures


def _guard():
    left = tracing.wrapped_attributes()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")


def _end_to_end(latencies: list, setup_s: float, rss_kb: float) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * _quantile(latencies, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _cache_sizes() -> dict:
    # private caches, read only; a renamed cache reads as 0
    from braidrep import cyclo, gassner, spectral
    return {
        "cyclo.contexts": len(getattr(cyclo, "_contexts", {})),
        "gassner.generator_cache": len(getattr(gassner, "_generator_cache", {})),
        "spectral.symbolic_pure_cache": len(getattr(spectral, "_symbolic_pure", {})),
    }


def _kernel_metrics(tracer: tracing.Tracer) -> dict:
    rates = tracer.replay_kernels()
    out = {}
    for kernel, scale, unit in (("cyclo.mul", 1e9, "ns"), ("cyclo.inverse", 1e6, "us"),
                                ("laurent.poly_mul", 1e6, "us"),
                                ("laurent.poly_gcd", 1e6, "us"),
                                ("linalg.mat_mul", 1e6, "us")):
        rows = [(d, sec, seen) for (k, d), (sec, seen) in rates.items() if k == kernel]
        total = sum(seen for _, _, seen in rows)
        out[f"{kernel}_{unit}"] = (scale * sum(sec * seen for _, sec, seen in rows) / total
                                   if total else 0.0)
        if kernel.startswith("cyclo."):
            for d in CYCLO_DS:
                out[f"{kernel}_{unit}.d{d}"] = next(
                    (scale * sec for dd, sec, _ in rows if dd == d), 0.0)
    return out


def _all_layer_names() -> dict:
    """Every per-layer metric this worker can produce, at 0."""
    out = {}
    for _, _, name in tracing.SPANS:
        out[f"{name}_s"] = out[f"{name}_calls"] = 0
    for _, _, name in tracing.COUNTERS:
        out[f"{name}_calls"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    return out


def _write_trace(workload: str, seed: int, header: dict, spans: list):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{workload}.jsonl"), "w") as fh:
        fh.write(json.dumps(dict(header, seed=seed)) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def measure(name: str, seed: int, seconds: float, trace: bool,
            max_ops: int | None = None) -> dict:
    workload = workloads.WORKLOADS[name]
    warm, blocks = _streams(workload, seed)
    import_s, setup_s = _setup(workload, warm)
    _guard()
    if not trace:
        lat, results, done = _loop(workload.run, blocks, seconds,
                                   workloads.MIN_OPS if max_ops is None else 0, max_ops)
        _guard()
        failures = _check(results, workload.check)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = _end_to_end(lat, setup_s, rss)
    else:
        results, done, failures, metrics = _measure_traced(
            workload, seed, seconds, max_ops, import_s, blocks)
    import numpy
    return {"attempted": len(results), "failures": failures, "metrics": metrics,
            "record": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "nproc": os.cpu_count(), "seed": seed, "ops": len(results),
                       "blocks": done}}


def _measure_traced(workload, seed: int, seconds: float, max_ops, import_s, blocks):
    lat_plain, res_plain, done = _loop(workload.run, blocks, seconds / 2, 0, max_ops)
    _guard()
    tracer = tracing.Tracer(seed)
    tracer.install()
    try:
        _, blocks = _streams(workload, seed)
        lat_traced, res_traced, done_traced = _loop(
            lambda op: tracer.run_op(workload.run, op), blocks, 0, 0, max_ops,
            TRACE_BLOCKS[workload.name])
        caches = _cache_sizes()
    finally:
        tracer.uninstall()
    _guard()
    failures = _check(res_plain + res_traced, workload.check)
    metrics = _all_layer_names()
    metrics.update(tracer.layer_metrics())
    metrics.update(caches)
    metrics.update(_kernel_metrics(tracer))
    plain = len(lat_plain) / sum(lat_plain)
    traced = len(lat_traced) / sum(lat_traced)
    metrics.update({"trace.untraced_ops_per_s": plain, "trace.traced_ops_per_s": traced,
                    "trace.overhead_frac": 1.0 - traced / plain})
    calls = metrics["laurent.poly_gcd_calls"]
    metrics["laurent.poly_gcd_useful_frac"] = (
        metrics.pop("laurent.poly_gcd_useful_calls") / calls if calls else 0.0)
    metrics["cli.import_ms"] = 1e3 * import_s
    _write_trace(workload.name, seed, {"workload": workload.name,
                                       "dropped": tracer.dropped}, tracer.spans)
    return res_plain + res_traced, done + done_traced, failures, metrics


def child_env() -> dict:
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.mode == "setup":
        workload = workloads.WORKLOADS[args.workload]
        warm, _ = _streams(workload, args.seed)
        print(json.dumps({"setup_s": _setup(workload, warm)[1]}))
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in out["failures"][:MAX_FAILURES_SHOWN]:
        sys.stderr.write(f"FAILED {args.workload}: {failure}\n")
    out["failed"] = len(out.pop("failures"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
