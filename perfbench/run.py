"""The braidrep benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The library is imported from the ``src`` directory next to ``perfbench``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
its per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (source digest, versions, nproc, load average and host speed
before and after, seed, op and block counts).
The exit code is 0 when every op passed its oracle, 1 when one failed, and 2
or 3 without a result line when the checkout or a worker process is broken.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6           # fresh set-up processes besides the measuring one
BUDGET_S = 170.0           # the whole run, probes included


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _host_speed(seconds: float = 0.3) -> float:
    """Passes per second of a fixed pure-Python loop: the host's speed right
    now, recorded so a run next to a noisy neighbour can be recognised."""
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        passes += 1
    return passes / (time.perf_counter() - start)


def _source_digest() -> str:
    h = hashlib.sha256()
    root = os.path.join(ROOT, "src", "braidrep")
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            h.update(name.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _worker(args: list, deadline: float) -> dict:
    """Run worker.py in its own session; on timeout kill it with its children."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            env=worker.child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="braidrep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "braidrep", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/braidrep in {ROOT}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_before, speed_before = _loadavg(), _host_speed()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [_worker(["setup"] + common, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        result = _worker(["measure"] + common + ["--seconds", str(args.seconds),
                                                 "--trace", str(args.trace)], deadline)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])

    record = dict(result["record"], workload=args.workload, trace=args.trace,
                  seconds=args.seconds, git_sha=_git_sha(), source_sha256=_source_digest(),
                  loadavg_before=load_before, loadavg_after=_loadavg(),
                  host_speed_before=speed_before, host_speed_after=_host_speed(),
                  attempted=result["attempted"], failed=result["failed"])
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }
    summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in out["metrics"].items())
    sys.stderr.write(f"perfbench {args.workload} seed={args.seed}: {summary} "
                     f"failed_frac={out['failed'] / out['attempted']:.6g}\n")
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
