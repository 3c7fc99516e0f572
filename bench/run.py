"""orthospin benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload dense_oracle --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16   # every workload
    python3 bench/run.py --smoke                                # metric names only

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  Lines before it start with ``#`` and describe the
machine, the run, its wall times and every failed operation.

Latencies and ``ops_per_s`` of the pure-Python workloads, and the warm-up
part of ``setup_s``, are wall times scaled to a reference host speed, which
a calibration kernel measures right before and after each timed interval
(see hostspeed.py): on a shared host the raw wall time of the same run
varies by up to 1.9x with the load of other tenants.  The BLAS-bound
dense_oracle workload and the interpreter start-up, whose speed the kernel
does not track, report wall times.  Per-layer self times are wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 3
WARMUP_REPEATS = 3
TAIL_BEYOND = 10

# BLAS reads its thread count when numpy is first imported.
for _var in BLAS_THREADS_VARS:
    os.environ.setdefault(_var, str(NPROC))
os.environ["PYTHONPATH"] = str(SRC)


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "orthospin").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu": platform.processor() or platform.machine(),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def import_seconds() -> float:
    """Interpreter start to `import orthospin.cli` done, in a fresh process."""
    code = "import time, orthospin.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1]) - t0


def clear_caches() -> None:
    """Empty every functools cache in the orthospin package."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("orthospin"):
            continue
        for value in vars(mod).values():
            fn = value if hasattr(value, "cache_clear") else getattr(value, "__wrapped__", None)
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def warmup_seconds(workload) -> float:
    """One warm-up, at the reference host speed."""
    before = hostspeed.sample()
    t0 = time.perf_counter()
    workload.warmup()
    wall = time.perf_counter() - t0
    return hostspeed.normalise(wall, before, hostspeed.sample())


def setup(workload) -> tuple:
    """Median import time and median warm-up time over repeated set-ups.

    The import time is a wall time: it is steady (within 5%) while the
    calibration kernel's speed swings by 1.9x, so scaling would only add
    noise.  The warm-up is pure-Python work and is scaled.
    """
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    warmups = [0.0]
    if workload.warmup is not None:
        warmups = []
        for i in range(WARMUP_REPEATS):
            if i:
                clear_caches()
            warmups.append(warmup_seconds(workload))
    return statistics.median(imports), statistics.median(warmups)


def run_ops(workload, ops, tracer=None) -> tuple:
    """Run the operations: time each, sample the host speed right before and
    after it, then check it outside the timing.  Returns the wall latencies,
    the latencies at the reference host speed and the failures."""
    walls, latencies, failures = [], [], []
    for i, op in enumerate(ops):
        if workload.clear_between_rounds and i and i % workload.round_len == 0:
            clear_caches()
        error = None
        before = hostspeed.sample()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.op(i, op.kind):
                    out = op.run()
        except Exception as exc:  # an operation that raises is a failure
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        walls.append(wall)
        latencies.append(hostspeed.normalise(wall, before, hostspeed.sample()))
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # so is an output the check cannot read
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.kind}: {error}")
    return walls, latencies, failures


def kind_latencies(ops, latencies, pick) -> list:
    """Each operation's latency replaced by pick() of its kind's latencies.

    Operations of one kind do the same work, so their spread is noise from
    the machine.  Host-scaled latencies take the median, which drops what
    the scaling leaves; wall latencies take the least (best-of-N, as
    ``timeit`` reports), the sample that other tenants slowed least.  A kind
    seen once keeps its own latency.
    """
    by_kind = {}
    for op, t in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).append(t)
    picked = {k: pick(v) for k, v in by_kind.items()}
    return [picked[op.kind] for op in ops]


def tail(latencies) -> tuple:
    """The highest percentile with TAIL_BEYOND operations beyond it, and that
    percentile (nearest rank)."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import orthospin.cli  # noqa: F401  (the CLI import every user pays)
    except ImportError as exc:
        print(f"cannot import orthospin from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.tiny)
    info = machine()
    print("# machine " + json.dumps(info))
    import_s, warmup_s = setup(workload)

    def kinds(ops, walls, scaled):
        if workload.host_scaled:
            return kind_latencies(ops, scaled, statistics.median)
        return kind_latencies(ops, walls, min)

    ops, tracer = workload.ops, None
    if args.trace:
        # One round, run twice from the same cache state: untraced, for the
        # tracing overhead, then traced.
        from tracing import Tracer

        ops = ops[:workload.round_len]
        ref_busy = sum(kinds(ops, *run_ops(workload, ops)[:2]))
        clear_caches()
        if workload.warmup is not None:
            workload.warmup()
        tracer = Tracer()
        tracer.install()
    walls, scaled, failures = run_ops(workload, ops, tracer)
    if tracer is not None:
        tracer.uninstall()
    latencies = kinds(ops, walls, scaled)
    busy = sum(latencies)
    attempted = len(latencies)
    ok = attempted - len(failures)
    for line in failures:
        print("# failed " + line)

    if tracer is None:
        tail_s, tail_pct = tail(latencies)
        print(f"# op_tail_ms is the p{tail_pct:.1f} latency of {attempted} operations")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": metric(ok / busy, "1/s"),
            "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": metric(1e3 * tail_s, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "ok_frac": metric(ok / attempted, "frac"),
            "setup_s": metric(import_s + warmup_s, "s"),
        }
        print(f"# wall: {attempted} operations in {sum(walls):.3f} s, "
              f"median {1e3 * statistics.median(walls):.3f} ms; host-speed scale "
              f"{sum(scaled) / sum(walls):.3f}"
              + ("" if workload.host_scaled else " (not applied: BLAS-bound)"))
    else:
        units = _per_layer_units()
        values = tracer.metrics(sum(walls))
        values["setup.import_s"] = import_s
        values["setup.warmup_s"] = warmup_s
        values["trace.overhead_frac"] = busy / ref_busy - 1.0
        metrics = {k: metric(values[k], units[k]) for k in units}
        OUT.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "machine": info,
                "metrics": values, **tracer.dump()}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump))
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in _spec()["per_layer"]}


def run_all(args) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    spec = _spec()
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{w['name']}: attempted {result['attempted']}, failed {result['failed']}")
        for line in lines[:-1]:
            if line.startswith("# failed") or line.startswith("# op_tail"):
                print("  " + line)
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def smoke() -> int:
    """Run every workload at tiny sizes, traced and not, and check that each
    metric BENCHMARK.json lists is emitted with its unit."""
    spec = _spec()
    missing = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", w["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                missing.append(f"{w['name']} trace={trace}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                missing.append(f"{w['name']} trace={trace}: {result['failed']} failed")
            got = result["metrics"]
            for m in spec[key]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    missing.append(f"{w['name']} trace={trace}: {m['name']}")
            print(f"{w['name']} trace={trace}: {len(got)} metrics")
    for line in missing:
        print("missing " + line)
    print("smoke " + ("FAILED" if missing else "ok"))
    return 1 if missing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for checking the harness only")
    parser.add_argument("--smoke", action="store_true",
                        help="check that every listed metric is emitted")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if not (SRC / "orthospin").is_dir():
        print(f"no orthospin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
