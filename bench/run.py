"""Benchmark of pyramid and baseline inference and toy training.

Run from the repository root:

    python3 bench/run.py --workload infer-piip-b --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and bench/README.md):

* ``infer-piip-b``   ``PiipModel.forward`` of ``piip-b`` on 512 px images;
* ``infer-vit-b``    ``PiipModel.forward`` of ``vit-b-baseline`` on 224 px images;
* ``train-tiny``     ``PiipModel.train_step`` of ``piip-tiny-test``, batch 16.

One process, one closed loop: the next image (or training step) starts when
the previous one returns. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the run measures an untraced loop and
then a traced one, writes ``.bench_build/trace-<workload>.json`` and prints
the per-layer metrics. Every run checks the program's outputs (the ``check``
methods in ``workloads.py``) and reports the verdict as ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build")


def process_age() -> float:
    """Seconds from this process's start to the first line of this script."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    now = time.clock_gettime(time.CLOCK_BOOTTIME) - (time.perf_counter() - _START)
    return max(0.0, now - started)


def blas_threads() -> int:
    """Pin BLAS to the CPUs this process may run on; call before importing NumPy."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_loop(work, seconds: float, tracer=None) -> dict:
    """Closed loop of ``work.op`` for at least ``seconds`` of wall time."""
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.request = attempted
        try:
            ok = work.op(attempted)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation {attempted} failed: {exc!r}", file=sys.stderr)
            ok = False
        attempted += 1
        failed += not ok
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            break
    samples = (attempted - failed) * work.samples_per_op
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "images_per_s": samples / elapsed,
    }


def host_note(threads: int) -> dict:
    import platform

    import numpy as np

    cpu = platform.processor()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = blas_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    os.makedirs(OUT_DIR, exist_ok=True)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    work = WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        setup_s = process_age() + time.perf_counter() - _START
        t0 = time.perf_counter()
        work.warmup()
        warmup_s = time.perf_counter() - t0

        if tracer is None:
            run = timed_loop(work, args.seconds)
            rss = peak_rss_mb()
            checks = work.check()
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "images_per_s": metric(run["images_per_s"], "images/s"),
                "peak_rss_mb": metric(rss, "MB"),
            }
            attempted, failed = run["attempted"], run["failed"]
        else:
            setup_spans = tracer.summary()
            tracer.uninstall()
            plain = timed_loop(work, args.seconds)
            tracer.reset()
            with tracer.installed():
                run = timed_loop(work, args.seconds, tracer)
            checks = work.check()
            mac_rows = mac_check(tracer, work.cfg, run["samples"])
            checks["macs_match_cost_model"] = all(c == a for _, c, a in mac_rows)
            metrics = traced_metrics(tracer, run, plain, setup_spans, warmup_s)
            write_trace(args, tracer, metrics, checks, mac_rows, setup_spans, threads)
            attempted = run["attempted"] + plain["attempted"]
            failed = run["failed"] + plain["failed"]
    finally:
        work.close()

    correct = all(v for k, v in checks.items() if isinstance(v, bool))
    print(json.dumps(checks), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def mac_check(tracer, cfg, images: int) -> list[tuple[str, int, int]]:
    """(component, counted MACs, ``cost_report`` MACs) over ``images`` forwards."""
    from piip.costmodel import cost_report
    from tracing import priced_macs

    return [
        (entry.name, priced_macs(tracer.macs, entry.name), entry.flops * images)
        for entry in cost_report(cfg).entries
    ]


def traced_metrics(tracer, run: dict, plain: dict, setup_spans: dict, warmup_s: float) -> dict:
    from tracing import per_layer_metrics

    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        if name.startswith("autodiff.value_bytes"):
            return "bytes"
        return "ratio" if name.endswith("ratio") else "count"

    values = per_layer_metrics(tracer, run["samples"])
    for span, name in (
        ("params.allocate", "params.allocate_s"),
        ("model.load_weights", "model.load_weights_s"),
        ("harness.make_dataset", "harness.make_dataset_s"),
    ):
        values[name] = setup_spans.get(span, {}).get("inclusive_s", 0.0)
    values["model.warmup_s"] = warmup_s
    out = {name: metric(v, unit(name)) for name, v in values.items()}
    out["trace.images_per_s"] = metric(run["images_per_s"], "images/s")
    out["trace.untraced_images_per_s"] = metric(plain["images_per_s"], "images/s")
    overhead = (plain["images_per_s"] / run["images_per_s"] - 1.0) * 100.0
    out["trace.overhead_pct"] = metric(overhead, "%")
    return out


def write_trace(
    args, tracer, metrics: dict, checks: dict, mac_rows: list, setup_spans: dict, threads: int
) -> None:
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_note(threads),
        "metrics": metrics,
        "checks": checks,
        "mac_check": [
            {"component": c, "counted": counted, "cost_report": analytic}
            for c, counted, analytic in mac_rows
        ],
        "macs_by_kind": {f"{c}/{k}": n for (c, k), n in sorted(tracer.macs.items())},
        "setup_spans": setup_spans,
        "loop_spans": tracer.summary(),
        "spans": [
            [name, request, round(start - t0, 7), round(end - t0, 7), round(self_s, 7)]
            for name, request, start, end, self_s in tracer.spans
        ],
    }
    path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
