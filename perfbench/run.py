"""RECEIPT benchmark: time from an edge frame to exact tip numbers.

Run from the repository root::

    python3 perfbench/run.py --workload recount_fd --seed 1 --seconds 32 --trace 0

One run, in one process:

1. set-up (``setup_s``): start the Spark session through
   ``repro.experiments.session.get_session``; generate the workload's
   graph relabeled by ``--seed`` (``workloads.py``), compute the ``bup()``
   oracle and load the edge frame into Spark (three times, median taken);
   run one untimed, checked warm-up decomposition;
2. timed loop for about ``--seconds``: decompose through the public
   entry point, check every result against the oracle, report the median
   and, on the first line, the sample count (``decomp_n``) and the CPU
   time the hypervisor took from the machine meanwhile (``host_steal_s``).
   With ``--trace 1`` untraced and traced decompositions alternate; the
   traced ones give the per-layer metrics (``layers.py``) and the span
   file ``.bench_build/perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit. The exit code is 0 only if every
decomposition returned the oracle's tips (and, for ParB, its ρ and Λ).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from layers import PER_LAYER, instrumented, layer_metrics
from spans import Tracer
from workloads import WORKLOADS, Expected, Tally, edge_list, mismatch

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
DRIVER_MEMORY = "2g"

#: end-to-end metrics (``--trace 0``) with their units
END_TO_END = {
    "decomp_s": "s",
    "setup_s": "s",
    "wedges": "count",
    "rho": "count",
    "driver_rss_mb": "MB",
}


def _configure_environment() -> dict:
    """Fix the run environment; must run before pyspark is imported.

    Driver memory and JVM temp dirs are read when the JVM launches. Spark's
    Python workers inherit ``PYTHONPATH``, which is how FD's grouped-map
    tasks import ``repro``. Spark's scratch files stay in the checkout.
    """
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    tmp = WORK / "tmp"
    local = WORK / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # two task threads: with the Python driver and the JVM's scheduler,
    # GC and compiler threads beside them, that keeps the busy threads
    # at about the four vCPUs the benchmark was tuned on
    cores = min(2, os.cpu_count() or 1)
    os.environ["SPARK_MASTER"] = f"local[{cores}]"
    # leave shuffle partitions at the program's own default
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    # C1 only: under the default tiered JIT the driver's CPU time per
    # decomposition keeps falling (by half) over the first ten or so
    # decompositions, longer than a run can warm up, so a run would time
    # the JIT's progress; with C1 alone it is flat after the warm-up.
    # Spark generates new classes for every query, so the code cache
    # churns; with flushing on, the sweeper and the recompiles it causes
    # added several seconds to one decomposition in ten. A 512 MB cache
    # without flushing holds a run's code (about 50 MB after a dozen
    # decompositions). GC threads are capped to match the task threads.
    java_opts = " ".join([
        f"-Djava.io.tmpdir={tmp}",
        "-XX:-UsePerfData",
        "-XX:TieredStopAtLevel=1",
        "-XX:ReservedCodeCacheSize=512m",
        "-XX:-UseCodeCacheFlushing",
        "-XX:ParallelGCThreads=2",
        "-XX:ConcGCThreads=1",
    ])
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", java_opts,
            "pyspark-shell",
        ]
    )
    return {"master": os.environ["SPARK_MASTER"], "driver_memory": DRIVER_MEMORY}


def _machine(env: dict) -> dict:
    import pyarrow
    import pyspark

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        **env,
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_kb // 1024,
        "spark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
    }


def _peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of ``pid``, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine, all CPUs.

    Recorded around the timed loop: on a shared host, stolen time is
    what moves wall times between runs.
    """
    with open("/proc/stat") as f:
        fields = f.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def _decompose(w, sdf):
    """One decomposition through the public entry point.

    Returns ``(tips, rho, wedges, metrics)``.
    """
    if w.algorithm == "receipt":
        from repro.core.receipt import receipt

        r = receipt(sdf, n_partitions=w.n_partitions)
        return r.tips, r.metrics.rho, r.metrics.total_wedges, r.metrics
    from repro.core.parb import parb_spark

    tips, met = parb_spark(sdf)
    if not met.completed:
        raise RuntimeError("parb_spark stopped before peeling every vertex")
    return tips, met.rounds, met.total_wedges, met


class Runner:
    """One workload on one graph: set-up, checked decompositions."""

    def __init__(self, w, seed: int | None):
        self.w, self.seed = w, seed
        self.tally = Tally()
        self.rho = self.wedges = 0
        self.last_metrics = None

    def setup(self) -> float:
        """Start Spark, build graph and oracle, warm up; returns ``setup_s``."""
        from repro.core.bup import bup, parb_simulate
        from repro.experiments.session import get_session

        t0 = time.perf_counter()
        self.spark = get_session("perfbench")
        t_session = time.perf_counter() - t0
        loads, bups = [], []
        for _ in range(3):
            t = time.perf_counter()
            pdf = edge_list(self.w, self.seed)
            tb = time.perf_counter()
            oracle, _ = bup(pdf)
            bups.append(time.perf_counter() - tb)
            self.sdf = self.spark.createDataFrame(pdf).localCheckpoint()
            loads.append(time.perf_counter() - t)
        self.bup_s = statistics.median(bups)
        self.n_edges = len(pdf)
        self.expected = Expected(tips=oracle)
        if self.w.algorithm == "parb":
            _, sim = parb_simulate(pdf)
            self.expected.rho, self.expected.wedges = sim.rounds, sim.total_wedges
        t = time.perf_counter()
        if self.run_once()[1] and self.w.algorithm == "receipt":
            self.expected.rho, self.expected.wedges = self.rho, self.wedges
        t_warm = time.perf_counter() - t
        return t_session + statistics.median(loads) + t_warm

    def run_once(self, around=nullcontext) -> tuple[float, bool]:
        """Decompose, check, tally; returns ``(seconds, correct)``.

        ``around()`` is entered around the decomposition call only, not
        around the check (the traced run opens its root span there).
        """
        t0 = time.perf_counter()
        try:
            with around():
                tips, rho, wedges, met = _decompose(self.w, self.sdf)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            self.tally.record(False)
            return dt, False
        dt = time.perf_counter() - t0
        why = mismatch(tips, rho, wedges, self.expected)
        if why:
            print(f"perfbench: wrong result: {why}", file=sys.stderr)
        self.tally.record(why is None)
        self.rho, self.wedges, self.last_metrics = rho, wedges, met
        return dt, why is None


def _timed_loop(seconds: float, step) -> None:
    """Call ``step()`` while at least half a call's length of ``seconds``
    is left; at least once. A call's length is the median so far."""
    end = time.perf_counter() + seconds
    took: list[float] = []
    while not took or end - time.perf_counter() >= statistics.median(took) / 2:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)


def _jvm_pid(spark) -> int:
    return int(spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid())


def _fd_metrics(met) -> dict[str, float]:
    sw = met.subset_wedges_induced
    mean = sum(sw) / len(sw) if sw else 0.0
    return {"fd.wedges": met.fd.wedges, "fd.skew": max(sw) / mean if mean else 0.0}


def _stop() -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    sc, gateway = SparkContext._active_spark_context, SparkContext._gateway
    if sc is not None:
        sc.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="relabels the workload's graph; default: generator ids")
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = _configure_environment()

    run = Runner(w, args.seed)
    info: dict = {}
    try:
        setup_s = run.setup()
        if args.trace:
            units = PER_LAYER
            metrics = _traced_run(run, args.seconds)
            metrics["jvm_rss_mb"] = _peak_rss_mb(_jvm_pid(run.spark))
        else:
            units = END_TO_END
            samples: list[float] = []
            steal0 = _host_steal_s()
            _timed_loop(args.seconds, lambda: samples.append(run.run_once()[0]))
            info["host_steal_s"] = round(_host_steal_s() - steal0, 2)
            info["decomp_n"] = len(samples)
            info["decomp_samples_s"] = [round(s, 3) for s in samples]
            metrics = {
                "decomp_s": statistics.median(samples),
                "setup_s": setup_s,
                "wedges": run.wedges,
                "rho": run.rho,
                "driver_rss_mb": _peak_rss_mb(),
            }
    finally:
        _stop()

    tally = run.tally
    print(json.dumps({
        "workload": w.name, "seed": args.seed, "edges": run.n_edges,
        "fail_rate": tally.fail_rate, **info, **_machine(env),
    }))
    for k, unit in units.items():
        print(f"{k} {metrics[k]!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


def _traced_run(run: Runner, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced decompositions; per-layer medians."""
    tracer = Tracer(run.spark.sparkContext)
    root_name = "parb" if run.w.algorithm == "parb" else "receipt"
    plain: list[float] = []
    traced: list[float] = []
    per_decomp: list[dict[str, float]] = []

    def pair() -> None:
        plain.append(run.run_once()[0])
        first = len(tracer.spans)
        with instrumented(tracer):
            ok = run.run_once(lambda: tracer.span(root_name))[1]
        root = tracer.spans[first]
        traced.append(root.seconds)
        if not ok:
            return
        tracer.collect_jobs(root)
        m = layer_metrics(tracer, root, run.rho)
        if run.w.algorithm == "receipt":
            m.update(_fd_metrics(run.last_metrics))
        per_decomp.append(m)

    _timed_loop(seconds, pair)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"trace-{run.w.name}-{run.seed}.json")
    out = {
        k: statistics.median(m[k] for m in per_decomp) if per_decomp else 0.0
        for k in PER_LAYER
    }
    out["baseline.bup_s"] = run.bup_s
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


if __name__ == "__main__":
    sys.exit(main())
