"""The symcanon benchmark: closed-loop workloads with one client.

One workload per process:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 28 --trace 0

prints one line per end-to-end metric (``--trace 0``) or per-layer metric
(``--trace 1``) and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All workloads, each
in its own process, untraced and then traced:

    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --results FILE

See NOTES.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify", "normalform", "multiply", "koszul-type")
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.process_time(); import symcanon; print(time.process_time() - t)"


def clean_env() -> Dict[str, str]:
    """The environment without SYMCANON_* settings, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYMCANON_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def import_seconds(workdir: str) -> float:
    """Median CPU time of importing symcanon in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=workdir, env=clean_env(), check=True, capture_output=True, text=True, timeout=60,
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def run_ops(wl, items, refs, seconds, tracer=None, count=None):
    """The closed loop: ops back to back over the input cycle for about
    ``seconds`` of wall time (or for exactly ``count`` ops).  The next op's
    wall time is estimated by the median of its kind so far; the loop always
    runs until every kind has been seen.

    An op's latency is the CPU time of this process across the op.  The
    loop is one thread and does no I/O, so on an idle machine that equals
    its wall time; on a shared host it leaves out the stretches in which
    the host runs other tenants instead.  Returns the latencies, the wall
    times, the kinds and the failures."""
    from symcanon.errors import SymcanonError

    kinds_needed = {it.kind for it in items}
    latencies, walls, kinds, failures = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        # every op starts from a collected heap, whatever the one before left
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = tracer.span("bench.op", wl.op, item) if tracer else wl.op(item)
            problems = list(outcome.problems)
            digest = hashlib.sha256(outcome.output.encode()).hexdigest()
            if digest != refs.get(item.key):
                problems.append(f"digest {digest[:12]} differs from the reference")
        except SymcanonError as exc:  # budget exhaustion, contract errors
            problems = [f"{type(exc).__name__}: {exc}"]
        except Exception as exc:  # any other crash is a failed op, not a stopped run
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.process_time() - c0)
        walls.append(time.perf_counter() - t0)
        kinds.append(item.kind)
        print(f"op {wl.name} {item.key} {latencies[-1]:.3f} s cpu {walls[-1]:.3f} s wall"
              f"{' traced' if tracer else ''}", file=sys.stderr)
        if problems:
            failures.append((item.key, problems))
            print(f"FAILED {wl.name} {item.key}: {problems}", file=sys.stderr)
        i += 1
        if count is not None:
            if i >= count:
                break
            continue
        nxt = items[i % len(items)].kind
        seen = [w for w, k in zip(walls, kinds) if k == nxt] or walls
        # stop when the next op would more likely end past the deadline
        # than before it
        if set(kinds) >= kinds_needed and time.perf_counter() - start + statistics.median(seen) / 2 > seconds:
            break
    return latencies, walls, kinds, failures


def mix_shares(items) -> Dict[str, float]:
    """Each kind's share of the input cycle: the stated input mix."""
    share: Dict[str, float] = {}
    for it in items:
        share[it.kind] = share.get(it.kind, 0.0) + 1.0 / len(items)
    return share


def throughput(share, latencies, kinds) -> float:
    """Ops per second at the stated mix: the kinds' mean latencies weighted
    by their shares, so a run that stops part way through a cycle reports
    the same mix as one that does not."""
    mean = {k: statistics.mean(l for l, kk in zip(latencies, kinds) if kk == k) for k in share}
    return 1.0 / sum(share[k] * mean[k] for k in share)


def median_latency(share, latencies, kinds) -> float:
    """Median op latency at the stated mix, by the weighted Harrell-Davis
    estimator: a weighted mean of the ordered samples, sample i weighing
    F(t_i) - F(t_(i-1)), where t_i is the cumulative mix weight of the
    first i samples and F the CDF of Beta(a, a), a = (n + 1) / 2, with n
    Kish's effective sample size.  A sample's mix weight is its kind's share
    divided by the kind's sample count.

    On a shared host that switches between a fast and a slow phase within a
    run, the latencies of a run fall into two clusters, and the plain median
    jumps from one to the other with a single sample more in either; this
    estimate moves by a fraction of the gap instead (see NOTES.md)."""
    import numpy

    count = {k: kinds.count(k) for k in share}
    ordered = sorted(zip(latencies, kinds))
    if len(ordered) == 1:
        return ordered[0][0]
    w = numpy.array([share[k] / count[k] for _, k in ordered])
    w /= w.sum()
    a = (1.0 / float(numpy.sum(w * w)) + 1.0) / 2.0
    # the Beta(a, a) CDF, integrated on a grid (a > 1 here, so the density
    # vanishes at both ends)
    x = numpy.linspace(0.0, 1.0, 20001)
    inner = x[1:-1]
    log_pdf = (a - 1.0) * (numpy.log(inner) + numpy.log1p(-inner))
    pdf = numpy.concatenate(([0.0], numpy.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = numpy.concatenate(([0.0], numpy.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    t = numpy.concatenate(([0.0], numpy.cumsum(w)))
    t[-1] = 1.0
    weights = numpy.diff(numpy.interp(t, x, cdf))
    return float(numpy.dot(weights, [lat for lat, _ in ordered]))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> int:
    info = machine_info()
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    os.chdir(workdir)  # no ./symcanon.json of the caller's is in reach
    try:
        import workloads
        from spans import Tracer

        wl = workloads.WORKLOADS[args.workload]
        refs = json.loads((HERE / "reference.json").read_text())[wl.name]
        keys = wl.cycle(args.seed)
        tracer = Tracer() if args.trace else None

        import_s = import_seconds(workdir)
        gen_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            c0 = time.process_time()
            items = [wl.make(k) for k in keys]
            gen_times.append(time.process_time() - c0)
        setup_s = import_s + statistics.median(gen_times)

        if tracer is None:
            latencies, _, kinds, failures = run_ops(wl, items, refs, args.seconds)
            share = mix_shares(items)
            metrics = {
                "ops_per_s": (throughput(share, latencies, kinds), "1/s"),
                "op_p50_s": (median_latency(share, latencies, kinds), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        else:
            # the same ops twice, untraced then traced: the ratio of the two
            # wall times is the tracing overhead
            latencies, plain_walls, _, failures_a = run_ops(wl, items, refs, args.seconds / 2)
            tracer.install([workloads])
            try:
                tracer.span("bench.setup", lambda: [wl.make(k) for k in keys])
                latencies_t, traced_walls, _, failures_b = run_ops(
                    wl, items, refs, args.seconds, tracer, count=len(latencies)
                )
            finally:
                tracer.uninstall()
            failures = failures_a + failures_b
            latencies = latencies + latencies_t
            plain_wall, traced_wall = sum(plain_walls), sum(traced_walls)
            metrics = tracer.metrics()
            metrics["trace.untraced_wall_s"] = (plain_wall, "s")
            metrics["trace.traced_wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
            tracer.write(str(ROOT / f"perfbench-spans-{wl.name}.json"))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    print(f"workload {wl.name}: seed {args.seed}, {attempted} ops, {len(failures)} failed, "
          f"cycle {len(keys)} inputs")
    print(f"machine {json.dumps(info, sort_keys=True)}")
    if not args.trace:
        print(f"op latency samples {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # not in the result's metrics: it is 0 whenever the code is right, and a
    # regression bound set as a share of 0 cannot work (see NOTES.md)
    print(f"failed_ratio = {len(failures) / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; the results
    and the machine description go to ``--results``."""
    results = {"seed": args.seed, "seconds": args.seconds, "runs": []}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
            result = json.loads(lines[-1])
            result["failed_ratio"] = result["failed"] / result["attempted"]
            results["runs"].append({"workload": name, "trace": trace, "machine": machine, **result})
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="symcanon benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default="perfbench-results.json",
                        help="results file of --workload all (relative to the root)")
    args = parser.parse_args(argv)
    for name in [k for k in os.environ if k.startswith("SYMCANON_")]:
        del os.environ[name]
    if not (SRC / "symcanon" / "__init__.py").is_file():
        print(f"error: no symcanon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        args.results = str(ROOT / args.results)
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
