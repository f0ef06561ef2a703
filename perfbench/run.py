"""semloc benchmark: end-to-end metrics, output checks, and a traced run
with per-layer self times.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ablation-train --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --workload gen-eval --smoke --seconds 1 --trace 1

`--trace 0` times the unmodified package.  `--trace 1` alternates
untraced and traced iterations and reports per-layer metrics (see
tracer.py) plus the tracing overhead.  `--out FILE` merges the full
result into a JSON trajectory file.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json names for the chosen mode.  Exit code 0 on a completed
run, 1 when no iteration completed, 2 when the package or environment is
unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
WORKLOADS = ("ablation-train", "fullscale-train", "gen-eval")


class Unusable(RuntimeError):
    """The package or the environment cannot run the benchmark."""


def import_package():
    """Import semloc from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import semloc
    except ImportError as exc:
        raise Unusable(f"cannot import semloc from {SRC}: {exc}")
    if not os.path.abspath(semloc.__file__).startswith(SRC + os.sep):
        raise Unusable(f"semloc resolved outside {SRC}: {semloc.__file__}")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads(np):
    """Thread count of numpy's bundled scipy-openblas, and how it was read."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn()), f"ctypes {sym}"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var]), f"${var}"
    return None, "unknown"


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = blas_threads(np)
    return {"git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": threads,
            "blas_threads_source": source,
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


# ----------------------------------------------------------------------
# statistics and units
# ----------------------------------------------------------------------

def timing_summary(values, rate=False):
    """Best, median, the slowest whole percentile with >= 10 samples beyond
    it (left out when there are too few samples), and the sample count.

    Best is the fastest sample: the lowest time, or the highest rate; the
    slow tail of a rate is its low percentiles."""
    n = len(values)
    out = {"best": max(values) if rate else min(values),
           "median": statistics.median(values), "n": n}
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p > 50:
        q = 100 - p if rate else p
        out[f"p{q}"] = statistics.quantiles(values, n=100,
                                            method="inclusive")[q - 1]
    return out


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    special = {"peak_rss_mb": "MB", "target_rmse_m": "m",
               "target_acc": "ratio", "error_rate": "ratio",
               "engine.conv2d.gflop": "GFLOP",
               "engine.conv2d.mb_moved": "MB",
               "engine.adjoint.wasted_mb": "MB",
               "engine.adjoint.useful_ratio": "ratio",
               "dataio.bytes_written": "B", "dataio.bytes_read": "B"}
    return special.get(name, "count")


# conv2d FLOPs and bytes are computed from shapes, not measured
COMPUTED = ("engine.conv2d.gflop", "engine.conv2d.mb_moved")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def run_iteration(wl, st, tracer):
    """Time each repeat of each op of one iteration.

    Returns, per op, the list of results and of wall and CPU seconds (one
    entry per repeat), and, when traced, the span self time that fell
    inside the op's repeats.  Garbage from earlier calls is collected
    before each repeat, outside the timers.
    """
    ops = wl.ops(st)
    res, wall, cpu, self_s = {}, {}, {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for name, fn, reps in ops:
            res[name], wall[name], cpu[name] = [], [], []
            s0 = tracer.self_total_s() if tracer is not None else 0.0
            for _ in range(reps):
                gc.collect()
                w0, c0 = time.perf_counter(), time.process_time()
                res[name].append(fn())
                wall[name].append(time.perf_counter() - w0)
                cpu[name].append(time.process_time() - c0)
            if tracer is not None:
                self_s[name] = tracer.self_total_s() - s0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return res, wall, cpu, self_s


def iteration_s(per_op):
    """Seconds of one whole iteration: every repeat of every op."""
    return sum(sum(v) for v in per_op.values())


def run_workload(name, seed, seconds, trace, smoke, work_dir):
    import workloads
    from tracer import Tracer

    checks = workloads.Checks()
    wl = workloads.make(name, seed, smoke, work_dir)

    setup_s, digests, gen_s = [], [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        st = wl.setup()
        setup_s.append(time.perf_counter() - t0)
        digests.append(workloads.dataset_digest(st["ds"]))
        gen_s.append(st.get("gen_s"))
    checks.expect("set-up dataset repeats", len(set(digests)) == 1)

    tracer = Tracer() if trace else None
    iters, first, longest = [], None, 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(iters) % 2 == 1
        try:
            res, wall, cpu, self_s = run_iteration(
                wl, st, tracer if traced else None)
        except Exception as exc:  # a failed op is a failed check, not a crash
            checks.expect("iteration completes", False, repr(exc))
            iters.append(None)
        else:
            checks.expect("iteration completes", True)
            first = first or res
            wl.check(st, res, first, checks)
            if traced:
                for log in tracer.train_logs:
                    checks.expect("logged losses finite",
                                  workloads.log_is_finite(log))
                tracer.train_logs.clear()
            iters.append({"traced": traced, "wall": wall, "cpu": cpu,
                          "self": self_s})
        kinds = {it["traced"] for it in iters if it is not None}
        # no iteration starts that would end past the deadline if it took
        # as long as the longest so far; a traced run needs a completed
        # iteration of each kind, but gives up after twice its time
        now = time.perf_counter()
        longest = max(longest, now - t0)
        elapsed = now - start
        if elapsed + longest > seconds and (len(kinds) == 1 + trace
                                            or elapsed >= 2 * seconds):
            break

    plain = [it for it in iters if it is not None and not it["traced"]]
    traced_iters = [it for it in iters if it is not None and it["traced"]]
    if not plain or trace and not traced_iters:
        return None, checks
    try:
        rmse, acc = wl.quality(first)
    except (ValueError, KeyError, StopIteration):  # a failed eval printed none
        rmse = acc = float("nan")

    def rate(count, key):
        """One sample per repeat of the op, over all untraced iterations."""
        return [count / t for it in plain for t in it["wall"][key]]

    series = {
        "wall_s": [iteration_s(it["wall"]) for it in plain],
        "cpu_s": [iteration_s(it["cpu"]) for it in plain],
        "eval_samples_per_s": rate(st["eval_samples"], "eval"),
    }
    if "gen" in plain[0]["wall"]:
        series["gen_links_per_s"] = rate(st["links"], "gen")
    else:  # training workloads generate their dataset in set-up
        series["gen_links_per_s"] = [st["links"] / g for g in gen_s]
    if st["train_samples"]:
        series["train_samples_per_s"] = rate(st["train_samples"], "train")
    series["setup_s"] = setup_s

    # each timing reports its best sample: a shared host's speed can drop
    # by half for seconds to minutes, and a run's fastest sample moves far
    # less between runs than its median (README, Steadiness); set-up
    # reports its median
    e2e = {}
    for k, v in series.items():
        m = timing_summary(v, rate=k.endswith("_per_s"))
        e2e[k] = {"value": m["median" if k == "setup_s" else "best"], **m}
    e2e["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    e2e["target_rmse_m"] = {"value": rmse}
    e2e["target_acc"] = {"value": acc}
    e2e["error_rate"] = {"value": checks.failed / checks.attempted}
    result = {"workload": name, "seconds": seconds,
              "smoke": smoke, "end_to_end": e2e}

    if trace:
        n = len(traced_iters)
        untraced = e2e["wall_s"]["value"]
        traced_wall = min(iteration_s(it["wall"]) for it in traced_iters)
        module_s = {k: v / n for k, v in tracer.module_self_s().items()}
        self_sum = sum(module_s.values())
        # per op: span self time inside the op over the op's measured wall
        op_share = {op: sum(it["self"][op] for it in traced_iters)
                    / sum(sum(it["wall"][op]) for it in traced_iters)
                    for op in traced_iters[0]["wall"]}
        result["per_layer"] = tracer.metrics(n)
        result["module_self_s"] = module_s
        result["trace"] = {
            "iterations": n,
            "untraced_wall_s": untraced,
            "traced_wall_s": traced_wall,
            "overhead": traced_wall / untraced - 1.0,
            "self_time_sum_s": self_sum,
            "self_time_share_of_traced": sum(
                sum(it["self"].values()) for it in traced_iters) / sum(
                iteration_s(it["wall"]) for it in traced_iters),
            # both sides averaged per iteration
            "self_time_share_of_untraced":
                self_sum / statistics.fmean(series["wall_s"]),
            "self_time_share_per_op": op_share,
        }
    return result, checks


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(result, checks, env, why):
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {result['workload']} ({why})")
    print("end-to-end metrics (untraced iterations):")
    for k, m in result["end_to_end"].items():
        line = f"  {k:<22} {fmt(m['value']):>12} {unit_of(k)}"
        if "n" in m:
            kind = "median" if k == "setup_s" else "best"
            line += f"   {kind} of n={m['n']}; " + ", ".join(
                f"{q} {fmt(v)}" for q, v in m.items()
                if q not in ("value", kind, "n"))
        print(line)
    if "per_layer" in result:
        print("per-layer metrics (traced iterations, per iteration):")
        for k, v in result["per_layer"].items():
            note = "   (computed from shapes)" if k in COMPUTED else ""
            print(f"  {k:<34} {fmt(v):>12} {unit_of(k)}{note}")
        print("self time per module (per traced iteration):")
        for k, v in result["module_self_s"].items():
            print(f"  {k:<12} {fmt(v):>12} s")
        t = result["trace"]
        print(f"tracing overhead: {100 * t['overhead']:+.2f}% "
              f"(traced {fmt(t['traced_wall_s'])} s vs untraced "
              f"{fmt(t['untraced_wall_s'])} s per iteration, best of each)")
        shares = ", ".join(f"{op} {100 * v:.1f}%"
                           for op, v in t["self_time_share_per_op"].items())
        print(f"module self times sum to "
              f"{100 * t['self_time_share_of_untraced']:.1f}% of the untraced "
              f"and {100 * t['self_time_share_of_traced']:.1f}% of the traced "
              f"iteration (means); per op of the traced iteration: {shares}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"error_rate {checks.failed / checks.attempted:g}")
    for f in checks.failures:
        print(f"  FAILED {f}")


def merge_out(path, result, checks, env, trace):
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    entry = dict(result, environment=env,
                 checks={"attempted": checks.attempted,
                         "failed": checks.failed,
                         "failures": checks.failures})
    data.setdefault(result["workload"], {})["traced" if trace else "plain"] = entry
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        rc = max(rc, subprocess.run(cmd, check=False).returncode)
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; finishes in seconds")
    p.add_argument("--out", help="merge the full result into this JSON file")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    seed = args.seed % 2 ** 32
    # one BLAS thread unless the caller chose otherwise: on a 2-core box the
    # second thread spins without shortening these small matmuls, doubles
    # process CPU time and makes run-to-run times much less steady
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        import_package()
        env = environment(seed)
        if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
            raise Unusable(f"BLAS uses {env['blas_threads']} threads but only "
                           f"{env['nproc']} processors are available")
        spec = load_spec()
    except (Unusable, OSError, KeyError, ValueError) as exc:
        print(f"benchmark unusable: {exc}", file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        result, checks = run_workload(args.workload, seed, args.seconds,
                                      bool(args.trace), args.smoke, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    if result is None:
        print("no iteration of each needed kind completed: "
              + "; ".join(checks.failures), file=sys.stderr)
        return 1

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        args.workload, "not one of BENCHMARK.json's gated workloads")
    print_report(result, checks, env, why)
    if args.out:
        merge_out(args.out, result, checks, env, bool(args.trace))
    source = result["per_layer"] if args.trace else {
        k: m["value"] for k, m in result["end_to_end"].items()}
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if unit_of(m["name"]) != m["unit"]:
            print(f"unit of {m['name']} is {unit_of(m['name'])}, "
                  f"BENCHMARK.json says {m['unit']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
