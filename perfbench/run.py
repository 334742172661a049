"""bpbounds benchmark: CLI workloads with end-to-end and per-layer metrics.

Run from the root of a source checkout (the program is imported from
``src/``):

    python3 perfbench/run.py --workload table-36 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run times ``setup_s`` (a fresh interpreter importing ``bpbounds.cli``
and writing the inputs, repeated, median), then calls
``bpbounds.cli.main(argv)`` in this process for every answer of the
workload, pass after pass, for about ``--seconds`` (at least MIN_PASSES
passes).  Each latency and set-up time is scaled to a reference speed by
timing a fixed probe kernel just before and after it, and an answer's
latency is its best over the passes, so that the changing speed a shared
machine gives the process counts as little as possible; the unscaled
figures are printed and kept too.  Every answer is checked against its
reference and against the first pass.  With
``--trace 1`` one more pass runs with spans recorded around the public
functions of each module (see ``spans.py``), its answers must equal the
untraced ones, and the per-layer metrics are reported instead of the
end-to-end ones.

Metric lines are printed as ``<workload> <name> = <value> <unit>``; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run
(environment, every produced value, every latency) is written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import io
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
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10      # answers required beyond the reported tail percentile
MIN_PASSES = 2        # an answer's best latency needs at least two tries
PROBE_TRIES = 3       # probe kernel runs per speed reading; the best counts
PROBE_REF_S = 1.3e-3  # reference speed: the probe kernel takes 1.3 ms (README)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the harness self-check's answer sets")
    return p.parse_args(argv)


def commit_of(root: Path):
    """HEAD commit when the checkout is a git repository, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setup(args, work: Path) -> float:
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "prepare.py"), args.workload,
                    str(args.seed), str(work), args.size],
                   check=True, timeout=120, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def speed_reading() -> float:
    """Best of PROBE_TRIES runs of a fixed kernel that uses nothing of the
    program: interpreter arithmetic, small-array numpy calls, ufuncs over a
    512 KiB array and scipy quadrature of a Python integrand, the mix the
    workloads run.  A shared machine can slow a process by up to 2x for
    seconds to minutes at a time; readings taken around each timed step
    follow that."""
    import numpy as np
    from scipy import integrate

    small, medium = np.linspace(0.0, 1.0, 512), np.linspace(0.0, 1.0, 65536)
    best = math.inf
    for _ in range(PROBE_TRIES):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(3000):
            s += math.sqrt(i + 1.0)
        for k in range(40):
            s += float(np.dot(np.roll(small, k), small))
        for _ in range(4):
            s += float(np.dot(np.tanh(medium), medium))
        for j in range(12):
            s += integrate.quad(lambda x, j=j: math.exp(-x * x) * math.log1p(x + j),
                                0.0, 5.0)[0]
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A time scaled to the reference speed by the faster of the speed
    readings taken just before and just after it: a reading that was itself
    interrupted must not make the step look fast."""
    return seconds * PROBE_REF_S / min(before, after)


def run_pass(cli, answers, reference, tracer=None) -> dict:
    """Every answer once; latencies, produced values and reference errors.
    Untraced passes take a speed reading before the first answer and after
    each answer, and scale each latency to the reference speed."""
    latency, cpu, values, errors = [], 0.0, {}, {}
    readings = [speed_reading()] if tracer is None else []
    for i, ans in enumerate(answers):
        for path in (ans["out"], ans["out"] + ".overlays.json"):
            Path(path).unlink(missing_ok=True)
        if tracer is not None:
            tracer.answer = i
        sink = io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = cli.main(list(ans["argv"]))
        except (Exception, SystemExit) as exc:     # a failed answer, not a harness fault
            rc = f"raised {exc!r}"
        latency.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        if tracer is None:
            readings.append(speed_reading())
        key = ans["key"]
        values[key] = None
        if rc != 0:
            errors[key] = [f"exit {rc}: {sink.getvalue()[-400:]}"]
            continue
        try:
            values[key] = workloads.read_output(ans)
            errs = workloads.check(ans, values[key], reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errs = [f"unreadable output: {exc!r}"]
        if errs:
            errors[key] = errs
    checked = {k: v for k, v in values.items() if v is not None and k not in errors}
    for key, errs in workloads.cross_check(checked).items():
        errors.setdefault(key, []).extend(errs)
    scaled = [at_reference_speed(x, a, b)
              for x, a, b in zip(latency, readings, readings[1:])]
    return {"wall_s": sum(latency), "cpu_s": cpu, "latency": latency,
            "speed_readings": readings, "scaled_latency": scaled,
            "values": values, "errors": errors}


def flag_differences(run: dict, first: dict, what: str) -> None:
    for key, val in run["values"].items():
        if val is not None and val != first["values"].get(key):
            run["errors"].setdefault(key, []).append(f"values differ from {what}")


def best_latency(passes, kind="scaled_latency") -> list:
    """Each answer's best latency over the passes."""
    return [min(a) for a in zip(*(p[kind] for p in passes))]


def tail(best, answers):
    """(value, percentile, count): the highest percentile of the answers'
    best latencies with at least TAIL_BEYOND answers beyond it.  An answer
    set too small to have one reports its slowest answer (percentile 100),
    counting the answers of a group (the same DE threshold at several DE
    seeds) as one answer at their mean latency."""
    lat = sorted(best)
    if len(lat) <= TAIL_BEYOND:
        groups = defaultdict(list)
        for ans, x in zip(answers, best):
            groups[ans["group"]].append(x)
        return max(statistics.mean(g) for g in groups.values()), 100.0, len(groups)
    k = len(lat) - TAIL_BEYOND - 1
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat)


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "commit": commit_of(ROOT)}


def run_workload(args) -> int:
    if not (ROOT / "src" / "bpbounds" / "cli.py").is_file():
        print(f"no bpbounds sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    nproc = len(cpus)
    for var in BLAS_VARS:          # before numpy is imported, here and in set-up
        os.environ[var] = str(nproc)
    work = WORK / args.workload
    repeats = workloads.SETUP_REPEATS[args.size] if not args.trace else 1
    setup, setup_scaled = [], []
    # set-up runs in a child process: hold it and the speed readings around
    # it on one CPU, so that the readings measure the CPU the set-up ran on
    os.sched_setaffinity(0, {min(cpus)})
    try:
        reading = speed_reading()
        for _ in range(repeats):
            setup.append(time_setup(args, work))
            before, reading = reading, speed_reading()
            setup_scaled.append(at_reference_speed(setup[-1], before, reading))
    finally:
        os.sched_setaffinity(0, cpus)

    sys.path.insert(0, str(ROOT / "src"))
    import bpbounds.cli as cli
    import spans

    answers = workloads.load(work)
    reference = json.loads((HERE / "reference.json").read_text())
    passes = []
    start = time.perf_counter()
    # a pass starts only if it should end within --seconds, so that a run's
    # length does not depend on where the deadline falls in a pass
    while len(passes) < MIN_PASSES or \
            time.perf_counter() - start + passes[-1]["wall_s"] <= args.seconds:
        passes.append(run_pass(cli, answers, reference))
        flag_differences(passes[-1], passes[0], "the first pass")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = list(passes)
    best = best_latency(passes)
    wall = sum(best)
    bypass = []

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, answers, reference, tracer)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.npz")
        flag_differences(traced, passes[0], "the untraced run")
        runs.append(traced)
        bypass = spans.bypass_violations(args.workload, tracer)
        metrics = spans.layer_metrics(tracer)
        metrics["process.cpu_s"] = (statistics.mean(p["cpu_s"] for p in passes), "s")
        # against a typical untraced pass: the traced pass is a single try
        untraced = statistics.median(p["wall_s"] for p in passes)
        metrics["process.trace_overhead_frac"] = (traced["wall_s"] / untraced - 1.0, "ratio")
    else:
        tail_s, tail_pct, n = tail(best, answers)
        metrics = {"setup_s": (statistics.median(setup_scaled), "s"),
                   "wall_s": (wall, "s"),
                   "answer_p50_s": (statistics.median(best), "s"),
                   "answer_tail_s": (tail_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        best_raw = best_latency(passes, "latency")
        unscaled = {"setup_s": statistics.median(setup), "wall_s": sum(best_raw),
                    "answer_p50_s": statistics.median(best_raw),
                    "answer_tail_s": tail(best_raw, answers)[0]}

    attempted = sum(len(r["latency"]) for r in runs)
    failed = sum(len(r["errors"]) for r in runs)
    correct = failed == 0 and not bypass
    for i, r in enumerate(runs):
        for key, errs in r["errors"].items():
            print(f"{args.workload} FAIL pass {i} {key}: {'; '.join(errs)}")
    for msg in bypass:
        print(f"{args.workload} BYPASS VIOLATED: {msg}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"answers={attempted} failed={failed} fail_frac={failed / attempted:g}")
    if not args.trace:
        print(f"{args.workload} answer_tail_s is p{tail_pct:.1f} of {n} answers")
        print(f"{args.workload} times at the reference speed; unscaled "
              + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")

    env = environment(args, nproc)
    print(f"{args.workload} environment {json.dumps(env)}")
    record = {"environment": env, "setup_s": setup,
              "correct": correct, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "bypass_violations": bypass,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "passes": runs}
    if not args.trace:
        record.update(answer_tail_percentile=tail_pct, answer_count=n,
                      setup_s_scaled=setup_scaled, probe_reference_s=PROBE_REF_S,
                      unscaled={k: {"value": v, "unit": "s"} for k, v in unscaled.items()})
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print(f"{args.workload} record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics keyed <workload>.<name>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
