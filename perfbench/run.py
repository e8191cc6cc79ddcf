"""symba benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan-table --seed 0 --seconds 12 --trace 0

One process runs one workload as a closed loop with one caller: the next
job starts when the previous one returns. The job list is run again and
again until `--seconds` have passed, short jobs also in extra passes of
their own; every timing is a median over those passes, of latencies
scaled by the machine's speed read beside them (speed.py). The first pass
warms up and is checked, not timed. With `--trace 0` the last line of
stdout is a JSON object with the end-to-end metrics; with `--trace 1`
untraced passes alternate with traced replays and the JSON holds the
per-layer metrics. The lines before it repeat every metric with its unit
and sample count, and record the machine. Spans of the last traced pass
are written to `.perfbench-out/` at the root of the checkout. See
WORKLOADS.md.
"""

import argparse
import fcntl
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 0
SETUP_REPS = 7
SHORT_S = 0.05  # jobs faster than this in the warm-up pass get extra passes
SHORT_SHARE = 0.3  # the share of the timed phase the extra passes may take
MAX_EXTRA = 8
WORKLOADS = ("scan-table", "transport-table", "linear", "small-jobs")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny job list, for the self-test")
    ap.add_argument(
        "--write-goldens", action="store_true", help="record this run's digests as the goldens"
    )
    ap.add_argument("--setup-only", action="store_true", help="set up and exit (times setup_s)")
    return ap.parse_args(argv)


def cap_threads() -> None:
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy

    from symba import caps

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": _read(cache.format(2)),
        "l3": _read(cache.format(3)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "DEFAULT_ENUMERATION_CAP": caps.DEFAULT_ENUMERATION_CAP,
        "DEFAULT_TRANSPORT_CAP": caps.DEFAULT_TRANSPORT_CAP,
        "TRANSPORT_DIM_CAP": caps.TRANSPORT_DIM_CAP,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


@contextmanager
def exclusive():
    """One workload process at a time per checkout."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


class Pass:
    """Latencies and output digests of one run of the job list.

    A pass over some of the jobs holds None for the others.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.latency = []
        self.digests = []
        self.errors = []  # per job: None or a message
        self.kept = []
        self.spans = []  # per job: (start, end) on the perf_counter clock


def job_samples(passes, meter=None) -> list:
    """Each job's latencies over the passes that ran it, scaled by `meter` if given."""
    samples = [[] for _ in passes[0].latency]
    for p in passes:
        for i, (lat, span) in enumerate(zip(p.latency, p.spans)):
            if lat is not None:
                samples[i].append(lat * meter.factor(*span) if meter else lat)
    return samples


def job_latency(passes, meter=None) -> list:
    """Each job's median latency over the passes that ran it."""
    return [statistics.median(s) for s in job_samples(passes, meter)]


def short_jobs(warmup: Pass) -> tuple:
    """The jobs that get extra passes, and how many extra passes follow each full one.

    A job list of a few long jobs and many short ones leaves the short jobs
    with few samples, yet they set the median and often the tail. Jobs under
    SHORT_S in the warm-up pass are run again in extra passes of their own,
    as many as fit in SHORT_SHARE of the time.
    """
    short = [i for i, lat in enumerate(warmup.latency) if lat < SHORT_S]
    short_s = sum(warmup.latency[i] for i in short)
    long_s = sum(warmup.latency) - short_s
    if not short or long_s <= 0:
        return short, 0
    return short, min(MAX_EXTRA, int(SHORT_SHARE / (1 - SHORT_SHARE) * long_s / short_s))


def run_pass(jobs, meter, tracer=None, keep=False, only=None) -> Pass:
    """Run the job list (or the jobs at indices `only`) once, timing each job.

    Outputs are digested between jobs, outside the timing.
    """
    from jobs import digest

    result = Pass(tracer is not None)
    only = set(range(len(jobs)) if only is None else only)
    for i, job in enumerate(jobs):
        if i not in only:
            for column in (result.latency, result.spans, result.errors, result.digests, result.kept):
                column.append(None)
            continue
        meter.between_jobs()
        out = error = record = kept = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                tracer.job = job.id
                with tracer.span("job"):
                    out = job.replay(tracer)
        except Exception:
            error = f"{job.id}: " + traceback.format_exc(limit=3)
        end = time.perf_counter()
        result.latency.append(end - start)
        result.spans.append((start, end))
        if error is None:
            try:
                record, kept = job.summarize(out)
            except Exception:
                error = f"{job.id}: summarize: " + traceback.format_exc(limit=3)
        del out  # free the output before the next job runs
        result.errors.append(error)
        result.digests.append(None if error else digest(record))
        result.kept.append(kept if keep else None)
    meter.read()  # so that the last job has a reading after it
    return result


def tail(values):
    """Highest percentile with at least ten samples beyond it (or the max)."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def judge(workload, seed, jobs, passes, goldens):
    """Count failed job executions; returns (failed, attempted, messages)."""
    first = next(p for p in passes if not p.traced)
    messages = []
    check_failed = set()
    for i, job in enumerate(jobs):
        if first.errors[i]:
            continue
        try:
            errs = job.check(first.kept[i])
        except Exception:
            errs = [f"{job.id}: check raised: " + traceback.format_exc(limit=3)]
        if errs:
            check_failed.add(i)
            messages.extend(errs)
    expected = first.digests
    if seed == DEFAULT_SEED:
        known = goldens.get(workload, {})
        expected = [known.get(job.id, "missing golden") for job in jobs]
    failed = attempted = 0
    for p in passes:
        for i, job in enumerate(jobs):
            if p.latency[i] is None:
                continue
            attempted += 1
            if p.errors[i]:
                failed += 1
                messages.append(p.errors[i])
            elif i in check_failed:
                failed += 1
            elif p.digests[i] != expected[i]:
                failed += 1
                side = "traced replay" if p.traced else "run"
                messages.append(f"{job.id}: {side} digest {p.digests[i]} != expected {expected[i]}")
    return failed, attempted, messages


def set_up(module, args, workdir):
    """Generate the workload's inputs and run one warm-up job of each kind."""
    from jobs import first_of_each_kind

    jobs = module.build(args.seed, args.quick, workdir)
    for job in first_of_each_kind(jobs):
        job.run()
    return jobs


def time_setup(argv, meter) -> float:
    """Process start to the end of set-up in a fresh process, scaled by the speed around it."""
    start = time.perf_counter()
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    end = time.perf_counter()
    meter.read()
    return (end - start) * meter.factor(start, end)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if "SYMBA_CAP" in os.environ:
        print("refusing to run: SYMBA_CAP is set and would change every cap", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "symba" / "__init__.py").is_file():
        print(f"no symba sources under {src}", file=sys.stderr)
        return 2
    if args.write_goldens and (args.seed != DEFAULT_SEED or args.quick):
        print("goldens are written from a full run of the default seed", file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [str(src), str(HERE)]
    import symba

    if Path(symba.__file__).resolve().parent != (src / "symba").resolve():
        print(f"imported symba from {symba.__file__}, not {src}", file=sys.stderr)
        return 2
    module = importlib.import_module(args.workload.replace("-", "_"))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.setup_only:
            set_up(module, args, workdir)
            return 0
        with exclusive():
            return measure(args, argv, module, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, argv, module, workdir) -> int:
    import speed
    from spans import PER_LAYER, Tracer, median_metrics

    env = environment()
    jobs = set_up(module, args, workdir)

    # Passes run back to back until the time is up, with the machine's speed
    # read between jobs (speed.py). The set-up processes of an untraced run
    # are spread over it, so that their median does not rest on one moment
    # of a shared machine; the speed is read right before and after each.
    passes = []
    tracers = []
    setups = []
    meter = speed.Meter()
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, meter, keep=not passes))
        if args.trace:
            tracer = Tracer()
            passes.append(run_pass(jobs, meter, tracer=tracer))
            tracers.append(tracer)
        else:
            if len(passes) == 1:
                short, extra = short_jobs(passes[0])
            passes.extend(run_pass(jobs, meter, only=short) for _ in range(extra))
        elapsed = time.perf_counter() - start
        due = len(setups) * args.seconds / SETUP_REPS
        if not args.trace and len(setups) < SETUP_REPS and elapsed >= due:
            setups.append(time_setup(argv, meter))
        if elapsed >= args.seconds:
            break
    while not args.trace and len(setups) < SETUP_REPS:
        setups.append(time_setup(argv, meter))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    if args.write_goldens:
        goldens[args.workload] = {job.id: d for job, d in zip(jobs, passes[0].digests)}
        GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    failed, attempted, messages = judge(args.workload, args.seed, jobs, passes, goldens)

    # The first pass grows the heap to the job list's largest arrays and
    # keeps the outputs for the checks, so it is checked but not timed.
    untraced = [p for p in passes if not p.traced]
    if len(untraced) > 1 and min(map(len, job_samples(untraced[1:]))) > 0:
        untraced = untraced[1:]
    per_job = job_latency(untraced, meter)
    tail_s, tail_pct = tail(per_job)
    wall_s = sum(per_job)
    counts = [len(s) for s in job_samples(untraced)]
    n_jobs, n_passes = len(jobs), f"{min(counts)} to {max(counts)}"

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(
        f"# workload {args.workload} seed {args.seed} jobs {n_jobs} timed untraced passes {n_passes}"
        f" traced passes {len(tracers)} quick {args.quick}"
    )
    for msg in messages[:20]:
        print(f"# FAIL {msg}", file=sys.stderr)

    record = {"env": env, "workload": args.workload, "seed": args.seed, "jobs": [j.id for j in jobs],
              "setups": setups, "latency": [p.latency for p in untraced],
              "job_spans": [p.spans for p in untraced], "readings": meter.readings}
    if args.trace:
        layers = median_metrics([t.layer_metrics() for t in tracers])
        layers["trace.overhead_s"] = sum(job_latency([p for p in passes if p.traced], meter)) - wall_s
        units = dict(PER_LAYER)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in PER_LAYER}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']} (median of {len(tracers)} traced passes)")
        record["spans"] = tracers[-1].dump()
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "job_p50_ms": 1000.0 * statistics.median(per_job),
            "job_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        each = f"each its median of {n_passes} passes, scaled to the reference speed"
        samples = {
            "setup_s": f"median of {SETUP_REPS} fresh processes, scaled to the reference speed",
            "wall_s": f"{n_jobs} jobs, {each}",
            "job_p50_ms": f"median of n={n_jobs} jobs, {each}",
            "job_tail_ms": f"p{tail_pct:.1f} of n={n_jobs} jobs, {each}",
            "peak_rss_mb": "ru_maxrss after the timed phase",
        }
        unscaled = job_latency(untraced)
        reference = meter.reference()
        print(
            f"# unscaled: wall_s {sum(unscaled):.6g} s, job_p50_ms {1000.0 * statistics.median(unscaled):.6g}"
            f" ms, job_tail_ms {1000.0 * tail(unscaled)[0]:.6g} ms; reference kernels"
            f" {1000.0 * reference:.4g} ms median of {len(meter.readings)} readings"
            f" (unit {1000.0 * speed.REFERENCE_S:.4g} ms)"
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name} {values[name]:.6g} {unit} ({samples[name]})")
    print(f"ops_failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} job runs)")
    record["metrics"] = metrics
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
