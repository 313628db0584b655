"""mmproto benchmark: one command for any subset of the workloads.

    python3 benchmarks/run.py --workload all
    python3 benchmarks/run.py --workload train_sweep3_k16 --seed 3 --trace 1

With one workload name it runs that workload in this process. It prints
each check and each metric by name with its unit, the machine facts, and
last a JSON line {"correct", "attempted", "failed", "metrics"}. `--trace 0`
reports the end-to-end metrics; `--trace 1` runs the measured work once
untraced and once traced and reports the per-layer metrics, including the
tracing overhead. With `all` or a comma-separated list it runs each
workload in a fresh process of its own. It exits 1 when a check fails.

Results, and the spans of a traced run, are written under
.bench_build/benchmarks/ in the repository root.
"""
import time

T0 = time.perf_counter()  # process start, as near as Python can see it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "benchmarks"
WORKLOAD_NAMES = ("train_converged_k16", "train_sweep3_k16",
                  "codes_k3000_b1952")
SETUP_SAMPLES = 5  # this process plus four fresh set-up-only processes
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "eval_s": "s",
                    "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma-separated list, "
                             "or 'all': " + ", ".join(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of a time-bounded workload "
                             "(default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    names = (WORKLOAD_NAMES if args.workload == "all"
             else tuple(args.workload.split(",")))
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}")
    return args, names


def _git_facts() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*argv):
        return subprocess.run(["git", "-C", str(ROOT), *argv],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}


def machine_facts() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas,
            "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                                if k.endswith("_NUM_THREADS")},
            **_git_facts()}


def _setup_samples(args) -> tuple[list[float], list[str]]:
    """Set-up times of fresh set-up-only processes, and their failures."""
    times, errors = [], []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            errors.append(f"exit {proc.returncode}: {proc.stderr[-300:]}")
            continue
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times, errors


def run_one(args) -> int:
    """Run one workload in this process; see the module docstring."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mmproto
        import tracer as tracing
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if Path(mmproto.__file__).resolve().parent != ROOT / "src" / "mmproto":
        print(f"benchmark: mmproto resolved to {mmproto.__file__}, not this "
              "checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        with tracer.installed() if tracer else contextlib.nullcontext():
            inputs = workloads.setup(Path(tmp))
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # a traced run splits its time between an untraced and a traced pass
        seconds = args.seconds / 2 if tracer else args.seconds
        untraced = workload.measure(inputs, args.seed, seconds)
        passes = [untraced]
        if tracer:
            first_measured = len(tracer.spans)
            with tracer.installed():
                traced = workload.measure(inputs, args.seed, seconds,
                                          units=len(untraced.op_seconds))
            passes.append(traced)
        load_after = os.getloadavg()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = workloads.setup_checks(inputs)
        checks_run, recorded = workload.check(inputs, untraced, args.seed)
        checks += checks_run

    attempted = inputs.attempted + sum(p.planned_ops + p.eval_ops
                                       for p in passes)
    if tracer:
        for c in workload.check(inputs, traced, args.seed)[0]:
            c.name = "traced pass: " + c.name
            checks.append(c)
        checks.append(workloads.Check(
            "traced pass gives bit-identical outputs",
            untraced.outputs == traced.outputs,
            "losses per step" if isinstance(workload, workloads.TrainWorkload)
            else "code matrices"))
        checks.append(workloads.Check(
            "every wrapped attribute is restored", tracer.restored, ""))
        overhead_pct = 100.0 * (traced.work_seconds / untraced.work_seconds
                                - 1.0)
        metrics = tracing.layer_metrics(
            tracer.spans, inputs.step_ends + traced.step_ends,
            first_measured, overhead_pct)
        units = tracing.metric_units()
        _write_spans(args, tracer.spans)
    else:
        setup_times, errors = _setup_samples(args)
        attempted += SETUP_SAMPLES - 1
        checks.append(workloads.Check(
            "set-up-only processes succeed", not errors,
            "; ".join(errors) or f"{len(setup_times)} ran", len(errors)))
        setup_times.append(setup_s)
        metrics = {"setup_s": statistics.median(setup_times),
                   "ops_per_s": untraced.ops_per_s,
                   "eval_s": untraced.eval_s,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        recorded["setup_samples_s"] = setup_times
        recorded["op_seconds"] = untraced.op_seconds
        recorded["eval_seconds"] = untraced.eval_seconds

    failed = sum(c.failed_ops for c in checks)
    correct = all(c.passed for c in checks)
    facts = {**machine_facts(), "workload": args.workload,
             "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "loadavg_before": load_before, "loadavg_after": load_after}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}

    print(f"workload {args.workload}: {workload.why}")
    for c in checks:
        print(f"check {'ok  ' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    for name, value in recorded.items():
        if not isinstance(value, list):
            print(f"recorded {name} = {value}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print("facts " + json.dumps(facts, sort_keys=True))
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(
         {"result": result, "facts": facts, "recorded": recorded,
          "checks": [vars(c) for c in checks]}, indent=1, default=float))
    print(json.dumps(result))
    return 0 if correct else 1


def _write_spans(args, spans):
    rows = [[s.name, s.start - T0, s.end - T0, s.parent, s.tag]
            for s in spans]
    (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"columns": ["name", "start_s", "end_s", "parent", "tag"],
                    "spans": rows}))


def run_many(args, names) -> int:
    """Each workload in a fresh process; one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    args, names = _parse(argv)
    if len(names) == 1:
        args.workload = names[0]
        return run_one(args)
    return run_many(args, names)


if __name__ == "__main__":
    sys.exit(main())
