"""poroscale benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rate-torus-2d --seed 0 --seconds 10 --trace 0

Each job is one ``poroscale`` CLI run in a fresh process (``job.py``), one
after another: a closed loop with one client.  With ``--trace 0`` the run
repeats the job until ``--seconds`` have passed (at least once) and reports
the end-to-end metrics as medians over the jobs; ``setup_s`` is the median
over ``SETUP_SAMPLES`` set-ups, the jobs' own and repeats of the same
set-up in further fresh processes.  With ``--trace 1`` it runs the job once
untraced and once traced, reports the per-layer metrics of the traced job,
and checks that both jobs wrote byte-identical files.  Every job's output is
gated against the stored reference (see ``workloads.py``).

Human-readable lines come first; the last line of standard output is the
JSON result.  The line before it holds the run's attributes: machine,
versions, commit, seed, tracing overhead, byte identity and the line count
of ``src/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread per job: a second thread does not make the jobs faster on
# 2 cores, and the thread count changes the rounding of dot products, so
# with it the output bytes would depend on the machine.
JOB_ENV = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, variant, run_dir):
        self.workload = workload
        self.variant = variant
        self.run_dir = run_dir
        self.config = run_dir / "config.ini"
        self.config.write_text(workload.config(variant))
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def child(self, mode_args, tag):
        self.count += 1
        record = self.run_dir / f"{tag}{self.count}.json"
        cmd = [sys.executable, str(HERE / "job.py"), "--src", str(SRC),
               "--record", str(record)] + mode_args
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {TIME_LIMIT_S:.0f} s")
        with open(self.run_dir / f"{tag}{self.count}.log", "w") as log:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=remaining, cwd=self.run_dir,
                                      env=JOB_ENV)
            except subprocess.TimeoutExpired:
                raise BenchError(f"run exceeded {TIME_LIMIT_S:.0f} s") from None
        if proc.returncode != 0 or not record.exists():
            tail = (self.run_dir / f"{tag}{self.count}.log").read_text()[-2000:]
            raise BenchError(f"job.py exited {proc.returncode}:\n{tail}")
        return json.loads(record.read_text()), record

    def job(self, traced=False):
        out = self.run_dir / f"out{self.count + 1}"
        args = ["job", self.workload.kind, str(self.config), str(out)]
        rec, path = self.child(args + (["--trace"] if traced else []), "job")
        rec["out"] = out
        rec["calls"] = path.with_suffix(".pkl")
        gate = self.workload.check(self.variant, out)
        if rec["rc"] != 0:
            gate["failed"] = [f"poroscale exited {rec['rc']}"] * gate["ops"]
        rec["gate"] = gate
        return rec

    def setup(self, calls):
        rec, _ = self.child(["setup", str(self.config), str(calls)], "setup")
        return rec["setup_s"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


def _src_attributes():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "src_files": len(files)}


def _machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": caches, "platform": platform.platform(),
            "python": platform.python_version(),
            "thread_env": {v: JOB_ENV.get(v) for v in THREAD_VARS}}


def run(workload, seed, seconds, trace):
    variant = seed % VARIANTS
    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        return _run(Runner(workload, variant, run_dir), seed, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(runner, seed, seconds, trace):
    workload = runner.workload
    attrs = {"workload": workload.name, "seed": seed, "variant": runner.variant,
             "trace": trace, **_src_attributes(), "machine": _machine()}
    if trace:
        plain = runner.job()
        traced = runner.job(traced=True)
        jobs = [plain, traced]
        attrs["traced_outputs_identical"] = _files(plain["out"]) == _files(traced["out"])
        attrs["trace_overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
        attrs["trace_overhead_estimate"] = traced["trace_cost_s"] / traced["wall_s"]
        attrs["spans"] = traced["spans"]     # name -> [calls, self_s, busy_s]
    else:
        jobs = []
        start = time.monotonic()
        while not jobs or time.monotonic() - start < seconds:
            jobs.append(runner.job())
    setups = [j["setup_s"] for j in jobs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup(jobs[0]["calls"]))

    attempted = sum(j["gate"]["ops"] for j in jobs)
    failed = sum(len(j["gate"]["failed"]) for j in jobs)
    correct = failed == 0 and all(j["rc"] == 0 for j in jobs)
    if trace:
        correct = correct and attrs["traced_outputs_identical"]
    e2e = {
        "wall_s": ([j["wall_s"] for j in jobs], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([j["peak_rss_mb"] for j in jobs], "MB"),
    }
    gate = jobs[-1]["gate"]
    attrs.update({
        "jobs": len(jobs),
        "versions": jobs[0]["versions"],
        "byte_identical": all(j["gate"]["identical"] for j in jobs),
        "failed_ops": sorted({f for j in jobs for f in j["gate"]["failed"]}),
        "headline": gate["headline"],
        "samples": {name: values for name, (values, _) in e2e.items()},
    })

    print(f"{workload.name}  seed {seed} (variant {runner.variant})  "
          f"{len(jobs)} job(s)  trace {'on' if trace else 'off'}")
    for name, (values, unit) in e2e.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<12} {med:.6g} {unit}  (median of {len(values)}; "
              f"q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'ops_failed':<12} {failed} count  (of {attempted} ops attempted)")
    print(f"  {gate['headline'][0]} = {gate['headline'][1]}   "
          f"{workload.output} byte-identical to reference: {attrs['byte_identical']}")
    if trace:
        print(f"  traced outputs identical: {attrs['traced_outputs_identical']}; "
              f"tracing overhead {100 * attrs['trace_overhead']:.1f}% measured, "
              f"{100 * attrs['trace_overhead_estimate']:.1f}% estimated")
        metrics = traced["layers"]
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": quartiles(values)[1], "unit": unit}
                   for name, (values, unit) in e2e.items()}
    print(json.dumps({"attributes": attrs}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run raises here, so subprocess.run kills and reaps its job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "poroscale" / "__init__.py").is_file():
        sys.exit(f"no poroscale sources under {SRC}")
    try:
        run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")


if __name__ == "__main__":
    main()
