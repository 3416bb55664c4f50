"""Store the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every variant of the named workloads (all by default) once, untraced,
and copies the gated CSV to ``reference/<workload>/v<variant>/``.  Run it
only on a commit whose outputs are known to be right: every later run is
judged against what it stores.
"""

import os
import shutil
import sys

from run import RUNS, Runner
from workloads import VARIANTS, WORKLOADS


def main(names):
    RUNS.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        for variant in range(VARIANTS):
            run_dir = RUNS / f"reference-{name}-v{variant}-{os.getpid()}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir()
            try:
                runner = Runner(workload, variant, run_dir)
                out = run_dir / "out"
                rec, _ = runner.child(["job", workload.kind, str(runner.config),
                                       str(out)], "job")
                if rec["rc"] != 0:
                    sys.exit(f"{name} variant {variant}: poroscale exited {rec['rc']}")
                dest = workload.reference(variant)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / workload.output, dest)
                print(f"{name} v{variant}: {rec['wall_s']:.2f} s -> {dest}", flush=True)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
