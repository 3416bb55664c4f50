"""One poroscale CLI job in this fresh process, timed from outside the program.

    python3 perfbench/job.py --src SRC --record REC.json job KIND CONFIG OUT [--trace]
    python3 perfbench/job.py --src SRC --record REC.json setup CONFIG CALLS.pkl

``job`` runs ``poroscale KIND --config CONFIG --out OUT`` through the CLI
entry point.  The clock starts just before ``import poroscale``; ``wall_s``
is the import plus the CLI call, ``setup_s`` the import plus the config
parse plus every geometry build.  The geometry calls are pickled next to
the record so that ``setup`` can repeat exactly that set-up in another
fresh process.  ``--trace`` adds the spans of ``layers.LayerProbe``.
"""

import argparse
import json
import pickle
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer


def _import_poroscale(src):
    t0 = time.perf_counter()
    import poroscale.harness
    import_s = time.perf_counter() - t0
    origin = Path(poroscale.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        sys.exit(f"poroscale was imported from {origin}, not from {src}")
    return poroscale.harness, import_s


def run_job(src, kind, config, out, traced):
    harness, import_s = _import_poroscale(src)
    import layers
    tracer = Tracer()
    probe = (layers.LayerProbe if traced else layers.SetupProbe)(tracer)
    probe.install()
    try:
        t0 = time.perf_counter()
        rc = harness.main([kind, "--config", config, "--out", out])
        main_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "rc": rc,
        "wall_s": import_s + main_s,
        "import_s": import_s,
        "setup_s": probe.setup_seconds(import_s),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "versions": layers.versions(),
    }
    if traced:
        record["layers"] = probe.metrics()
        record["trace_cost_s"] = probe.cost_estimate_s()
        record["spans"] = {name: [st.calls, st.self_s, st.busy_s]
                           for name, st in sorted(tracer.stats.items())}
    return record, pickle.dumps(probe.calls)


def run_setup(src, config, calls_blob):
    harness, import_s = _import_poroscale(src)
    t0 = time.perf_counter()
    harness.parse_config(config)
    parse_s = time.perf_counter() - t0
    from poroscale import geometry
    calls = pickle.loads(calls_blob)
    t0 = time.perf_counter()
    for fn, args, kwargs in calls:
        getattr(geometry, fn)(*args, **kwargs)
    build_s = time.perf_counter() - t0
    return {"setup_s": import_s + parse_s + build_s, "import_s": import_s}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--record", required=True)
    sub = ap.add_subparsers(dest="mode", required=True)
    job = sub.add_parser("job")
    job.add_argument("kind")
    job.add_argument("config")
    job.add_argument("out")
    job.add_argument("--trace", action="store_true")
    setup = sub.add_parser("setup")
    setup.add_argument("config")
    setup.add_argument("calls")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    record_path = Path(args.record)
    if args.mode == "job":
        record, calls = run_job(args.src, args.kind, args.config, args.out,
                                args.trace)
        record_path.with_suffix(".pkl").write_bytes(calls)
    else:
        record = run_setup(args.src, args.config, Path(args.calls).read_bytes())
    record_path.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
