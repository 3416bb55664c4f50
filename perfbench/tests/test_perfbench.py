"""Tests of the benchmark's own code: span arithmetic, rebinding, gates and
the traced job's effect on outputs.  Run with

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import scipy.fft  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED_FLAG, Tracer  # noqa: E402

import poroscale  # noqa: E402
from poroscale import _ops, harness, nse_solver, pressure_law  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)

    def at(time_, action, name=None):
        clock.now = time_
        t.enter(name) if action == "enter" else t.exit()

    at(0, "enter", "solve")
    at(1, "enter", "pcg")        # outer Uzawa solve
    at(2, "enter", "pcg")        # inner solve
    at(3, "enter", "fft")
    at(4, "exit")                # fft: 1 s
    at(6, "exit")                # inner pcg: 4 s, 3 s self
    at(7, "enter", "pcg")
    at(8, "exit")                # second inner pcg: 1 s
    at(9, "exit")                # outer pcg: 8 s, 8 - 4 - 1 = 3 s self
    at(12, "exit")               # solve: 12 s, 12 - 8 = 4 s self

    pcg, solve, fft = t.get("pcg"), t.get("solve"), t.get("fft")
    assert pcg.calls == 3
    assert pcg.self_s == pytest.approx(3 + 1 + 3)
    assert pcg.busy_s == pytest.approx(8)          # nested pcg time counted once
    assert solve.self_s == pytest.approx(4) and solve.busy_s == pytest.approx(12)
    assert fft.self_s == pytest.approx(1)
    # self times add up to the outermost span
    assert pcg.self_s + solve.self_s + fft.self_s == pytest.approx(12)


def test_wrapper_closes_span_when_call_raises():
    t = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert t.get("boom").calls == 1 and not t.is_open("boom")


def _wrapped_sites():
    """Every attribute of poroscale's modules and classes, and of
    scipy.fft, that still holds a benchmark wrapper."""
    found = []
    owners = [scipy.fft] + [m for n, m in sys.modules.items()
                            if n.startswith("poroscale") and m is not None]
    for owner in list(owners):
        owners += [v for v in vars(owner).values()
                   if isinstance(v, type) and v.__module__.startswith("poroscale")]
    for owner in {id(o): o for o in owners}.values():
        for name, value in vars(owner).items():
            if hasattr(value, WRAPPED_FLAG):
                found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found


def test_every_rebinding_is_restored():
    originals = {
        "nse_solver.pressure_eval": nse_solver.pressure_eval,
        "harness.solve_limit": harness.solve_limit,
        "poroscale.solve_cell": poroscale.solve_cell,
        "_ops.pcg": _ops.pcg,
        "scipy.fft.rfftn": scipy.fft.rfftn,
        "SymbolInverse.__call__": _ops.SymbolInverse.__dict__["__call__"],
    }
    tracer = Tracer()
    layers.LayerProbe(tracer).install()
    try:
        # names imported into other modules are rebound too
        assert hasattr(nse_solver.pressure_eval, WRAPPED_FLAG)
        assert nse_solver.pressure_eval is pressure_law.pressure_eval
        assert hasattr(harness.solve_limit, WRAPPED_FLAG)
        assert hasattr(poroscale.solve_cell, WRAPPED_FLAG)
        assert len(_wrapped_sites()) == len(tracer.patched_sites())
    finally:
        tracer.restore()
    assert _wrapped_sites() == []
    assert nse_solver.pressure_eval is originals["nse_solver.pressure_eval"]
    assert harness.solve_limit is originals["harness.solve_limit"]
    assert poroscale.solve_cell is originals["poroscale.solve_cell"]
    assert _ops.pcg is originals["_ops.pcg"]
    assert scipy.fft.rfftn is originals["scipy.fft.rfftn"]
    assert _ops.SymbolInverse.__dict__["__call__"] is originals["SymbolInverse.__call__"]


def test_pcg_audit_counts_returns_above_tolerance():
    n = 50
    diag = np.linspace(1.0, 100.0, n)
    b = np.ones(n)
    tracer = Tracer()
    probe = layers.LayerProbe(tracer)
    probe.install()
    try:
        _, it, res = _ops.pcg(lambda v: diag * v, b, np.zeros(n), lambda r: r,
                              rtol=1e-10, maxiter=2)
        _ops.pcg(lambda v: diag * v, b, np.zeros(n), lambda r: r / diag,
                 rtol=1e-10)
    finally:
        tracer.restore()
    assert res > 1e-10 * np.linalg.norm(b)
    m = probe.metrics()
    assert m["ops.pcg.calls"]["value"] == 2
    assert m["ops.pcg.unconverged"]["value"] == 1
    assert m["ops.pcg.iters"]["value"] == it


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    probe = layers.LayerProbe(Tracer())
    assert list(probe.metrics()) == [name for name, _, _ in layers.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_reference_and_rejects_perturbation(name, tmp_path):
    w = workloads.WORKLOADS[name]
    ref = w.reference(0)
    shutil.copyfile(ref, tmp_path / w.output)
    gate = w.check(0, tmp_path)
    assert gate["failed"] == [] and gate["identical"]
    assert gate["ops"] == {"rate": 4, "cell": 4, "nse": 11}[w.kind]

    # a relative change of 1e-6 in a gated value of the second data row
    # (density_error, K[1][1], mass) is outside its tolerance
    lines = ref.read_text().splitlines()
    cells = lines[2].split(",")
    col = {"rate": 1, "cell": 2, "nse": 1}[w.kind]
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[2] = ",".join(cells)
    (tmp_path / w.output).write_text("\n".join(lines) + "\n")
    gate = w.check(0, tmp_path)
    assert len(gate["failed"]) == 1 and not gate["identical"]

    (tmp_path / w.output).unlink()
    gate = w.check(0, tmp_path)
    assert len(gate["failed"]) == gate["ops"]


SMALL = {
    "rate": workloads.RATE_INI.replace("n_per_cell = 32", "n_per_cell = 16")
    .replace("T = 0.03", "T = 0.002").replace("n_outputs = 10", "n_outputs = 2")
    .format(rho0="1 + 0.2*sin(2*pi*x1 + 0.3)*sin(2*pi*x2)"),
    "cell": workloads.CELL_INI.replace("dim = 3", "dim = 2")
    .replace("n_per_cell = 64", "n_per_cell = 32").format(radius=0.5),
    "nse": workloads.NSE_INI.replace("dim = 3", "dim = 2")
    .replace("epsilons = 1/8", "epsilons = 1/6").replace("T = 0.03", "T = 0.003")
    .format(rho0="1 + 0.2*cos(2*pi*x1)*cos(2*pi*x2)"),
}


def _job(tmp_path, kind, tag, traced):
    config = tmp_path / f"{kind}.ini"
    config.write_text(SMALL[kind])
    record = tmp_path / f"{kind}-{tag}.json"
    cmd = [sys.executable, str(BENCH / "job.py"), "--src", str(ROOT / "src"),
           "--record", str(record), "job", kind, str(config),
           str(tmp_path / f"out-{kind}-{tag}")]
    subprocess.run(cmd + (["--trace"] if traced else []), check=True,
                   capture_output=True, timeout=300)
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0
    out = tmp_path / f"out-{kind}-{tag}"
    return rec, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("kind", ["rate", "cell", "nse"])
def test_traced_outputs_are_byte_identical(kind, tmp_path):
    _, plain = _job(tmp_path, kind, "plain", traced=False)
    rec, traced = _job(tmp_path, kind, "traced", traced=True)
    assert plain == traced
    assert set(rec["layers"]) == {name for name, _, _ in layers.PER_LAYER}
    assert rec["layers"]["ops.pcg.unconverged"]["value"] == 0


def test_step_counts_repeat_across_traced_runs(tmp_path):
    first, _ = _job(tmp_path, "rate", "a", traced=True)
    second, _ = _job(tmp_path, "rate", "b", traced=True)
    for name in ("nse.steps", "limit.steps", "ops.pcg.iters", "geometry.builds"):
        assert first["layers"][name]["value"] > 0
        assert first["layers"][name] == second["layers"][name]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cell-ball-3d", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
