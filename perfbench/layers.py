"""Which poroscale functions the benchmark spans, and the per-layer metrics.

Span names are ``<module>.<function>``.  The stencil primitives, the FFT
pair and the preconditioner are leaves; the solvers are the spans the
leaves nest in, which is what the attribution below relies on (a PCG solve
inside ``solve_nse`` is the NSE viscous solve).  Counts include nested
calls; ``*_s`` times are either self time (``self_s``) or the time during
which the layer had a span open (``solve_s``, ``viscous_s`` and the like).
"""

import inspect
import time

import numpy as np
import scipy
import scipy.fft

import poroscale
from poroscale import (_ops, analysis, cell_problem, correctors, geometry,
                       harness, limit_solver, nse_solver, pressure_law)
from tracer import Tracer

STENCILS = ("grad", "div", "lap", "avg_c2f", "avg_f2c", "velocity_at_centers",
            "interp_to_face", "neg_lap_dirichlet", "curl_node_to_face_2d",
            "curl_face_to_node_2d", "curl_face_to_edge_3d",
            "curl_edge_to_face_3d")
FFTS = ("rfftn", "irfftn")
GEOMETRY_BUILDS = ("build_reference_cell", "build_perforated_grid")
HARNESS_IO = ("write_csv", "write_manifest", "write_field", "_grid_hash",
              "_grid_hash_cell")
PRESSURE_LAW = ("pressure_eval", "pressure_inverse", "potential_H", "entropy_h")

# module -> functions spanned without a hook
PLAIN = {
    _ops: ("lap_symbol", "solve_poisson_periodic"),
    cell_problem: ("solve_cell", "permeability", "check_cell_average_identity",
                   "solve_vector_potential", "vector_potential_defect"),
    nse_solver: ("initialize_flow", "flow_diagnostics", "viscous_form",
                 "step_nse", "solve_nse"),
    limit_solver: ("force_on_faces", "darcy_velocity", "suggest_dt",
                   "step_limit", "solve_limit"),
    correctors: ("build_correctors", "build_boundary_corrector",
                 "duality_defect", "verify_corrector_bounds"),
    analysis: ("relative_energy", "remainder", "check_relen_inequality",
               "norm_neg_sobolev", "poincare_constant",
               "thickened_trace_constant", "error_functional", "fit_rate",
               "theoretical_rate"),
    geometry: ("make_obstacle",),
    harness: HARNESS_IO,
    pressure_law: PRESSURE_LAW,
}
METHODS = ((_ops.SymbolInverse, "__call__"),
           (correctors.CorrectorBuilder, "__init__"),
           (correctors.CorrectorBuilder, "build"))

# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("ops.pcg.calls", "count", "lower"),
    ("ops.pcg.iters", "count", "lower"),
    ("ops.pcg.self_s", "s", "lower"),
    ("ops.pcg.s_per_iter", "s", "lower"),
    ("ops.pcg.unconverged", "count", "lower"),
    ("ops.stencil.calls", "count", "lower"),
    ("ops.stencil.self_s", "s", "lower"),
    ("ops.stencil.bytes_computed", "B", "lower"),
    ("fft.calls", "count", "lower"),
    ("fft.self_s", "s", "lower"),
    ("fft.bytes_computed", "B", "lower"),
    ("ops.symbol_inverse.calls", "count", "lower"),
    ("ops.symbol_inverse.self_s", "s", "lower"),
    ("cell.solve_s", "s", "lower"),
    ("cell.pcg_calls", "count", "lower"),
    ("cell.pcg_iters", "count", "lower"),
    ("nse.steps", "count", "lower"),
    ("nse.s_per_step", "s", "lower"),
    ("nse.viscous_s", "s", "lower"),
    ("nse.viscous_iters_per_step", "count", "lower"),
    ("nse.explicit_s", "s", "lower"),
    ("nse.diagnostics_s", "s", "lower"),
    ("nse.cell_steps_per_s", "1/s", "higher"),
    ("limit.steps", "count", "lower"),
    ("limit.s_per_step", "s", "lower"),
    ("limit.solve_s", "s", "lower"),
    ("correctors.builds", "count", "lower"),
    ("correctors.s_per_build", "s", "lower"),
    ("correctors.init_s", "s", "lower"),
    ("analysis.relen_s", "s", "lower"),
    ("analysis.relative_energy.calls", "count", "lower"),
    ("analysis.s_per_relative_energy", "s", "lower"),
    ("analysis.error_functional_s", "s", "lower"),
    ("geometry.builds", "count", "lower"),
    ("geometry.s", "s", "lower"),
    ("harness.io_s", "s", "lower"),
    ("pressure_law.calls", "count", "lower"),
    ("pressure_law.self_s", "s", "lower"),
]


def versions():
    return {"poroscale": poroscale.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _span_name(owner, attr):
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _nbytes(values):
    total = 0
    for v in values:
        if isinstance(v, (list, tuple)):
            total += _nbytes(v)
        else:
            total += getattr(v, "nbytes", 0)
    return total


class SetupProbe:
    """Spans only the coarse set-up calls: config parse and geometry builds.

    ``build_perforated_grid`` builds its reference cell itself; a build
    nested in another counts as part of it, not as a build of its own.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.geometry_builds = 0
        self.geometry_s = 0.0
        self.calls = []          # (function, args, kwargs) of each outer build

    def install(self):
        t = self.tracer

        def after_build(fn):
            def after(args, kwargs, result, dur):
                if not any(t.is_open(f"geometry.{g}") for g in GEOMETRY_BUILDS):
                    self.geometry_builds += 1
                    self.geometry_s += dur
                    self.calls.append((fn, args, kwargs))
            return after

        t.patch(harness, "parse_config", "harness.parse_config",
                rebind_prefix="poroscale")
        for fn in GEOMETRY_BUILDS:
            t.patch(geometry, fn, f"geometry.{fn}", after_build(fn),
                    rebind_prefix="poroscale")

    def setup_seconds(self, import_s):
        return import_s + self.tracer.get("harness.parse_config").busy_s + self.geometry_s


class LayerProbe(SetupProbe):
    """Installs the full set of spans and turns them into layer metrics."""

    def __init__(self, tracer):
        super().__init__(tracer)
        self.counts = dict.fromkeys(
            ("pcg.iters", "pcg.unconverged", "stencil.bytes", "fft.bytes",
             "cell.pcg_calls", "cell.pcg_iters", "nse.viscous_s",
             "nse.viscous_iters", "nse.cell_steps"), 0)

    def _bytes_into(self, key):
        def after(args, kwargs, result, dur):
            self.counts[key] += (_nbytes(args) + _nbytes(kwargs.values())
                                 + _nbytes((result,)))
        return after

    def install(self):
        super().install()
        t = self.tracer
        pcg_sig = inspect.signature(_ops.pcg)
        dt_sig = inspect.signature(nse_solver.acoustic_dt)
        c = self.counts

        def after_pcg(args, kwargs, result, dur):
            bound = pcg_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            target = max(a["rtol"] * float(np.linalg.norm(a["b"])), a["atol"])
            _, iters, res = result
            c["pcg.iters"] += iters
            c["pcg.unconverged"] += int(res > target)
            if t.is_open("cell_problem.solve_cell"):
                c["cell.pcg_calls"] += 1
                c["cell.pcg_iters"] += iters
            if t.is_open("nse_solver.solve_nse"):
                c["nse.viscous_iters"] += iters
                if not t.is_open("_ops.pcg"):
                    c["nse.viscous_s"] += dur

        def after_dt(args, kwargs, result, dur):
            bound = dt_sig.bind(*args, **kwargs)
            c["nse.cell_steps"] += bound.arguments["rho"].size

        t.patch(_ops, "pcg", "_ops.pcg", after_pcg, rebind_prefix="poroscale")
        for fn in STENCILS:
            t.patch(_ops, fn, f"_ops.{fn}", self._bytes_into("stencil.bytes"),
                    rebind_prefix="poroscale")
        for fn in FFTS:
            t.patch(scipy.fft, fn, f"fft.{fn}", self._bytes_into("fft.bytes"),
                    rebind_prefix="poroscale")
        t.patch(nse_solver, "acoustic_dt", "nse_solver.acoustic_dt", after_dt,
                rebind_prefix="poroscale")
        for mod, fns in PLAIN.items():
            for fn in fns:
                t.patch(mod, fn, _span_name(mod, fn), rebind_prefix="poroscale")
        for owner, attr in METHODS:
            t.patch(owner, attr, _span_name(owner, attr))

    def cost_estimate_s(self, calls=20000):
        """Time the spans added to the traced job, estimated as the number
        of wrapped calls times the extra cost of one wrapped call (with a
        bytes hook) over a bare one, both measured here on a no-op."""
        def noop(a, b):
            return a

        probe = LayerProbe(Tracer())
        wrapped = probe.tracer.wrap("noop", noop, probe._bytes_into("stencil.bytes"))
        x = np.zeros(8)
        costs = []
        for fn in (noop, wrapped):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(x, [x, x])
            costs.append(time.perf_counter() - t0)
        per_call = max(costs[1] - costs[0], 0.0) / calls
        return per_call * sum(st.calls for st in self.tracer.stats.values())

    def metrics(self):
        t, c = self.tracer, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def total(names, field):
            return sum(getattr(t.get(n), field) for n in names)

        pcg = t.get("_ops.pcg")
        stencil_names = [f"_ops.{fn}" for fn in STENCILS]
        fft_names = [f"fft.{fn}" for fn in FFTS]
        sym = t.get("_ops.SymbolInverse.__call__")
        nse = t.get("nse_solver.solve_nse")
        steps = t.get("nse_solver.acoustic_dt").calls
        limit = t.get("limit_solver.solve_limit")
        lsteps = t.get("limit_solver.step_limit").calls
        build = t.get("correctors.CorrectorBuilder.build")
        relen = t.get("analysis.relative_energy")
        values = {
            "ops.pcg.calls": pcg.calls,
            "ops.pcg.iters": c["pcg.iters"],
            "ops.pcg.self_s": pcg.self_s,
            "ops.pcg.s_per_iter": ratio(pcg.busy_s, c["pcg.iters"]),
            "ops.pcg.unconverged": c["pcg.unconverged"],
            "ops.stencil.calls": total(stencil_names, "calls"),
            "ops.stencil.self_s": total(stencil_names, "self_s"),
            "ops.stencil.bytes_computed": c["stencil.bytes"],
            "fft.calls": total(fft_names, "calls"),
            "fft.self_s": total(fft_names, "self_s"),
            "fft.bytes_computed": c["fft.bytes"],
            "ops.symbol_inverse.calls": sym.calls,
            "ops.symbol_inverse.self_s": sym.self_s,
            "cell.solve_s": t.get("cell_problem.solve_cell").busy_s,
            "cell.pcg_calls": c["cell.pcg_calls"],
            "cell.pcg_iters": c["cell.pcg_iters"],
            "nse.steps": steps,
            "nse.s_per_step": ratio(nse.busy_s, steps),
            "nse.viscous_s": c["nse.viscous_s"],
            "nse.viscous_iters_per_step": ratio(c["nse.viscous_iters"], steps),
            "nse.explicit_s": nse.self_s,
            "nse.diagnostics_s": total(["nse_solver.flow_diagnostics",
                                        "nse_solver.viscous_form"], "busy_s"),
            "nse.cell_steps_per_s": ratio(c["nse.cell_steps"], nse.busy_s),
            "limit.steps": lsteps,
            "limit.s_per_step": ratio(limit.busy_s, lsteps),
            "limit.solve_s": limit.busy_s,
            "correctors.builds": build.calls,
            "correctors.s_per_build": ratio(build.busy_s, build.calls),
            "correctors.init_s": t.get("correctors.CorrectorBuilder.__init__").busy_s,
            "analysis.relen_s": t.get("analysis.check_relen_inequality").busy_s,
            "analysis.relative_energy.calls": relen.calls,
            "analysis.s_per_relative_energy": ratio(relen.busy_s, relen.calls),
            "analysis.error_functional_s": t.get("analysis.error_functional").busy_s,
            "geometry.builds": self.geometry_builds,
            "geometry.s": self.geometry_s,
            "harness.io_s": total([f"harness.{fn}" for fn in HARNESS_IO], "busy_s"),
            "pressure_law.calls": total([f"pressure_law.{fn}" for fn in PRESSURE_LAW], "calls"),
            "pressure_law.self_s": total([f"pressure_law.{fn}" for fn in PRESSURE_LAW], "self_s"),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}
