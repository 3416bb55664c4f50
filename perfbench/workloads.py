"""The three benchmark workloads: their configs, seeds and correctness gates.

A seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``), so
that every seed has reference outputs stored under ``reference/``.  Variant
0 is the plain config named in README.md; the others shift the phases of
the ``rho0`` factors (rate, nse) or move the ball radius off 0.5 (cell),
chosen so that the work, and so the time, hardly depends on the seed.

An op is one unit of output that is checked on its own:

* ``rate-torus-2d``: one ``rate.csv`` row per epsilon, plus the fit;
* ``cell-ball-3d``: one forcing direction (its ``K`` and ``K_energy`` rows),
  plus the ``K`` check (eigenvalues, porosity and the two defects);
* ``nse-box-3d``: one ``energy.csv`` row, i.e. one output snapshot (t = 0
  included).

Tolerances are those ROADMAP.md sets for numerics that change on purpose;
whether the CSV is byte-identical to the reference is reported apart.
"""

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RATE_INI = """\
[experiment]
kind = rate
seed = 0

[geometry]
domain = torus
dim = 2
obstacle = ball
radius = 0.5
epsilons = 1/4, 1/8, 1/16
n_per_cell = 32

[physics]
gamma = 2.0
a = 1.0
lambda = 2.5
eta_bulk = 0.0
force = 0, 0
rho0 = {rho0}

[time]
T = 0.03
n_outputs = 10
dt_factor = 1.0

[io]
dump_fields = false
"""

CELL_INI = """\
[experiment]
kind = cell

[geometry]
domain = torus
dim = 3
obstacle = ball
radius = {radius}
n_per_cell = 64
"""

NSE_INI = """\
[experiment]
kind = nse

[geometry]
domain = box
dim = 3
obstacle = ball
radius = 0.5
epsilons = 1/8
n_per_cell = 16

[physics]
gamma = 2.0
lambda = 2.5
rho0 = {rho0}

[time]
T = 0.03
n_outputs = 10
"""


def rate_inputs(variant):
    """rho0 with both sine factors shifted by phases drawn from the variant.

    On the torus a phase shift moves the density against the obstacle
    lattice; the work stays within 1% of variant 0."""
    factors = [f"sin(2*pi*x{k + 1})" for k in range(2)]
    if variant:
        rng = random.Random(variant)
        factors = [f"sin(2*pi*x{k + 1} + {round(rng.uniform(0.0, 2.0 * math.pi), 4)})"
                   for k in range(2)]
    return {"rho0": "1 + 0.2*" + "*".join(factors)}


def nse_inputs(variant):
    """rho0 with factor k shifted by pi when bit k of the variant is set.

    Phases of 0 and pi keep the reflection symmetry of the box, which
    variant 0 has; any other phase breaks it and costs the viscous PCG 15%
    to 30% more iterations per step, so the seed and not the code would set
    the time."""
    factors = [f"cos(2*pi*x{k + 1}{' + pi' if variant >> k & 1 else ''})"
               for k in range(3)]
    return {"rho0": "1 + 0.2*" + "*".join(factors)}


def cell_inputs(variant):
    """Ball radius within 0.01 of 0.5; inner PCG iterations stay within 1%."""
    if variant == 0:
        return {"radius": 0.5}
    return {"radius": round(0.5 + random.Random(variant).uniform(-0.01, 0.01), 4)}


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _close(value, ref, rel, scale=None):
    try:
        value = float(value)
    except ValueError:
        return False
    return abs(value - float(ref)) <= rel * (abs(float(ref)) if scale is None else scale)


def _check_rate(out, ref):
    """One op per epsilon row (error columns, rel 1e-8) and one for the fit."""
    head, *ref_rows = ref
    errors = ("density_error", "velocity_error", "corrector_velocity_error",
              "total_error", "max_relen_defect")
    cols = [head.index(c) for c in errors]
    eps, beta = head.index("epsilon"), head.index("beta_emp")
    failed = []
    got = [row for row in out[1:] if len(row) == len(head)] if out and out[0] == head else []
    for i, rr in enumerate(ref_rows):
        ok = (i < len(got) and got[i][eps] == rr[eps]
              and all(_close(got[i][c], rr[c], 1e-8) for c in cols))
        if not ok:
            failed.append(f"epsilon={rr[eps]}")
    fit_ok = (len(got) == len(ref_rows)
              and all(_close(g[beta], ref_rows[0][beta], 1e-6, 1.0) for g in got))
    if not fit_ok:
        failed.append("fit")
    headline = ("beta_emp", got[0][beta] if got else "missing")
    return len(ref_rows) + 1, failed, headline


def _check_cell(out, ref):
    """One op per forcing direction and one for the K check, all within
    1e-12 of max|K| (the relative tolerance on K)."""
    scale = max(abs(float(v)) for row in ref if row[0].startswith("K[")
                for v in row[1:])
    got = {row[0]: row[1:] for row in out[1:]} if out and out[0] == ref[0] else {}
    refd = {row[0]: row[1:] for row in ref[1:]}
    dim = sum(1 for k in refd if k.startswith("K["))

    def rows_ok(keys):
        for key in keys:
            if key not in got or len(got[key]) != len(refd[key]):
                return False
            for g, r in zip(got[key], refd[key]):
                if (g == "") != (r == "") or (r and not _close(g, r, 1e-12, scale)):
                    return False
        return True

    ops = {f"direction {j}": [f"K[{j}]", f"K_energy[{j}]"] for j in range(dim)}
    ops["K check"] = ["eigenvalues", "theta_h", "symmetry_defect",
                      "avg_identity_defect"]
    failed = [name for name, keys in ops.items() if not rows_ok(keys)]
    headline = ("K[0][0]", got["K[0]"][0] if "K[0]" in got else "missing")
    return len(ops), failed, headline


def _check_nse(out, ref):
    """One op per snapshot row: mass rel 1e-12, energy and dissipation rel 1e-8."""
    head, *ref_rows = ref
    tol = {"t": 1e-12, "mass": 1e-12, "energy": 1e-8, "dissipation": 1e-8}
    cols = {head.index(c): rel for c, rel in tol.items()}
    got = [row for row in out[1:] if len(row) == len(head)] if out and out[0] == head else []
    failed = []
    for i, rr in enumerate(ref_rows):
        ok = i < len(got) and all(_close(got[i][c], rr[c], rel)
                                  for c, rel in cols.items())
        if not ok:
            failed.append(f"t={rr[0]}")
    headline = ("energy(T)", got[-1][head.index("energy")] if got else "missing")
    return len(ref_rows), failed, headline


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # poroscale subcommand
    output: str          # the CSV the gate reads
    ini: str
    inputs: object       # variant -> the values filled into ``ini``
    checker: object

    def config(self, variant):
        return self.ini.format(**self.inputs(variant))

    def reference(self, variant):
        return REFERENCE_DIR / self.name / f"v{variant}" / self.output

    def check(self, variant, out_dir):
        """Gate one job's output: returns a dict with ``ops``, ``failed``
        (names of the failed ops), ``identical`` and ``headline``."""
        ref_bytes = self.reference(variant).read_bytes()
        path = Path(out_dir) / self.output
        out_bytes = path.read_bytes() if path.exists() else b""
        ops, failed, headline = self.checker(_rows(out_bytes.decode()),
                                             _rows(ref_bytes.decode()))
        return {"ops": ops, "failed": failed,
                "identical": out_bytes == ref_bytes, "headline": headline}


WORKLOADS = {w.name: w for w in (
    Workload("rate-torus-2d", "rate", "rate.csv", RATE_INI, rate_inputs,
             _check_rate),
    Workload("cell-ball-3d", "cell", "cell_K.csv", CELL_INI, cell_inputs,
             _check_cell),
    Workload("nse-box-3d", "nse", "energy.csv", NSE_INI, nse_inputs,
             _check_nse),
)}
