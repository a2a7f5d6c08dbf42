"""Compute ``reference.json.gz`` from ringcat's public functions.

Run once against a trusted version of the package, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark only reads the file.  ``ratio_analytic`` is not taken from the
package's own TwoLevelModel, which loses all precision for eps < 0; it is
evaluated here in the cancellation-free two-level form

    eps >= 0:  |v01| / (eps + r)        eps < 0:  (r - eps) / |v01|

with r = sqrt(eps^2 + |v01|^2), from the eps and v01 of ``effective_point``.
"""

from __future__ import annotations

import gzip
import json
import math

import numpy as np

from ringcat import (
    LoopParams,
    ModelParams,
    build_coupling_graph,
    build_flow_hamiltonian,
    catscan,
    default_flow_targets,
    effective_point,
    effective_report,
    loop_sweep,
    lowdin_coupling,
    spectrum_sweep,
)
from workloads import REFERENCE_FILE

DPHI_GRID = np.linspace(-0.2, 0.2, 21)
PHI_GRID = np.linspace(0.0, 2.0 * math.pi, 81)


def two_level_ratio(eps: float, v01_abs: float) -> float:
    r = math.hypot(eps, v01_abs)
    return v01_abs / (eps + r) if eps >= 0 else (r - eps) / v01_abs


def catscan_reference() -> dict:
    params = ModelParams(n=36, j=1.0, u=0.1, phi=math.pi)
    table = catscan(params, DPHI_GRID)
    rows = []
    for dphi, m in zip(table.dphis, table.metrics):
        model = effective_point(params, float(dphi))
        rows.append([float(dphi), abs(m.a0), abs(m.a1), m.captured_norm, two_level_ratio(model.eps, abs(model.v01))])
    return {"columns": ["dphi", "a0_abs", "a1_abs", "captured_norm", "ratio_analytic"], "rows": rows}


def effective_reference() -> dict:
    table = effective_report(ModelParams(n=36, j=1.0, u=0.1, phi=math.pi), DPHI_GRID)
    rows = [
        [float(d), float(e), float(v), two_level_ratio(float(e), float(v)), float(lo), float(hi)]
        for d, e, v, lo, hi in zip(table.dphis, table.eps, table.v01_abs, table.e_minus, table.e_plus)
    ]
    return {"columns": ["dphi", "eps", "v01_abs", "ratio_analytic", "E_minus", "E_plus"], "rows": rows}


def spectrum_reference() -> dict:
    params = ModelParams(n=24, j=(1.0, 0.9, 1.1), u=0.1, u0=0.1, u1=0.05, dipolar=True)
    table = spectrum_sweep(params, PHI_GRID, n_levels=6)
    return {"columns": ["phi", "level", "energy"], "rows": [list(row) for row in table.rows()]}


def loop_reference() -> dict:
    table = loop_sweep(LoopParams(length=1.0, barrier=0.1), PHI_GRID, k_max=128, n_levels=4)
    return {"columns": ["phi", "level", "energy_over_C"], "rows": [list(row) for row in table.rows()]}


def paths_reference() -> dict:
    operator = build_flow_hamiltonian(ModelParams(n=12, j=1.0, u=0.1, phi=math.pi))
    targets = default_flow_targets(operator.basis)
    lam = lowdin_coupling(operator).lam
    graph = build_coupling_graph(operator)
    rows = []
    for path in graph.simple_paths(*targets, max_intermediates=11):
        weight = 1.0 + 0j
        for a, b in zip(path, path[1:]):
            weight *= graph.edge_value(a, b)
        for node in path[1:-1]:
            weight /= lam - graph.diagonal[node]
        label = ">".join("-".join(str(v) for v in operator.basis.states[i]) for i in path)
        rows.append([label, len(path) - 2, [weight.real, weight.imag]])
    return {"columns": ["path", "n_intermediates", "weight"], "rows": rows}


def main() -> None:
    reference = {
        "catscan": catscan_reference(),
        "effective": effective_reference(),
        "spectrum": spectrum_reference(),
        "loop": loop_reference(),
        "paths": paths_reference(),
    }
    data = json.dumps(reference, separators=(",", ":")).encode()
    with open(REFERENCE_FILE, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)
    print(f"wrote {REFERENCE_FILE} ({len(data)} bytes before compression)")


if __name__ == "__main__":
    main()
