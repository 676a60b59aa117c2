"""The shipped instance catalog: nine form descriptors drawn from one seed.

A 20-node graph quadratic; nonlocal kernels on 10 nodes with psi = z^2, z^4
and |z|; and 11-node grids (h = 0.1) with |v|^p/p for p = 1, 2, 4, weighted
|v|, and max(v, 0), the one form that is not symmetric. The verification
sweep and the acceptance tests run on it.
"""

from __future__ import annotations

import numpy as np


def instance_catalog(seed: int) -> dict[str, dict]:
    """Label -> descriptor; the edges, the kernel and the Finsler weights are
    drawn in that order from one stream seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    edges = [
        [i, j, float(rng.uniform(0.2, 2.0))]
        for i in range(20)
        for j in range(i + 1, 20)
        if rng.random() < 0.2
    ]
    K = rng.uniform(0.0, 1.0, (10, 10))
    np.fill_diagonal(K, 0.0)
    grid = {"kind": "local_grid_1d", "nodes": 11, "h": 0.1}
    return {
        "graph_quadratic_20": {"kind": "graph_quadratic", "nodes": 20, "edges": edges},
        "nonlocal_z2": {"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": 2}},
        "nonlocal_z4": {"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": 4}},
        "nonlocal_abs": {"kind": "nonlocal_psi", "kernel": K.tolist(), "psi": {"name": "power", "p": 1}},
        "grid_abs_p1": {**grid, "integrand": {"name": "abs_power", "p": 1}},
        "grid_abs_p2": {**grid, "integrand": {"name": "abs_power", "p": 2}},
        "grid_abs_p4": {**grid, "integrand": {"name": "abs_power", "p": 4}},
        "grid_finsler": {
            **grid,
            "integrand": {"name": "finsler_weighted", "weights": rng.uniform(0.5, 2.0, 10).tolist()},
        },
        "grid_max_positive_part": {**grid, "integrand": {"name": "max_positive_part"}},
    }
