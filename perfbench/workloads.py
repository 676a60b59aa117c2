"""Seeded job generators for the three benchmark workloads.

Every job is a config for one `nbdirichlet` CLI command. The jobs come in
rounds; a round holds one unit of every job kind of the workload, in a
seeded order, so that each kind gets the same share of a run whatever its
length. A sweep unit is one `verify` job. A flow unit is an ordered pair of
`flow` jobs on one form: datum f, then g = f + (nonnegative).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep", "flow_newton", "flow_admm")

# samples per check in every generated verify config
SWEEP_SAMPLES = 40

# label -> (form builder, node range, tau, n_steps); the sizes keep every
# kind under about a third of a round's time, see README.md
FLOW_KINDS = {
    "flow_newton": {
        "grid_abs_p2": ("grid_p2", (300, 500), 1e-3, 8),
        "grid_abs_p4": ("grid_p4", (150, 250), 1e-3, 4),
        "graph_quadratic": ("graph", (150, 250), 1e-2, 8),
        "nonlocal_p4": ("nonlocal_p4", (40, 60), 1e-2, 4),
    },
    "flow_admm": {
        "grid_abs_p1": ("grid_p1", (100, 200), 1e-3, 3),
        "grid_finsler": ("grid_finsler", (100, 200), 1e-3, 3),
        "grid_max_positive_part": ("grid_pos", (100, 200), 1e-3, 3),
        "nonlocal_p1": ("nonlocal_p1", (12, 20), 1e-2, 2),
        "grid_abs_p1.5": ("grid_p15", (20, 40), 1e-3, 1),
    },
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `nbdirichlet <command> <config> --output <out>`."""

    command: str  # "verify" | "flow"
    config: dict


@dataclass(frozen=True)
class Unit:
    """The jobs run back to back and checked together."""

    kind: str
    jobs: tuple[Job, ...]


def _grid(n: int, h: float, integrand: dict) -> dict:
    return {"kind": "local_grid_1d", "nodes": n, "h": h, "integrand": integrand}


def _kernel(rng: np.random.Generator, n: int) -> list:
    K = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(K, 0.0)
    return K.tolist()


def _graph(rng: np.random.Generator, n: int, degree: float) -> dict:
    p = min(1.0, degree / (n - 1))
    edges = [
        [i, j, float(rng.uniform(0.2, 2.0))]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return {"kind": "graph_quadratic", "nodes": n, "edges": edges}


def form_descriptor(builder: str, rng: np.random.Generator, n: int, h: float) -> dict:
    """Descriptor of one catalog form with n nodes (grid spacing h), content
    drawn from rng."""
    if builder == "graph":
        return _graph(rng, n, 4.0)
    if builder == "graph_sweep":  # the catalog's edge probability 0.2
        return _graph(rng, n, 0.2 * (n - 1))
    if builder.startswith("nonlocal_"):
        psi = {"name": "power", "p": int(builder.rsplit("p", 1)[1])}
        return {"kind": "nonlocal_psi", "kernel": _kernel(rng, n), "psi": psi}
    if builder == "grid_finsler":
        weights = rng.uniform(0.5, 2.0, n - 1).tolist()
        return _grid(n, h, {"name": "finsler_weighted", "weights": weights})
    if builder == "grid_pos":
        return _grid(n, h, {"name": "max_positive_part"})
    p = {"grid_p1": 1, "grid_p15": 1.5, "grid_p2": 2, "grid_p4": 4}[builder]
    return _grid(n, h, {"name": "abs_power", "p": p})


# sweep label -> (builder, node range); the nine instances of
# scripts/run_verification_sweep.py at 10-20 nodes, grids at its spacing
# h = 0.1 (kernels stay at <= 14 nodes, so no energy sums more than 190 terms)
SWEEP_H = 0.1
_SWEEP_FORMS = {
    "graph_quadratic": ("graph_sweep", (10, 20)),
    "nonlocal_z2": ("nonlocal_p2", (10, 14)),
    "nonlocal_z4": ("nonlocal_p4", (10, 14)),
    "nonlocal_abs": ("nonlocal_p1", (10, 14)),
    "grid_abs_p1": ("grid_p1", (10, 20)),
    "grid_abs_p2": ("grid_p2", (10, 20)),
    "grid_abs_p4": ("grid_p4", (10, 20)),
    "grid_finsler": ("grid_finsler", (10, 20)),
    "grid_max_positive_part": ("grid_pos", (10, 20)),
}
SWEEP_KINDS = tuple(_SWEEP_FORMS)


def _size(lo: int, hi: int, round_idx: int) -> int:
    """Node count of a kind in a given round: a golden-ratio sequence over
    [lo, hi], so every prefix of a run covers the range evenly and the sizes
    do not depend on the seed."""
    return lo + int((round_idx * 0.6180339887498949) % 1.0 * (hi - lo + 1))


def _sweep_unit(kind: str, round_idx: int, rng: np.random.Generator) -> Unit:
    builder, (lo, hi) = _SWEEP_FORMS[kind]
    n = _size(lo, hi, round_idx)
    form = form_descriptor(builder, rng, n, SWEEP_H)
    config = {
        "seed": int(rng.integers(0, 2**31)),
        "forms": [form],
        "suite": {"n_samples": SWEEP_SAMPLES},
    }
    return Unit(kind, (Job("verify", config),))


def _flow_unit(workload: str, kind: str, round_idx: int, rng: np.random.Generator) -> Unit:
    builder, (lo, hi), tau, n_steps = FLOW_KINDS[workload][kind]
    n = _size(lo, hi, round_idx)
    form = form_descriptor(builder, rng, n, 1.0 / (n - 1))
    f0 = rng.uniform(-1.0, 1.0, n)
    g0 = f0 + rng.uniform(0.0, 1.0, n)
    seed = int(rng.integers(0, 2**31))
    jobs = tuple(
        Job(
            "flow",
            {
                "seed": seed,
                "form": form,
                "initial": u0.tolist(),
                "flow": {"tau": tau, "n_steps": n_steps},
            },
        )
        for u0 in (f0, g0)
    )
    return Unit(kind, jobs)


def kinds(workload: str) -> tuple[str, ...]:
    if workload == "sweep":
        return SWEEP_KINDS
    return tuple(FLOW_KINDS[workload])


def iter_units(workload: str, seed: int) -> Iterator[Unit]:
    """Endless stream of units, round after round; the same (workload, seed)
    gives the same stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    labels = kinds(workload)
    for r in itertools.count():
        for idx in rng.permutation(len(labels)):
            kind = labels[idx]
            if workload == "sweep":
                yield _sweep_unit(kind, r, rng)
            else:
                yield _flow_unit(workload, kind, r, rng)
