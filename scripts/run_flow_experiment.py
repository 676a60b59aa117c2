#!/usr/bin/env python3
"""Evolve three forms of the shipped catalog (the graph quadratic, nonlocal
z^4 and the |v| grid) under the proximal gradient flow and study the
order-preservation / sup-norm-contraction margins along the trajectories."""

import argparse
import pathlib
import sys

import numpy as np

from nbdirichlet.catalog import instance_catalog
from nbdirichlet.flow import FlowConfig, evolve, trace_to_csv
from nbdirichlet.forms import make_form
from nbdirichlet.measure import make_field
from nbdirichlet.samplers import check_rng


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tau", type=float, default=FlowConfig.tau)
    ap.add_argument("--steps", type=int, default=FlowConfig.n_steps)
    ap.add_argument("--outdir", default="flow_traces")
    args = ap.parse_args()

    shipped = instance_catalog(args.seed)
    catalog = {
        "graph_quadratic": shipped["graph_quadratic_20"],
        "nonlocal_z4": shipped["nonlocal_z4"],
        "grid_tv": shipped["grid_abs_p1"],
    }
    # the initial data come from a stream of their own, not the catalog's
    rng = check_rng(args.seed, "flow_experiment")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = FlowConfig(tau=args.tau, n_steps=args.steps)
    for label, desc in catalog.items():
        form = make_form(desc)
        n = form.space.n
        f_vals = rng.uniform(-2.0, 2.0, n)
        g_vals = f_vals + rng.uniform(0.0, 2.0, n)
        tf = evolve(form, make_field(form.space, f_vals), cfg)
        tg = evolve(form, make_field(form.space, g_vals), cfg)
        trace_to_csv(tf, str(outdir / f"{label}.csv"))
        # max over states of max(f_k - g_k), and of ||f_k - g_k||_inf - ||f_0 - g_0||_inf
        diff = tf.states - tg.states
        order_margin = float(np.max(diff))
        sup = np.max(np.abs(diff), axis=1)
        contraction_margin = float(np.max(sup - sup[0]))
        print(
            f"{label:16s} energy {tf.energies[0]:9.4g} -> {tf.energies[-1]:9.4g}   "
            f"order margin {order_margin:+.2e}   contraction margin {contraction_margin:+.2e}"
        )
    print(f"traces written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
