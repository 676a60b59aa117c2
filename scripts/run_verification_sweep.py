#!/usr/bin/env python3
"""Run the full check suite over the shipped instance catalog.

Writes one JSON report per instance into --outdir and prints a summary
table. The identity checks run once (they are form-independent).
"""

import argparse
import pathlib
import sys

from nbdirichlet.catalog import instance_catalog
from nbdirichlet.cli import _write_report
from nbdirichlet.forms import make_form
from nbdirichlet.samplers import SuiteConfig
from nbdirichlet.verifier import check_identities, verify_form


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-samples", type=int, default=SuiteConfig.n_samples)
    ap.add_argument("--outdir", default="sweep_reports")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = SuiteConfig(n_samples=args.n_samples, seed=args.seed)

    any_unexpected = False
    for label, desc in instance_catalog(args.seed).items():
        results = verify_form(make_form(desc), cfg)
        _write_report(results, args.seed, str(outdir / f"{label}.json"))
        failed = [r.name for r in results if not r.passed]
        expected_failures = (
            {"symmetry", "normal_contraction"} if label == "grid_max_positive_part" else set()
        )
        status = "ok" if set(failed) == expected_failures else "UNEXPECTED"
        any_unexpected |= status == "UNEXPECTED"
        print(f"{label:26s} checks={len(results):3d} failed={failed or '-'} [{status}]")

    identities = check_identities(cfg)
    _write_report(identities, args.seed, str(outdir / "identities.json"))
    for r in identities:
        # identity_halfsum is red by algebra: the displayed relation is false
        # off the band; see README
        mark = "expected-red" if r.name == "identity_halfsum" else ("ok" if r.passed else "UNEXPECTED")
        any_unexpected |= mark == "UNEXPECTED"
        print(f"{r.name:26s} worst={r.worst_violation:.3e} passed={r.passed} [{mark}]")
    return 1 if any_unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
