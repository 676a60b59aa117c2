#!/usr/bin/env python3
r"""Write the outputs of the first K units of a perfbench workload, to compare
two trees byte for byte.

    PYTHONPATH=src python scripts/dump_outputs.py --workload flow_admm --seed 3 \
        --units 45 --outdir dumps/new
    diff -r dumps/old dumps/new

Each job of each unit runs through ``nbdirichlet.cli.run``, as perfbench runs
it, and leaves its report or CSV trace in the output directory; the exit codes
are listed in ``exit_codes.txt``. The units come from this checkout's
``perfbench/workloads.py``; ``nbdirichlet`` comes from ``sys.path``, so
pointing PYTHONPATH at another tree's ``src`` dumps that tree's outputs.
"""

import argparse
import contextlib
import io
import itertools
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # read perfbench/ without writing into it
    import workloads

    from nbdirichlet.cli import run

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    units = itertools.islice(workloads.iter_units(args.workload, args.seed), args.units)
    for idx, unit in enumerate(units):
        for k, job in enumerate(unit.jobs):
            tag = f"u{idx:04d}-{k}"
            config = out / f"{tag}-config.json"
            config.write_text(json.dumps(job.config))
            result = out / f"{tag}-{'report.json' if job.command == 'verify' else 'trace.csv'}"
            with contextlib.redirect_stdout(io.StringIO()):  # progress lines name the paths
                code = run([job.command, str(config), "--output", str(result)])
            config.unlink()
            codes.append(f"{tag} {unit.kind} {job.command} {code}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
