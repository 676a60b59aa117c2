"""Command-line front end: verify suites, factor contractions, build
envelopes, run gradient flows, and emit deterministic JSON/CSV reports.

Exit codes: 0 all checks passed, 1 at least one violation found (including
the intentional counterexample) or a flow step that did not converge, 2
malformed config or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .contraction import decompose, envelope, make_phi
from .errors import (
    BadSpec,
    BadWeight,
    EmptySpace,
    InconsistentSamples,
    NoConvergence,
    NotIncreasing,
    require_int,
)
from .flow import FlowConfig, evolve, trace_to_csv
from .forms import make_form
from .measure import make_field
from .samplers import SuiteConfig
from .verifier import CheckResult, check_identities, counterexample_demo, verify_form

REPORT_VERSION = 1


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, floats at 17 significant
    digits (non-finite ones as NaN/Infinity, as json.dumps writes them).
    Guarantees byte-identical reports for identical inputs."""
    return _canonical(obj, {})


def _canonical(obj, memo: dict) -> str:
    """canonical_json of obj; memo maps the id of each dict, list or tuple
    encoded so far to its text, so an object shared by many parts of a
    document (a report's form descriptor) is encoded once. The ids stay
    valid because every object in memo is reachable from the document."""
    if type(obj) is float:  # the common leaf first
        return format(obj, ".17g") if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, (dict, list, tuple)):
        text = memo.get(id(obj))
        if text is None:
            if isinstance(obj, dict):
                items = sorted(obj.items())
                inner = ",".join(f"{json.dumps(k)}:{_canonical(v, memo)}" for k, v in items)
                text = "{" + inner + "}"
            else:
                text = "[" + ",".join(_canonical(v, memo) for v in obj) + "]"
            memo[id(obj)] = text
        return text
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj) if math.isfinite(obj) else json.dumps(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


class ConfigError(ValueError):
    pass


# what make_form raises for a descriptor it cannot build
_FORM_ERRORS = (BadSpec, BadWeight, EmptySpace)


def _config_seed(raw: dict) -> int:
    seed = raw.get("seed", 0)
    try:
        require_int("seed", seed, 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return seed


def _section(raw: dict, key: str, schema, **fixed):
    """The config section ``key`` as an instance of the dataclass ``schema``.

    The section is a JSON object whose keys are the dataclass's fields, less
    the ``fixed`` ones the caller sets; a missing section gives the defaults.
    """
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be a JSON object")
    unknown = set(section) - {f.name for f in dataclasses.fields(schema)} - set(fixed)
    if unknown:
        raise ConfigError(f"unknown {key} options: {sorted(unknown)}")
    try:
        return schema(**section, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} options: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _output_path(args, raw: dict, default: str) -> str:
    """Where a command writes: --output, else the config's "output", which
    must be a path string, else the default."""
    if args.output:
        return args.output
    out = raw.get("output", default)
    if not isinstance(out, str):
        raise ConfigError(f"'output' must be a path string, got {out!r}")
    return out


def _cannot_write(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc}")


def _write_report(results: list[CheckResult], seed: int, path: str) -> None:
    doc = {
        "version": REPORT_VERSION,
        "seed": seed,
        "checks": [r.report_entry() for r in results],
    }
    try:
        with open(path, "w") as fh:
            fh.write(canonical_json(doc) + "\n")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _report_exit(results: list[CheckResult], path: str) -> int:
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} violation(s): {', '.join(failures)}; report at {path}")
        return 1
    print(f"all {len(results)} checks passed; report at {path}")
    return 0


def _cmd_verify(args) -> int:
    raw = _load_config(args.config)
    forms = raw.get("forms")
    if not isinstance(forms, list) or not forms:
        raise ConfigError("config needs a nonempty 'forms' list")
    seed = _config_seed(raw)
    cfg = _section(raw, "suite", SuiteConfig, seed=seed)
    out = _output_path(args, raw, "report.json")
    results: list[CheckResult] = []
    first_space = None
    for idx, desc in enumerate(forms):
        try:
            form = make_form(desc)
        except _FORM_ERRORS as exc:
            raise ConfigError(f"forms[{idx}]: {exc}") from exc
        if first_space is None:
            first_space = form.space
        label = f"{form.kind}#{idx}"
        results += [
            dataclasses.replace(c, name=f"{c.name}[{label}]") for c in verify_form(form, cfg)
        ]
    results += check_identities(cfg, first_space)
    _write_report(results, seed, out)
    return _report_exit(results, out)


def _cmd_decompose(args) -> int:
    try:
        bps = [float(tok) for tok in args.breakpoints.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"breakpoints must be numbers: {exc}") from exc
    try:
        factors, residual = decompose(make_phi(bps))
    except NotIncreasing as exc:
        raise ConfigError(str(exc)) from exc
    for i, fac in enumerate(factors):
        print(f"factor {i}: [{', '.join(_fmt_float(b) for b in fac.breakpoints)}]")
    print(f"residual: [{', '.join(_fmt_float(b) for b in residual.breakpoints)}]")
    return 0


def _cmd_envelope(args) -> int:
    try:
        with open(args.samples) as fh:
            data = json.load(fh)
        samples = [(float(y), float(v)) for y, v in data]
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"samples file must be JSON [[y, value], ...]: {exc}") from exc
    try:
        pl = envelope(samples, args.radius)
    except (InconsistentSamples, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    print(f"breakpoints: [{', '.join(_fmt_float(b) for b in pl.breakpoints)}]")
    print(f"slopes: [{', '.join(_fmt_float(s) for s in pl.slopes)}]")
    print(f"value_at_0: {_fmt_float(pl.anchor)}")
    return 0


def _cmd_flow(args) -> int:
    raw = _load_config(args.config)
    if "form" not in raw:
        raise ConfigError("flow config needs a 'form' descriptor")
    try:
        form = make_form(raw["form"])
    except _FORM_ERRORS as exc:
        raise ConfigError(str(exc)) from exc
    seed = _config_seed(raw)
    cfg = _section(raw, "flow", FlowConfig)
    out = _output_path(args, raw, "trace.csv")
    initial = raw.get("initial")
    if initial is None:
        rng = np.random.default_rng(seed)
        u0 = make_field(form.space, rng.uniform(-1.0, 1.0, form.space.n))
    else:
        try:
            u0 = make_field(form.space, initial)
        except (TypeError, ValueError) as exc:  # wrong size, non-finite, not numbers
            raise ConfigError(f"initial datum: {exc}") from exc
    try:
        trace = evolve(form, u0, cfg)
    except NoConvergence as exc:
        print(f"error: flow stopped: {exc}", file=sys.stderr)
        return 1
    try:
        trace_to_csv(trace, out)
    except OSError as exc:
        raise _cannot_write(out, exc) from exc
    print(
        f"flow: {cfg.n_steps} steps, energy {trace.energies[0]:.6g} -> "
        f"{trace.energies[-1]:.6g}; trace at {out}"
    )
    return 0


def _cmd_demo(args) -> int:
    result = counterexample_demo()
    out = args.output or "counterexample_report.json"
    _write_report([result], 0, out)
    w = result.witness
    print(
        f"E(f) = {_fmt_float(w['energy_f'])}, E(-f) = {_fmt_float(w['energy_neg_f'])}: "
        "reversing the ramp raises the energy, so phi = -id is not contracted"
    )
    return _report_exit([result], out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nbdirichlet",
        description="Verify convex-energy criteria, factor contractions, run gradient flows.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the check suites from a JSON config")
    p.add_argument("config")
    p.add_argument("--output", help="report path (default from config or report.json)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("decompose", help="factor an alternating contraction into F2 pieces")
    p.add_argument("--breakpoints", required=True, help="comma-separated, increasing")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("envelope", help="lower 1-Lipschitz envelope of sampled values")
    p.add_argument("--samples", required=True, help="JSON file [[y, value], ...]")
    p.add_argument("--radius", required=True, type=float)
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("flow", help="run a proximal gradient flow, write a CSV trace")
    p.add_argument("config")
    p.add_argument("--output", help="trace path (default from config or trace.csv)")
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("what", choices=["counterexample"])
    p.add_argument("--output", help="report path")
    p.set_defaults(fn=_cmd_demo)
    return ap


def _glue_values(argv: list[str]) -> list[str]:
    """Join value-taking flags with values that start with a minus sign,
    so `decompose --breakpoints -1,0,2` parses as expected."""
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in ("--breakpoints", "--radius"):
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
