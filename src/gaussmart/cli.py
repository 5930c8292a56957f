"""Command-line entry point.

Subcommands: ``simulate``, ``kernel``, ``generator-check``, ``verify``,
``jump-times``.  Options come from flags or a JSON config file
(``--config``); explicit flags override file values, unknown config keys
are rejected, and so are family parameters that do not belong to the
chosen kind.  Exit codes: 0 success / all gated checks pass, 1 gated test
failure, 2 usage error, 3 numeric failure (a quadrature that cannot
converge, or a float overflow).

Report files and sidecars carry ``"schema": "gaussmart/3"`` and the random
stream layout (``"stream_layout": 2``) at top level; ``verify`` and
``generator-check`` reports record the calibrated family parameters.  Bulk
paths go to CSV in the formats declared by the path simulator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np
from scipy.integrate import simpson

from .errors import DomainError, FamilyError
from .generator import Polynomial, generator_check
from .kernel import kernel_eval, kernel_moment
from .pathsim import (  # noqa: F401 (simulate_event: perfbench traces cli.simulate_event)
    conditional_moments,
    first_jump_times,
    simulate_event,
    simulate_events,
    simulate_grid_ensemble,
    write_event_csv,
    write_grid_csv,
)
from .sampler import STREAM_LAYOUT, path_bundle
from .semigroup import calibrate, family_from_config
from .verify import derive_seed, standard_battery, test_jump_times

SCHEMA = "gaussmart/3"
#: top-level fields of every JSON report and sidecar
_HEADER = {"schema": SCHEMA, "stream_layout": STREAM_LAYOUT}
#: family parameter flags; which belong to a kind is family_from_config's call
_FAMILY_FLAGS = ("c", "a", "b", "beta", "atoms")

_F_TAGS = {
    "x": (0.0, 1.0),
    "x2": (0.0, 0.0, 1.0),
    "x3": (0.0, 0.0, 0.0, 1.0),
    "x4": (0.0, 0.0, 0.0, 0.0, 1.0),
}


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family", choices=["poisson", "gamma", "compound", "brownian"],
        help="family kind (pre-calibration parameters via --c/--a/--b/--beta/--atoms)",
    )
    sub.add_argument("--c", type=float, help="poisson intensity per unit log-scale")
    sub.add_argument("--a", type=float, help="gamma shape rate per unit log-scale")
    sub.add_argument("--b", type=float, help="gamma inverse scale")
    sub.add_argument("--beta", type=float, help="compound drift (>= 0)")
    sub.add_argument(
        "--atoms", help="compound atoms as 'loc:weight,loc:weight,...'"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmart",
        description="Simulate and verify martingales with exactly Gaussian marginals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate paths and write them as CSV")
    _add_family_flags(sim)
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--paths", type=int, help="number of paths (default 100)")
    sim.add_argument(
        "--grid", help="time grid 'start:end:steps' with start = 0 (grid mode)"
    )
    sim.add_argument("--mode", choices=["grid", "event"], help="default grid")
    sim.add_argument("--start", type=float, help="event mode: start time s0 > 0")
    sim.add_argument("--x0", type=float, help="event mode: start value (default 0)")
    sim.add_argument("--horizon", type=float, help="event mode: end time")
    sim.add_argument("--seed", type=int, help="base seed (default 0)")
    sim.add_argument("--threads", type=int, help="worker threads (default 1)")
    sim.add_argument("--out", help="output CSV path (default paths.csv)")

    ker = sub.add_parser("kernel", help="emit a transition density table")
    _add_family_flags(ker)
    ker.add_argument("--config", help="JSON config file; flags override it")
    ker.add_argument("--s", type=float, help="start time (default 0.5)")
    ker.add_argument("--t", type=float, help="end time (default 2)")
    ker.add_argument("--x", type=float, help="start value (default 0)")
    ker.add_argument("--y", help="evaluation grid 'lo:hi:n' (default auto)")
    ker.add_argument("--out", help="CSV output (default density.csv); JSON sidecar alongside")

    gen = sub.add_parser(
        "generator-check",
        help="closed-form generator vs kernel difference quotient",
    )
    _add_family_flags(gen)
    gen.add_argument("--config", help="JSON config file; flags override it")
    gen.add_argument("--f", help="polynomial: tag x|x2|x3|x4 or comma coefficients")
    gen.add_argument("--s", type=float, help="time point (default 1)")
    gen.add_argument("--x", type=float, help="space point (default 0.8)")
    gen.add_argument("--h", type=float, help="base step for the quotient (default 0.02)")
    gen.add_argument("--out", help="JSON output path (default stdout)")

    ver = sub.add_parser("verify", help="run the gated statistical battery")
    _add_family_flags(ver)
    ver.add_argument("--config", help="JSON config file; flags override it")
    ver.add_argument("--paths", type=int, help="ensemble size (default 200000)")
    ver.add_argument("--qv-paths", type=int, help="paths for the quadratic-variation check")
    ver.add_argument("--jumps", type=int, help="first-jump sample size")
    ver.add_argument("--mode-paths", type=int, help="paths per mode-agreement sample")
    ver.add_argument("--seed", type=int, help="base seed (default 0)")
    ver.add_argument("--threads", type=int, help="worker threads (default 1)")
    ver.add_argument("--report", help="JSON report path (default report.json)")

    jmp = sub.add_parser("jump-times", help="sample first jump times and test their law")
    _add_family_flags(jmp)
    jmp.add_argument("--config", help="JSON config file; flags override it")
    jmp.add_argument("--s", type=float, help="start time (default 1)")
    jmp.add_argument("--n", type=int, help="sample size (default 100000)")
    jmp.add_argument("--seed", type=int, help="base seed (default 0)")
    jmp.add_argument("--out", help="optional CSV of sampled jump times")
    jmp.add_argument("--report", help="JSON report path (default stdout)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Overlay CLI flags on the optional config file; flags win.

    The allowed config keys are the subcommand's own flags (dashed, as on
    the command line) plus the ``family`` object.
    """
    keys = {k.replace("_", "-") for k in vars(args)} - {"command", "config"}
    merged: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = set(cfg) - keys
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        merged.update(cfg)
    for key in keys:
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            merged[key] = val
    return merged


def _family_spec(opts: dict) -> dict:
    """The family config object: the config's family object or the --family
    kind (default poisson), overlaid with every family parameter given."""
    fam = opts.get("family")
    spec = dict(fam) if isinstance(fam, dict) else {"kind": fam or "poisson"}
    spec.update({k: opts[k] for k in _FAMILY_FLAGS if opts.get(k) is not None})
    if isinstance(spec.get("atoms"), str):
        spec["atoms"] = [pair.split(":") for pair in spec["atoms"].split(",")]
    return spec


def _family(opts: dict):
    return calibrate(family_from_config(_family_spec(opts)))


def _value(opts: dict, key: str, kind, default):
    """Option ``key`` converted by ``kind``; a malformed or non-finite value
    is a usage error."""
    raw = opts.get(key, default)
    if raw is None:
        return None
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad value for {key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"bad value for {key}: {raw!r} (must be finite)")
    return value


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, end, steps = text.split(":")
        start, end, steps = float(start), float(end), int(steps)
    except (AttributeError, ValueError) as exc:
        raise DomainError(f"bad grid spec {text!r}; expected start:end:steps") from exc
    if start != 0.0:
        raise DomainError("simulated paths start at time 0; grid must use start = 0")
    if steps < 1 or not start < end < math.inf:
        raise DomainError("grid needs a finite end > 0 and steps >= 1")
    return np.linspace(start, end, steps + 1)


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_simulate(args) -> int:
    opts = _merge_config(args)
    family = _family(opts)
    seed = _value(opts, "seed", int, 0)
    n_paths = _value(opts, "paths", int, 100)
    out = opts.get("out", "paths.csv")
    mode = opts.get("mode", "grid")
    if mode not in ("grid", "event"):
        raise DomainError(f"bad value for mode: {mode!r}")
    if mode == "grid":
        times = _parse_grid(opts.get("grid", "0:1:64"))
        values = simulate_grid_ensemble(
            family, times, seed, n_paths, threads=_value(opts, "threads", int, None)
        )
        write_grid_csv(out, times, values)
        print(
            f"simulate: {n_paths} grid paths on {times.size} times "
            f"(seed {seed}) -> {out}"
        )
        return 0
    s0 = _value(opts, "start", float, 1.0)
    horizon = _value(opts, "horizon", float, 2.0)
    x0 = _value(opts, "x0", float, 0.0)
    paths = simulate_events(family, s0, x0, horizon, path_bundle(seed, n_paths))
    write_event_csv(out, paths)
    n_jumps = sum(len(p.jumps) for p in paths)
    print(
        f"simulate: {n_paths} event paths on [{s0}, {horizon}] "
        f"({n_jumps} jumps, seed {seed}) -> {out}"
    )
    return 0


def _cmd_kernel(args) -> int:
    opts = _merge_config(args)
    family = _family(opts)
    s = _value(opts, "s", float, 0.5)
    t = _value(opts, "t", float, 2.0)
    x = _value(opts, "x", float, 0.0)
    out = opts.get("out", "density.csv")
    ev = kernel_eval(family, s, t, x)
    if opts.get("y"):
        try:
            lo, hi, n = opts["y"].split(":")
            ygrid = np.linspace(float(lo), float(hi), int(n))
        except (AttributeError, ValueError) as exc:
            raise DomainError(f"bad grid spec {opts['y']!r}; expected lo:hi:n") from exc
        if ygrid.size == 0 or not np.all(np.isfinite(ygrid)):
            raise DomainError(f"bad grid spec {opts['y']!r}; need finite bounds and n >= 1")
    else:
        # the continuous part's component means lie between 0 and the atom
        # at sigma x (from s = 0 the law is N(x, t))
        loc = x if math.isnan(ev.atom_location) else ev.atom_location
        half = 10 * math.sqrt(t)
        ygrid = np.linspace(min(0.0, loc) - half, max(0.0, loc) + half, 2001)
    # the moments use Python floats, so an overflow raises here, before the
    # array computations below can print numpy warnings
    values = {k: kernel_moment(family, s, t, x, k) for k in (0, 1, 2)}
    references = {0: 1.0, 1: x}
    if s > 0:
        references[2] = conditional_moments(family, s, t, x)[1]
    else:
        references[2] = t + x * x
    moments = {
        f"k{k}": {"value": mk, "reference": references[k], "abs_error": abs(mk - references[k])}
        for k, mk in values.items()
    }
    dens = ev.density(ygrid)
    mass = ev.atom_weight + float(simpson(dens, x=ygrid))
    sidecar = {
        **_HEADER,
        "atom_weight": ev.atom_weight,
        "atom_location": None if math.isnan(ev.atom_location) else ev.atom_location,
        "mass_check": mass,
        "moment_checks": moments,
        "method": ev.quadrature,
        "s": s, "t": t, "x": x,
    }
    # every sidecar quantity is computed before the table is written, so a
    # run that fails (a moment overflow, say) leaves no file behind
    with open(out, "w", encoding="ascii") as fh:
        fh.write("y,density\n")
        for yv, dv in zip(ygrid, dens):
            fh.write(f"{float(yv)!r},{float(dv)!r}\n")
    _write_json(out + ".json", sidecar)
    print(
        f"kernel: atom {ev.atom_weight:.6g}, mass {mass:.12g}, "
        f"{ygrid.size} density nodes -> {out} (+.json)"
    )
    return 0


def _cmd_generator_check(args) -> int:
    opts = _merge_config(args)
    family = _family(opts)
    f_spec = _value(opts, "f", str, "x2")
    if f_spec in _F_TAGS:
        poly = Polynomial(_F_TAGS[f_spec])
    else:
        try:
            poly = Polynomial(tuple(float(c) for c in f_spec.split(",")))
        except ValueError as exc:
            raise DomainError(f"bad polynomial spec {f_spec!r}") from exc
    s = _value(opts, "s", float, 1.0)
    x = _value(opts, "x", float, 0.8)
    h = _value(opts, "h", float, 0.02)
    result = generator_check(family, poly, s, x, h=h)
    payload = {
        **_HEADER,
        "family": dataclasses.asdict(family),
        "f": f_spec,
        "s": s,
        "x": x,
        "h": h,
        **result,
    }
    _write_json(opts.get("out"), payload)
    print(
        f"generator-check: f={f_spec} (s={s}, x={x}) relative_error="
        f"{result['relative_error']:.3e}"
    )
    return 0


def _cmd_verify(args) -> int:
    opts = _merge_config(args)
    family = _family(opts)
    seed = _value(opts, "seed", int, 0)
    reports = standard_battery(
        family,
        seed,
        n_paths=_value(opts, "paths", int, 200_000),
        n_qv=_value(opts, "qv-paths", int, 10_000),
        n_jumps=_value(opts, "jumps", int, 100_000),
        n_mode=_value(opts, "mode-paths", int, 10_000),
        threads=_value(opts, "threads", int, None),
    )
    payload = {
        **_HEADER,
        "family": dataclasses.asdict(family),
        "seed": seed,
        "reports": [r.to_dict() for r in reports],
    }
    _write_json(opts.get("report", "report.json"), payload)
    all_pass = True
    for r in reports:
        print(f"{r.status.upper():6s} {r.test_name}: stat={r.statistic:.6g} "
              f"ref={r.reference} p={r.p_value}")
        all_pass &= r.passed
    return 0 if all_pass else 1


def _cmd_jump_times(args) -> int:
    opts = _merge_config(args)
    family = _family(opts)
    seed = _value(opts, "seed", int, 0)
    s = _value(opts, "s", float, 1.0)
    n = _value(opts, "n", int, 100_000)
    times = first_jump_times(family, s, path_bundle(derive_seed(seed, "jump-times"), n))
    if opts.get("out"):
        with open(opts["out"], "w", encoding="ascii") as fh:
            fh.write("sample_id,first_jump_time\n")
            for i, tv in enumerate(times):
                fh.write(f"{i},{float(tv)!r}\n")
    report = test_jump_times(times, s, family, seed=seed)
    _write_json(opts.get("report"), {**_HEADER, "report": report.to_dict()})
    print(
        f"{report.status.upper():6s} jump_times: KS p={report.p_value:.4g} "
        f"median={report.details['median']:.6g} "
        f"(target {report.details['median_target']:.6g})"
    )
    return 0 if report.passed else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "kernel": _cmd_kernel,
    "generator-check": _cmd_generator_check,
    "verify": _cmd_verify,
    "jump-times": _cmd_jump_times,
}


def execute(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except OverflowError:
        print(
            "numeric failure: float overflow; lower the magnitude of the "
            "inputs (the start value --x, the times --s/--t)",
            file=sys.stderr,
        )
        return 3
    except ArithmeticError as exc:  # QuadratureError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, FamilyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
