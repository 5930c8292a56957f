"""Command-line entry point.

Subcommands: ``simulate``, ``kernel``, ``generator-check``, ``verify``,
``jump-times``.  Each option's type, default and help are declared once,
in ``_OPTIONS`` (the family flags in ``_SHARED``).  Options come from flags
or a JSON config file (``--config``) whose keys are the flags; a config
``family`` object holds the family flags as keys.  Flags override the file
and top-level keys the family object.  Unknown config keys are rejected,
and so are family parameters that do not belong to the chosen kind.  Flags
and config values share one conversion, so a bad value fails alike from
either: every bad value prints ``error: ...`` and exits 2.  ``--threads``
(at least 1) defaults to one worker per CPU.  Exit codes: 0 success / all
gated checks pass, 1 gated test failure, 2 usage error (a size too large to
allocate among them, with the option to lower named), 3 numeric failure (a
quadrature that cannot converge, finite atoms on no lattice fine enough for
an accurate law, a float overflow, or a step whose conditional variance is
below the smallest normal float).

Report files and sidecars carry ``"schema": "gaussmart/4"`` and the random
stream layout (``"stream_layout": 3``) at top level; ``verify`` and
``generator-check`` reports record the calibrated family parameters.  Bulk
paths go to CSV in the formats declared by the path simulator; the
``kernel`` and ``jump-times`` tables are written in ``repr`` form too, a
block of rows made into text at once by :mod:`gaussmart.csvtext` per write.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np
import scipy

from . import __version__, csvtext
from .errors import DomainError, FamilyError
from .generator import Polynomial, generator_check
from .kernel import _simpson_weights, kernel_eval, kernel_moment
from .pathsim import (  # noqa: F401 (simulate_event: perfbench traces cli.simulate_event)
    event_jump_count,
    first_jump_times,
    simulate_event,
    simulate_events,
    simulate_grid_ensemble,
    write_event_csv,
    write_grid_csv,
)
from .sampler import STREAM_LAYOUT, VERIFY_STREAM_BASE, path_bundle
from .semigroup import (brownian_family, calibrate, compound_family, gamma_family, laplace,
                        poisson_family)
from .verify import derive_seed, standard_battery, test_jump_times

SCHEMA = "gaussmart/4"
#: top-level fields of every JSON report and sidecar
_HEADER = {"schema": SCHEMA, "stream_layout": STREAM_LAYOUT, "versions": {
    "gaussmart": __version__, "numpy": np.__version__, "scipy": scipy.__version__}}
#: expected candidate jumps (jumps and one overshoot per path) per block of
#: event-mode lanes: 1,000 paths of atom 1.5e-4 on [1, 2] took 21-24 / 17-18 /
#: 20 s at 200 / 271 / 410 MiB peak RSS with 2**19 / 2**20 / 2**21, and 18-19 s
#: at 562 MiB in one block (2-vCPU VM); smaller blocks pay more loop rounds
_EVENT_BLOCK_JUMPS = 2**20


def _linspace(spec, extra: int = 0) -> np.ndarray:
    """``lo:hi:n`` as ``n + extra`` evenly spaced points from lo to hi; a
    ValueError unless lo < hi and their span ``hi - lo`` are finite and
    there are at least 2 points."""
    lo, hi, n = str(spec).split(":")
    lo, hi, n = float(lo), float(hi), int(n) + extra
    if not (lo < hi and math.isfinite(hi - lo) and n >= 2):
        raise ValueError(spec)
    return np.linspace(lo, hi, n)


def _time_grid(spec) -> np.ndarray:
    """``start:end:steps``: steps + 1 times; simulated paths start at 0."""
    times = _linspace(spec, extra=1)
    if times[0] != 0.0:
        raise ValueError(spec)
    return times


def _threads(raw) -> int:
    """A worker count: an int option that is at least 1."""
    n = _value("threads", raw, int)
    if n < 1:
        raise ValueError(raw)
    return n


def _atoms(spec) -> tuple:
    """``loc:weight,...`` or a JSON list of [loc, weight] pairs as a tuple of
    float pairs, each number converted as a float option is."""
    pairs = [p.split(":") for p in spec.split(",")] if isinstance(spec, str) else spec
    if not (isinstance(pairs, list) and pairs
            and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise ValueError(spec)
    return tuple((_value("atoms", x, float), _value("atoms", w, float)) for x, w in pairs)


#: the family flags every subcommand takes; a config ``family`` object
#: holds the same keys, with the kind under ``kind``
_SHARED = {
    "family": (str, "poisson", "family kind: poisson, gamma, compound or brownian "
               "(pre-calibration parameters via --c/--a/--b/--beta/--atoms)"),
    "c": (float, None, "poisson intensity per unit log-scale (default 1)"),
    "a": (float, None, "gamma shape rate per unit log-scale (default 1)"),
    "b": (float, None, "gamma inverse scale (default 1)"),
    "beta": (float, None, "compound drift >= 0 (default 0)"),
    "atoms": (_atoms, None, "compound atoms as 'loc:weight,loc:weight,...'"),
}
#: family kind -> (constructor, the family flags it takes)
_KINDS = {
    "poisson": (poisson_family, ("c",)),
    "gamma": (gamma_family, ("a", "b")),
    "compound": (compound_family, ("atoms", "beta")),
    "brownian": (brownian_family, ()),
}


#: subcommand -> (help, {option: (type, default, help)}); a default of None
#: means "not set" and the help says what happens then
_OPTIONS = {
    "simulate": ("simulate paths and write them as CSV", {
        "paths": (int, 100, "number of paths"),
        "grid": (_time_grid, "0:1:64", "grid mode: time grid 'start:end:steps', start = 0"),
        "mode": (str, "grid", "grid or event"),
        "start": (float, 1.0, "event mode: start time s0 > 0"),
        "x0": (float, 0.0, "event mode: start value"),
        "horizon": (float, 2.0, "event mode: end time"),
        "seed": (int, 0, "base seed"),
        "threads": (_threads, None, "worker threads >= 1 (default one per CPU)"),
        "out": (str, "paths.csv", "output CSV path"),
    }),
    "kernel": ("emit a transition density table", {
        "s": (float, 0.5, "start time"),
        "t": (float, 2.0, "end time"),
        "x": (float, 0.0, "start value"),
        "y": (_linspace, None, "evaluation grid 'lo:hi:n' with lo < hi and n >= 2 "
              "(default 2001 nodes spanning 0 ... sigma x, widened by 10 sqrt(t))"),
        "out": (str, "density.csv", "CSV output; JSON sidecar alongside"),
    }),
    "generator-check": ("closed-form generator vs the exact t-derivative of the kernel moments", {
        "f": (str, "x2", "polynomial: tag x|x2|x3|x4 or comma coefficients"),
        "s": (float, 1.0, "time point"),
        "x": (float, 0.8, "space point"),
        "out": (str, None, "JSON output path (default stdout)"),
    }),
    "verify": ("run the gated statistical battery", {
        "paths": (int, 200_000, "ensemble size"),
        "qv-paths": (int, 10_000, "paths for the quadratic-variation check"),
        "jumps": (int, 100_000, "first-jump sample size"),
        "mode-paths": (int, 10_000, "paths per mode-agreement sample"),
        "seed": (int, 0, "base seed"),
        "threads": (_threads, None, "worker threads >= 1 (default one per CPU)"),
        "report": (str, "report.json", "JSON report path"),
    }),
    "jump-times": ("sample first jump times and test their law", {
        "s": (float, 1.0, "start time"),
        "n": (int, 100_000, "sample size"),
        "seed": (int, 0, "base seed"),
        "out": (str, None, "CSV of sampled jump times (default none)"),
        "report": (str, None, "JSON report path (default stdout)"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmart",
        description="Simulate and verify martingales with exactly Gaussian marginals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _OPTIONS.items():
        # whole flags only: a removed flag is an error, not a prefix (--h of --help)
        cmd = sub.add_parser(command, help=text, allow_abbrev=False)
        cmd.add_argument("--config", help="JSON config file; flags override it")
        for key, (_, default, help_text) in {**_SHARED, **options}.items():
            if default is not None:
                help_text += f" (default {default})"
            cmd.add_argument(f"--{key}", dest=key, help=help_text)
    return parser


#: how numpy's ValueError for an array larger than it can address begins
_TOO_BIG = "array is too big"


@contextlib.contextmanager
def _memory_for(key: str, value):
    """A MemoryError inside the block, or numpy's ValueError for an array
    larger than it can address, becomes a usage error that names option
    ``key`` as the one to lower."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        raise DomainError(f"--{key} {value} needs more memory than is available; "
                          f"lower --{key}") from None


def _value(key: str, raw, kind):
    """Option ``key`` converted by ``kind``; a malformed, non-finite or
    boolean value, an int option's float or a str option's non-string is a
    usage error, and so is a grid too large to allocate."""
    if isinstance(raw, bool) or (kind in (int, str) and not isinstance(raw, (kind, str))):
        raise DomainError(f"bad value for {key}: {raw!r}")
    with _memory_for(key, raw):
        try:
            value = kind(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            if str(exc).startswith(_TOO_BIG):
                raise  # a grid numpy cannot address: _memory_for's message
            raise DomainError(f"bad value for {key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"bad value for {key}: {raw!r} (must be finite)")
    return value


def _options(args: argparse.Namespace) -> dict:
    """The subcommand's options: the optional config file overlaid with the
    flags given (flags win), each converted once and defaulted by the table.

    The allowed config keys are the subcommand's own flags (dashed, as on
    the command line).  ``family`` is a kind or a family object: the kind
    under ``kind`` and family flags as keys, overridden by the same keys at
    the top level of the file.
    """
    table = {**_SHARED, **_OPTIONS[args.command][1]}
    layers = [vars(args)]  # highest precedence first; None is "not given"
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise DomainError(f"config file {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = set(cfg) - set(table)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        layers.append(cfg)
        if isinstance(cfg.get("family"), dict):
            fam = cfg.pop("family")
            fam["family"] = fam.pop("kind", None)
            if fam["family"] is None:
                raise DomainError("a family object needs a 'kind' key")
            unknown = set(fam) - set(_SHARED)
            if unknown:
                raise DomainError(f"unknown family keys: {sorted(unknown)}")
            layers.append(fam)
    opts = {}
    for key, (kind, default, _) in table.items():
        raw = next((layer[key] for layer in layers if layer.get(key) is not None), default)
        opts[key] = None if raw is None else _value(key, raw, kind)
    return opts


def _family(opts: dict):
    """The calibrated family: the kind's constructor called with the family
    flags given, each of which must belong to the kind."""
    kind = opts["family"]
    if kind not in _KINDS:
        raise DomainError(f"bad value for family: {kind!r}")
    build, keys = _KINDS[kind]
    params = {k: opts[k] for k in _SHARED if k != "family" and opts[k] is not None}
    stray = set(params) - set(keys)
    if stray:
        raise DomainError(f"keys {sorted(stray)} do not belong to the {kind} kind")
    if kind == "compound" and "atoms" not in params:
        raise DomainError("the compound kind needs --atoms; "
                          "for Brownian motion use --family brownian")
    return calibrate(build(**params))


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_table(path: str, header: str, *columns) -> None:
    """A CSV of equal-length numeric columns, each value in ``repr`` form (an
    exact round trip), made into text ``csvtext.CSV_BLOCK`` rows at a time."""
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for lo in range(0, len(columns[0]), csvtext.CSV_BLOCK):
            texts = [csvtext.text_block(c[lo:lo + csvtext.CSV_BLOCK]) for c in columns]
            fh.write(csvtext.csv_rows(texts[0].shape[:1], *texts))


def _cmd_simulate(opts: dict) -> int:
    family = _family(opts)
    seed, n_paths, out = opts["seed"], opts["paths"], opts["out"]
    if not 0 <= n_paths <= VERIFY_STREAM_BASE:  # path streams stay below the verify ones
        raise DomainError(f"path count must be in [0, 2**63], got {n_paths}")
    if opts["mode"] == "grid":
        times = opts["grid"]
        with _memory_for("paths", n_paths):
            values = simulate_grid_ensemble(family, times, seed, n_paths, threads=opts["threads"])
        write_grid_csv(out, times, values)
        what = f"grid paths on {times.size} times (seed {seed})"
    elif opts["mode"] == "event":
        s0, horizon, x0 = opts["start"], opts["horizon"], opts["x0"]
        expected = event_jump_count(family, s0, horizon)
        # blocks of whole streams, so the blocking changes no draw
        lanes = max(1, int(_EVENT_BLOCK_JUMPS / (expected + 1.0)))
        n_jumps = write_event_csv(out, (simulate_events(
            family, s0, x0, horizon, path_bundle(seed, min(lanes, n_paths - lo), lo))
            for lo in range(0, n_paths, lanes)))
        what = f"event paths on [{s0}, {horizon}] ({n_jumps} jumps, seed {seed})"
    else:
        raise DomainError(f"bad value for mode: {opts['mode']!r}")
    print(f"simulate: {n_paths} {what} -> {out}")
    return 0


def _cmd_kernel(opts: dict) -> int:
    family = _family(opts)
    s, t, x, ygrid, out = opts["s"], opts["t"], opts["x"], opts["y"], opts["out"]
    ev = kernel_eval(family, s, t, x)
    if ygrid is None:
        # the continuous part's component means lie between 0 and the atom
        # at sigma x (from s = 0 the law is N(x, t))
        loc = x if math.isnan(ev.atom_location) else ev.atom_location
        half = 10 * math.sqrt(t)
        ygrid = np.linspace(min(0.0, loc) - half, max(0.0, loc) + half, 2001)
    # the moments use Python floats, so an overflow raises here, before the
    # array computations below can print numpy warnings
    values = {k: kernel_moment(family, s, t, x, k) for k in (0, 1, 2)}
    # E[Y^2] = t + (loc^2 - t) E[R] by mixing, apart from the Hermite sum
    if s > 0:
        sigma = math.sqrt(t / s)
        second = t + ((sigma * x) ** 2 - t) * laplace(family, sigma, 1.0)
    else:
        second = t + x ** 2
    references = {0: 1.0, 1: x, 2: second}
    moments = {
        f"k{k}": {"value": mk, "reference": references[k], "abs_error": abs(mk - references[k])}
        for k, mk in values.items()
    }
    dens = ev.density(ygrid)
    # every grid is a linspace, so uniform Simpson weights apply
    h = (ygrid[-1] - ygrid[0]) / (ygrid.size - 1)
    mass = ev.atom_weight + float(_simpson_weights(ygrid.size, h) @ dens)
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
    _write_table(out, "y,density", ygrid, dens)
    _write_json(out + ".json", sidecar)
    print(
        f"kernel: atom {ev.atom_weight:.6g}, mass {mass:.12g}, "
        f"{ygrid.size} density nodes -> {out} (+.json)"
    )
    return 0


def _cmd_generator_check(opts: dict) -> int:
    family = _family(opts)
    f_spec, s, x = opts["f"], opts["s"], opts["x"]
    if f_spec in ("x", "x2", "x3", "x4"):
        poly = Polynomial.monomial(int(f_spec[1:] or 1))
    else:
        try:
            poly = Polynomial(tuple(float(c) for c in f_spec.split(",")))
        except ValueError as exc:
            raise DomainError(f"bad polynomial spec {f_spec!r}") from exc
    result = generator_check(family, poly, s, x)
    payload = {
        **_HEADER,
        "family": dataclasses.asdict(family),
        "f": f_spec,
        "s": s,
        "x": x,
        **result,
    }
    _write_json(opts["out"], payload)
    print(
        f"generator-check: f={f_spec} (s={s}, x={x}) relative_error="
        f"{result['relative_error']:.3e}"
    )
    return 0


def verify_report(family, seed: int, reports) -> dict:
    """The JSON report of one family's battery, as ``verify`` writes it."""
    return {**_HEADER, "family": dataclasses.asdict(family), "seed": seed,
            "reports": [r.to_dict() for r in reports]}


def _cmd_verify(opts: dict) -> int:
    family = _family(opts)
    # the largest sample is the one to lower when the battery runs out of memory
    largest = max(("paths", "qv-paths", "jumps", "mode-paths"), key=opts.get)
    with _memory_for(largest, opts[largest]):
        reports = standard_battery(
            family,
            opts["seed"],
            n_paths=opts["paths"],
            n_qv=opts["qv-paths"],
            n_jumps=opts["jumps"],
            n_mode=opts["mode-paths"],
            threads=opts["threads"],
        )
    _write_json(opts["report"], verify_report(family, opts["seed"], reports))
    all_pass = True
    for r in reports:
        print(f"{r.status.upper():6s} {r.test_name}: stat={r.statistic:.6g} "
              f"ref={r.reference} p={r.p_value}")
        all_pass &= r.passed
    return 0 if all_pass else 1


def _cmd_jump_times(opts: dict) -> int:
    family = _family(opts)
    seed, s = opts["seed"], opts["s"]
    # the gate runs before any file is written, so a refused sample leaves none
    with _memory_for("n", opts["n"]):
        times = first_jump_times(family, s,
                                 path_bundle(derive_seed(seed, "jump-times"), opts["n"]))
        report = test_jump_times(times, s, family, seed=seed)
    if opts["out"]:
        _write_table(opts["out"], "sample_id,first_jump_time", np.arange(times.size), times)
    _write_json(opts["report"], {**_HEADER, "report": report.to_dict()})
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
        return _COMMANDS[args.command](_options(args))
    except OverflowError:
        floats = [f"--{k}" for k, (kind, _, _) in _OPTIONS[args.command][1].items()
                  if kind is float]
        print("numeric failure: float overflow; lower the magnitude of the inputs"
              + (f" ({'/'.join(floats)})" if floats else ""), file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # QuadratureError, LatticeError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, FamilyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
