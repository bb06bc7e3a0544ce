"""Command line front end.

Every setting of every command is one row of ``_COMMANDS``, which gives
its flag, config key, cast, default and help; ``levy-gqmle COMMAND --help``
prints them.  Settings resolve as flag > config file > environment >
built-in default.  The config file named by --config is a flat JSON object
keyed like the long flags ("seed", "out_dir", "format", "case", ...), plus
"designs" (a list of [n, h] pairs) for mc; any other key is refused.
LEVY_GQMLE_SEED supplies the seed when neither flag nor config does.  All
number settings refuse strings and booleans, integer ones also fractions.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from . import __version__
from ._util import NumericalError, _integer, atomic_write_text
from .asymptotics import run_asymptotics
from .experiment import (
    CASES,
    ExperimentDesign,
    benchmark_model,
    emit_report,
    noise_case,
    optimal_values,
    run_mc,
    true_ou,
)
from .gqmle import estimate_staged
from .moments import residual_moment
from .sde import PathConfig, load_path, simulate_euler, write_path

__all__ = ["run", "main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 is reserved for numerical
    # failures here, so route usage problems through the exception instead
    def error(self, message):
        raise _UsageError(message)


def _one_of(*allowed):
    """Cast of a format setting: the one format asked for, as a 1-tuple."""
    def cast(value):
        if value in allowed:
            return (value,)
        raise _UsageError(f"format {value!r} not available here; choose from {', '.join(allowed)}")
    return cast


def _real(value) -> float:
    """Cast of a float setting: a number, not a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _orders(text) -> tuple[int, ...]:
    orders = tuple(int(s) for s in str(text).split(",") if s.strip())
    if not orders:
        raise _UsageError("orders must name at least one moment")
    return orders


def _target(out_dir, name: str) -> pathlib.Path:
    os.makedirs(out_dir, exist_ok=True)
    return pathlib.Path(out_dir) / name


def _echo(text: str, out_dir, name: str) -> None:
    """Print ``text``, and write it to out_dir/name too when out_dir is set."""
    print(text)
    if out_dir is not None:
        target = _target(out_dir, name)
        atomic_write_text(target, text + "\n")
        print(f"wrote {target}", file=sys.stderr)


def _given(s, *keys) -> dict:
    """The settings among ``keys`` that have a value, as keyword arguments."""
    return {key: getattr(s, key) for key in keys if getattr(s, key) is not None}


def _cmd_simulate(s, cfg) -> int:
    path_cfg = PathConfig(n=s.n, h=s.h, x0=s.x0, seed=s.seed, refine=s.refine)
    path = simulate_euler(true_ou(), noise_case(s.case), path_cfg)
    out = _target(s.out_dir, "path.csv")
    write_path(path, out)
    print(f"wrote {out} (case {noise_case(s.case).__class__.__name__}, n={path.n}, h={path.h:g}, T={path.T:g})")
    return 0


def _cmd_estimate(s, cfg) -> int:
    if s.path is None:
        raise _UsageError("estimate needs --path FILE")
    est = estimate_staged(load_path(s.path), benchmark_model())
    _echo(json.dumps(est.to_obj()), s.out_dir, "estimate.json")
    return 0


def _cmd_mc(s, cfg) -> int:
    kwargs = _given(s, "replications")
    if "designs" in cfg:
        try:
            kwargs["designs"] = tuple((_integer(n), _real(h)) for n, h in cfg["designs"])
        except (TypeError, ValueError):
            raise _UsageError(f"bad value for designs: {cfg['designs']!r}; expected a list of [n, h] pairs")
    summary = run_mc(ExperimentDesign(s.case, seed=s.seed, **kwargs))
    for d in summary.per_design:
        print(
            f"n={d.n} h={d.h:g}: alpha {d.mean_alpha:.4f} ({d.sd_alpha:.4f}), "
            f"gamma {d.mean_gamma:.4f} ({d.sd_gamma:.4f}), failed {d.n_failed}"
        )
    for written in emit_report(summary, s.out_dir, s.format):
        print(f"wrote {written}")
    return 0


def _cmd_asymptotics(s, cfg) -> int:
    result = run_asymptotics(benchmark_model(), true_ou(), noise_case(s.case), seed=s.seed,
                             **_given(s, "budget", "m", "t_max", "step"))
    for ext in s.format:
        target = _target(s.out_dir, f"asymptotics.{ext}")
        if ext == "json":
            atomic_write_text(target, json.dumps(result.to_obj(), indent=2, sort_keys=True) + "\n")
        else:
            cells = zip(result.f1.x, result.f1.f, result.f2.f, result.f1.se, result.f2.se)
            rows = [f"{x:.10g},{a:.10g},{b:.10g},{max(s1, s2):.3g}" for x, a, b, s1, s2 in cells]
            atomic_write_text(target, "\n".join(["x,f1,f2,se", *rows]) + "\n")
        print(f"wrote {target}")
    return 0


def _cmd_optimal(s, cfg) -> int:
    cases = CASES if s.case is None else (s.case,)
    values = {c: optimal_values(c) for c in cases}
    if s.format:
        obj = {c: {"alpha_star": a, "gamma_star": g} for c, (a, g) in values.items()}
        print(json.dumps(obj, indent=2, sort_keys=True))
    elif s.case is not None:
        print("alpha_star={:.12f}\ngamma_star={:.12f}".format(*values[s.case]))
    else:
        for c, (alpha, gamma) in values.items():
            print(f"case={c} alpha_star={alpha:.12f} gamma_star={gamma:.12f}")
    return 0


def _cmd_moments(s, cfg) -> int:
    model = benchmark_model()
    path = simulate_euler(true_ou(), noise_case(s.case), PathConfig(n=s.n, h=s.h, seed=s.seed))
    est = estimate_staged(path, model)
    rows = [f"{r},{residual_moment(path, est, model, r):.10g}" for r in s.orders]
    _echo("\n".join(["r,estimate", *rows]), s.out_dir, "moments.csv")
    return 0


# A row (key, cast, default, help) is one setting: the key names its flag
# (t_max is --t-max) and its config key.  The cast applies to a flag or
# config value; a flag is first parsed as an int or a float where the cast
# is _integer or _real.  A default is used as written; None leaves the value
# to the called function.
_SEED = ("seed", _integer, 0, "random seed; LEVY_GQMLE_SEED when neither flag nor config gives one")
_CASE = ("case", None, "i", f"noise case, one of {', '.join(CASES)}")
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate one benchmark path", (
        _SEED, _CASE,
        ("n", _integer, 1000, "observation steps"),
        ("h", _real, 0.05, "observation step size"),
        ("x0", _real, 0.0, "start state"),
        ("refine", _integer, 1, "Euler substeps per observation step"),
        ("out_dir", os.fspath, ".", "directory for path.csv"),
    )),
    "estimate": (_cmd_estimate, "fit the benchmark model to a path CSV", (
        ("path", os.fspath, None, "t,x CSV on an equispaced grid (required)"),
        ("out_dir", os.fspath, None, "directory for estimate.json; none is written when omitted"),
    )),
    "mc": (_cmd_mc, "replication study", (
        _SEED, _CASE,
        ("replications", _integer, None, "replications per design; ExperimentDesign's default when omitted"),
        ("format", _one_of("csv", "json", "svg"), ("csv", "json", "svg"), "write only this format"),
        ("out_dir", os.fspath, ".", "directory for the reports"),
    )),
    "asymptotics": (_cmd_asymptotics, "Gamma / Sigma / V pipeline", (
        _SEED, _CASE,
        ("budget", _integer, None, "invariant-sample state budget; run_asymptotics' default when omitted"),
        ("m", _integer, None, "paths per Poisson-equation solve; run_asymptotics' default when omitted"),
        ("t_max", _real, None, "Poisson-equation horizon; run_asymptotics' default when omitted"),
        ("step", _real, None, "Euler step; run_asymptotics' default when omitted"),
        ("format", _one_of("csv", "json"), ("csv", "json"), "write only this format"),
        ("out_dir", os.fspath, ".", "directory for the outputs"),
    )),
    "optimal": (_cmd_optimal, "closed-form pseudo-true values", (
        ("case", None, None, "single case; all four when omitted"),
        ("format", _one_of("json"), None, "json; a text table when omitted"),
    )),
    "moments": (_cmd_moments, "residual moments on a simulated path", (
        _SEED, _CASE,
        ("n", _integer, 10000, "observation steps"),
        ("h", _real, 0.01, "observation step size"),
        ("orders", _orders, (2, 3, 4), "comma-separated moment orders"),
        ("out_dir", os.fspath, None, "directory for moments.csv; none is written when omitted"),
    )),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="levy-gqmle", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (_, summary, rows) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, description=summary)
        p.add_argument("--config", metavar="FILE", help="JSON settings file; flags override it")
        for key, cast, default, text in rows:
            if default is not None:
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                text += f" (default: {shown})"
            flag_type = {_integer: int, _real: float}.get(cast)
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=flag_type, help=text)
    return parser


def _load_config(path, keys):
    """The JSON object in ``path`` ({} for None); a key outside ``keys`` is refused."""
    if path is None:
        return {}
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise _UsageError("config must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(unknown)}; this command takes {', '.join(keys)}")
    return obj


def _env_seed() -> int | None:
    env = os.environ.get("LEVY_GQMLE_SEED")
    try:
        return None if env is None else int(env)
    except ValueError:
        raise _UsageError(f"LEVY_GQMLE_SEED must be an integer, got {env!r}")


def _resolve(rows, ns, cfg) -> argparse.Namespace:
    """Each row's setting: its flag, else its config key (a null counts as
    absent), else LEVY_GQMLE_SEED for the seed, else the row's default."""
    settings = argparse.Namespace()
    for key, cast, default, _ in rows:
        value = getattr(ns, key)
        if value is None:
            value = cfg.get(key)
        if value is None and key == "seed":
            value = _env_seed()
        if value is None:
            value = default
        elif cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError):
                raise _UsageError(f"bad value for {key}: {value!r}")
        setattr(settings, key, value)
    return settings


def run(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        func, _, rows = _COMMANDS[ns.command]
        keys = [row[0] for row in rows] + (["designs"] if ns.command == "mc" else [])
        cfg = _load_config(ns.config, keys)
        return func(_resolve(rows, ns, cfg), cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
