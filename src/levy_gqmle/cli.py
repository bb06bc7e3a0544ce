"""Command line front end.

Subcommands:

  simulate     draw one benchmark path and write it as a t,x CSV
  estimate     fit the benchmark model to a path CSV by staged quasi-likelihood
  mc           replication study over (n, h) designs, reported as csv/json/svg
  asymptotics  Gamma / Sigma / V pipeline with Poisson-equation diagnostics
  optimal      closed-form pseudo-true values per noise case
  moments      residual moment diagnostics on a freshly simulated path

Settings resolve as flag > config file > environment > built-in default.
The config file named by --config is a flat JSON object keyed like the long
flags ("seed", "out_dir", "format", "case", ...), plus "designs"
(a list of [n, h] pairs) for mc.  LEVY_GQMLE_SEED supplies the seed when
neither flag nor config does.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from . import __version__
from ._util import NumericalError, atomic_write_text
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

_FORMATS = ("csv", "json", "svg")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 is reserved for numerical
    # failures here, so route usage problems through the exception instead
    def error(self, message):
        raise _UsageError(message)


def _common_flags() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON settings file; flags override it")
    common.add_argument("--seed", type=int, metavar="N")
    common.add_argument("--out-dir", dest="out_dir", metavar="DIR")
    common.add_argument("--format", choices=_FORMATS)
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="levy-gqmle", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    common = [_common_flags()]

    p = sub.add_parser("simulate", parents=common, help="simulate one benchmark path")
    p.add_argument("--case", default=None, help=f"noise case, one of {', '.join(CASES)}")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--refine", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", parents=common, help="fit the benchmark model to a path CSV")
    p.add_argument("--path", metavar="FILE", default=None, help="t,x CSV on an equispaced grid")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("mc", parents=common, help="replication study")
    p.add_argument("--case", default=None)
    p.add_argument("--replications", type=int, default=None)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("asymptotics", parents=common, help="Gamma / Sigma / V pipeline")
    p.add_argument("--case", default=None)
    p.add_argument("--budget", type=int, default=None, help="invariant-sample state budget")
    p.add_argument("--m", type=int, default=None, help="paths per Poisson-equation solve")
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("optimal", parents=common, help="closed-form pseudo-true values")
    p.add_argument("--case", default=None, help="single case; all four when omitted")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("moments", parents=common, help="residual moments on a simulated path")
    p.add_argument("--case", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--orders", default=None, help="comma-separated moment orders, default 2,3,4")
    p.set_defaults(func=_cmd_moments)

    return parser


def _load_config(path):
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
    return obj


def _setting(ns, cfg, key, default, cast=None):
    value = getattr(ns, key, None)
    if value is None:
        value = cfg.get(key, default)
    if value is None or cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise _UsageError(f"bad value for {key}: {value!r}")


def _resolve_seed(ns, cfg) -> int:
    value = _setting(ns, cfg, "seed", None)
    if value is None:
        env = os.environ.get("LEVY_GQMLE_SEED")
        if env is None:
            return 0
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"LEVY_GQMLE_SEED must be an integer, got {env!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _UsageError(f"bad value for seed: {value!r}")


def _resolve_formats(ns, cfg, allowed=_FORMATS):
    fmt = _setting(ns, cfg, "format", None)
    if fmt is None:
        return tuple(allowed)
    if fmt not in allowed:
        raise _UsageError(f"format {fmt!r} not available here; choose from {', '.join(allowed)}")
    return (fmt,)


def _out_dir(ns, cfg, default=None):
    d = _setting(ns, cfg, "out_dir", default, os.fspath)
    if d is not None:
        os.makedirs(d, exist_ok=True)
    return d


def _cmd_simulate(ns, cfg) -> int:
    case = _setting(ns, cfg, "case", "i")
    n = _setting(ns, cfg, "n", 1000, int)
    h = _setting(ns, cfg, "h", 0.05, float)
    x0 = _setting(ns, cfg, "x0", 0.0, float)
    refine = _setting(ns, cfg, "refine", 1, int)
    seed = _resolve_seed(ns, cfg)
    path_cfg = PathConfig(n=n, h=h, x0=x0, seed=seed, refine=refine)
    path = simulate_euler(true_ou(), noise_case(case), path_cfg)
    out = pathlib.Path(_out_dir(ns, cfg, ".")) / "path.csv"
    write_path(path, out)
    print(f"wrote {out} (case {noise_case(case).__class__.__name__}, n={path.n}, h={path.h:g}, T={path.T:g})")
    return 0


def _cmd_estimate(ns, cfg) -> int:
    source = _setting(ns, cfg, "path", None, os.fspath)
    if source is None:
        raise _UsageError("estimate needs --path FILE")
    path = load_path(source)
    est = estimate_staged(path, benchmark_model())
    text = est.to_json()
    print(text)
    out_dir = _out_dir(ns, cfg)
    if out_dir is not None:
        target = pathlib.Path(out_dir) / "estimate.json"
        atomic_write_text(target, text + "\n")
        print(f"wrote {target}", file=sys.stderr)
    return 0


def _cmd_mc(ns, cfg) -> int:
    case = _setting(ns, cfg, "case", "i")
    replications = _setting(ns, cfg, "replications", 1000, int)
    seed = _resolve_seed(ns, cfg)
    formats = _resolve_formats(ns, cfg)
    kwargs = {"replications": replications, "seed": seed}
    if "designs" in cfg:
        try:
            kwargs["designs"] = tuple((int(n), float(h)) for n, h in cfg["designs"])
        except (TypeError, ValueError):
            raise _UsageError(f"bad value for designs: {cfg['designs']!r}; expected a list of [n, h] pairs")
    design = ExperimentDesign(case, **kwargs)
    summary = run_mc(design)
    for d in summary.per_design:
        print(
            f"n={d.n} h={d.h:g}: alpha {d.mean_alpha:.4f} ({d.sd_alpha:.4f}), "
            f"gamma {d.mean_gamma:.4f} ({d.sd_gamma:.4f}), failed {d.n_failed}"
        )
    for written in emit_report(summary, _out_dir(ns, cfg, "."), formats):
        print(f"wrote {written}")
    return 0


def _cmd_asymptotics(ns, cfg) -> int:
    from .asymptotics import run_asymptotics  # deferred: scipy-heavy import

    case = _setting(ns, cfg, "case", "i")
    seed = _resolve_seed(ns, cfg)
    formats = _resolve_formats(ns, cfg, allowed=("csv", "json"))
    kwargs = {"seed": seed}
    for key, cast in (("budget", int), ("m", int), ("t_max", float), ("step", float)):
        value = _setting(ns, cfg, key, None, cast)
        if value is not None:
            kwargs[key] = value
    alpha_star, gamma_star = optimal_values(case)
    result = run_asymptotics(
        benchmark_model(), true_ou(), noise_case(case), (alpha_star, gamma_star), **kwargs
    )
    out_dir = pathlib.Path(_out_dir(ns, cfg, "."))
    for fmt in formats:
        target = out_dir / f"asymptotics.{fmt}"
        if fmt == "json":
            atomic_write_text(target, json.dumps(result.to_obj(), indent=2, sort_keys=True) + "\n")
        else:
            lines = ["x,f1,f2,se"]
            for i, x in enumerate(result.f1.x):
                se = max(result.f1.se[i], result.f2.se[i])
                lines.append(f"{x:.10g},{result.f1.f[i]:.10g},{result.f2.f[i]:.10g},{se:.3g}")
            atomic_write_text(target, "\n".join(lines) + "\n")
        print(f"wrote {target}")
    return 0


def _cmd_optimal(ns, cfg) -> int:
    case = _setting(ns, cfg, "case", None)
    fmt = _setting(ns, cfg, "format", None)
    cases = CASES if case is None else (case,)
    values = {c: optimal_values(c) for c in cases}
    if fmt == "json":
        obj = {c: {"alpha_star": a, "gamma_star": g} for c, (a, g) in values.items()}
        print(json.dumps(obj, indent=2, sort_keys=True))
    elif case is not None:
        alpha, gamma = values[case]
        print(f"alpha_star={alpha:.12f}")
        print(f"gamma_star={gamma:.12f}")
    else:
        for c, (alpha, gamma) in values.items():
            print(f"case={c} alpha_star={alpha:.12f} gamma_star={gamma:.12f}")
    return 0


def _cmd_moments(ns, cfg) -> int:
    case = _setting(ns, cfg, "case", "i")
    n = _setting(ns, cfg, "n", 10000, int)
    h = _setting(ns, cfg, "h", 0.01, float)
    seed = _resolve_seed(ns, cfg)
    raw = _setting(ns, cfg, "orders", "2,3,4")
    try:
        orders = tuple(int(s) for s in str(raw).split(",") if s.strip())
    except ValueError:
        raise _UsageError(f"bad value for orders: {raw!r}")
    if not orders:
        raise _UsageError("orders must name at least one moment")
    model = benchmark_model()
    path = simulate_euler(true_ou(), noise_case(case), PathConfig(n=n, h=h, seed=seed))
    est = estimate_staged(path, model)
    lines = ["r,estimate"]
    for r in orders:
        lines.append(f"{r},{residual_moment(path, est, model, r):.10g}")
    text = "\n".join(lines)
    print(text)
    out_dir = _out_dir(ns, cfg)
    if out_dir is not None:
        target = pathlib.Path(out_dir) / "moments.csv"
        atomic_write_text(target, text + "\n")
        print(f"wrote {target}", file=sys.stderr)
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _load_config(getattr(ns, "config", None))
        return ns.func(ns, cfg)
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
