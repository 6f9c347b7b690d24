"""Command-line front end.

Sub-commands:

    classify-series   convergence verdict for a positive series
    classify-bdp      recurrence verdict for a birth-death chain
    classify-walk     recurrence verdict for a reflected random walk
    simulate-walk     Monte Carlo run of the reflected walk
    eval-iterlog      evaluate iterated logarithms and their weights

Series and rates come from a built-in family (``--family`` plus parameter
flags), an expression in the small DSL (``--a-n``, ``--delta-n``,
``--lambda``/``--mu``, ``--alpha``), or a two-column table file.  A report
prints as a short text summary (the default) or as the full JSON document
(``--format json``).  Exit codes: 0 for a decisive verdict (or a completed
evaluation/simulation), 2 for an inconclusive verdict, 1 for any error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict, fields
from functools import partial
from typing import Any

from . import __version__
from .birthdeath import BirthDeathRates, bdp_classify
from .convergence import ClassifyConfig, RatioSpec, adaptive_classify
from .errors import DemorganError, EvalError
from .expr import parse_expression
from .families import (
    RATE_FACTORIES,
    SERIES_FACTORIES,
    _term_ratio,
    alpha_const,
    make_rate_family,
    make_series_family,
)
from .iterlog import expansion_increment, iterlog, iterlog_product, min_domain, zeta_weight
from .report import Report, classification_to_dict, rw_classification_to_dict, verdict_to_dict
from .tables import KINDS, load_table
from .walk import DriftSpec, rw_classify, simulate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

_PROBE_LIMIT = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # inconclusive verdicts, so usage problems are rerouted to exit 1.
    def error(self, message):
        raise _UsageError(message)


def _first_index(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_classify_flags(p: argparse.ArgumentParser) -> None:
    defaults = ClassifyConfig()
    p.add_argument("--K-start", type=int, default=defaults.k_start, dest="k_start",
                   help="depth at which the adaptive test starts (default %(default)s)")
    p.add_argument("--K-max", type=int, default=defaults.k_max, dest="k_max",
                   help="deepest level the adaptive test may reach (default %(default)s)")
    p.add_argument("--margin", type=float, default=defaults.margin,
                   help="decision margin around the critical value (default %(default)s)")
    p.add_argument("--band", type=float, default=defaults.near_one_band, dest="near_one_band",
                   help="near-critical band that allows escalation (default %(default)s)")
    p.add_argument("--window-lo", type=int, default=defaults.window_lo,
                   help="sampling window floor (default %(default)s)")
    p.add_argument("--window-hi", type=int, default=defaults.window_hi,
                   help="sampling window ceiling (default %(default)s)")
    p.add_argument("--samples", type=int, default=defaults.samples,
                   help="sample count on the geometric grid (default %(default)s)")
    p.add_argument("--no-guard", action="store_false", dest="guard",
                   help="disable the next-level consistency guard")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the timing field (byte-reproducible output)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="demorgan", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("classify-series", help="convergence verdict for a positive series")
    src = ps.add_argument_group("series source (exactly one)")
    src.add_argument("--family", choices=sorted(SERIES_FACTORIES))
    src.add_argument("--p", type=float, help="p-series exponent")
    src.add_argument("--r", type=float, help="log-power / iterlog-power exponent")
    src.add_argument("--x", type=float, help="geometric base")
    src.add_argument("--K", type=int, help="iterlog-power family depth")
    src.add_argument("--a-n", dest="a_n", metavar="EXPR",
                     help="series term a_n as an expression in n")
    src.add_argument("--delta-n", dest="delta_n", metavar="EXPR",
                     help="a_n/a_{n+1} - 1 as an expression in n")
    src.add_argument("--table", metavar="PATH", help="two-column table file")
    src.add_argument("--table-kind", choices=KINDS, help="table layout (default terms)")
    src.add_argument("--first-index", type=_first_index,
                     help="first index at which an expression source is valid (default: probed)")
    _add_classify_flags(ps)
    _add_output_flags(ps)

    pb = sub.add_parser("classify-bdp", help="recurrence verdict for a birth-death chain")
    srcb = pb.add_argument_group("rates source (exactly one)")
    srcb.add_argument("--family", choices=sorted(RATE_FACTORIES))
    srcb.add_argument("--c", type=float, help="rate family coefficient")
    srcb.add_argument("--K", type=int, help="bd-iterlog family depth")
    srcb.add_argument("--lambda", metavar="EXPR", help="birth rate expression")
    srcb.add_argument("--mu", metavar="EXPR", help="death rate expression")
    srcb.add_argument("--first-index", type=_first_index,
                      help="first index at which expression rates are valid (default: probed)")
    _add_classify_flags(pb)
    _add_output_flags(pb)

    pw = sub.add_parser("classify-walk", help="recurrence verdict for the reflected walk")
    _add_walk_source(pw)
    _add_classify_flags(pw)
    _add_output_flags(pw)

    pm = sub.add_parser("simulate-walk", help="Monte Carlo run of the reflected walk")
    _add_walk_source(pm)
    pm.add_argument("--seed", type=int, default=1)
    pm.add_argument("--paths", type=int, default=1000)
    pm.add_argument("--horizon", type=int, default=10_000)
    _add_output_flags(pm)

    pe = sub.add_parser("eval-iterlog", help="evaluate iterated logarithms")
    pe.add_argument("--K", type=int, required=True, dest="level")
    pe.add_argument("--x", type=float, help="argument (required except for min-domain)")
    pe.add_argument("--what", choices=tuple(_ITERLOG_FUNCTIONS), default="log")
    _add_output_flags(pe)

    return parser


def _add_walk_source(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("drift source (exactly one)")
    src.add_argument("--alpha-const", type=float, metavar="A",
                     help="constant drift alpha(n) = A, 0 < A < 1/2")
    src.add_argument("--alpha", metavar="EXPR", help="drift alpha(n) as an expression in n")
    src.add_argument("--C", type=float, help="drift cap C for expression drifts (default 1.0)")


def _classify_config(args: argparse.Namespace) -> ClassifyConfig:
    # Each classify flag is stored under the name of the field it sets.
    return ClassifyConfig(**{f.name: getattr(args, f.name)
                             for f in fields(ClassifyConfig) if hasattr(args, f.name)})


# The sources of each subcommand, each with the flags that only it reads.
_SERIES_READERS = {"--family": ("--p", "--r", "--x", "--K"), "--a-n": ("--first-index",),
                   "--delta-n": ("--first-index",), "--table": ("--table-kind",)}
_RATES_READERS = {"--family": ("--c", "--K"), "--lambda/--mu": ("--first-index",)}
_DRIFT_READERS = {"--alpha-const": (), "--alpha": ("--C",)}


def _flag_value(args: argparse.Namespace, flag: str):
    return getattr(args, flag.lstrip("-").replace("-", "_"))


def _check_source(args: argparse.Namespace, readers: dict[str, tuple[str, ...]]) -> None:
    """Exit 1 unless exactly one source of ``readers`` is given and no flag
    is given that this source never reads; a source ``--a/--b`` is given
    when either flag is."""
    given = [source for source in readers
             if any(_flag_value(args, flag) is not None for flag in source.split("/"))]
    if len(given) != 1:
        raise _UsageError(f"choose exactly one of {', '.join(readers)}"
                          + (f" (got {', '.join(given)})" if given else ""))
    for flag in dict.fromkeys(f for flags in readers.values() for f in flags):
        if flag not in readers[given[0]] and _flag_value(args, flag) is not None:
            users = " and ".join(s for s, flags in readers.items() if flag in flags)
            raise _UsageError(f"{flag} applies only to {users}")


def _probe_first_index(term, text: str) -> int:
    for n in range(1, _PROBE_LIMIT + 1):
        try:
            if term(n) > 0.0 and term(n + 1) > 0.0:
                return n
        except EvalError:
            continue
    raise _UsageError(
        f"could not find an index n <= {_PROBE_LIMIT} where {text!r} is positive; "
        f"pass --first-index explicitly"
    )


def _series_source(args: argparse.Namespace) -> tuple[RatioSpec, dict[str, Any]]:
    _check_source(args, _SERIES_READERS)
    if args.family is not None:
        fam = make_series_family(
            args.family, p=args.p, r=args.r, x=args.x, K=args.K,
        )
        echo = {"kind": "family", "family": fam.name, "params": fam.params,
                "expression": fam.expression}
        return fam.ratio_spec, echo
    if args.a_n is not None:
        term = parse_expression(args.a_n)
        first = args.first_index or _probe_first_index(term, args.a_n)
        spec = RatioSpec(ratio=_term_ratio(term), first_index=first)
        return spec, {"kind": "expression", "quantity": "a_n", "text": args.a_n,
                      "first_index": first}
    if args.delta_n is not None:
        delta = parse_expression(args.delta_n)

        def ratio(n: int) -> float:
            return 1.0 + delta(n)

        first = args.first_index or _probe_first_index(ratio, args.delta_n)
        spec = RatioSpec(ratio=ratio, delta=delta, first_index=first)
        return spec, {"kind": "expression", "quantity": "delta_n", "text": args.delta_n,
                      "first_index": first}
    kind = args.table_kind or "terms"
    spec = load_table(args.table, kind)
    echo = {"kind": "table", "path": args.table, "layout": kind,
            "rows": [[n, spec.ratio(n)] for n in spec.support]}
    return spec, echo


def _rates_source(args: argparse.Namespace) -> tuple[BirthDeathRates, dict[str, Any]]:
    _check_source(args, _RATES_READERS)
    if args.family is not None:
        fam = make_rate_family(args.family, c=args.c, K=args.K)
        return fam.rates, {"kind": "family", "family": fam.name, "params": fam.params}
    lam = getattr(args, "lambda")
    if lam is None or args.mu is None:
        raise _UsageError("expression rates need both --lambda and --mu")
    birth, death = parse_expression(lam), parse_expression(args.mu)
    first = args.first_index or _probe_first_index(
        lambda n: min(birth(n), death(n)), f"min({lam}, {args.mu})")
    rates = BirthDeathRates(lam=birth, mu=death, first_index=first)
    return rates, {"kind": "expression", "lambda": lam, "mu": args.mu,
                   "first_index": first}


def _drift_source(args: argparse.Namespace) -> tuple[DriftSpec, dict[str, Any]]:
    _check_source(args, _DRIFT_READERS)
    if args.alpha_const is not None:
        fam = alpha_const(args.alpha_const)
        return fam.drift, {"kind": "family", "family": fam.name, "params": fam.params}
    cap = 1.0 if args.C is None else args.C
    drift = DriftSpec(alpha=parse_expression(args.alpha), C=cap)
    # JSON has no infinity; "inf" is what --C reads back as no cap.
    return drift, {"kind": "expression", "alpha": args.alpha,
                   "C": cap if math.isfinite(cap) else "inf"}


def _run_classify(mode: str, source, classify, to_dict, args) -> tuple:
    spec, echo = source(args)
    config = _classify_config(args)
    return (mode, {"source": echo, "config": asdict(config)},
            lambda: classify(spec, config), to_dict)


def _run_simulate(args) -> tuple:
    drift, echo = _drift_source(args)
    return (
        "simulate",
        {"source": echo, "seed": args.seed, "paths": args.paths, "horizon": args.horizon},
        lambda: simulate(drift, seed=args.seed, horizon=args.horizon, n_paths=args.paths),
        asdict,
    )


def _run_eval_iterlog(args) -> tuple:
    function, convert = _ITERLOG_FUNCTIONS[args.what]
    if (convert is None) != (args.x is None):
        raise _UsageError(f"--what {args.what} needs --x" if args.x is None
                          else "--x does not apply to --what min-domain")

    def compute():
        return function(args.level) if convert is None else function(args.level, convert(args.x))
    return ("iterlog", {"K": args.level, "x": args.x, "what": args.what}, compute,
            lambda value: {"value": value})


def _as_index(x: float) -> int:
    if not math.isfinite(x):
        raise _UsageError(f"this evaluation needs a finite index, got {x}")
    n = int(x)
    if n != x:
        raise _UsageError(f"this evaluation needs an integer index, got {x}")
    return n


# --what -> (function of the level, conversion of --x); min-domain takes no --x.
_ITERLOG_FUNCTIONS = {
    "log": (iterlog, float),
    "product": (iterlog_product, _as_index),
    "zeta": (zeta_weight, _as_index),
    "increment": (expansion_increment, _as_index),
    "min-domain": (min_domain, None),
}


# Each runner returns (mode, input echo, computation, result to dict).
_RUNNERS = {
    "classify-series": partial(_run_classify, "series", _series_source, adaptive_classify,
                               verdict_to_dict),
    "classify-bdp": partial(_run_classify, "bdp", _rates_source, bdp_classify,
                            classification_to_dict),
    "classify-walk": partial(_run_classify, "rwalk", _drift_source, rw_classify,
                             rw_classification_to_dict),
    "simulate-walk": _run_simulate,
    "eval-iterlog": _run_eval_iterlog,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and print its report; the exit code reads its ``decision``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        mode, echo, compute, to_dict = _RUNNERS[args.command](args)
        t0 = time.perf_counter()
        result = compute()
        elapsed = (time.perf_counter() - t0) * 1e3
        report = Report(mode, echo, to_dict(result), None if args.no_timing else elapsed)
    except (_UsageError, DemorganError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_INCONCLUSIVE if report.result.get("decision") == "inconclusive" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
