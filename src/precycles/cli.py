"""Command line interface.

Subcommands:
  density        exact densities (pre-p-cycle, window, coprime-order)
  avoid          exact avoidance proportion with certified upper bounds
  verify-primes  certified prime-count, prime-sum and harmonic-gap sweeps
  verify-r2      density floor sweep plus small-degree exact proportions
  bounds         closed-form bound evaluators and the sample-count rule
  estimate       Monte Carlo event estimation with a Wilson interval
  recognize      Las Vegas search for an element powering to a p-cycle
  selftest       run the acceptance criteria

Exit status: 0 on success, 1 when a verification reports a failure,
2 on usage errors.  Rational-valued flags accept "a/b" or decimal text
and are parsed exactly.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import primes
from .primes import decimal_str, fraction_str

if TYPE_CHECKING:
    from .bounds import SweepReport
    from .recognize import ElementSource

DEFAULT_SIEVE_LIMIT = 1_000_000


def rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _qstr(q: Fraction) -> str:
    """str(q), written by :func:`decimal_str`: exact values can pass the
    interpreter's cap on int-to-str digits."""
    return decimal_str(q.numerator) if q.denominator == 1 else fraction_str(q)


def _jsonable(x):
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    return x


def emit(ns, payload: dict, text_lines: list[str]) -> None:
    """Write the result in the requested format."""
    fmt = getattr(ns, "format", "text")
    if fmt == "json":
        out = json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False) + "\n"
    elif fmt == "csv":
        flat = _flatten(payload)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(flat.keys())
        writer.writerow([_csv_cell(v) for v in flat.values()])
        out = buf.getvalue()
    else:
        out = "".join(line + "\n" for line in text_lines)
    sys.stdout.write(out)


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for k, v in payload.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        else:
            flat[key] = v
    return flat


def _csv_cell(v):
    """The JSON value, with list items space-joined and each dict or
    inner list written as canonical JSON."""
    v = _jsonable(v)
    if isinstance(v, list):
        return " ".join(
            json.dumps(x, sort_keys=True) if isinstance(x, (dict, list))
            else str(x) for x in v)
    return v


def _parse_lengths(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a length list: {text!r}")


# ---------------------------------------------------------------- density


def cmd_density(ns) -> int:
    from . import exact

    chosen = [x is not None for x in (ns.p, ns.window, ns.coprime)].count(True)
    if chosen + int(ns.cycles) != 1:
        raise ValueError(
            "choose exactly one of --p, --window, --coprime, --cycles"
        )
    if ns.group == "alt" and ns.window is None:
        raise ValueError("--group alt applies only to --window")
    if ns.coprime is not None:
        if ns.n is not None:
            raise ValueError("--n applies only to --p, --window, --cycles")
        m, p = ns.coprime
        value = exact.coprime_order_density(m, p)
        emit(
            ns,
            {"kind": "coprime-order", "m": m, "p": p, "value": value},
            [f"coprime-order density sigma({m}; {p}) = {_qstr(value)} "
             f"~ {float(value):.6g}"],
        )
        return 0
    if ns.n is None:
        raise ValueError("--n is required")
    if ns.p is not None:
        value = exact.pre_cycle_density(ns.n, ns.p)
        emit(
            ns,
            {"kind": "pre-cycle", "n": ns.n, "p": ns.p, "group": "sym",
             "value": value},
            [f"pre-{ns.p}-cycle density in S_{ns.n} = {_qstr(value)} "
             f"~ {float(value):.6g}"],
        )
        return 0
    if ns.cycles:
        value = exact.cycle_proportion(ns.n)
        emit(
            ns,
            {"kind": "cycle-support", "n": ns.n, "value": value},
            [f"proportion of S_{ns.n} that is one nontrivial cycle "
             f"= {_qstr(value)} ~ {float(value):.6g}"],
        )
        return 0
    lo, hi = ns.window
    window = exact.prime_window(lo, hi)
    value = exact.window_proportion(ns.n, window, ns.group)
    stats = exact.window_hit_proportions(ns.n, window, ns.group)
    group_name = "A" if ns.group == "alt" else "S"
    emit(
        ns,
        {"kind": "window", "n": ns.n, "group": ns.group,
         "window": [lo, hi], "primes": list(window.primes),
         "value": value, **stats._asdict()},
        [f"primes in ({lo}, {hi}]: {list(window.primes)}",
         f"pre-p-cycle proportion of {group_name}_{ns.n} = {_qstr(value)} "
         f"~ {float(value):.6g}",
         f"hit proportion = {_qstr(stats.hit)} ~ {float(stats.hit):.6g}",
         f"repeat proportion = {_qstr(stats.repeat)} ~ {float(stats.repeat):.6g}"],
    )
    return 0


# ------------------------------------------------------------------ avoid


def _inverse_str(ab) -> str:
    """1/mu of avoidance bounds ``ab`` for a text line: inf where it is
    not a finite float."""
    return "inf" if ab.mu_inverse is None else f"{ab.mu_inverse:.6g}"


def cmd_avoid(ns) -> int:
    from . import bounds as bounds_mod
    from . import exact

    fs = exact.ForbiddenSet(ns.n, ns.lengths)
    value = exact.avoid_proportion(fs, ns.group)
    mu = fs.mu
    ab = bounds_mod.avoidance_bounds(mu)
    factor = 2 if ns.group == "alt" else 1
    certified = bounds_mod.certify_avoidance_bound(value, mu, factor)
    group_name = "A" if ns.group == "alt" else "S"
    lines = [
        f"avoidance proportion in {group_name}_{ns.n} of lengths "
        f"{sorted(ns.lengths)} = {_qstr(value)} ~ {float(value):.6g}",
        f"mu = {_qstr(mu)} ~ {float(mu):.6g}",
        f"bounds: 1/mu = {_inverse_str(ab)}, e^(1-mu) = "
        f"{ab.e_one_minus_mu:.6g}, e^(gamma-mu) = {ab.e_gamma_minus_mu:.6g}",
        f"certified <= {factor} * e^(gamma-mu): {certified}",
    ]
    emit(
        ns,
        {"n": ns.n, "group": ns.group, "lengths": sorted(ns.lengths),
         "value": value, "mu": mu,
         **{f"bound_{k}": v for k, v in ab._asdict().items()},
         "certified": certified},
        lines,
    )
    return 0 if certified else 1


# ---------------------------------------------------------- verify-primes


def _sweep_lines(rep: SweepReport) -> list[str]:
    status = "ok" if rep.holds else (
        f"FAILED ({len(rep.failures)} failures, first at "
        f"{rep.failures[0].inputs})")
    return [
        f"{rep.name}: {status}, {rep.checked} checks, min margin "
        f"{rep.min_margin:.3e} at {rep.argmin}, "
        f"{rep.escalations} escalations"
    ]


def cmd_verify_primes(ns) -> int:
    from . import bounds as bounds_mod

    table = primes.build_sieve(ns.sieve_limit)
    reports = bounds_mod.verify_battery(table)
    ok = all(r.holds for r in reports)
    lines = []
    for rep in reports:
        lines.extend(_sweep_lines(rep))
    lines.append("all prime inequalities hold" if ok
                 else "PRIME INEQUALITY FAILURES FOUND")
    emit(
        ns,
        {"sweeps": [r.to_json_dict() for r in reports], "ok": ok},
        lines,
    )
    return 0 if ok else 1


# -------------------------------------------------------------- verify-r2


def cmd_verify_r2(ns) -> int:
    from . import bounds as bounds_mod
    from . import exact

    table = primes.build_sieve(ns.max)
    sweep = bounds_mod.density_floor_sweep(table, ns.max, ns.threshold)
    lines = [
        f"floor sweep 5..{ns.max} against {fraction_str(ns.threshold)}: "
        f"min value {sweep.min_value:.6f} at n = {sweep.argmin_n}, "
        f"{sweep.below_count} below, {sweep.escalations} escalations",
    ]
    exceptions = [r.to_json_dict() for r in sweep.exceptions]
    for rec in exceptions:
        lines.append(
            f"  below threshold: n = {rec['n']}, sum in "
            f"[{rec['lo']}, {rec['hi']}] ~ {rec['value']:.9f}"
        )
    lines.append(
        f"holds for all 11 <= n <= {ns.max}: {sweep.holds_from_11}"
    )
    pis = []
    if ns.exact_upto >= 5:
        upto = min(ns.exact_upto, exact.ENUMERATION_BOUND)
        third = Fraction(1, 3)
        for n in range(5, upto + 1):
            pi_n = exact.pre_prime_cycle_proportion(n, "sym")
            pis.append((n, pi_n))
        low = [n for n, v in pis if v <= third]
        lines.append(
            f"exact pre-prime-cycle proportions for 5 <= n <= {upto}: "
            f"min {min(float(v) for _, v in pis):.6f} at "
            f"n = {min(pis, key=lambda t: t[1])[0]}"
        )
        lines.append(
            f"degrees with proportion <= 1/3: {low if low else 'none'}"
        )
    ok = sweep.holds_from_11
    emit(
        ns,
        {"max": ns.max, "threshold": ns.threshold,
         "min_value": sweep.min_value, "argmin_n": sweep.argmin_n,
         "exceptions": exceptions,
         "below_count": sweep.below_count,
         "holds_from_11": sweep.holds_from_11,
         "exact_proportions": [
             {"n": n, "value": v} for n, v in pis],
         "ok": ok},
        lines,
    )
    return 0 if ok else 1


# ----------------------------------------------------------------- bounds


def cmd_bounds(ns) -> int:
    from . import bounds as bounds_mod

    chosen = [
        ns.sample_count is not None,
        ns.window_bound is not None,
        ns.headline is not None,
        ns.avoidance is not None,
        ns.prime_sums is not None,
    ]
    if chosen.count(True) != 1:
        raise ValueError(
            "choose exactly one of --sample-count, --window-bound, "
            "--headline, --avoidance, --prime-sums"
        )
    if ns.variant is not None and ns.headline is None:
        raise ValueError("--variant applies only to --headline")
    if ns.sample_count is not None:
        eps, c0 = ns.sample_count
        m = bounds_mod.sample_count(eps, c0)
        emit(
            ns,
            {"kind": "sample-count", "epsilon": eps, "c0": c0, "draws": m},
            [f"draws for failure probability <= {fraction_str(eps)} "
             f"at density >= {fraction_str(c0)}: {m}"],
        )
        return 0
    if ns.window_bound is not None:
        n, a, d, delta = ns.window_bound
        if n.denominator != 1 or delta.denominator != 1:
            raise ValueError("--window-bound N and DELTA must be integers")
        n, delta = int(n), int(delta)
        value = bounds_mod.window_density_lower_bound(n, a, d, delta)
        a, d = float(a), float(d)
        emit(
            ns,
            {"kind": "window-bound", "n": n, "a": a, "d": d, "delta": delta,
             "value": value},
            [f"window density lower bound at n = {n}, a = {a}, "
             f"d = {d}, delta = {delta}: {value:.6f}"],
        )
        return 0
    if ns.headline is not None:
        n, delta = int(ns.headline[0]), int(ns.headline[1])
        variant = ns.variant or "stated"
        hb = bounds_mod.headline_bounds(n, delta, variant)
        lines = [
            f"headline bounds at n = {n}, delta = {delta} ({variant}): "
            f"simple = {hb.simple:.6f}, refined = {hb.refined:.6f}",
            f"guaranteed to hold from n >= "
            f"{bounds_mod.ASSERTED_FROM}: {hb.asserted}",
        ]
        emit(
            ns,
            {"kind": "headline", "n": n, "delta": delta,
             "variant": variant, "c": hb.c, "simple": hb.simple,
             "refined": hb.refined, "asserted": hb.asserted},
            lines,
        )
        return 0
    if ns.avoidance is not None:
        mu = ns.avoidance
        ab = bounds_mod.avoidance_bounds(mu)
        dom = bounds_mod.verify_gamma_dominance(mu)
        emit(
            ns,
            {"kind": "avoidance", "mu": mu, **ab._asdict(),
             "gamma_bound_dominates": dom},
            [f"avoidance bounds at mu = {fraction_str(mu)}: "
             f"1/mu = {_inverse_str(ab)}, "
             f"e^(1-mu) = {ab.e_one_minus_mu:.6g}, "
             f"e^(gamma-mu) = {ab.e_gamma_minus_mu:.6g}",
             f"e^(gamma-mu) dominated as required: {dom}"],
        )
        return 0 if dom else 1
    a, b = ns.prime_sums
    psb = bounds_mod.prime_sum_bounds(float(a), float(b))
    lines = [f"closed-form prime sum bounds for ({float(a)}, {float(b)}]:"]
    if psb.recip_sq_upper is not None:
        lines.append(f"  sum 1/p^2 <= {psb.recip_sq_upper:.6e}")
    else:
        lines.append("  sum 1/p^2 bound needs a >= 12")
    if psb.recip_lower is not None:
        lines.append(
            f"  {psb.recip_lower:.6f} <= sum 1/p <= {psb.recip_upper:.6f}"
        )
    else:
        lines.append("  sum 1/p bracket needs a >= 2")
    emit(
        ns,
        {"kind": "prime-sums", **dataclasses.asdict(psb)},
        lines,
    )
    return 0


# --------------------------------------------------------------- estimate


def _build_event(ns):
    from . import exact, montecarlo

    if ns.event in ("window", "in-t", "in-u"):
        if ns.lengths is not None:
            raise ValueError("--lengths applies only to --event avoids")
        if ns.window is None:
            raise ValueError(f"--window is required for event {ns.event}")
        window = exact.prime_window(ns.window[0], ns.window[1])
        cls = {
            "window": montecarlo.PreCycleInWindow,
            "in-t": montecarlo.InT,
            "in-u": montecarlo.InU,
        }[ns.event]
        return cls(window)
    if ns.window is not None:
        raise ValueError("--window applies only to --event window, in-t, in-u")
    if ns.lengths is None:
        raise ValueError("--lengths is required for event avoids")
    return montecarlo.Avoids(ns.lengths)


def cmd_estimate(ns) -> int:
    from . import montecarlo

    event = _build_event(ns)
    # the exact value comes first, so an over-bound window event is
    # refused before any sampling
    truth = (montecarlo.exact_event_proportion(ns.n, event, ns.group)
             if ns.compare_exact else None)
    est = montecarlo.estimate_event(
        ns.n,
        event,
        group=ns.group,
        trials=ns.trials,
        seed=ns.seed,
        level=ns.level,
    )
    payload = {"n": ns.n, "group": ns.group, "event": ns.event,
               **est.to_json_dict()}
    lines = [
        f"estimate over {est.trials} trials (seed {est.seed}): "
        f"p_hat = {est.p_hat:.6f}, Wilson interval "
        f"[{est.lower:.6f}, {est.upper:.6f}] "
        f"(level {est.level}, half-width {est.half_width:.6f})",
    ]
    if truth is not None:
        payload["exact"] = truth
        payload["within_interval"] = est.lower <= float(truth) <= est.upper
        lines.append(
            f"exact value {float(truth):.6f}; inside interval: "
            f"{payload['within_interval']}"
        )
    emit(ns, payload, lines)
    return 0


# -------------------------------------------------------------- recognize


def _build_source(ns) -> ElementSource:
    from . import recognize

    if ns.source in ("sym", "alt"):
        if ns.file is not None:
            raise ValueError("--file applies only to --source list, replay")
        if ns.n is None:
            raise ValueError("--n is required for uniform sources")
        parity = "even" if ns.source == "alt" else "any"
        return recognize.UniformSource(ns.n, parity, ns.seed)
    if ns.n is not None:
        raise ValueError("--n applies only to --source sym, alt")
    if ns.file is None:
        raise ValueError(f"--file is required for source {ns.source}")
    if ns.source == "list":
        return recognize.ListSource(
            recognize.load_element_list(ns.file), ns.seed
        )
    return recognize.ReplaySource(ns.file)


def cmd_recognize(ns) -> int:
    from . import recognize

    source = _build_source(ns)
    p_range = tuple(ns.p_range) if ns.p_range else None
    outcome = recognize.run_recognizer(
        source, ns.epsilon, ns.c0, p_range=p_range
    )
    payload = outcome.to_json_dict()
    lines = [f"source: {source.describe()}"]
    if outcome.found:
        lines.append(
            f"found after {outcome.draws_used} draws: prime "
            f"{outcome.prime}, exponent {outcome.exponent}"
        )
        lines.append(f"element: {payload['element']}")
        lines.append(f"certified cycle: {payload['cycle']}")
    else:
        lines.append(
            f"not found after {outcome.draws_used} draws "
            f"(failure probability <= {fraction_str(outcome.epsilon)} "
            f"if the source density is >= {fraction_str(outcome.c0)})"
        )
    emit(ns, payload, lines)
    return 0


# --------------------------------------------------------------- selftest


def cmd_selftest(ns) -> int:
    from . import acceptance

    only = None
    if ns.only:
        only = [int(tok) for tok in ns.only.split(",")]
    # progress lines are the text output; json and csv come at the end
    results = acceptance.run_all(
        only=only, echo=print if ns.format == "text" else None)
    ok = all(r.passed for r in results)
    emit(ns, {"criteria": [r.to_json_dict() for r in results], "ok": ok}, [])
    return 0 if ok else 1


# ------------------------------------------------------------------ main


def _add_common(sub, *, seed=False):
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precycles",
        description="statistics of permutations powering to a prime cycle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="exact densities")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None)
    p.add_argument("--coprime", type=int, nargs=2, metavar=("M", "P"),
                   default=None)
    p.add_argument("--cycles", action="store_true")
    p.add_argument("--group", choices=("sym", "alt"), default="sym")
    _add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("avoid", help="exact avoidance proportion and bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lengths", type=_parse_lengths, required=True,
                   metavar="L1,L2,...")
    p.add_argument("--group", choices=("sym", "alt"), default="sym")
    _add_common(p)
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("verify-primes",
                       help="prime-count, prime-sum and harmonic-gap sweeps")
    p.add_argument("--sieve-limit", type=int, default=DEFAULT_SIEVE_LIMIT)
    _add_common(p)
    p.set_defaults(func=cmd_verify_primes)

    p = sub.add_parser("verify-r2",
                       help="density floor sweep and exact small degrees")
    p.add_argument("--max", type=int, default=400_000)
    p.add_argument("--threshold", type=rational, default=Fraction(1, 19))
    p.add_argument("--exact-upto", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_verify_r2)

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    p.add_argument("--sample-count", type=rational, nargs=2,
                   metavar=("EPSILON", "C0"), default=None)
    p.add_argument("--window-bound", type=rational, nargs=4,
                   metavar=("N", "A", "D", "DELTA"), default=None)
    p.add_argument("--headline", type=int, nargs=2,
                   metavar=("N", "DELTA"), default=None)
    p.add_argument("--variant", choices=("stated", "proof"), default=None)
    p.add_argument("--avoidance", type=rational, metavar="MU", default=None)
    p.add_argument("--prime-sums", type=float, nargs=2, metavar=("A", "B"),
                   default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("estimate", help="Monte Carlo event estimation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--event",
                   choices=("window", "avoids", "in-t", "in-u"),
                   required=True)
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None)
    p.add_argument("--lengths", type=_parse_lengths, default=None,
                   metavar="L1,L2,...")
    p.add_argument("--group", choices=("sym", "alt"), default="sym")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--level", type=rational,
                   default=Fraction(99, 100))
    p.add_argument("--compare-exact", action="store_true")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("recognize",
                       help="search a source for a pre-p-cycle element")
    p.add_argument("--source", choices=("sym", "alt", "list", "replay"),
                   default="sym")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--file", type=str, default=None)
    p.add_argument("--epsilon", type=rational, default=Fraction(1, 100))
    p.add_argument("--c0", type=rational, default=Fraction(1, 19))
    p.add_argument("--p-range", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", type=str, default=None,
                   metavar="1,2,...")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _usage_errors() -> tuple:
    """The errors that exit 2: ValueError, OSError, and the recognizer's
    SourceError once a command has loaded that layer."""
    recognize = sys.modules.get(f"{__package__}.recognize")
    return (ValueError, OSError) + ((recognize.SourceError,) if recognize else ())


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
