"""Command-line front end.

Exit codes, as ``main`` decides them: 0 success, 1 a smoothness violation
found by ``smooth``, 3 an ``InfeasibleError``, 4 an ``EnumerationLimitError``
(a refused enumeration), and 2 any other ``GndesError`` (a parse or
configuration error, a constant past the largest double) or ``OSError`` (a
file that cannot be read or written); argparse also exits 2 on a malformed
command line.  Every command prints and writes through the output rule of
``gndes.io``: reals to 9 significant digits, an empty field for a missing
value, ``true``/``false``, CSV with '.' decimals and LF line endings
regardless of locale, and JSON with a two-space indent.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

from .analysis import (
    brute_force_opt,
    enumerate_nash,
    nash_report_csv,
    poa_lower_bound_instance,
    smoothness_check,
    smoothness_report_csv,
)
from .bounds import smoothness_constants, theoretical_bounds
from .engine import (AbrdConfig, result_to_json_dict, run_abrd, run_report, step_budget,
                     trace_to_csv)
from .errors import ConfigError, EnumerationLimitError, GndesError, InfeasibleError
from .fpl import FplConfig, regret_trace_to_csv, run_l_apx
from .io import json_text, parse_instance, report_text, write_instance, write_text

# the --csm names and the mechanism each selects; nash, smooth and bounds take
# the exact ones
_MECHANISM = {
    "proportional": "proportional",
    "shapley": "shapley-exact",
    "shapley-sampled": "shapley-sampled",
}
_EXACT_CSM = tuple(name for name, mechanism in _MECHANISM.items()
                   if mechanism != "shapley-sampled")

BIG_BUDGET_WARNING = 1_000_000


def _emit(args, doc: dict, report: str):
    """The command's JSON document under ``--json``, else its text report."""
    sys.stdout.write(json_text(doc) if args.json else report)


def _walk(args, report_csv, check, *inputs, **options):
    """The report of a verification walk, ``check(*inputs, **options)``; under
    ``--csv`` the same walk, through ``report_csv``, also writes its rows there."""
    if not args.csv:
        return check(*inputs, **options)
    report, text = report_csv(*inputs, **options)
    write_text(args.csv, text)
    return report


def _cmd_solve(args, instance) -> int:
    config = AbrdConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        mechanism=_MECHANISM[args.csm],
        selection="deterministic" if args.selection == "det" else "randomized",
        output=args.output,
        step_budget_override=args.max_steps,
    )
    budget = step_budget(instance, config,
                         theoretical_bounds(instance, config.mechanism, config.epsilon))
    if budget > BIG_BUDGET_WARNING and args.max_steps is None:
        print(f"warning: step budget {budget} is very large; "
              "consider --max-steps (voids the ratio guarantee)", file=sys.stderr)
    result = run_abrd(instance, config)
    opt_cost = brute_force_opt(instance)[1] if args.brute else None
    if args.trace:
        write_text(args.trace, trace_to_csv(result))
    _emit(args, result_to_json_dict(instance, result, opt_cost),
          run_report(instance, result, opt_cost))
    return 0


def _cmd_brute(args, instance) -> int:
    profile, cost = brute_force_opt(instance)
    _emit(args, {"opt_cost": cost, "opt_profile": [sorted(r) for r in profile]},
          report_text("brute-force optimum", [
              ("cost", cost),
              *((f"request {req.id}: ", "{" + ", ".join(sorted(reply)) + "}")
                for req, reply in zip(instance.requests, profile))], 6))
    return 0


def _cmd_nash(args, instance) -> int:
    mechanism = _MECHANISM[args.csm]
    report = _walk(args, nash_report_csv, enumerate_nash, instance, mechanism)
    rows = [("mechanism", mechanism), ("equilibria", len(report.nash_profiles)),
            ("worst NE cost", report.worst_nash_cost), ("optimum", report.opt_cost),
            ("PoA", report.poa)]
    _emit(args, {
        "nash_count": len(report.nash_profiles),
        "worst_nash_cost": report.worst_nash_cost,
        "opt_cost": report.opt_cost,
        "poa": report.poa,
    }, report_text("pure equilibria",
                   # a report without equilibria has no worst NE cost and no PoA
                   [row for row in rows if row[1] is not None], 16))
    return 0


def _cmd_smooth(args, instance) -> int:
    mechanism = _MECHANISM[args.csm]
    lam, mu = smoothness_constants(instance, mechanism)
    report = _walk(args, smoothness_report_csv, smoothness_check, instance, mechanism,
                   lam, mu, max_pairs=args.pairs, seed=args.seed)
    _emit(args, {
        "lambda": report.lam, "mu": report.mu,
        "pairs_tested": report.pairs_tested,
        "max_ratio": report.max_ratio,
        "violations": report.violations,
        "pass": report.ok,
    }, report_text("smoothness check", [
        ("mechanism", mechanism),
        ("lambda", report.lam),
        ("mu", report.mu),
        ("pairs tested", report.pairs_tested),
        ("max ratio", report.max_ratio),
        ("result", "pass" if report.ok else "FAIL"),
    ], 14))
    return 0 if report.ok else 1


def _cmd_poa_gen(args) -> int:
    instance = poa_lower_bound_instance(args.sigma, args.xi, args.alpha, q=args.q)
    write_instance(instance, args.out)
    print(f"wrote {args.out}: {len(instance.resources)} resources, "
          f"{instance.n_requests} requests")
    return 0


def _cmd_fpl(args, instance) -> int:
    if args.lb is not None and not (math.isfinite(args.lb) and args.lb >= 0):
        raise ConfigError(f"--lb must be a finite number >= 0, got {args.lb}")
    result = run_l_apx(instance, FplConfig(seed=args.seed, rounds=args.rounds),
                       collect_trace=bool(args.trace))
    if args.trace:
        write_text(args.trace, regret_trace_to_csv(result))
    if args.lb is not None:
        caveat = ("guarantee conditional on scaled optimum >= ", args.lb)
    else:
        caveat = ("no optimum lower bound given; the approximation guarantee is conditional", None)
    _emit(args, {
        "rounds": result.rounds,
        "theoretical_rounds": result.theoretical_rounds,
        "eta": result.eta,
        "scale": result.scale,
        "chosen_round": result.chosen_round,
        "cost": result.cost,
        "regrets": list(result.regrets),
        "profile": [sorted(r) for r in result.profile],
    }, report_text("perturbed-leader run", [
        ("rounds", f"{result.rounds} (theoretical {result.theoretical_rounds})"),
        ("eta", result.eta),
        ("cost scale", result.scale),
        ("chosen round", result.chosen_round),
        ("output cost", result.cost),
        *((f"regret[{req.id}]", reg) for req, reg in zip(instance.requests, result.regrets)),
        caveat,
    ], 19))
    return 0


def _cmd_bounds(args, instance) -> int:
    b = theoretical_bounds(instance, _MECHANISM[args.csm], args.epsilon)
    _emit(args, dict(b.named()),
          report_text("theoretical constants", b.labelled(ratio_bound="ratio bound"), 14))
    return 0


@contextmanager
def _command(sub, name: str, func, about: str, csm=None):
    """Declare a command that reads ``--instance``, and ``--csm`` when ``csm``
    names its choices; the options the body adds follow, then ``--json``.
    The command runs as ``func(args, instance)`` on the parsed instance."""
    p = sub.add_parser(name, help=about)
    p.add_argument("--instance", required=True)
    if csm is not None:
        p.add_argument("--csm", choices=csm, default="shapley")
    yield p
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=lambda args: func(args, parse_instance(args.instance)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gndes",
        description="Cost-sharing games and best-response dynamics for "
                    "network design with startup-plus-power costs.")
    sub = parser.add_subparsers(dest="command", required=True)

    with _command(sub, "solve", _cmd_solve, "run the dynamics on an instance file",
                  tuple(_MECHANISM)) as p:
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--selection", choices=("det", "rand"), default="det")
        p.add_argument("--output", choices=("best", "last"), default="best")
        p.add_argument("--max-steps", type=int, default=None)
        p.add_argument("--brute", action="store_true",
                       help="also brute-force the optimum and report the ratio")
        p.add_argument("--trace", default=None, help="write the step trace CSV here")

    with _command(sub, "brute", _cmd_brute, "brute-force the optimal profile"):
        pass

    with _command(sub, "nash", _cmd_nash, "enumerate pure equilibria and the PoA",
                  _EXACT_CSM) as p:
        p.add_argument("--csv", default=None, help="write one row per profile here")

    with _command(sub, "smooth", _cmd_smooth, "check the smoothness inequality", _EXACT_CSM) as p:
        p.add_argument("--pairs", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--csv", default=None, help="write one row per checked pair here")

    p = sub.add_parser("poa-gen", help="emit a worst-case hub-and-spoke instance")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_poa_gen)

    with _command(sub, "fpl", _cmd_fpl, "run the perturbed-leader learner (routing only)") as p:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument("--lb", type=float, default=None,
                       help="known lower bound on the scaled optimum")
        p.add_argument("--trace", default=None, help="write the regret trace CSV here")

    with _command(sub, "bounds", _cmd_bounds,
                  "print the theoretical constants that solve guarantees", _EXACT_CSM) as p:
        p.add_argument("--epsilon", type=float, default=0.01)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except EnumerationLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except (GndesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
