"""Command-line front end.

Exit codes: 0 success, 1 smoothness violation found by ``smooth``,
2 parse/configuration error, 3 infeasibility, 4 enumeration refusal.  All
reals are printed with 9 significant digits; CSV output uses '.' decimals
and LF line endings regardless of locale.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import (
    brute_force_opt,
    enumerate_nash,
    nash_report_csv,
    poa_lower_bound_instance,
    smoothness_check,
    smoothness_report_csv,
)
from .bounds import smoothness_constants, theoretical_bounds
from .engine import AbrdConfig, result_to_json_dict, run_abrd, run_report, trace_to_csv
from .errors import (
    ConfigError,
    EnumerationLimitError,
    GndesError,
    InfeasibleError,
    InstanceError,
    ParseError,
)
from .fpl import FplConfig, regret_trace_to_csv, run_l_apx
from .io import parse_instance, write_instance

CSM_CHOICES = ("proportional", "shapley", "shapley-sampled")

_MECHANISM = {
    "proportional": "proportional",
    "shapley": "shapley-exact",
    "shapley-sampled": "shapley-sampled",
}

BIG_BUDGET_WARNING = 1_000_000


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_solve(args) -> int:
    instance = parse_instance(args.instance)
    config = AbrdConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        mechanism=_MECHANISM[args.csm],
        selection="deterministic" if args.selection == "det" else "randomized",
        output=args.output,
        step_budget_override=args.max_steps,
    )
    hook = brute_force_opt if args.brute else None
    result = run_abrd(instance, config, brute_force=hook)
    if result.step_budget > BIG_BUDGET_WARNING and not result.budget_overridden:
        print(f"warning: step budget {result.step_budget} is very large; "
              "consider --max-steps (voids the ratio guarantee)", file=sys.stderr)
    if args.trace:
        _write_text(args.trace, trace_to_csv(result))
    if args.json:
        print(json.dumps(result_to_json_dict(instance, result), indent=2))
    else:
        sys.stdout.write(run_report(instance, result))
    return 0


def _cmd_brute(args) -> int:
    instance = parse_instance(args.instance)
    profile, cost = brute_force_opt(instance)
    if args.json:
        print(json.dumps({
            "opt_cost": cost,
            "opt_profile": [sorted(r) for r in profile],
        }, indent=2))
    else:
        print("brute-force optimum")
        print(f"  cost  {_fmt(cost)}")
        for req, reply in zip(instance.requests, profile):
            print(f"  request {req.id}: {{{', '.join(sorted(reply))}}}")
    return 0


def _cmd_nash(args) -> int:
    instance = parse_instance(args.instance)
    mechanism = _MECHANISM[args.csm]
    if args.csv:
        report, text = nash_report_csv(instance, mechanism)
        _write_text(args.csv, text)
    else:
        report = enumerate_nash(instance, mechanism)
    if args.json:
        print(json.dumps({
            "nash_count": len(report.nash_profiles),
            "worst_nash_cost": report.worst_nash_cost,
            "opt_cost": report.opt_cost,
            "poa": report.poa,
        }, indent=2))
    else:
        print("pure equilibria")
        print(f"  mechanism       {mechanism}")
        print(f"  equilibria      {len(report.nash_profiles)}")
        if report.worst_nash_cost is not None:
            print(f"  worst NE cost   {_fmt(report.worst_nash_cost)}")
        print(f"  optimum         {_fmt(report.opt_cost)}")
        if report.poa is not None:
            print(f"  PoA             {_fmt(report.poa)}")
    return 0


def _cmd_smooth(args) -> int:
    instance = parse_instance(args.instance)
    mechanism = _MECHANISM[args.csm]
    lam, mu = smoothness_constants(instance, mechanism)
    if args.csv:
        report, text = smoothness_report_csv(instance, mechanism, lam, mu,
                                             max_pairs=args.pairs, seed=args.seed)
        _write_text(args.csv, text)
    else:
        report = smoothness_check(instance, mechanism, lam, mu,
                                  max_pairs=args.pairs, seed=args.seed)
    if args.json:
        print(json.dumps({
            "lambda": report.lam, "mu": report.mu,
            "pairs_tested": report.pairs_tested,
            "max_ratio": report.max_ratio,
            "violations": report.violations,
            "pass": report.ok,
        }, indent=2))
    else:
        print("smoothness check")
        print(f"  mechanism     {mechanism}")
        print(f"  lambda        {_fmt(report.lam)}")
        print(f"  mu            {_fmt(report.mu)}")
        print(f"  pairs tested  {report.pairs_tested}")
        print(f"  max ratio     {_fmt(report.max_ratio)}")
        print(f"  result        {'pass' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _cmd_poa_gen(args) -> int:
    instance = poa_lower_bound_instance(args.sigma, args.xi, args.alpha, q=args.q)
    write_instance(instance, args.out)
    print(f"wrote {args.out}: {len(instance.resources)} resources, "
          f"{instance.n_requests} requests")
    return 0


def _cmd_fpl(args) -> int:
    if args.lb is not None and not (math.isfinite(args.lb) and args.lb >= 0):
        raise ConfigError(f"--lb must be a finite number >= 0, got {args.lb}")
    instance = parse_instance(args.instance)
    result = run_l_apx(instance, FplConfig(seed=args.seed, rounds=args.rounds),
                       collect_trace=bool(args.trace))
    if args.trace:
        _write_text(args.trace, regret_trace_to_csv(result))
    if args.json:
        print(json.dumps({
            "rounds": result.rounds,
            "theoretical_rounds": result.theoretical_rounds,
            "eta": result.eta,
            "scale": result.scale,
            "chosen_round": result.chosen_round,
            "cost": result.cost,
            "regrets": list(result.regrets),
            "profile": [sorted(r) for r in result.profile],
        }, indent=2))
    else:
        print("perturbed-leader run")
        print(f"  rounds             {result.rounds}"
              f" (theoretical {result.theoretical_rounds})")
        print(f"  eta                {_fmt(result.eta)}")
        print(f"  cost scale         {_fmt(result.scale)}")
        print(f"  chosen round       {result.chosen_round}")
        print(f"  output cost        {_fmt(result.cost)}")
        for rid, reg in zip((r.id for r in instance.requests), result.regrets):
            print(f"  regret[{rid}]          {_fmt(reg)}")
        if args.lb is not None:
            print(f"  guarantee conditional on scaled optimum >= {_fmt(args.lb)}")
        else:
            print("  no optimum lower bound given; the approximation guarantee is conditional")
    return 0


def _cmd_bounds(args) -> int:
    instance = parse_instance(args.instance)
    b = theoretical_bounds(instance, _MECHANISM[args.csm], args.epsilon)
    if args.json:
        print(json.dumps({
            "epsilon1": b.epsilon1, "gamma_alpha": b.gamma_alpha,
            "lambda_alpha": b.lambda_alpha, "lambda": b.lam, "mu": b.mu,
            "A": b.A, "B": b.B, "Q": b.Q, "T": b.T,
            "ratio_bound": b.ratio_bound, "rho": b.rho,
        }, indent=2))
    else:
        print("theoretical constants")
        print(f"  rho           {_fmt(b.rho)}")
        print(f"  epsilon1      {_fmt(b.epsilon1)}")
        print(f"  gamma_alpha   {_fmt(b.gamma_alpha)}")
        print(f"  lambda_alpha  {_fmt(b.lambda_alpha)}")
        print(f"  lambda        {_fmt(b.lam)}")
        print(f"  mu            {_fmt(b.mu)}")
        print(f"  A             {_fmt(b.A)}")
        print(f"  B             {_fmt(b.B)}")
        print(f"  Q             {_fmt(b.Q)}")
        print(f"  T             {b.T}")
        print(f"  ratio bound   {_fmt(b.ratio_bound)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gndes",
        description="Cost-sharing games and best-response dynamics for "
                    "network design with startup-plus-power costs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the dynamics on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--csm", choices=CSM_CHOICES, default="shapley")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--selection", choices=("det", "rand"), default="det")
    p.add_argument("--output", choices=("best", "last"), default="best")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--brute", action="store_true",
                   help="also brute-force the optimum and report the ratio")
    p.add_argument("--trace", default=None, help="write the step trace CSV here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("brute", help="brute-force the optimal profile")
    p.add_argument("--instance", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("nash", help="enumerate pure equilibria and the PoA")
    p.add_argument("--instance", required=True)
    p.add_argument("--csm", choices=("proportional", "shapley"), default="shapley")
    p.add_argument("--csv", default=None, help="write one row per profile here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_nash)

    p = sub.add_parser("smooth", help="check the smoothness inequality")
    p.add_argument("--instance", required=True)
    p.add_argument("--csm", choices=("proportional", "shapley"), default="shapley")
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="write one row per checked pair here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("poa-gen", help="emit a worst-case hub-and-spoke instance")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_poa_gen)

    p = sub.add_parser("fpl", help="run the perturbed-leader learner (routing only)")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--lb", type=float, default=None,
                   help="known lower bound on the scaled optimum")
    p.add_argument("--trace", default=None, help="write the regret trace CSV here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fpl)

    p = sub.add_parser("bounds", help="print the theoretical constants that solve guarantees")
    p.add_argument("--instance", required=True)
    p.add_argument("--csm", choices=("proportional", "shapley"), default="shapley")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except EnumerationLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except (InstanceError, GndesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
