"""Exercise the verification toolkit on a small weighted instance.

The Shapley game admits an exact potential: any unilateral deviation moves
the potential by exactly the deviator's cost change.  The potential stays
within [C/ceil(alpha), H_N * C], and the game satisfies the smoothness
inequality with the certified constants, which caps the price of anarchy.
"""

from gndes import (
    ExplicitReplies,
    ExponentProfile,
    Instance,
    Request,
    ResourceParams,
    total_cost,
)
from gndes.analysis import (
    potential,
    potential_bounds_check,
    potential_by_prefix,
    potential_exactness_check,
    smoothness_check,
)
from gndes.bounds import harmonic, smoothness_constants

instance = Instance(
    exponents=ExponentProfile((2.0,)),
    resources=(
        ResourceParams("x", 6.0, (1.0,)),
        ResourceParams("y", 2.0, (1.0,)),
    ),
    requests=(
        Request(id=1, kind=ExplicitReplies((frozenset({"x"}), frozenset({"y"}))),
                weights={"x": 1, "y": 1}),
        Request(id=2, kind=ExplicitReplies((frozenset({"x"}), frozenset({"x", "y"}))),
                weights={"x": 2, "y": 1}),
    ),
)

profile = (frozenset({"x"}), frozenset({"x"}))
phi = potential(instance, profile)
cost = total_cost(instance, profile)
print(f"profile cost {cost:g}, potential {phi:g}")
print(f"  order-free subset form : {phi:g}")
print(f"  prefix form, id order  : {potential_by_prefix(instance, profile):g}")
print(f"  prefix form, reversed  : "
      f"{potential_by_prefix(instance, profile, {'x': (2, 1)}):g}")

print("\nexact-potential identity under a unilateral deviation:")
check = potential_exactness_check(instance, profile, 0, frozenset({"y"}))
print(f"  delta potential {check.delta_potential:+.6f} == "
      f"delta cost {check.delta_cost:+.6f} -> {check.ok}")

profiles = [
    (frozenset({"x"}), frozenset({"x"})),
    (frozenset({"y"}), frozenset({"x"})),
    (frozenset({"x"}), frozenset({"x", "y"})),
    (frozenset({"y"}), frozenset({"x", "y"})),
]
report = potential_bounds_check(instance, profiles)
a, b = harmonic(2), 2
print(f"\npotential bounds C/{b} <= Phi <= {a:g}*C on {report.profiles_tested} "
      f"profiles: {'ok' if report.ok else 'VIOLATED'}")

for mechanism in ("proportional", "shapley-exact"):
    lam, mu = smoothness_constants(instance, mechanism)
    rep = smoothness_check(instance, mechanism, lam, mu)
    print(f"smoothness ({mechanism}): {rep.pairs_tested} pairs, "
          f"max ratio {rep.max_ratio:.3f} vs lambda {lam:.0f} -> "
          f"{'ok' if rep.ok else 'VIOLATED'}")
