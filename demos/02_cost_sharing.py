"""Compare the cost-sharing mechanisms on one resource.

Proportional sharing splits the full cost by weight; Shapley sharing pays
each user her expected marginal contribution over a random arrival order.
Both are budget balanced.  The sampled Shapley variant trades exactness for
speed with an explicit (1 +- epsilon) guarantee; its Hoeffding sample count
uses the range every marginal lies in, [h(w), h(L) - h(L - w)].  The demo
hands the estimator that count directly, so it samples even on this
two-user resource; the dynamics take the exact share for this query at
every epsilon shown (``samples_needed`` is 0), because counting its subsets
is expected to take less time than drawing that many permutations.
"""

from gndes import ExponentProfile, ResourceParams, rep_cost
from gndes.rng import keyed_rng
from gndes.sharing import (
    ShareQuery,
    hoeffding_sample_count,
    proportional_share,
    rep_expansion_check,
    shapley_exact,
    shapley_sampled,
)

exponents = ExponentProfile((2.0,))
resource = ResourceParams("link", sigma=6.0, xis=(1.0,))
users = ((1, 1), (2, 2))   # request 1 weighs 1, request 2 weighs 2

full = rep_cost(resource, exponents, 3)
print(f"resource cost at load 3: {full:g}\n")

for target in (1, 2):
    q = ShareQuery(resource, exponents, users, target=target)
    print(f"request {target} (weight {q.target_weight}):")
    print(f"  proportional : {proportional_share(q):g}")
    print(f"  shapley      : {shapley_exact(q):g}")

print("\nboth mechanisms are budget balanced:")
for name, fn in (("proportional", proportional_share), ("shapley", shapley_exact)):
    total = sum(fn(ShareQuery(resource, exponents, users, target=i)) for i, _ in users)
    print(f"  {name}: shares sum to {total:g}")

q = ShareQuery(resource, exponents, users, target=1)
exact = shapley_exact(q)
print(f"\nsampling the Shapley share of request 1 (exact {exact:g}):")
for eps in (0.3, 0.1, 0.03):
    m = hoeffding_sample_count(q, eps, 0.01)
    est = shapley_sampled(q, keyed_rng(42, eps), m)
    print(f"  eps={eps:<5} samples={m:<6} estimate={est:.4f}")

print("\nshare bound certificate (the inequality behind the smoothness proof):")
for label, mech in (("proportional", "proportional"), ("shapley", "shapley-exact")):
    chk = rep_expansion_check(mech, q)
    print(f"  {label}: share {chk.share:g} <= bound {chk.bound:g} -> {chk.ok}")
