"""Run the dynamics on the smallest interesting instance and on a mesh.

Two unit requests over two identical parallel edges start bundled on the
same edge (cheapest standalone choice) and split after one step, reaching
the optimum.  A larger routing mesh shows the trace, the theoretical step
budget and the empirical ratio against brute force.
"""

from gndes import (
    AbrdConfig,
    Edge,
    ExponentProfile,
    HostGraph,
    Instance,
    Request,
    ResourceParams,
    Routing,
    run_abrd,
)
from gndes.analysis import brute_force_opt
from gndes.engine import run_report, trace_to_csv

parallel = Instance(
    exponents=ExponentProfile((2.0,)),
    resources=(ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 1.0, (1.0,))),
    requests=tuple(Request(id=i, kind=Routing("s", "t")) for i in (1, 2)),
    graph=HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t"))),
)

result = run_abrd(parallel, AbrdConfig(epsilon=0.01, seed=0))
print("parallel edges, exact Shapley shares:")
print(trace_to_csv(result))
print(f"initial profile shares one edge at cost {result.trace[0].cost:g}; "
      f"one move reaches the optimum {result.output_cost:g}\n")

mesh = HostGraph(
    directed=False,
    vertices=("a", "b", "c", "d"),
    edges=(
        Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("cd", "c", "d"),
        Edge("ad", "a", "d"), Edge("bd", "b", "d"),
    ),
)
instance = Instance(
    exponents=ExponentProfile((2.0,)),
    resources=(
        ResourceParams("ab", 2.0, (1.0,)),
        ResourceParams("bc", 1.0, (0.5,)),
        ResourceParams("cd", 2.0, (1.0,)),
        ResourceParams("ad", 4.0, (2.0,)),
        ResourceParams("bd", 1.0, (1.0,)),
    ),
    requests=(
        Request(id=1, kind=Routing("a", "c")),
        Request(id=2, kind=Routing("b", "d"), default_weight=2),
        Request(id=3, kind=Routing("a", "d")),
    ),
    graph=mesh,
)

result = run_abrd(instance, AbrdConfig(epsilon=0.01, seed=7))
print("routing mesh, three weighted requests:")
print(run_report(instance, result, brute_force_opt(instance)[1]))

print("the same run with randomized player selection (budget N*T^2):")
rand = run_abrd(instance, AbrdConfig(epsilon=0.01, seed=7, selection="randomized"))
print(f"  budget {rand.step_budget}, best cost {rand.best_cost:g}, "
      f"converged at {rand.converged_at}")

print("\nlast-profile output (no roll back) pays at most ceil(alpha)*H_N more:")
last = run_abrd(instance, AbrdConfig(epsilon=0.01, seed=7, output="last"))
print(f"  last cost {last.output_cost:g} vs best {last.best_cost:g}")
