"""One tolerance rule: costs have no unit.

The paper's approximation ratio depends only on the resources' technology
parameters, the ratios sigma/xi and the exponents alpha, so an instance
written in another cost unit is the same instance.  The package compares
floats in one place, ``instance.exceeds``: ``a`` exceeds ``b`` when
``a - b > REL_TOL * max(|a|, |b|, |scale|...)``.  No toll is floored, no
slack has an absolute part, and FPL's normalization scale has no floor.

So multiplying every sigma and factor by 2^k, which multiplies every cost,
share and potential by 2^k without rounding, multiplies every trace value of
a run by 2^k exactly and changes no move, no verdict, no count and no ratio.
The scan below keeps absolute thresholds out of the package: a float literal
between 0 and 1e-3, other than REL_TOL's one definition, fails it, as does a
name of the thresholds the rule replaced.
"""

import ast
import math
from dataclasses import replace
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import gndes
from gndes import (
    AbrdConfig,
    Edge,
    ExplicitReplies,
    ExponentProfile,
    FplConfig,
    HostGraph,
    Instance,
    MachineChoice,
    MultiRouting,
    ProfileState,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
    ShareQuery,
    budget_balance_check,
    enumerate_nash,
    potential_bounds_check,
    potential_exactness_check,
    rep_expansion_check,
    run_abrd,
    run_l_apx,
    smoothness_check,
)
from gndes.analysis import enumerate_profiles
from gndes.instance import REL_TOL, exceeds
from gndes.sharing import MECHANISMS

PACKAGE = Path(gndes.__file__).resolve().parent

RETIRED = frozenset({"ABS_TOL", "TOLL_FLOOR", "clamp_toll"})


def rel_tol_definitions(tree: ast.AST) -> list[ast.Assign]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["REL_TOL"]]


def threshold_findings(source: str, filename: str) -> list[tuple[str, int, str]]:
    """(file, line, what) of every float literal strictly between 0 and
    1e-3 other than the value of a ``REL_TOL = ...`` assignment, and of
    every use, definition or import of a retired threshold's name."""
    tree = ast.parse(source)
    exempt = {id(node.value) for node in rel_tol_definitions(tree)}
    findings = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0.0 < node.value < 1e-3 and id(node) not in exempt):
            findings.append((filename, node.lineno, repr(node.value)))
        if isinstance(node, ast.alias):
            names = (node.name, node.asname)
        else:
            names = (getattr(node, attr, None) for attr in ("id", "attr", "name"))
        findings.extend((filename, node.lineno, name) for name in names if name in RETIRED)
    return sorted(findings)


def test_the_package_holds_no_absolute_threshold():
    findings = [f for path in sorted(PACKAGE.glob("*.py"))
                for f in threshold_findings(path.read_text(encoding="utf-8"), path.name)]
    assert findings == []


def test_rel_tol_is_defined_once_in_instance():
    definitions = [path.name for path in sorted(PACKAGE.glob("*.py"))
                   for _ in rel_tol_definitions(ast.parse(path.read_text(encoding="utf-8")))]
    assert definitions == ["instance.py"]


@pytest.mark.parametrize("source, expected", [
    ("slack = 1e-12\n", [(1, "1e-12")]),
    ("if alt < own - 1e-9:\n    pass\n", [(1, "1e-09")]),
    ("x = -5e-4\n", [(1, "0.0005")]),
    ("ok = share <= bound * (1.0 + 1e-9) + 1e-12\n", [(1, "1e-09"), (1, "1e-12")]),
    ("OTHER_TOL = 1e-9\n", [(1, "1e-09")]),
    ("REL_TOL = 1e-9\nABS_TOL = 1e-12\n", [(2, "1e-12"), (2, "ABS_TOL")]),
    ("from .oracles import clamp_toll\n", [(1, "clamp_toll")]),
    ("from .oracles import floor as TOLL_FLOOR\n", [(1, "TOLL_FLOOR")]),
    ("t = oracles.TOLL_FLOOR\n", [(1, "TOLL_FLOOR")]),
    ("def clamp_toll(t):\n    return t\n", [(1, "clamp_toll")]),
    ("REL_TOL = 1e-9\n", []),
    ("ok = x <= 1e-3 or y > 0.5 or z > 0.0 or n > 1\n", []),
], ids=["constant", "slack", "negative", "two", "other-name", "abs-tol", "import",
        "import-as", "attribute", "definition", "rel-tol", "clean"])
def test_the_scan_sees_each_planted_threshold(source, expected):
    assert threshold_findings(source, "m.py") == sorted(
        ("m.py", line, what) for line, what in expected)


class TestExceeds:
    def test_the_margin_is_relative_to_the_largest_magnitude(self):
        assert exceeds(1.0 + 2e-9, 1.0) and not exceeds(1.0 + 0.5e-9, 1.0)
        assert not exceeds(1.0 + 2e-9, 1.0, 4.0) and exceeds(1.0 + 5e-9, 1.0, -4.0)
        assert not exceeds(1.0, 1.0 + 2e-9)

    @pytest.mark.parametrize("k", [-1000, -60, 0, 60, 1000])
    def test_a_power_of_two_changes_no_answer(self, k):
        for a, b, scale in product([0.0, 1.0, 1.0 + 2e-9, 1.0 - 2e-9, 3.0], repeat=3):
            assert (exceeds(math.ldexp(a, k), math.ldexp(b, k), math.ldexp(scale, k))
                    == exceeds(a, b, scale))

    def test_zero_exceeds_nothing_and_anything_positive_exceeds_zero(self):
        assert not exceeds(0.0, 0.0)
        assert exceeds(5e-324, 0.0) and not exceeds(0.0, 5e-324)
        assert REL_TOL == 1e-9


def test_budget_balance_is_relative_to_the_cost():
    exponents = ExponentProfile((2.0,))
    for k in (-1000, 0, 1000):
        res = ResourceParams("r", math.ldexp(1.0, k), (math.ldexp(3.0, k),))
        report = budget_balance_check("shapley-exact", [(res, exponents, ((1, 2), (2, 3)))])
        assert report.ok and report.max_rel_gap < REL_TOL
    # a resource nobody uses costs 0 and has no shares: its gap is 0
    unused = budget_balance_check("proportional", [(res, exponents, ())])
    assert (unused.queries_tested, unused.max_rel_gap) == (1, 0.0)


# ---------------------------------------------------------------------------
# metamorphic: every cost multiplied by 2^k
# ---------------------------------------------------------------------------

def scaled(instance: Instance, k: int) -> Instance:
    """The instance with every sigma and factor multiplied by 2^k."""
    return replace(instance, resources=tuple(
        ResourceParams(r.id, math.ldexp(r.sigma, k), tuple(math.ldexp(x, k) for x in r.xis))
        for r in instance.resources))


def times(value, k: int):
    return None if value is None else math.ldexp(value, k)


EXACT = ("proportional", "shapley-exact")
MAX_PROFILES = 300
DEVIATIONS = 40
PAIRS = 150


def assert_no_run_or_verdict_changes(instance: Instance, k: int, lam: float, mu: float,
                                     seed: int, selection: str, deviations=DEVIATIONS):
    """Every run on the instance scaled by 2^k has its values times 2^k, and
    every verdict, count and ratio on it is the unscaled one; ``deviations``
    is how many unilateral deviations go through the exactness check (None:
    all of them)."""
    big = scaled(instance, k)
    budget = None if selection == "deterministic" else 20
    for mechanism in MECHANISMS:
        config = AbrdConfig(mechanism=mechanism, seed=seed, selection=selection,
                            step_budget_override=budget)
        base, run = run_abrd(instance, config), run_abrd(big, config)
        assert [(s.step, s.player, s.converged) for s in run.trace] == [
            (s.step, s.player, s.converged) for s in base.trace], mechanism
        for s, t in zip(base.trace, run.trace):
            assert (t.cost, t.potential, t.delta_selected, t.delta_total) == (
                times(s.cost, k), times(s.potential, k), times(s.delta_selected, k),
                times(s.delta_total, k)), (mechanism, s.step)
        assert run.output_profile == base.output_profile
        assert run.output_cost == times(base.output_cost, k)
        assert (run.sampled_shares, run.sample_cap_hits) == (
            base.sampled_shares, base.sample_cap_hits)

    if all(isinstance(req.kind, Routing) for req in instance.requests):
        config = FplConfig(seed=seed, rounds=12)
        base, run = run_l_apx(instance, config), run_l_apx(big, config)
        assert (run.profile, run.regrets, run.chosen_round) == (
            base.profile, base.regrets, base.chosen_round)
        assert (run.cost, run.scale) == (times(base.cost, k), times(base.scale, k))

    candidates, _ = enumerate_profiles(instance)
    profiles = [tuple(c) for c in product(*candidates)]
    for mechanism in EXACT:
        base, nash = enumerate_nash(instance, mechanism), enumerate_nash(big, mechanism)
        assert nash.nash_profiles == base.nash_profiles, mechanism
        assert (nash.opt_cost, nash.worst_nash_cost) == (
            times(base.opt_cost, k), times(base.worst_nash_cost, k))
        assert nash.poa == base.poa
        assert (smoothness_check(big, mechanism, lam, mu, PAIRS, seed)
                == smoothness_check(instance, mechanism, lam, mu, PAIRS, seed)), mechanism

    assert potential_bounds_check(big, profiles) == potential_bounds_check(instance, profiles)

    for p, pos, alt in islice(((p, pos, alt) for p in profiles
                               for pos, cands in enumerate(candidates)
                               for alt in cands if alt != p[pos]), deviations):
        base = potential_exactness_check(instance, p, pos, alt)
        check = potential_exactness_check(big, p, pos, alt)
        assert check.ok == base.ok
        assert (check.delta_potential, check.delta_cost) == (
            times(base.delta_potential, k), times(base.delta_cost, k))

    def queries(inst):
        return [(inst.resource_by_id[e], inst.exponents, users) for p in profiles[:DEVIATIONS]
                for e, users in sorted(ProfileState(inst, p).users.items())]

    base_queries, big_queries = queries(instance), queries(big)
    for mechanism in EXACT:
        assert (budget_balance_check(mechanism, big_queries)
                == budget_balance_check(mechanism, base_queries)), mechanism
    for mechanism in MECHANISMS:
        for (res, exp, u), (big_res, _, _) in zip(base_queries, big_queries):
            base = rep_expansion_check(mechanism, ShareQuery(res, exp, u, target=u[-1][0]))
            check = rep_expansion_check(mechanism, ShareQuery(big_res, exp, u, target=u[-1][0]))
            assert (check.share, check.bound, check.ok) == (
                times(base.share, k), times(base.bound, k), base.ok), mechanism


costs = st.floats(0.1, 10.0)
KINDS = ("routing", "multi-routing", "set-connectivity", "machine-choice", "explicit-replies")


@st.composite
def instances(draw) -> Instance:
    """A small instance of one request kind, on a graph that a cycle through
    every vertex keeps (strongly) connected for the graph kinds."""
    kind = draw(st.sampled_from(KINDS))
    q = draw(st.integers(1, 2))
    exponents = ExponentProfile(tuple(draw(st.lists(st.floats(1.1, 4.0),
                                                    min_size=q, max_size=q))))
    graph = None
    if kind in ("machine-choice", "explicit-replies"):
        ids = [f"r{j}" for j in range(draw(st.integers(2, 4)))]
    else:
        n = draw(st.integers(3, 4))
        vertices = [f"v{j}" for j in range(n)]
        arcs = [(vertices[j], vertices[(j + 1) % n]) for j in range(n)]
        arcs += draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
                              .filter(lambda a: a[0] != a[1]), max_size=1))
        graph = HostGraph(draw(st.booleans()), tuple(vertices),
                          tuple(Edge(f"e{j}", a, b) for j, (a, b) in enumerate(arcs)))
        ids = [e.id for e in graph.edges]
    resources = tuple(ResourceParams(rid, draw(costs), tuple(draw(costs) for _ in range(q)))
                      for rid in ids)
    terminals = lambda size: tuple(draw(st.lists(st.sampled_from(graph.vertices), min_size=size,
                                                 max_size=size, unique=True)))
    requests = []
    for i in range(1, draw(st.integers(1, 3)) + 1):
        if kind == "routing":
            request_kind = Routing(*terminals(2))
        elif kind == "multi-routing":
            request_kind = MultiRouting(tuple(terminals(2) for _ in range(draw(st.integers(1, 2)))))
        elif kind == "set-connectivity":
            request_kind = SetConnectivity(terminals(draw(st.integers(2, 3))))
        elif kind == "machine-choice":
            request_kind = MachineChoice(tuple(draw(st.lists(st.sampled_from(ids), min_size=1,
                                                             max_size=3, unique=True))))
        else:
            replies = draw(st.lists(st.frozensets(st.sampled_from(ids), min_size=1, max_size=3),
                                    min_size=1, max_size=3, unique=True))
            request_kind = ExplicitReplies(tuple(replies))
        weights = draw(st.dictionaries(st.sampled_from(ids), st.integers(1, 3), max_size=2))
        requests.append(Request(id=i, kind=request_kind, weights=weights,
                                default_weight=draw(st.integers(1, 3))))
    instance = Instance(exponents, resources, tuple(requests), graph)
    assume(enumerate_profiles(instance)[1] <= MAX_PROFILES)
    return instance


def two_routes() -> Instance:
    """Two players from s to t, directly or through a."""
    graph = HostGraph(False, ("a", "s", "t"),
                      (Edge("sa", "s", "a"), Edge("at", "a", "t"), Edge("st", "s", "t")))
    resources = (ResourceParams("at", 0.5, (1.0,)), ResourceParams("sa", 0.5, (1.0,)),
                 ResourceParams("st", 3.0, (0.5,)))
    return Instance(ExponentProfile((2.0,)), resources,
                    tuple(Request(id=i, kind=Routing("s", "t")) for i in (1, 2)), graph)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(instance=two_routes(), k=-60, lam=1.0, mu=0.5, seed=1, selection="deterministic")
@given(instance=instances(), k=st.integers(-60, 60), lam=st.floats(0.5, 4.0),
       mu=st.floats(0.0, 0.9), seed=st.integers(0, 1000),
       selection=st.sampled_from(["deterministic", "randomized"]))
def test_scaling_every_cost_by_a_power_of_two_changes_no_run_or_verdict(
        instance, k, lam, mu, seed, selection):
    assert_no_run_or_verdict_changes(instance, k, lam, mu, seed, selection)


def symmetric_machines() -> Instance:
    """3 equal machines and 5 unit players, alpha = (2, 3.5): 243 profiles,
    90 of them equilibria.  An absolute floor counted every profile as an
    equilibrium at 2^-60, and an absolute slack failed 240 of the 2,430
    potential deltas at 2^30."""
    machines = ("m0", "m1", "m2")
    resources = tuple(ResourceParams(m, 3.7, (1.3, 0.1)) for m in machines)
    return Instance(ExponentProfile((2.0, 3.5)), resources,
                    tuple(Request(id=i, kind=MachineChoice(machines)) for i in range(1, 6)))


@pytest.mark.parametrize("k", [-60, -30, 30, 60])
def test_a_symmetric_game_in_another_cost_unit_is_the_same_game(k):
    instance = symmetric_machines()
    assert len(enumerate_nash(instance, "shapley-exact").nash_profiles) == 90
    assert_no_run_or_verdict_changes(instance, k, 0.3, 0.3, 1, "deterministic", deviations=None)
