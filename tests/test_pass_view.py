"""Differential tests for a run's profile state and the delta pass over it.

A ``ProfileState`` groups the users of every resource once and regroups
only the resources a move changes; it also keeps every player's toll row
across the passes of a run, and a move marks the resources it changed
stale in each kept row.  A ``PassView`` reads the users from the state and
memoizes shares across the players of the pass.  These tests check a
moved state against a fresh state of the same profile, kept rows against
the rows of a fresh state of the same profile, and compare ``delta_vector``
on one view, with exact float equality, against per-player ABRs that share
nothing: ``approximate_best_response`` on a fresh view for every player,
and an independent regrouping of the others' users for every player.
``delta_vector`` runs one ABR per request class and reply, so instances
with classes of two to four identical players check that sharing too.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from gndes import (
    AbrdConfig,
    Edge,
    ExponentProfile,
    HostGraph,
    Instance,
    MachineChoice,
    MultiRouting,
    PassView,
    ProfileState,
    Request,
    ResourceParams,
    Routing,
    SetConnectivity,
    approximate_best_response,
    delta_vector,
    engine,
    potential,
    potential_by_prefix,
    sharing,
    total_cost,
)
from gndes.analysis import REL_TOL
from gndes.errors import InstanceError
from gndes.engine import DeltaPass
from gndes.oracles import Sweep, reply_oracle
from gndes.rng import keyed_rng
from gndes.sharing import (
    MECHANISMS,
    ShareQuery,
    cost_share,
    samples_needed,
    shapley_sampled,
    whp_delta,
)

from helpers import (
    pass_view,
    random_connected_graph,
    random_explicit_instance,
    random_exponents,
    random_resource,
    rng_for,
)


def regrouped_abr(instance, config, position, profile, step, planned_budget):
    """One player's ABR from the others' users regrouped for this player
    alone, with a fresh share query on every resource.  A sampled share
    takes ``samples_needed`` permutations from the share's own stream when
    that count is positive, and is the exact Shapley share otherwise."""
    req = instance.requests[position]
    users_by_resource = {}
    for pos, (other, reply) in enumerate(zip(instance.requests, profile)):
        if pos != position:
            for e in reply:
                users_by_resource.setdefault(e, []).append((other.id, other.weight(e)))
    tolls = {}
    for res in instance.resources:
        users = tuple(users_by_resource.get(res.id, [])) + ((req.id, req.weight(res.id)),)
        query = ShareQuery(res, instance.exponents, users, target=req.id)
        if config.mechanism != "shapley-sampled":
            share = cost_share(config.mechanism, query)
        else:
            needed = samples_needed(query, config.epsilon, whp_delta(
                planned_budget, instance.n_requests, len(instance.resources)))
            share = (shapley_sampled(query, keyed_rng(config.seed, "share", step, req.id, res.id),
                                     needed)
                     if needed else cost_share("shapley-exact", query))
        tolls[res.id] = share
    answer = reply_oracle(Sweep(instance, {position: tolls}), position)
    return answer, sum(tolls[e] for e in sorted(profile[position]))


def fresh_view_abr(instance, config, position, profile, step, planned_budget):
    """One player's ABR on a view of her own."""
    return approximate_best_response(
        pass_view(instance, config, profile, step, planned_budget), position)


def unshared_pass(abr, instance, config, profile, step, planned_budget):
    eps1 = (1.0 + config.epsilon) / (1.0 - config.epsilon)
    deltas, proposals = [], []
    for pos in range(instance.n_requests):
        answer, current = abr(instance, config, pos, profile, step, planned_budget)
        deltas.append(current - eps1 * answer.toll_total)
        proposals.append(answer)
    return DeltaPass(deltas=tuple(deltas), total=sum(deltas), proposals=tuple(proposals))


def assert_pass_matches(instance, config, profile, step=3, planned_budget=7):
    shared = delta_vector(pass_view(instance, config, profile, step, planned_budget))
    for abr in (fresh_view_abr, regrouped_abr):
        alone = unshared_pass(abr, instance, config, profile, step, planned_budget)
        # dataclasses of floats compare with ==, so this is exact equality
        # of every delta, the total and every proposed reply and toll total
        assert shared == alone


def random_weights(rng, resource_ids):
    return {e: int(rng.integers(1, 5)) for e in resource_ids if rng.random() < 0.5}


def random_graph_instance(rng, directed=False):
    """Routing, set-connectivity and multi-routing players on one graph; a
    directed graph has both orientations of every edge, so its
    set-connectivity players ask for strong connectivity."""
    exp = random_exponents(rng)
    graph = random_connected_graph(rng, n_vertices=6, n_extra_edges=5)
    if directed:
        graph = HostGraph(True, graph.vertices, graph.edges + tuple(
            Edge(f"r{e.id}", e.head, e.tail) for e in graph.edges))
    resources = tuple(random_resource(rng, e.id, exp.q) for e in graph.edges)
    ids = [e.id for e in graph.edges]
    requests = []
    for i in range(1, int(rng.integers(2, 7)) + 1):
        pick = rng.choice(6, size=4, replace=False)
        v = [graph.vertices[k] for k in pick]
        kind = [Routing(v[0], v[1]), SetConnectivity(tuple(v[:3])),
                MultiRouting(((v[0], v[1]), (v[2], v[3])))][int(rng.integers(3))]
        requests.append(Request(id=i, kind=kind, weights=random_weights(rng, ids),
                                default_weight=int(rng.integers(1, 4))))
    return Instance(exp, resources, tuple(requests), graph)


def random_directed_instance(rng):
    return random_graph_instance(rng, directed=True)


def random_machine_instance(rng):
    """Explicit-reply players plus machine-choice players on the same
    resources."""
    base = random_explicit_instance(rng, max_players=4, max_resources=5)
    ids = [r.id for r in base.resources]
    machines = [
        Request(id=10 + k, kind=MachineChoice(tuple(
            rng.choice(ids, size=min(2, len(ids)), replace=False).tolist())),
            weights=random_weights(rng, ids), default_weight=int(rng.integers(1, 4)))
        for k in range(int(rng.integers(1, 4)))]
    return Instance(base.exponents, base.resources, base.requests + tuple(machines))


def random_profile(rng, instance):
    """Each player's oracle reply under random tolls: feasible, and spread
    over the resources more than the dynamics' start."""
    profile = []
    for pos in range(instance.n_requests):
        tolls = {r.id: float(rng.uniform(0.2, 3.0)) for r in instance.resources}
        profile.append(reply_oracle(Sweep(instance, {pos: tolls}), pos).reply)
    return tuple(profile)


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("make", [random_graph_instance, random_machine_instance],
                         ids=["graph", "machines"])
def test_shared_view_matches_unshared_abrs(mechanism, make, monkeypatch):
    monkeypatch.setattr(sharing, "MAX_SAMPLES", 300)
    rng = rng_for(31)
    config = AbrdConfig(mechanism=mechanism, epsilon=0.2, seed=5)
    for _ in range(12):
        instance = make(rng)
        for _ in range(2):
            assert_pass_matches(instance, config, random_profile(rng, instance))


def machines(n_players):
    exp = ExponentProfile((2.0,))
    res = (ResourceParams("m1", 1.0, (0.5,)), ResourceParams("m2", 2.0, (0.5,)))
    reqs = tuple(Request(id=i, kind=MachineChoice(("m1", "m2")), default_weight=1 + i % 2)
                 for i in range(1, n_players + 1))
    return Instance(exp, res, reqs)


@pytest.mark.parametrize("mechanism", ["shapley-exact", "proportional"])
@pytest.mark.parametrize("on_m1, n_players", [
    (12, 12),      # every query on m1 has exactly 12 users
    (12, 13),      # player 13 joining m1 makes 13 users
    (11, 13),      # players 12 and 13 each join m1 as the 12th user
    (13, 13),      # 13 users on m1
    (14, 14),      # 14 users on m1
])
def test_many_users_on_one_machine(mechanism, on_m1, n_players):
    instance = machines(n_players)
    profile = tuple(frozenset({"m1" if pos < on_m1 else "m2"}) for pos in range(n_players))
    assert_pass_matches(instance, AbrdConfig(mechanism=mechanism), profile)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       make=st.sampled_from([random_graph_instance, random_directed_instance,
                             random_machine_instance]),
       n_moves=st.integers(min_value=1, max_value=6),
       mechanism=st.sampled_from(["shapley-exact", "proportional"]))
def test_moved_state_matches_a_fresh_state(seed, make, n_moves, mechanism):
    rng = rng_for(seed)
    instance = make(rng)
    state = ProfileState(instance, random_profile(rng, instance))
    state.potential()
    config = AbrdConfig(mechanism=mechanism)
    for _ in range(n_moves):
        position = int(rng.integers(instance.n_requests))
        # a move to her own reply now and then, which changes nothing
        reply = (state.profile[position] if rng.random() < 0.2
                 else random_profile(rng, instance)[position])
        state.move(position, reply)
        fresh = ProfileState(instance, state.profile)
        assert (state.profile, state.users) == (fresh.profile, fresh.users)
        phi = state.potential()
        assert phi == potential(instance, state.profile)
        assert phi == pytest.approx(potential_by_prefix(instance, state.profile), rel=REL_TOL)
        moved_view = PassView(state, config, 1, 0.1)
        fresh_view = PassView(fresh, config, 1, 0.1)
        for pos in range(instance.n_requests):
            assert moved_view.tolls(pos) == fresh_view.tolls(pos)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       make=st.sampled_from([random_graph_instance, random_directed_instance,
                             random_machine_instance]),
       n_moves=st.integers(min_value=1, max_value=8))
def test_kept_cost_is_a_fresh_total_cost(seed, make, n_moves):
    # the graph instances hold routing, set-connectivity and multi-routing
    # players, the machine instances explicit-reply and machine-choice ones
    rng = rng_for(seed)
    instance = make(rng)
    state = ProfileState(instance, random_profile(rng, instance))
    assert state.cost() == total_cost(instance, state.profile)
    for _ in range(n_moves):
        position = int(rng.integers(instance.n_requests))
        state.move(position, random_profile(rng, instance)[position])
        assert state.cost() == total_cost(instance, state.profile)


def moves_of_a_run(instance, config, rng, n_moves):
    """Yield one state as a run moves it: first unused, then after each
    move.  Between moves the state prices its potential and serves a delta
    pass, as in ``run_abrd``, but one that prices every toll afresh (so a
    pass after a move that changed nothing still reads the tables of every
    resource in use); the mover takes its proposal when that differs from
    its reply, else a random reply."""
    state = ProfileState(instance, random_profile(rng, instance))
    yield state
    for t in range(1, n_moves + 1):
        state.potential()
        state.rows.clear()
        dpass = delta_vector(PassView(state, config, t, 0.1))
        position = int(rng.integers(instance.n_requests))
        reply = dpass.proposals[position].reply
        if reply == state.profile[position]:
            reply = random_profile(rng, instance)[position]
        state.move(position, reply)
        yield state


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       make=st.sampled_from([random_graph_instance, random_machine_instance]),
       mechanism=st.sampled_from(["shapley-exact", "shapley-sampled"]))
def test_a_runs_moved_state_potential_equals_a_fresh_potential(seed, make, mechanism):
    rng = rng_for(seed)
    instance = make(rng)
    moves = moves_of_a_run(instance, AbrdConfig(mechanism=mechanism), rng, 6)
    next(moves)
    for state in moves:
        assert state.potential() == potential(instance, state.profile)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       make=st.sampled_from([random_graph_instance, random_machine_instance]))
def test_after_each_move_the_store_holds_only_tables_used_since_the_move_before(seed, make):
    rng = rng_for(seed)
    instance = make(rng)
    moves = moves_of_a_run(instance, AbrdConfig(mechanism="shapley-exact"), rng, 6)
    state = next(moves)
    used, built, ever = set(), [], set()
    lookup = state.tables.table
    state.tables.table = lambda weights: used.add(tuple(sorted(weights))) or lookup(weights)
    build = sharing.subset_sums_by_size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sharing, "subset_sums_by_size",
                      lambda weights: built.append(weights) or build(weights))
        for state in moves:
            # a lookup in a copy of the store builds exactly what it dropped
            ever.update(built)
            built.clear()
            probe = copy.deepcopy(state.tables)
            for weights in ever:
                sharing.CountingTables.table(probe, weights)
            assert used and set(built) == ever - used
            built.clear()
            used.clear()


def test_a_move_reprices_only_the_resources_it_changed(monkeypatch):
    exp = ExponentProfile((2.0,))
    ids = ("m1", "m2", "m3")
    instance = Instance(exp, tuple(ResourceParams(m, 1.0, (0.5,)) for m in ids),
                        tuple(Request(id=i, kind=MachineChoice(ids)) for i in (1, 2, 3)))
    state = ProfileState(instance, tuple(frozenset({m}) for m in ids))
    state.potential()
    priced = []
    table = sharing.subset_sums_by_size
    monkeypatch.setattr(sharing, "subset_sums_by_size",
                        lambda weights: priced.append(len(weights)) or table(weights))
    state.move(0, frozenset({"m2"}))
    phi = state.potential()
    # m1 lost its only user, m2 gained one, m3 did not change: one table,
    # for the two users of m2
    assert priced == [2]
    assert phi == potential(instance, state.profile)
    with pytest.raises(InstanceError, match="^reply uses unknown resource 'zz'$"):
        state.move(0, frozenset({"zz"}))
    assert state.profile == (frozenset({"m2"}), frozenset({"m2"}), frozenset({"m3"}))


def assert_a_refused_move_changes_nothing(position, reply, refusal):
    """Three machine players, one per machine, with every row kept: the
    move is refused and leaves the profile, the users and every kept row's
    stale set as they were."""
    exp = ExponentProfile((2.0,))
    ids = ("m1", "m2", "m3")
    instance = Instance(exp, tuple(ResourceParams(m, 1.0, (0.5,)) for m in ids),
                        tuple(Request(id=i, kind=MachineChoice(ids)) for i in (1, 2, 3)))
    start = tuple(frozenset({m}) for m in ids)
    state = ProfileState(instance, start)
    view = PassView(state, AbrdConfig(), 1, 0.1)
    for pos in range(3):
        view.tolls(pos)
    users = dict(state.users)
    assert state.stale == {0: set(), 1: set(), 2: set()}
    with pytest.raises(InstanceError, match=f"^{refusal}$"):
        state.move(position, reply)
    assert state.profile == start and state.users == users
    assert state.stale == {0: set(), 1: set(), 2: set()}


@pytest.mark.parametrize("position", [-1, 3, 7])
def test_a_move_outside_the_requests_raises_and_changes_nothing(position):
    assert_a_refused_move_changes_nothing(position, frozenset({"m2"}),
                                          rf"position {position} is outside range\(3\)")


def test_a_move_to_an_unknown_resource_raises_and_changes_nothing():
    assert_a_refused_move_changes_nothing(0, frozenset({"m2", "zz"}),
                                          "reply uses unknown resource 'zz'")


def row_hex(row):
    """A toll row, in its order, with every toll as ``float.hex``."""
    return [(e, toll.hex()) for e, toll in row.items()]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       make=st.sampled_from([random_graph_instance, random_directed_instance,
                             random_machine_instance]),
       mechanism=st.sampled_from(MECHANISMS),
       moves_between_passes=st.lists(st.integers(min_value=0, max_value=3),
                                     min_size=1, max_size=6))
def test_kept_rows_equal_fresh_rows(seed, make, mechanism, moves_between_passes):
    """Passes over one state, some after no move, some after several, and
    some after moves to the reply a player already had (the same object or
    an equal one): every row a pass with kept rows hands out equals the row
    of a fresh view, entry by entry, and both passes sample alike."""
    rng = rng_for(seed)
    instance = make(rng)
    config = AbrdConfig(mechanism=mechanism, epsilon=0.2, seed=seed % 1000)
    state = ProfileState(instance, random_profile(rng, instance))
    with pytest.MonkeyPatch.context() as patch:
        # free sampling set-up makes small queries sample too, so sampled
        # and exact entries mix in one row; the cap keeps draws cheap
        patch.setattr(sharing, "SAMPLING_NS", 0)
        patch.setattr(sharing, "MAX_SAMPLES", 300)
        for step, n_moves in enumerate(moves_between_passes, start=1):
            for _ in range(n_moves):
                position = int(rng.integers(instance.n_requests))
                reply = [random_profile(rng, instance)[position],
                         state.profile[position],
                         frozenset(sorted(state.profile[position]))][int(rng.integers(3))]
                state.move(position, reply)
            kept = PassView(state, config, step, 0.1)
            fresh = PassView(ProfileState(instance, state.profile), config, step, 0.1)
            for pos in range(instance.n_requests):
                assert row_hex(kept.tolls(pos)) == row_hex(fresh.tolls(pos))
            assert ((kept.sampled_shares, kept.sample_cap_hits)
                    == (fresh.sampled_shares, fresh.sample_cap_hits))


@pytest.mark.parametrize("first, second", [
    (("shapley-exact", 0.2, 0.1), ("proportional", 0.2, 0.1)),
    # at the small epsilon and the tiny delta every share is exact, at the
    # other value of each some are sampled
    (("shapley-sampled", 0.01, 0.1), ("shapley-sampled", 0.5, 0.1)),
    (("shapley-sampled", 0.2, 1e-300), ("shapley-sampled", 0.2, 0.5)),
], ids=["mechanism", "epsilon", "delta"])
def test_a_view_under_other_settings_never_reuses_the_rows(first, second, monkeypatch):
    """Passes over one state alternate between two settings of (mechanism,
    epsilon, delta), with no move between them: each pass hands out the
    rows and sample counts of a fresh state's pass under its settings."""
    monkeypatch.setattr(sharing, "SAMPLING_NS", 0)
    weights = [100_000 + 7 * 2 ** i for i in range(1, 9)]
    instance = Instance(ExponentProfile((1.5,)),
                        (ResourceParams("m1", 1.0, (1.0,)), ResourceParams("m2", 2.0, (1.0,))),
                        tuple(Request(i, MachineChoice(("m1", "m2")), default_weight=w)
                              for i, w in enumerate(weights, start=1)))
    state = ProfileState(instance, tuple(frozenset({"m1" if pos % 3 else "m2"})
                                         for pos in range(len(weights))))

    def priced(on, settings, step):
        mechanism, epsilon, delta = settings
        view = PassView(on, AbrdConfig(mechanism=mechanism, epsilon=epsilon, seed=6), step, delta)
        return ([row_hex(view.tolls(pos)) for pos in range(len(weights))],
                view.sampled_shares)

    fresh = {settings: priced(ProfileState(instance, state.profile), settings, 1)
             for settings in (first, second)}
    # a row kept from the other settings would show
    assert fresh[first] != fresh[second]
    for step, settings in enumerate((first, second, first, second), start=1):
        assert (priced(state, settings, step)
                == priced(ProfileState(instance, state.profile), settings, step))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_a_row_handed_out_is_never_changed(mechanism):
    rng = rng_for(71)
    config = AbrdConfig(mechanism=mechanism, epsilon=0.2, seed=4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sharing, "SAMPLING_NS", 0)
        patch.setattr(sharing, "MAX_SAMPLES", 300)
        for make in (random_graph_instance, random_machine_instance):
            for _ in range(6):
                instance = make(rng)
                state = ProfileState(instance, random_profile(rng, instance))
                handed = []
                for step in (1, 2, 3):
                    view = PassView(state, config, step, 0.1)
                    for pos in range(instance.n_requests):
                        row = view.tolls(pos)
                        handed.append((row, row_hex(row)))
                    position = int(rng.integers(instance.n_requests))
                    state.move(position, random_profile(rng, instance)[position])
                assert all(row_hex(row) == snapshot for row, snapshot in handed)


def test_a_pass_prices_only_the_resources_whose_users_changed(monkeypatch):
    exp = ExponentProfile((2.0,))
    ids = ("m1", "m2", "m3")
    instance = Instance(exp, tuple(ResourceParams(m, 1.0, (0.5,)) for m in ids),
                        tuple(Request(id=i, kind=MachineChoice(ids)) for i in (1, 2, 3)))
    state = ProfileState(instance, tuple(frozenset({m}) for m in ids))
    config = AbrdConfig()
    priced = []
    share = engine.cost_share
    monkeypatch.setattr(engine, "cost_share",
                        lambda mechanism, query, **kw: priced.append(query.resource.id)
                        or share(mechanism, query, **kw))
    view = PassView(state, config, 1, 0.1)
    first = [view.tolls(pos) for pos in range(3)]
    # on each machine, one share for its user and one for every player off it
    assert sorted(priced) == ["m1", "m1", "m2", "m2", "m3", "m3"]

    priced.clear()
    view = PassView(state, config, 2, 0.1)
    assert all(view.tolls(pos) is row for pos, row in enumerate(first))
    assert priced == []

    state.move(0, frozenset({"m2"}))
    view = PassView(state, config, 3, 0.1)
    moved = [view.tolls(pos) for pos in range(3)]
    # m1 lost its only user and m2 gained one; m3 kept its users
    assert set(priced) == {"m1", "m2"}
    assert all(row == PassView(ProfileState(instance, state.profile), config, 3, 0.1).tolls(pos)
               for pos, row in enumerate(moved))


def test_a_pass_after_no_move_draws_every_sampled_entry_again(monkeypatch):
    # free sampling set-up makes the heavier players' small queries sample,
    # so rows mix exact and sampled entries
    monkeypatch.setattr(sharing, "SAMPLING_NS", 0)
    exp = ExponentProfile((2.0,))
    ids = ("m1", "m2", "m3")
    instance = Instance(exp, tuple(ResourceParams(m, 1.0, (0.5,)) for m in ids),
                        tuple(Request(id=i, kind=MachineChoice(ids), default_weight=w)
                              for i, w in zip(range(1, 7), (1, 2, 3, 5, 8, 13))))
    state = ProfileState(instance, tuple(frozenset({ids[pos % 3]}) for pos in range(6)))
    config = AbrdConfig(mechanism="shapley-sampled", epsilon=0.2, seed=3)
    priced, drawn = [], []
    share, sampled = engine.cost_share, sharing.shapley_sampled

    def draw(query, rng, samples):
        drawn.append((query.target, query.resource.id, rng.bit_generator.state))
        return sampled(query, rng, samples)

    monkeypatch.setattr(engine, "cost_share",
                        lambda mechanism, query, **kw: priced.append(query.resource.id)
                        or share(mechanism, query, **kw))
    monkeypatch.setattr(sharing, "shapley_sampled", draw)
    view = PassView(state, config, 1, 0.1)
    for pos in range(6):
        view.tolls(pos)
    entries = sorted((target, e) for target, e, _ in drawn)
    # both kinds of entry occur, and each sampled one is drawn once
    assert priced and len(set(entries)) == len(entries) == view.sampled_shares > 0

    priced.clear()
    drawn.clear()
    view = PassView(state, config, 2, 0.1)
    kept = [view.tolls(pos) for pos in range(6)]
    assert priced == []
    assert sorted((target, e) for target, e, _ in drawn) == entries
    assert view.sampled_shares == len(entries)
    for target, e, stream in drawn:
        assert stream == keyed_rng(config.seed, "share", 2, target, e).bit_generator.state
    fresh = PassView(ProfileState(instance, state.profile), config, 2, 0.1)
    assert [row_hex(row) for row in kept] == [row_hex(fresh.tolls(pos)) for pos in range(6)]


def with_copies(rng, base):
    """``base`` with every request present two to four times under
    shuffled ids, so each class has two to four members that need not be
    neighbours; some copies spell out one resource's weight although it
    equals the default.  Returns the instance and, per position, the
    position of the base request it copies."""
    ids = [r.id for r in base.resources]
    copies = []
    for pos, req in enumerate(base.requests):
        for copy in range(int(rng.integers(2, 5))):
            weights = dict(req.weights)
            if copy and rng.random() < 0.5:
                weights.setdefault(ids[int(rng.integers(len(ids)))], req.default_weight)
            copies.append((pos, req.kind, weights, req.default_weight))
    copies = [copies[k] for k in rng.permutation(len(copies))]
    requests = tuple(Request(i, kind, weights, weight)
                     for i, (_, kind, weights, weight) in enumerate(copies, start=1))
    return (Instance(base.exponents, base.resources, requests, base.graph),
            [pos for pos, *_ in copies])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       make=st.sampled_from([random_graph_instance, random_directed_instance,
                             random_machine_instance]),
       mechanism=st.sampled_from(MECHANISMS),
       moves_between_passes=st.lists(st.integers(min_value=0, max_value=3),
                                     min_size=1, max_size=5))
def test_a_pass_shared_by_class_equals_a_pass_over_every_player(seed, make, mechanism,
                                                                moves_between_passes):
    """Classes of identical players start on one reply per class; between
    passes some players move away from their class's reply or back to a
    classmate's.  ``delta_vector`` on kept rows gives every delta, reply
    and toll total of per-player ABRs on a fresh view, bit for bit, counts
    the same sampled shares, and leaves every kept row equal to the fresh
    view's."""
    rng = rng_for(seed)
    instance, base_of = with_copies(rng, make(rng))
    n = instance.n_requests
    config = AbrdConfig(mechanism=mechanism, epsilon=0.2, seed=seed % 1000)
    eps1 = (1.0 + config.epsilon) / (1.0 - config.epsilon)
    start = random_profile(rng, instance)
    state = ProfileState(instance, tuple(start[base_of.index(base)] for base in base_of))
    with pytest.MonkeyPatch.context() as patch:
        # free sampling set-up makes small queries sample too, and a low
        # cap makes some of their counts capped, so sampled, capped and
        # exact entries mix
        patch.setattr(sharing, "SAMPLING_NS", 0)
        patch.setattr(sharing, "MAX_SAMPLES", 30)
        for step, n_moves in enumerate(moves_between_passes, start=1):
            for _ in range(n_moves):
                position = int(rng.integers(n))
                mates = [pos for pos in range(n) if base_of[pos] == base_of[position]]
                reply = [random_profile(rng, instance)[position],
                         state.profile[mates[int(rng.integers(len(mates)))]]][int(rng.integers(2))]
                state.move(position, reply)
            view = PassView(state, config, step, 0.1)
            shared = delta_vector(view)
            alone = PassView(ProfileState(instance, state.profile), config, step, 0.1)
            abrs = [approximate_best_response(alone, pos) for pos in range(n)]
            reference = [current - eps1 * answer.toll_total for answer, current in abrs]
            assert [d.hex() for d in shared.deltas] == [d.hex() for d in reference]
            assert shared.total.hex() == sum(reference).hex()
            assert ([(p.reply, p.toll_total.hex()) for p in shared.proposals]
                    == [(a.reply, a.toll_total.hex()) for a, _ in abrs])
            assert ((view.sampled_shares, view.sample_cap_hits)
                    == (alone.sampled_shares, alone.sample_cap_hits))
            assert ([row_hex(state.rows[pos]) for pos in range(n)]
                    == [row_hex(alone.state.rows[pos]) for pos in range(n)])
