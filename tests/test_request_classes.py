"""Request classes: requests that differ only in their ids.

``Instance.weight_rows`` and ``Instance.request_classes`` number requests
that weigh the same on every resource, and those that also have equal
kinds, in request order.  ``engine.initial_profile`` prices standalone tolls
once per weight row and runs the oracle once per class, and
``engine.delta_vector`` runs one ABR per class and reply, unless the row
came out with a sampled entry.  These tests count those calls; the
equivalence of a class-shared pass with a pass over every player is tested
in ``test_pass_view.py``.
"""

import pytest

from gndes import (
    AbrdConfig,
    Edge,
    ExplicitReplies,
    ExponentProfile,
    HostGraph,
    Instance,
    MachineChoice,
    PassView,
    ProfileState,
    Request,
    ResourceParams,
    Routing,
    TollRows,
    approximate_best_response,
    delta_vector,
    engine,
    initial_profile,
)
from gndes.instance import rep_cost
from gndes.oracles import Sweep, reply_oracle

from helpers import grid_graph


def test_classes_and_weight_rows_are_numbered_in_request_order():
    exp = ExponentProfile((2.0,))
    res = tuple(ResourceParams(m, 1.0, (1.0,)) for m in ("m1", "m2"))
    m12, m21 = MachineChoice(("m1", "m2")), MachineChoice(("m2", "m1"))
    pair = ExplicitReplies((frozenset({"m1", "m2"}),))
    # given out of id order; the instance sorts its requests by id
    requests = (
        Request(9, pair, default_weight=2),
        Request(7, m12),
        Request(3, m12, weights={"m2": 1}),            # explicit default: same row
        Request(5, m21),                               # other machine order: other class
        Request(8, pair, weights={"m1": 2, "m2": 2}),  # explicit 2s: the weight-2 row
        Request(4, m12, weights={"m1": 3}),
        Request(6, m12, weights={"m1": 3}, default_weight=1),
    )
    inst = Instance(exp, res, requests)
    assert [req.id for req in inst.requests] == [3, 4, 5, 6, 7, 8, 9]
    assert inst.weight_rows == (0, 1, 0, 1, 0, 2, 2)
    assert inst.request_classes == (0, 1, 2, 1, 0, 3, 3)


def test_initial_profile_prices_each_weight_row_once(monkeypatch):
    g = grid_graph(3)
    rids = [e.id for e in g.edges]
    res = tuple(ResourceParams(e, 1.0 + k % 4, (0.5,)) for k, e in enumerate(rids))
    ends = [("v00", "v22"), ("v20", "v02"), ("v10", "v12")]
    rows = [({}, 1), ({rids[0]: 1}, 1), ({}, 2), ({rids[3]: 3}, 1)]   # 3 distinct rows
    requests = tuple(Request(len(ends) * k + j + 1, Routing(*ends[j]), weights, weight)
                     for k, (weights, weight) in enumerate(rows) for j in range(len(ends)))
    inst = Instance(ExponentProfile((2.0,)), res, requests, g)
    priced = []
    monkeypatch.setattr(engine, "rep_cost",
                        lambda params, exponents, load: priced.append(params.id)
                        or rep_cost(params, exponents, load))
    profile = initial_profile(inst)
    assert len(priced) == 3 * len(res)
    standalone = [reply_oracle(Sweep(inst, {pos: {
        r.id: rep_cost(r, inst.exponents, req.weight(r.id)) for r in res}}), pos).reply
        for pos, req in enumerate(inst.requests)]
    assert profile == tuple(standalone)


def players_on_two_edges(k, heavy=0):
    """k identical routing players of weight 10^5 on two parallel s-t edges,
    then ``heavy`` players of weights 10^5 + 7 * 2^i, each a class of its
    own; everyone starts on e1."""
    g = HostGraph(False, ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")))
    res = (ResourceParams("e1", 1.0, (1.0,)), ResourceParams("e2", 2.0, (1.0,)))
    weights = [100_000] * k + [100_000 + 7 * 2 ** i for i in range(1, heavy + 1)]
    requests = tuple(Request(i, Routing("s", "t"), default_weight=w)
                     for i, w in enumerate(weights, start=1))
    inst = Instance(ExponentProfile((1.5,)), res, requests, g)
    return ProfileState(inst, tuple(frozenset({"e1"}) for _ in requests))


def counted_pass(monkeypatch, state, config, step, rows, ids):
    """One delta pass; returns it, its view and the oracle calls it made
    for the requests in ``ids``."""
    calls = []
    oracle = engine.reply_oracle

    def counted(sweep, position):
        if sweep.instance.requests[position].id in ids:
            calls.append(position)
        return oracle(sweep, position)

    monkeypatch.setattr(engine, "reply_oracle", counted)
    view = PassView(state, config, step, 0.01, rows)
    return delta_vector(view), view, len(calls)


def assert_pass_over_every_player(state, config, step, dpass, view):
    alone = PassView(state, config, step, 0.01, TollRows())
    abrs = [approximate_best_response(alone, pos) for pos in range(len(state.profile))]
    assert dpass.proposals == tuple(answer for answer, _ in abrs)
    assert (view.sampled_shares, view.sample_cap_hits) == (alone.sampled_shares,
                                                           alone.sample_cap_hits)
    assert all(view.rows.tolls[pos] == alone.rows.tolls[pos] for pos in range(len(abrs)))


@pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact", "shapley-sampled"])
def test_identical_players_on_one_reply_share_one_oracle_call(mechanism, monkeypatch):
    state = players_on_two_edges(4)
    config = AbrdConfig(mechanism=mechanism, epsilon=0.15, seed=2)
    rows = TollRows()
    ids = {1, 2, 3, 4}
    dpass, view, calls = counted_pass(monkeypatch, state, config, 1, rows, ids)
    assert calls == 1
    assert len(set(dpass.deltas)) == 1 and view.sampled_shares == 0
    assert_pass_over_every_player(state, config, 1, dpass, view)

    # one member moves away from the class's reply: one call per reply
    state.move(1, frozenset({"e2"}))
    dpass, view, calls = counted_pass(monkeypatch, state, config, 2, rows, ids)
    assert calls == 2
    assert_pass_over_every_player(state, config, 2, dpass, view)


def test_identical_players_whose_rows_sample_each_answer(monkeypatch):
    # the heavy players' distinct weights make every share on e1 sample,
    # and a sampled entry is drawn from its own player's stream
    state = players_on_two_edges(4, heavy=6)
    config = AbrdConfig(mechanism="shapley-sampled", epsilon=0.15, seed=2)
    dpass, view, calls = counted_pass(monkeypatch, state, config, 1, TollRows(), {1, 2, 3, 4})
    assert calls == 4
    assert all(view.rows.stale[pos] == {"e1"} for pos in range(4))
    assert_pass_over_every_player(state, config, 1, dpass, view)
