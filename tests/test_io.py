import copy
import json
import math

import pytest

from gndes import ParseError, poa_lower_bound_instance
from gndes.io import (instance_to_dict, instance_to_text, parse_instance, parse_instance_text,
                      write_instance)

from helpers import random_explicit_instance, random_routing_instance, rng_for

MINIMAL = """
{
  "alphas": [2.0],
  "resources": [{"id": "m", "sigma": 6.0, "xis": [1.0]}],
  "requests": [
    {"id": 1, "weights": {"m": 3}, "kind": {"type": "machine_choice", "machines": ["m"]}}
  ]
}
"""


def test_minimal_instance_parses():
    inst = parse_instance_text(MINIMAL)
    assert inst.n_requests == 1
    assert inst.requests[0].weight("m") == 3


def test_weight_all_default():
    text = MINIMAL.replace('"weights": {"m": 3}', '"weight_all": 2')
    inst = parse_instance_text(text)
    assert inst.requests[0].weight("m") == 2


def test_unknown_top_level_key_rejected():
    with pytest.raises(ParseError, match="unknown key"):
        parse_instance_text(MINIMAL.replace('"alphas"', '"bogus": 1, "alphas"'))


def test_unknown_nested_key_rejected():
    with pytest.raises(ParseError, match="unknown key"):
        parse_instance_text(MINIMAL.replace('"sigma": 6.0', '"sigma": 6.0, "note": "x"'))


def test_bad_json_reports_line():
    with pytest.raises(ParseError, match="line"):
        parse_instance_text("{\n  \"alphas\": [2.0,\n}")


def test_non_integer_weight_rejected():
    with pytest.raises(ParseError, match="integer"):
        parse_instance_text(MINIMAL.replace('"m": 3', '"m": 3.5'))


def test_unknown_kind_rejected():
    with pytest.raises(ParseError, match="unknown request kind"):
        parse_instance_text(MINIMAL.replace("machine_choice", "teleport"))


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_is_fixed_point(seed):
    rng = rng_for(seed)
    inst = random_explicit_instance(rng) if seed % 2 else random_routing_instance(rng)
    text = instance_to_text(inst)
    again = instance_to_text(parse_instance_text(text))
    assert text == again


def test_written_file_is_the_instance_text(tmp_path):
    path = tmp_path / "instance.json"
    for inst in (poa_lower_bound_instance(16.0, 1.0, 2.0),
                 parse_instance_text(json.dumps(FIVE_KINDS)),
                 random_routing_instance(rng_for(3))):
        write_instance(inst, str(path))
        assert path.read_bytes() == instance_to_text(inst).encode("utf-8")


def test_round_trip_preserves_structure():
    inst = poa_lower_bound_instance(16.0, 1.0, 2.0)
    parsed = parse_instance_text(instance_to_text(inst))
    assert parsed == inst


# one request of every kind, with weights, weight_all and a host graph
FIVE_KINDS = {
    "alphas": [2.0, 3.0],
    "resources": [
        {"id": "ab", "sigma": 1.0, "xis": [1.0, 0.5]},
        {"id": "bc", "sigma": 2.0, "xis": [0.5, 0.0]},
        {"id": "cd", "sigma": 0.0, "xis": [1.0, 1.0]},
        {"id": "m1", "sigma": 3.0, "xis": [1.0, 0.0]},
        {"id": "m2", "sigma": 3.0, "xis": [0.0, 2.0]},
    ],
    "graph": {"directed": False, "vertices": ["a", "b", "c", "d"],
              "edges": [{"id": "ab", "tail": "a", "head": "b"},
                        {"id": "bc", "tail": "b", "head": "c"},
                        {"id": "cd", "tail": "c", "head": "d"}]},
    "requests": [
        {"id": 1, "weight_all": 2, "weights": {"ab": 3},
         "kind": {"type": "routing", "source": "a", "target": "c"}},
        {"id": 2, "kind": {"type": "multi_routing", "pairs": [["a", "b"], ["c", "d"]]}},
        {"id": 3, "weights": {"bc": 2, "cd": 1},
         "kind": {"type": "set_connectivity", "terminals": ["a", "d", "c"]}},
        {"id": 4, "weight_all": 4, "kind": {"type": "machine_choice", "machines": ["m2", "m1"]}},
        {"id": 5, "kind": {"type": "explicit", "replies": [["m1", "ab"], ["m2"]]}},
    ],
}

_DELETE = object()


def edited(path: str, value, doc=FIVE_KINDS):
    """A copy of ``doc`` with the value at a dotted path replaced (or deleted)."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = doc
    for p in parents:
        node = node[p]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def with_key(path: str, key: str):
    doc = copy.deepcopy(FIVE_KINDS)
    node = doc
    for p in filter(None, path.split(".")):
        node = node[int(p) if p.isdigit() else p]
    node[key] = 1
    return doc


# one case per check; each message is the one the reader has always given
MALFORMED = {
    "top-not-object": (edited("", []), "top level: expected an object"),
    "top-unknown-key": (with_key("", "bogus"), "top level: unknown key(s) ['bogus']"),
    "top-missing-key": (edited("requests", _DELETE), "top level: missing key(s) ['requests']"),
    "alphas-empty": (edited("alphas", []), "alphas: expected a nonempty list of numbers"),
    "alphas-not-list": (edited("alphas", 2.0), "alphas: expected a nonempty list of numbers"),
    "alpha-bool": (edited("alphas.1", True), "alphas[1]: expected a number"),
    "resources-not-list": (edited("resources", {}), "resources: expected a list"),
    "resource-not-object": (edited("resources.0", ["ab"]), "resources[0]: expected an object"),
    "resource-unknown-key": (with_key("resources.1", "note"),
                             "resources[1]: unknown key(s) ['note']"),
    "resource-missing-key": (edited("resources.1.sigma", _DELETE),
                             "resources[1]: missing key(s) ['sigma']"),
    "resource-id": (edited("resources.2.id", 3), "resources[2].id: expected a string"),
    "sigma-string": (edited("resources.0.sigma", "1"), "resources[0].sigma: expected a number"),
    "xis-not-list": (edited("resources.0.xis", 1.0), "resources[0].xis: expected a list"),
    "xi-null": (edited("resources.0.xis.1", None), "resources[0].xis[1]: expected a number"),
    "graph-not-object": (edited("graph", []), "graph: expected an object"),
    "graph-missing-key": (edited("graph.directed", _DELETE),
                          "graph: missing key(s) ['directed']"),
    "directed-not-bool": (edited("graph.directed", 1), "graph.directed: expected a boolean"),
    "vertices-not-list": (edited("graph.vertices", "abcd"), "graph.vertices: expected a list"),
    "vertex-number": (edited("graph.vertices.2", 7), "graph.vertices[2]: expected a string"),
    "edges-not-list": (edited("graph.edges", {}), "graph.edges: expected a list"),
    "edge-not-object": (edited("graph.edges.1", "bc"), "graph.edges[1]: expected an object"),
    "edge-unknown-key": (with_key("graph.edges.0", "w"), "graph.edges[0]: unknown key(s) ['w']"),
    "edge-head": (edited("graph.edges.2.head", None), "graph.edges[2].head: expected a string"),
    "requests-not-list": (edited("requests", None), "requests: expected a list"),
    "request-not-object": (edited("requests.0", 1), "requests[0]: expected an object"),
    "request-missing-key": (edited("requests.1.kind", _DELETE),
                            "requests[1]: missing key(s) ['kind']"),
    "request-id-bool": (edited("requests.4.id", True), "requests[4].id: expected an integer"),
    "weights-not-object": (edited("requests.0.weights", []),
                           "requests[0].weights: expected an object"),
    "weight-float": (edited("requests.0.weights.ab", 1.5),
                     "requests[0].weights['ab']: expected an integer"),
    "weight-all-string": (edited("requests.3.weight_all", "4"),
                          "requests[3].weight_all: expected an integer"),
    "kind-not-object": (edited("requests.0.kind", "routing"),
                        "requests[0].kind: expected an object"),
    "kind-unknown": (edited("requests.0.kind.type", "teleport"),
                     "requests[0].kind.type: unknown request kind 'teleport'"),
    "kind-type-list": (edited("requests.0.kind.type", ["routing"]),
                       "requests[0].kind.type: unknown request kind ['routing']"),
    "kind-type-object": (edited("requests.0.kind.type", {}),
                         "requests[0].kind.type: unknown request kind {}"),
    "kind-type-missing": (edited("requests.0.kind.type", _DELETE),
                          "requests[0].kind.type: unknown request kind None"),
    "kind-unknown-key": (with_key("requests.0.kind", "via"),
                         "requests[0].kind: unknown key(s) ['via']"),
    "kind-missing-key": (edited("requests.0.kind.target", _DELETE),
                         "requests[0].kind: missing key(s) ['target']"),
    "routing-source": (edited("requests.0.kind.source", 1),
                       "requests[0].kind.source: expected a string"),
    "pairs-not-list": (edited("requests.1.kind.pairs", "ab"),
                       "requests[1].kind.pairs: expected a list"),
    "pair-length": (edited("requests.1.kind.pairs.1", ["c", "d", "a"]),
                    "requests[1].kind.pairs[1]: expected [source, target]"),
    "pair-not-list": (edited("requests.1.kind.pairs.0", "ab"),
                      "requests[1].kind.pairs[0]: expected [source, target]"),
    "pair-member": (edited("requests.1.kind.pairs.0.1", 2),
                    "requests[1].kind.pairs[0][1]: expected a string"),
    "terminals-not-list": (edited("requests.2.kind.terminals", "adc"),
                           "requests[2].kind.terminals: expected a list"),
    "terminal-null": (edited("requests.2.kind.terminals.2", None),
                      "requests[2].kind.terminals[2]: expected a string"),
    "machines-not-list": (edited("requests.3.kind.machines", {}),
                          "requests[3].kind.machines: expected a list"),
    "machine-number": (edited("requests.3.kind.machines.0", 1),
                       "requests[3].kind.machines[0]: expected a string"),
    "replies-not-list": (edited("requests.4.kind.replies", "m1"),
                         "requests[4].kind.replies: expected a list"),
    "reply-not-list": (edited("requests.4.kind.replies.1", "m2"),
                       "requests[4].kind.replies[1]: expected a list of resource ids"),
    "reply-member": (edited("requests.4.kind.replies.0.1", 5),
                     "requests[4].kind.replies[0]: expected a string"),
    # errors the instance model raises while it is built
    "alpha-one": (edited("alphas.0", 1.0), "every exponent must exceed 1, got 1.0"),
    "alpha-infinity": (edited("alphas.1", math.inf), "every exponent must be finite, got inf"),
    "sigma-negative": (edited("resources.0.sigma", -1.0), "resource 'ab': sigma must be >= 0"),
    "sigma-nan": (edited("resources.0.sigma", math.nan), "resource 'ab': sigma must be finite"),
    "sigma-infinity": (edited("resources.2.sigma", math.inf),
                       "resource 'cd': sigma must be finite"),
    "xi-nan": (edited("resources.0.xis.1", math.nan), "resource 'ab': factors must be finite"),
    "xis-negative": (edited("resources.1.xis.1", -0.5), "resource 'bc': factors must be >= 0"),
    "xis-all-zero": (edited("resources.3.xis.0", 0),
                     "resource 'm1': needs at least one positive factor"),
    "edge-unknown-vertex": (edited("graph.edges.2.head", "e"),
                            "edge 'cd' references unknown vertex"),
    "weight-zero": (edited("requests.0.weights.ab", 0),
                    "request 1: weight on 'ab' must be an integer >= 1"),
    "weight-all-zero": (edited("requests.3.weight_all", 0),
                        "request 4: default weight must be an integer >= 1"),
    "reply-unknown-resource": (edited("requests.4.kind.replies.1.0", "m3"),
                               "request 5: reply uses unknown resource 'm3'"),
}


@pytest.mark.parametrize("doc, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_raises_parse_error(doc, message):
    with pytest.raises(ParseError) as info:
        parse_instance_text(json.dumps(doc))
    assert type(info.value) is ParseError
    assert str(info.value) == message


def test_bad_json_message():
    with pytest.raises(ParseError) as info:
        parse_instance_text('{\n  "alphas": [2.0,\n}')
    assert str(info.value) == "invalid JSON at line 3, column 1: Expecting value"


def test_deeply_nested_json_message():
    with pytest.raises(ParseError) as info:
        parse_instance_text("[" * 100_000)
    assert str(info.value) == "invalid JSON: nested too deeply"


def test_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"alphas": [2.0]}')
    with pytest.raises(ParseError) as info:
        parse_instance(str(path))
    assert str(info.value) == "not UTF-8 text at byte 0: invalid start byte"


def test_five_kinds_round_trip():
    text = instance_to_text(parse_instance_text(json.dumps(FIVE_KINDS)))
    inst = parse_instance_text(text)
    assert instance_to_text(inst) == text
    assert parse_instance_text(instance_to_text(inst)) == inst


# the written kind objects, key order included
WRITTEN_KINDS = [
    [("type", "routing"), ("source", "a"), ("target", "c")],
    [("type", "multi_routing"), ("pairs", [["a", "b"], ["c", "d"]])],
    [("type", "set_connectivity"), ("terminals", ["a", "c", "d"])],
    [("type", "machine_choice"), ("machines", ["m2", "m1"])],
    [("type", "explicit"), ("replies", [["ab", "m1"], ["m2"]])],
]


@pytest.mark.parametrize("index", range(5), ids=[k[0][1] for k in WRITTEN_KINDS])
def test_each_kind_is_written_canonically(index):
    inst = parse_instance_text(json.dumps(FIVE_KINDS))
    request = instance_to_dict(inst)["requests"][index]
    assert list(request["kind"].items()) == WRITTEN_KINDS[index]
    single = copy.deepcopy(FIVE_KINDS)
    single["requests"] = [FIVE_KINDS["requests"][index]]
    one = parse_instance_text(json.dumps(single))
    assert parse_instance_text(instance_to_text(one)) == one



# a document with two faults names the one the reader meets first: a record's
# keys are read in file order (a request's id, weight_all, weights, kind), and
# the exponents are built as soon as "alphas" is read, before the resources
FIRST_OF_TWO_FAULTS = {
    "id-before-weights": (edited("requests.0.id", True, edited("requests.0.weights", [])),
                          "requests[0].id: expected an integer"),
    "weight-all-before-weights": (edited("requests.0.weight_all", "2",
                                         edited("requests.0.weights", [])),
                                  "requests[0].weight_all: expected an integer"),
    "id-before-weight-all": (edited("requests.3.id", "4", edited("requests.3.weight_all", "4")),
                             "requests[3].id: expected an integer"),
    "alpha-before-resource": (edited("alphas.0", 1.0, edited("resources.1.sigma", "x")),
                              "every exponent must exceed 1, got 1.0"),
    "alpha-before-edge": (edited("alphas.1", math.inf, edited("graph.edges.2.head", "e")),
                          "every exponent must be finite, got inf"),
    "alpha-before-request": (edited("alphas.0", 1.0, edited("requests.0.weights.ab", 0)),
                             "every exponent must exceed 1, got 1.0"),
}


@pytest.mark.parametrize("doc, message", FIRST_OF_TWO_FAULTS.values(),
                         ids=FIRST_OF_TWO_FAULTS.keys())
def test_the_first_fault_in_file_order_is_named(doc, message):
    with pytest.raises(ParseError) as info:
        parse_instance_text(json.dumps(doc))
    assert str(info.value) == message
