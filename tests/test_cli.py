import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gndes
from gndes import analysis, cli
from gndes.cli import main
from gndes.io import instance_to_text, parse_instance

PARALLEL = """{
  "alphas": [2.0],
  "resources": [
    {"id": "e1", "sigma": 1.0, "xis": [1.0]},
    {"id": "e2", "sigma": 1.0, "xis": [1.0]}
  ],
  "requests": [
    {"id": 1, "kind": {"type": "explicit", "replies": [["e1"], ["e2"]]}},
    {"id": 2, "kind": {"type": "explicit", "replies": [["e1"], ["e2"]]}}
  ]
}
"""

SRC = str(Path(gndes.__file__).resolve().parent.parent)

TWO_ROUTES = {
    "alphas": [2.0],
    "resources": [{"id": "e1", "sigma": 1.0, "xis": [1.0]},
                  {"id": "e2", "sigma": 5.0, "xis": [1.0]}],
    "graph": {"directed": False, "vertices": ["s", "t"],
              "edges": [{"id": "e1", "tail": "s", "head": "t"},
                        {"id": "e2", "tail": "s", "head": "t"}]},
    "requests": [{"id": 1, "kind": {"type": "routing", "source": "s", "target": "t"}}],
}

# one Steiner request on the path a - b - c: its oracle has rho 2
STEINER_PATH = {
    "alphas": [2.0],
    "resources": [{"id": "ab", "sigma": 1.0, "xis": [1.0]},
                  {"id": "bc", "sigma": 1.0, "xis": [1.0]}],
    "graph": {"directed": False, "vertices": ["a", "b", "c"],
              "edges": [{"id": "ab", "tail": "a", "head": "b"},
                        {"id": "bc", "tail": "b", "head": "c"}]},
    "requests": [{"id": 1, "kind": {"type": "set_connectivity",
                                    "terminals": ["a", "b", "c"]}}],
}

# a directed graph whose only edge runs t -> s, so request 1 has no s-t path
ONE_WAY = {
    "alphas": [2.0],
    "resources": [{"id": "ts", "sigma": 1.0, "xis": [1.0]}],
    "graph": {"directed": True, "vertices": ["s", "t"],
              "edges": [{"id": "ts", "tail": "t", "head": "s"}]},
    "requests": [{"id": 1, "kind": {"type": "routing", "source": "s", "target": "t"}}],
}


@pytest.fixture
def parallel_file(tmp_path):
    path = tmp_path / "parallel.json"
    path.write_text(PARALLEL, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_ratio_one_with_brute(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "solve", "--instance", parallel_file,
                               "--csm", "shapley", "--brute")
        assert code == 0
        assert "empirical ratio  1" in out

    def test_max_steps_zero_reports_initial(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "solve", "--instance", parallel_file,
                               "--max-steps", "0")
        assert code == 0
        assert "output cost      5" in out
        assert "ratio guarantee void" in out

    # 201 digits, and the 4300 digits that int() reads at most
    HUGE_BUDGETS = ["1" + "0" * 200, "1" + "0" * 4299]

    @pytest.mark.parametrize("budget", HUGE_BUDGETS, ids=["201-digits", "4300-digits"])
    @pytest.mark.parametrize("csm", ["proportional", "shapley"])
    def test_huge_max_steps_runs_as_usual(self, capsys, parallel_file, csm, budget):
        code, out, err = run_cli(capsys, "solve", "--instance", parallel_file, "--csm", csm,
                                 "--max-steps", budget, "--json")
        assert code == 0 and err == ""
        huge = json.loads(out)
        code, out, _ = run_cli(capsys, "solve", "--instance", parallel_file, "--csm", csm,
                               "--json")
        usual = json.loads(out)
        assert huge.pop("step_budget") == int(budget) and huge.pop("budget_overridden")
        del usual["step_budget"], usual["budget_overridden"]
        assert huge == usual

    @pytest.mark.parametrize("budget", HUGE_BUDGETS, ids=["201-digits", "4300-digits"])
    def test_huge_max_steps_under_sampling_exit_2(self, capsys, parallel_file, budget):
        code, out, err = run_cli(capsys, "solve", "--instance", parallel_file,
                                 "--csm", "shapley-sampled", "--max-steps", budget)
        assert code == 2
        assert out == ""
        assert err == ("error: the step budget is too large for shapley-sampled: "
                       "the per-share failure probability underflows\n")

    WARNING = ("warning: step budget 32 is very large; "
               "consider --max-steps (voids the ratio guarantee)\n")

    @pytest.fixture
    def stderr_at_run(self, capsys, monkeypatch):
        """Lower the warning threshold below the parallel instance's T = 32
        and record what stderr held when ``run_abrd`` started."""
        monkeypatch.setattr(cli, "BIG_BUDGET_WARNING", 31)
        seen, run = [], cli.run_abrd

        def spy(instance, config):
            seen.append(capsys.readouterr().err)
            return run(instance, config)

        monkeypatch.setattr(cli, "run_abrd", spy)
        return seen

    def test_big_budget_warning_comes_before_the_run(self, capsys, parallel_file,
                                                     stderr_at_run):
        code, out, err = run_cli(capsys, "solve", "--instance", parallel_file)
        assert code == 0 and "output cost      4" in out
        assert stderr_at_run == [self.WARNING] and err == ""

    def test_no_big_budget_warning_under_max_steps(self, capsys, parallel_file,
                                                   stderr_at_run):
        code, _, err = run_cli(capsys, "solve", "--instance", parallel_file,
                               "--max-steps", "40")
        assert code == 0
        assert stderr_at_run == [""] and err == ""

    def test_big_budget_warning_precedes_a_failed_run(self, capsys, monkeypatch, tmp_path):
        # one routing request with no s-t path, T = 3
        monkeypatch.setattr(cli, "BIG_BUDGET_WARNING", 2)
        code, out, err = run_cli(capsys, "solve", "--instance", instance_file(tmp_path, ONE_WAY))
        assert code == 3 and out == ""
        assert err == (self.WARNING.replace("32", "3")
                       + "infeasible: no path from 's' to 't'\n")

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"alphas\": [2.0,\n}", encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", "--instance", str(bad))
        assert code == 2
        assert "line" in err

    def test_infeasible_exit_3(self, capsys, tmp_path):
        doc = {
            "alphas": [2.0],
            "resources": [{"id": "e", "sigma": 1.0, "xis": [1.0]}],
            "graph": {"directed": False, "vertices": ["s", "t", "u"],
                      "edges": [{"id": "e", "tail": "s", "head": "u"}]},
            "requests": [{"id": 1,
                          "kind": {"type": "routing", "source": "s", "target": "t"}}],
        }
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", "--instance", str(path))
        assert code == 3

    def test_trace_written_and_deterministic(self, capsys, tmp_path, parallel_file):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "solve", "--instance", parallel_file, "--seed", "4",
                "--trace", str(t1))
        run_cli(capsys, "solve", "--instance", parallel_file, "--seed", "4",
                "--trace", str(t2))
        assert t1.read_bytes() == t2.read_bytes()
        assert t1.read_text().startswith("step,player,delta_selected,Delta,cost")

    def test_json_output(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "solve", "--instance", parallel_file,
                               "--brute", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["output_cost"] == pytest.approx(4.0)
        assert doc["ratio"] == pytest.approx(1.0)
        assert doc["bounds"]["T"] == 32

    def test_identical_invocations_identical_output(self, capsys, parallel_file):
        args = ("solve", "--instance", parallel_file, "--csm", "shapley-sampled",
                "--seed", "12", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_randomized_selection_and_last_output(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "solve", "--instance", parallel_file,
                               "--selection", "rand", "--output", "last",
                               "--seed", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["selection"] == "randomized"
        assert doc["step_budget"] == 2 * 32 ** 2
        assert doc["output_cost"] == pytest.approx(4.0)

    def test_capped_sampled_run_reports_the_void_guarantee_once(self, tmp_path):
        # 12 players whose subset sums all differ share two parallel edges,
        # so every share on the crowded edge samples, and a cap of 10
        # samples voids each one; the run is a fresh process, so any log
        # record at warning level or above would reach its stderr
        replies = [["e1"], ["e2"]]
        doc = {"alphas": [1.5],
               "resources": [{"id": e, "sigma": 1.0, "xis": [1.0]} for e in ("e1", "e2")],
               "requests": [{"id": i, "weight_all": 100_000 + 7 * 2 ** i,
                             "kind": {"type": "explicit", "replies": replies}}
                            for i in range(1, 13)]}
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        script = ("import sys; from gndes import cli, sharing; sharing.MAX_SAMPLES = 10; "
                  "sys.exit(cli.main(sys.argv[1:]))")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, "solve", "--instance", str(path),
             "--csm", "shapley-sampled", "--epsilon", "0.15", "--seed", "2", "--max-steps", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "  epsilon guarantee void on 24 of 24 sampled shares\n" in done.stdout


# one set-connectivity request over 14 parallel edges, past the 12 edges whose
# subsets the brute force enumerates (analysis.MAX_SUBSET_EDGES)
WIDE = {
    "alphas": [2.0],
    "resources": [{"id": f"p{k}", "sigma": 1.0, "xis": [1.0]} for k in range(14)],
    "graph": {"directed": False, "vertices": ["s", "t"],
              "edges": [{"id": f"p{k}", "tail": "s", "head": "t"} for k in range(14)]},
    "requests": [{"id": 1, "kind": {"type": "set_connectivity", "terminals": ["s", "t"]}}],
}


class TestBruteAndNash:
    def test_brute(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "brute", "--instance", parallel_file)
        assert code == 0 and "cost  4" in out

    def test_brute_refusal_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "brute", "--instance", instance_file(tmp_path, WIDE))
        assert code == 4
        assert "refused" in err

    def test_solve_brute_refused_after_the_run_exit_4(self, capsys, monkeypatch, tmp_path):
        # the run finishes, then the enumeration of the optimum is refused:
        # nothing is printed and no trace is written
        finished, run = [], cli.run_abrd

        def spy(instance, config):
            finished.append(run(instance, config))
            return finished[-1]

        monkeypatch.setattr(cli, "run_abrd", spy)
        trace = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "solve", "--instance", instance_file(tmp_path, WIDE),
                                 "--brute", "--trace", str(trace))
        assert (code, out, len(finished)) == (4, "", 1)
        assert err.startswith("refused: ") and not trace.exists()

    def test_nash_poa_one(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "nash", "--instance", parallel_file,
                               "--csm", "shapley")
        assert code == 0 and "PoA             1" in out

    def test_nash_csv_rows(self, capsys, tmp_path, parallel_file):
        csv = tmp_path / "profiles.csv"
        code, _, _ = run_cli(capsys, "nash", "--instance", parallel_file,
                             "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "profile,cost,is_nash"
        assert len(lines) == 5  # header + 4 profiles
        assert sum(1 for ln in lines[1:] if ln.endswith("true")) == 2


class TestNoFeasibleReply:
    @pytest.mark.parametrize("argv", [
        ("brute",), ("brute", "--json"), ("nash",), ("nash", "--json"),
        ("smooth",), ("smooth", "--json"),
    ], ids=" ".join)
    def test_exit_3_without_a_verdict(self, capsys, tmp_path, argv):
        path = tmp_path / "one_way.json"
        path.write_text(json.dumps(ONE_WAY), encoding="utf-8")
        code, out, err = run_cli(capsys, argv[0], "--instance", str(path), *argv[1:])
        assert code == 3
        assert out == ""
        assert err == "infeasible: request 1 has no feasible reply\n"


# one routing request along a path of 1,200 edges: its one simple path is
# longer than Python's recursion limit
LONG_PATH = {
    "alphas": [2.0],
    "resources": [{"id": f"e{k}", "sigma": 1.0, "xis": [1.0]} for k in range(1200)],
    "graph": {"directed": False, "vertices": [f"v{k}" for k in range(1201)],
              "edges": [{"id": f"e{k}", "tail": f"v{k}", "head": f"v{k + 1}"}
                        for k in range(1200)]},
    "requests": [{"id": 1, "kind": {"type": "routing", "source": "v0", "target": "v1200"}}],
}


class TestLongPath:
    @pytest.mark.parametrize("command, verdict", [
        ("brute", "  cost  2400\n"), ("nash", "  equilibria      1\n"),
        ("smooth", "  pairs tested  1\n"),
    ])
    def test_enumerating_commands_take_the_one_path(self, capsys, tmp_path, command, verdict):
        code, out, err = run_cli(capsys, command, "--instance",
                                 instance_file(tmp_path, LONG_PATH))
        assert (code, err) == (0, "")
        assert verdict in out


# repeated machines, replies and directed pairs add no strategy and no demand
REPEATED_MACHINES = {
    "alphas": [2.0],
    "resources": [{"id": "m1", "sigma": 1.0, "xis": [1.0]},
                  {"id": "m2", "sigma": 2.0, "xis": [1.0]}],
    "requests": [{"id": 1, "kind": {"type": "machine_choice", "machines": ["m1", "m1", "m2"]}},
                 {"id": 2, "kind": {"type": "explicit", "replies": [["m1"], ["m2"], ["m2"]]}}],
}
REPEATED_PAIR = {
    "alphas": [2.0],
    "resources": [{"id": "su", "sigma": 1.0, "xis": [1.0]},
                  {"id": "ut", "sigma": 1.0, "xis": [1.0]}],
    "graph": {"directed": True, "vertices": ["s", "u", "t"],
              "edges": [{"id": "su", "tail": "s", "head": "u"},
                        {"id": "ut", "tail": "u", "head": "t"}]},
    "requests": [{"id": 1, "kind": {"type": "multi_routing",
                                    "pairs": [["s", "u"], ["s", "u"]]}}],
}


def without_repeats(doc):
    """``doc`` with each request kind's repeated entries dropped."""
    requests = []
    for req in doc["requests"]:
        kind = dict(req["kind"])
        for name in ("machines", "replies", "pairs"):
            if name in kind:
                kind[name] = [x for k, x in enumerate(kind[name]) if x not in kind[name][:k]]
        requests.append(dict(req, kind=kind))
    return dict(doc, requests=requests)


class TestRepeatedEntries:
    @pytest.mark.parametrize("command, verdict", [
        ("nash", "  equilibria      1\n"), ("smooth", "  pairs tested  16\n"),
    ])
    def test_a_repeated_machine_or_reply_is_one_strategy(self, capsys, tmp_path,
                                                          command, verdict):
        code, out, _ = run_cli(capsys, command, "--instance",
                               instance_file(tmp_path, REPEATED_MACHINES))
        assert code == 0 and verdict in out
        plain = instance_file(tmp_path, without_repeats(REPEATED_MACHINES))
        assert run_cli(capsys, command, "--instance", plain) == (0, out, "")

    def test_a_repeated_directed_pair_is_one_demand(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bounds", "--instance",
                               instance_file(tmp_path, REPEATED_PAIR))
        assert code == 0 and "  rho           1\n" in out
        plain = instance_file(tmp_path, without_repeats(REPEATED_PAIR))
        assert run_cli(capsys, "bounds", "--instance", plain) == (0, out, "")

    @pytest.mark.parametrize("doc", [REPEATED_MACHINES, REPEATED_PAIR])
    def test_writing_a_parsed_file_drops_the_repeats(self, tmp_path, doc):
        written = json.loads(instance_to_text(parse_instance(instance_file(tmp_path, doc))))
        assert written == json.loads(instance_to_text(parse_instance(
            instance_file(tmp_path, without_repeats(doc)))))
        kinds = [req["kind"] for req in written["requests"]]
        assert all(len(set(map(json.dumps, kind.get(name, [])))) == len(kind.get(name, []))
                   for kind in kinds for name in ("machines", "replies", "pairs"))


class TestCsvWalks:
    @pytest.mark.parametrize("command", ["nash", "smooth"])
    def test_csv_walks_the_profiles_once(self, capsys, monkeypatch, tmp_path,
                                         parallel_file, command):
        _, plain, _ = run_cli(capsys, command, "--instance", parallel_file)
        walks = []
        real = analysis.enumerate_profiles

        def counted(instance):
            walks.append(instance)
            return real(instance)

        monkeypatch.setattr(analysis, "enumerate_profiles", counted)
        code, out, _ = run_cli(capsys, command, "--instance", parallel_file,
                               "--csv", str(tmp_path / "rows.csv"))
        assert code == 0
        assert len(walks) == 1
        assert out == plain


class TestSmoothBoundsFpl:
    @pytest.mark.parametrize("pairs", ["0", "-3"])
    @pytest.mark.parametrize("extra", [(), ("--json",), ("--csv", "pairs.csv")],
                             ids=["text", "json", "csv"])
    def test_smooth_without_pairs_exit_2(self, capsys, tmp_path, parallel_file,
                                         pairs, extra):
        extra = tuple(str(tmp_path / x) if x.endswith(".csv") else x for x in extra)
        code, out, err = run_cli(capsys, "smooth", "--instance", parallel_file,
                                 "--pairs", pairs, *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: the number of pairs must be >= 1, got {pairs}\n"
        assert not (tmp_path / "pairs.csv").exists()

    def test_smooth_passes(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "smooth", "--instance", parallel_file,
                               "--csm", "shapley")
        assert code == 0 and "pass" in out

    def test_smooth_violation_exit_1(self, capsys, monkeypatch, parallel_file):
        # lambda = 0 fails every pair with a positive deviation sum
        monkeypatch.setattr(cli, "smoothness_constants", lambda instance, mechanism: (0.0, 0.5))
        code, out, _ = run_cli(capsys, "smooth", "--instance", parallel_file)
        assert code == 1
        assert "  lambda        0\n" in out and "FAIL" in out

    def test_smooth_csv_rows(self, capsys, tmp_path, parallel_file):
        csv = tmp_path / "pairs.csv"
        code, _, _ = run_cli(capsys, "smooth", "--instance", parallel_file,
                             "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("profile,deviation_profile")
        assert len(lines) == 17  # header + 16 ordered pairs

    def test_bounds_frozen_example(self, capsys, parallel_file):
        code, out, _ = run_cli(capsys, "bounds", "--instance", parallel_file,
                               "--csm", "shapley", "--epsilon", "0.01")
        assert code == 0
        assert "T             32" in out

    def test_bounds_report_the_guarantee_of_solve(self, capsys, tmp_path):
        path = tmp_path / "steiner.json"
        path.write_text(json.dumps(STEINER_PATH), encoding="utf-8")
        code, out, _ = run_cli(capsys, "bounds", "--instance", str(path), "--json")
        assert code == 0
        bounds = json.loads(out)
        code, out, _ = run_cli(capsys, "solve", "--instance", str(path), "--json")
        assert code == 0
        solved = json.loads(out)["bounds"]
        assert bounds["rho"] == solved["rho"] == 2.0
        assert bounds["ratio_bound"] == solved["ratio_bound"]

    def test_bounds_bad_epsilon_exit_2(self, capsys, parallel_file):
        code, _, err = run_cli(capsys, "bounds", "--instance", parallel_file,
                               "--epsilon", "0.5")
        assert code == 2 and "epsilon" in err

    def test_fpl_runs_on_routing_instance(self, capsys, tmp_path):
        path = tmp_path / "routing.json"
        path.write_text(json.dumps(TWO_ROUTES), encoding="utf-8")
        trace = tmp_path / "regret.csv"
        code, out, _ = run_cli(capsys, "fpl", "--instance", str(path),
                               "--rounds", "50", "--trace", str(trace))
        assert code == 0
        assert "regret[1]" in out
        assert trace.read_text().startswith("round,player,realized_toll")

    def test_fpl_rejects_non_routing(self, capsys, parallel_file):
        code, _, err = run_cli(capsys, "fpl", "--instance", parallel_file)
        assert code == 2

    def test_fpl_reports_the_given_lower_bound(self, capsys, tmp_path):
        path = tmp_path / "routing.json"
        path.write_text(json.dumps(TWO_ROUTES), encoding="utf-8")
        code, out, _ = run_cli(capsys, "fpl", "--instance", str(path),
                               "--rounds", "5", "--lb", "2")
        assert code == 0
        assert "  guarantee conditional on scaled optimum >= 2\n" in out
        assert "no optimum lower bound given" not in out

    @pytest.mark.parametrize("lb", ["nan", "inf", "-1"])
    def test_fpl_rejects_a_lower_bound_that_is_not_a_cost(self, capsys, tmp_path, lb):
        path = tmp_path / "routing.json"
        path.write_text(json.dumps(TWO_ROUTES), encoding="utf-8")
        code, out, err = run_cli(capsys, "fpl", "--instance", str(path),
                                 "--rounds", "5", f"--lb={lb}")
        assert code == 2 and "--lb must be a finite number >= 0" in err
        assert out == ""

    @pytest.mark.parametrize("rounds", ["0", str(2 ** 63), "100000000000000000000"])
    def test_fpl_rejects_a_round_count_outside_64_bits(self, capsys, tmp_path, rounds):
        # the output round is drawn as a 64-bit integer, which once ended
        # in numpy's "high is out of bounds for int64" and a traceback
        path = tmp_path / "routing.json"
        path.write_text(json.dumps(TWO_ROUTES), encoding="utf-8")
        code, out, err = run_cli(capsys, "fpl", "--instance", str(path), "--rounds", rounds)
        assert code == 2 and f"round count must lie in [1, 2^63 - 1], got {rounds}" in err
        assert out == ""

    def test_fpl_on_graph_without_edges_exit_3(self, capsys, tmp_path):
        doc = {
            "alphas": [2.0],
            "resources": [{"id": "e", "sigma": 1.0, "xis": [1.0]}],
            "graph": {"directed": False, "vertices": ["a", "b"], "edges": []},
            "requests": [{"id": 1,
                          "kind": {"type": "routing", "source": "a", "target": "b"}}],
        }
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("solve", "fpl"):
            code, _, err = run_cli(capsys, command, "--instance", str(path))
            assert code == 3
            assert "infeasible: no path from 'a' to 'b'" in err


class TestPoaGen:
    def test_generates_and_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "poa.json"
        code, out, _ = run_cli(capsys, "poa-gen", "--sigma", "16", "--xi", "1",
                               "--alpha", "2", "--out", str(out_path))
        assert code == 0
        assert "9 resources, 4 requests" in out
        inst = parse_instance(str(out_path))
        assert instance_to_text(inst) == out_path.read_text()

    def test_rejects_sigma_equal_xi(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "poa-gen", "--sigma", "1", "--xi", "1",
                               "--alpha", "2", "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_rejects_q_below_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "poa-gen", "--sigma", "16", "--xi", "1",
                               "--alpha", "2", "--q", "0", "--out", str(tmp_path / "x.json"))
        assert code == 2 and "q must be >= 1" in err

    def test_refuses_more_exponents_than_the_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_POA_EXPONENTS", 3)
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "poa-gen", "--sigma", "16", "--xi", "1",
                                 "--alpha", "2", "--q", "4", "--out", str(out_path))
        assert (code, out, err) == (2, "", "error: q = 4 exceeds the cap of 3 exponents\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("sigma", ["inf", "1e400", "nan"])
    def test_rejects_sigma_without_a_finite_ratio(self, capsys, tmp_path, sigma):
        out_path = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "poa-gen", "--sigma", sigma, "--xi", "1",
                               "--alpha", "2", "--out", str(out_path))
        assert code == 2 and "is not a finite number" in err
        assert not out_path.exists()

    def test_refuses_more_requests_than_the_cap(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "poa-gen", "--sigma", "1e300", "--xi", "1",
                               "--alpha", "2", "--out", str(out_path))
        assert code == 2
        assert f"exceeds the cap of {analysis.MAX_POA_REQUESTS} requests" in err
        assert not out_path.exists()

    def test_suggests_nearest_sigma(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "poa-gen", "--sigma", "15", "--xi", "1",
                               "--alpha", "2", "--out", str(tmp_path / "x.json"))
        assert code == 2 and "16" in err

    def test_a_nearest_sigma_past_a_double_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "poa-gen", "--sigma", "1.79e308", "--xi", "1",
                                 "--alpha", "200", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == ("error: (sigma/xi)^(1/alpha) = 34.7748 is not an integer >= 2; the"
                       " nearest valid sigma, xi * 35^alpha, exceeds the largest double\n")
        assert not out_path.exists()


def one_machine(alpha, weight_all=1, sigma=1.0, xi=1.0):
    """One request on one machine, so a constant or cost grows only with alpha."""
    return {"alphas": [alpha], "resources": [{"id": "m", "sigma": sigma, "xis": [xi]}],
            "requests": [{"id": 1, "weight_all": weight_all,
                          "kind": {"type": "machine_choice", "machines": ["m"]}}]}


STEINER_24 = dict(STEINER_PATH, alphas=[24.0])

# two machines, each a choice of every request
MACHINE_CHOICE = {"type": "machine_choice", "machines": ["m1", "m2"]}
TWO_MACHINES = {"alphas": [2.0], "resources": [{"id": "m1", "sigma": 1.0, "xis": [1.0]},
                                               {"id": "m2", "sigma": 1.0, "xis": [1.0]}],
                "requests": [{"id": 1, "kind": MACHINE_CHOICE},
                             {"id": 2, "kind": MACHINE_CHOICE}]}
NAN_SIGMA = dict(TWO_MACHINES, resources=[dict(TWO_MACHINES["resources"][0], sigma=math.nan),
                                          TWO_MACHINES["resources"][1]])
# one request whose 401-digit weight is itself beyond a double
HUGE_WEIGHT = dict(TWO_MACHINES, requests=[{"id": 1, "weight_all": 10 ** 400,
                                            "kind": MACHINE_CHOICE}])



def sampled_edge_machines(xi):
    """Two machines without startup cost, two unit requests, one of which
    may pick either: the Hoeffding quotient of a share divides by an
    underflowed 0 at xi = 1e-170 and squares past a double at xi = 1e154."""
    return {"alphas": [2.0],
            "resources": [{"id": "m1", "sigma": 0.0, "xis": [xi]},
                          {"id": "m2", "sigma": 0.0, "xis": [xi]}],
            "requests": [{"id": 1, "kind": {"type": "machine_choice", "machines": ["m1"]}},
                         {"id": 2, "kind": MACHINE_CHOICE}]}

def instance_file(tmp_path, doc) -> str:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestBeyondADouble:
    @pytest.mark.parametrize("command, csm, alpha", [
        ("bounds", "shapley", 25), ("solve", "shapley", 25), ("smooth", "shapley", 25),
        ("bounds", "proportional", 31), ("solve", "proportional", 31),
    ])
    def test_constant_beyond_a_double_exit_2(self, capsys, tmp_path, command, csm, alpha):
        path = instance_file(tmp_path, one_machine(alpha))
        code, out, err = run_cli(capsys, command, "--instance", path, "--csm", csm)
        assert code == 2
        assert out == ""
        assert err == f"error: lambda_alpha exceeds the largest double at alpha_max = {alpha}\n"

    @pytest.mark.parametrize("csm, alpha", [("shapley", 24), ("proportional", 30)])
    def test_largest_constants_still_run(self, capsys, tmp_path, csm, alpha):
        path = instance_file(tmp_path, one_machine(alpha))
        code, out, _ = run_cli(capsys, "bounds", "--instance", path, "--csm", csm, "--json")
        assert code == 0
        assert 1e280 < json.loads(out)["lambda_alpha"] < float("inf")

    @pytest.mark.parametrize("command", ["bounds", "solve"])
    def test_infinite_lambda_exit_2(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command, "--instance",
                                 instance_file(tmp_path, STEINER_24), "--json")
        assert code == 2
        assert out == ""
        assert err == "error: lambda exceeds the largest double at alpha_max = 24\n"

    @pytest.mark.parametrize("command", ["bounds", "solve", "smooth"])
    @pytest.mark.parametrize("alpha", [1.5, 3])
    def test_subnormal_factor_exit_2(self, capsys, tmp_path, command, alpha):
        # (alpha - 1) xi is 0.0 at alpha 1.5 and subnormal at 3, so the float
        # quotient is inf either way, yet gamma_alpha and lambda fit in a
        # double (test_bounds holds the value against mpmath)
        path = instance_file(tmp_path, one_machine(alpha, xi=5e-324))
        code, out, err = run_cli(capsys, command, "--instance", path, "--json")
        assert (code, err) == (0, "")
        if command == "bounds":
            assert json.loads(out)["gamma_alpha"] == {1.5: 5.472220127961797e215,
                                                      3: 4.660098708109119e107}[alpha]

    @pytest.mark.parametrize("command", ["bounds", "solve", "smooth"])
    def test_subnormal_factor_without_startup_cost_runs(self, capsys, tmp_path, command):
        path = instance_file(tmp_path, one_machine(1.5, sigma=0.0, xi=5e-324))
        code, out, _ = run_cli(capsys, command, "--instance", path, "--json")
        assert code == 0
        if command == "bounds":
            assert json.loads(out)["gamma_alpha"] == 0.0

    @pytest.mark.parametrize("command", ["brute", "nash"])
    def test_cost_beyond_a_double_exit_2(self, capsys, tmp_path, command):
        path = instance_file(tmp_path, one_machine(200, weight_all=60))
        code, out, err = run_cli(capsys, command, "--instance", path)
        assert code == 2
        assert out == ""
        assert err == "error: cost of resource 'm' at load 60 exceeds the largest double\n"

    @pytest.mark.parametrize("command", ["solve", "brute"])
    def test_load_beyond_a_double_exit_2(self, capsys, tmp_path, command):
        path = instance_file(tmp_path, HUGE_WEIGHT)
        code, out, err = run_cli(capsys, command, "--instance", path)
        assert code == 2
        assert out == ""
        assert err == (f"error: cost of resource 'm1' at load {10 ** 400}"
                       " exceeds the largest double\n")

    @pytest.mark.parametrize("field, doc", [
        ("resources[0].sigma", dict(TWO_MACHINES, resources=[
            dict(TWO_MACHINES["resources"][0], sigma=10 ** 400), TWO_MACHINES["resources"][1]])),
        ("resources[1].xis[0]", dict(TWO_MACHINES, resources=[
            TWO_MACHINES["resources"][0], dict(TWO_MACHINES["resources"][1], xis=[10 ** 400])])),
        ("alphas[0]", dict(TWO_MACHINES, alphas=[10 ** 400])),
    ], ids=["sigma", "xis", "alphas"])
    def test_an_integer_literal_past_a_double_exit_2(self, capsys, tmp_path, field, doc):
        code, out, err = run_cli(capsys, "solve", "--instance", instance_file(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"error: {field}: integer exceeds the largest double\n"

    def test_a_float_literal_past_a_double_stays_not_finite(self, capsys, tmp_path):
        path = instance_file(tmp_path, TWO_MACHINES)
        text = Path(path).read_text(encoding="utf-8").replace('"sigma": 1.0', '"sigma": 1e400', 1)
        Path(path).write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", "--instance", path)
        assert (code, out) == (2, "")
        assert err == "error: resource 'm1': sigma must be finite\n"


    @pytest.mark.parametrize("xi", [1e-170, 1e154])
    def test_sampled_counts_past_a_double_run(self, capsys, tmp_path, xi):
        path = instance_file(tmp_path, sampled_edge_machines(xi))
        outputs = {}
        for csm in ("shapley", "shapley-sampled"):
            code, out, err = run_cli(capsys, "solve", "--instance", path, "--csm", csm, "--json")
            assert (code, err) == (0, "")
            outputs[csm] = json.loads(out)
        assert (outputs["shapley-sampled"]["output_cost"].hex()
                == outputs["shapley"]["output_cost"].hex())
        assert outputs["shapley-sampled"]["sampled_shares"] == 0

def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize("command, name, expected_code", [
        ("solve", "parallel", 0), ("brute", "parallel", 0), ("nash", "parallel", 0),
        ("smooth", "parallel", 0), ("fpl", "two_routes", 0), ("bounds", "parallel", 0),
        ("solve", "steiner_24", 2), ("brute", "steiner_24", 0), ("nash", "steiner_24", 0),
        ("smooth", "steiner_24", 0), ("bounds", "steiner_24", 2),
        ("solve", "nan_sigma", 2), ("brute", "nan_sigma", 2), ("nash", "nan_sigma", 2),
        ("smooth", "nan_sigma", 2), ("bounds", "nan_sigma", 2),
    ])
    def test_json_output_is_strict(self, capsys, tmp_path, command, name, expected_code):
        doc = {"parallel": json.loads(PARALLEL), "two_routes": TWO_ROUTES,
               "steiner_24": STEINER_24, "nan_sigma": NAN_SIGMA}[name]
        code, out, _ = run_cli(capsys, command, "--instance", instance_file(tmp_path, doc),
                               "--json")
        assert code == expected_code
        if code:
            assert out == ""
        else:
            assert isinstance(json.loads(out, parse_constant=reject_constant), dict)


class TestOnePath:
    """Every command that reads ``--instance`` reads it in one place, before
    its own options are checked, and ``main`` turns a file it cannot read or
    parse into exit 2 with one ``error:`` line and no report."""

    COMMANDS = ["solve", "brute", "nash", "smooth", "fpl", "bounds"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_missing_file_exit_2(self, capsys, tmp_path, command):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, command, "--instance", missing)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and missing in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("text, message", [
        ("{\n  \"alphas\": [2.0,\n}", "error: invalid JSON at line 3, column 1: Expecting value\n"),
        ("[]", "error: top level: expected an object\n"),
    ], ids=["invalid-json", "not-an-object"])
    def test_a_malformed_file_exit_2(self, capsys, tmp_path, command, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        for extra in ((), ("--json",)):
            assert run_cli(capsys, command, "--instance", str(bad), *extra) == (2, "", message)

    def test_the_instance_is_read_before_an_option_is_checked(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, "fpl", "--instance", missing, "--lb", "nan")
        assert code == 2 and out == ""
        assert missing in err and "--lb" not in err
