import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gndes import (AbrdConfig, ExplicitReplies, ExponentProfile, Instance, PassView,
                   ProfileState, Request, ResourceParams, TollRows, rep_cost, sharing)
from gndes.analysis import budget_balance_check
from gndes.errors import ConfigError, InstanceError
from gndes.instance import left_sum
from gndes.rng import keyed_rng
from gndes.sharing import (
    MAX_SAMPLES,
    MECHANISMS,
    ShareQuery,
    cost_share,
    h_value,
    hoeffding_sample_count,
    proportional_share,
    rep_expansion_check,
    rep_expansion_constants,
    samples_needed,
    shapley_exact,
    shapley_sampled,
    subset_sums_by_size,
    table_cells_bound,
    whp_delta,
)

from helpers import random_share_query, rng_for


def query(sigma, xis, alphas, weights, target):
    exp = ExponentProfile(tuple(alphas))
    res = ResourceParams("r", sigma, tuple(xis))
    users = tuple((i + 1, w) for i, w in enumerate(weights))
    return ShareQuery(res, exp, users, target=target)


def shapley_by_permutations(q: ShareQuery) -> float:
    """Independent oracle: average marginal full-cost contribution over all
    arrival orders."""
    users = dict(q.users)
    ids = sorted(users)
    total = 0.0
    for order in permutations(ids):
        before = 0
        for rid in order:
            if rid == q.target:
                break
            before += users[rid]
        after = before + users[q.target]
        total += (rep_cost(q.resource, q.exponents, after)
                  - rep_cost(q.resource, q.exponents, before))
    return total / math.factorial(len(ids))


def shapley_by_masks(q: ShareQuery) -> float:
    """Independent oracle in exact arithmetic: the subset-coefficient
    formula over every subset of the other users, with each h value taken
    exactly as a Fraction of its float."""
    others = [w for i, w in q.users if i != q.target]
    n = len(q.users)
    w_target = q.target_weight

    def h(x):
        return Fraction(h_value(q.resource, q.exponents, x))

    total = Fraction(0)
    for mask in range(1 << len(others)):
        size = bin(mask).count("1")
        before = sum(w for k, w in enumerate(others) if mask >> k & 1)
        coeff = Fraction(math.factorial(size) * math.factorial(n - 1 - size),
                         math.factorial(n))
        total += coeff * (h(before + w_target) - h(before))
    return float(Fraction(q.resource.sigma) / n + total)


class TestHValue:
    def test_single_term(self):
        res = ResourceParams("r", 5.0, (1.0,))
        assert h_value(res, ExponentProfile((2.0,)), 3) == pytest.approx(9.0)

    def test_zero(self):
        res = ResourceParams("r", 5.0, (1.0,))
        assert h_value(res, ExponentProfile((2.0,)), 0) == 0.0

    def test_two_terms(self):
        res = ResourceParams("r", 0.0, (1.0, 2.0))
        assert h_value(res, ExponentProfile((2.0, 3.0)), 2) == pytest.approx(20.0)

    @pytest.mark.parametrize("xi, alpha, load", [(1.0, 200.0, 60), (10.0, 1023.9, 2)],
                             ids=["power-overflows", "product-overflows"])
    def test_beyond_a_double_raises(self, xi, alpha, load):
        res = ResourceParams("r", 0.0, (xi,))
        with pytest.raises(InstanceError) as info:
            h_value(res, ExponentProfile((alpha,)), load)
        assert str(info.value) == (
            f"cost of resource 'r' at load {load} exceeds the largest double")

    @given(
        x1=st.floats(min_value=0.0, max_value=20.0),
        x2=st.floats(min_value=0.0, max_value=20.0),
        y=st.floats(min_value=0.0, max_value=20.0),
        alpha=st.floats(min_value=1.01, max_value=4.0),
    )
    def test_supermodular_increments(self, x1, x2, y, alpha):
        # adding y on top of a larger base gains at least as much
        lhs = (x1 + y) ** alpha - x1 ** alpha
        rhs = (x1 + x2 + y) ** alpha - (x1 + x2) ** alpha
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestProportional:
    def test_example(self):
        q = query(6.0, [1.0], [2.0], [1, 2], target=1)
        assert proportional_share(q) == pytest.approx(5.0)

    def test_sole_user_pays_everything(self):
        q = query(6.0, [1.0], [2.0], [3], target=1)
        assert proportional_share(q) == pytest.approx(15.0)

    def test_heavier_target(self):
        q = query(6.0, [1.0], [2.0], [1, 2], target=2)
        assert proportional_share(q) == pytest.approx(10.0)


class TestShapleyExact:
    def test_example_weights_1_2(self):
        q1 = query(6.0, [1.0], [2.0], [1, 2], target=1)
        q2 = query(6.0, [1.0], [2.0], [1, 2], target=2)
        assert shapley_exact(q1) == pytest.approx(shapley_by_permutations(q1))
        assert shapley_exact(q1) == pytest.approx(6.0)
        assert shapley_exact(q2) == pytest.approx(9.0)

    def test_sole_user(self):
        q = query(6.0, [1.0], [2.0], [3], target=1)
        assert shapley_exact(q) == pytest.approx(15.0)

    def test_symmetric_users_split_evenly(self):
        q = query(0.0, [1.0], [2.0], [1, 1], target=1)
        assert shapley_exact(q) == pytest.approx(2.0)

    def test_matches_permutation_oracle(self):
        rng = rng_for(3)
        for _ in range(40):
            q = random_share_query(rng, max_users=5)
            assert shapley_exact(q) == pytest.approx(shapley_by_permutations(q), rel=1e-9)

    def test_matches_exact_mask_enumeration(self):
        rng = rng_for(13)
        for _ in range(60):
            q = random_share_query(rng, max_users=10, max_weight=5)
            reference = shapley_by_masks(q)
            assert abs(shapley_exact(q) - reference) <= 1e-12 * abs(reference)

    def test_beyond_twelve_users(self):
        # 40 unit users split the power part evenly
        q = query(4.0, [1.0], [2.0], [1] * 40, target=7)
        assert shapley_exact(q) == pytest.approx(4.0 / 40 + 1600.0 / 40, rel=1e-12)

    def test_target_must_use_resource(self):
        exp = ExponentProfile((2.0,))
        res = ResourceParams("r", 1.0, (1.0,))
        with pytest.raises(InstanceError):
            ShareQuery(res, exp, ((1, 1),), target=2)


class TestShareQueryValidation:
    EXP = ExponentProfile((2.0,))
    RES = ResourceParams("r", 1.0, (1.0,))

    @pytest.mark.parametrize("users, target", [
        (((1, 2.7), (2, 1)), 1),       # a float weight is not truncated to 2
        (((1, 2.0), (2, 1)), 1),       # nor is an integral float accepted
        (((1.9, 2), (2, 1)), 2),       # a float id is not truncated to 1
        ((("a", 2), (2, 1)), 2),       # a string id is not a ValueError
    ])
    def test_ids_and_weights_must_be_integers(self, users, target):
        with pytest.raises(InstanceError, match="^request ids and weights in a share "
                                                "query must be integers$"):
            ShareQuery(self.RES, self.EXP, users, target=target)

    def test_numpy_integers_are_integers(self):
        q = ShareQuery(self.RES, self.EXP, ((np.int64(2), np.int32(3)), (1, np.uint8(1))),
                       target=2)
        assert q.users == ((1, 1), (2, 3))
        assert all(type(x) is int for user in q.users for x in user)

    @pytest.mark.parametrize("users, target, message", [
        (((1, 1), (1, 2)), 1, "^duplicate request ids in a share query$"),
        (((1, 1), (1, 2)), 3, "^duplicate request ids in a share query$"),
        (((1, 1),), 2, "^target 2 is not among the resource's users$"),
        (((1, 0),), 2, "^target 2 is not among the resource's users$"),
        (((1, 0), (2, 1)), 2, "^weights must be >= 1$"),
    ])
    def test_the_other_checks_keep_their_order_and_messages(self, users, target, message):
        with pytest.raises(InstanceError, match=message):
            ShareQuery(self.RES, self.EXP, users, target=target)

    def test_a_float_weight_does_not_fake_a_budget_balance_failure(self):
        with pytest.raises(InstanceError):
            budget_balance_check("proportional", [(self.RES, self.EXP, ((1, 2.7), (2, 1)))])


class TestSubsetSumsBySize:
    def test_small_example(self):
        assert subset_sums_by_size([1, 2, 2]) == [
            {0: 1}, {1: 1, 2: 2}, {3: 2, 4: 1}, {5: 1}]

    def test_empty(self):
        assert subset_sums_by_size([]) == [{0: 1}]

    def test_matches_enumeration(self):
        rng = rng_for(19)
        for _ in range(40):
            weights = [int(w) for w in rng.integers(1, 6, size=int(rng.integers(1, 11)))]
            table = subset_sums_by_size(weights)
            assert len(table) == len(weights) + 1
            for k, sums in enumerate(table):
                expected = Counter(sum(c) for c in combinations(weights, k))
                assert sums == expected
                assert list(sums) == sorted(sums)


class TestCountingTables:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(),
           alphas=st.lists(st.floats(min_value=1.05, max_value=4.0), min_size=1, max_size=2),
           calls=st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                    st.lists(st.integers(min_value=1, max_value=6),
                                             min_size=1, max_size=9),
                                    st.booleans()),
                          min_size=1, max_size=25))
    def test_a_shared_store_returns_what_fresh_calls_return(self, data, alphas, calls):
        # one instance's resources, queried in any order, with the store
        # aged at random points; every share must keep its bits
        exp = ExponentProfile(tuple(alphas))
        resources = [ResourceParams(f"r{k}", data.draw(st.floats(0.0, 5.0)),
                                    tuple(data.draw(st.floats(0.1, 2.0)) for _ in alphas))
                     for k in range(3)]
        store = sharing.CountingTables()
        for k, weights, age in calls:
            users = tuple((i + 1, w) for i, w in enumerate(weights))
            target = data.draw(st.integers(min_value=1, max_value=len(weights)))
            q = ShareQuery(resources[k], exp, users, target=target)
            assert shapley_exact(q, store).hex() == shapley_exact(q).hex()
            assert (cost_share("shapley-exact", q, tables=store).hex()
                    == cost_share("shapley-exact", q).hex())
            if age:
                store.age()

    def test_each_multiset_is_counted_once_per_generation(self, monkeypatch):
        built = []
        table = sharing.subset_sums_by_size
        monkeypatch.setattr(sharing, "subset_sums_by_size",
                            lambda weights: built.append(weights) or table(weights))
        store = sharing.CountingTables()
        # the others of user 1 in [1, 2, 2] and of user 3 in [2, 2, 1]
        # are the same multiset {2, 2}
        shapley_exact(query(1.0, [1.0], [2.0], [1, 2, 2], target=1), store)
        shapley_exact(query(1.0, [1.0], [2.0], [2, 2, 1], target=3), store)
        assert built == [(2, 2)]
        # a table used since the last age() survives the next one
        for _ in range(2):
            store.age()
            shapley_exact(query(1.0, [1.0], [2.0], [2, 2, 3], target=3), store)
        assert built == [(2, 2)]
        # one not used between two calls of age() is dropped and built again
        store.age()
        store.age()
        shapley_exact(query(1.0, [1.0], [2.0], [2, 2, 3], target=3), store)
        assert built == [(2, 2), (2, 2)]


class TestWhpDelta:
    def test_budgets_within_a_double_keep_their_bits(self):
        for steps, n, m in ((0, 1, 1), (32, 2, 2), (65_326, 200, 480),
                            (200 * 65_326 ** 2, 200, 480), (10 ** 150, 3, 7)):
            expected = 1.0 / (2.0 * (max(1, steps) * n * m) ** 2)
            assert whp_delta(steps, n, m).hex() == expected.hex()

    def test_a_budget_past_a_double_rounds_the_exact_quotient(self):
        # 2 (T N |E|)^2 is past the largest double in each
        assert whp_delta(10 ** 154, 2, 2) == 1 / (2 * (4 * 10 ** 154) ** 2) > 0.0
        assert whp_delta(10 ** 161, 1, 1) == 5e-323
        assert whp_delta(10 ** 200, 2, 2) == whp_delta(int("1" + "0" * 4299), 3, 3) == 0.0


class TestCostShare:
    def test_exact_mechanisms_dispatch(self):
        q = query(6.0, [1.0], [2.0], [1, 2], target=1)
        assert cost_share("proportional", q) == proportional_share(q)
        assert cost_share("shapley-exact", q) == shapley_exact(q)

    @pytest.mark.parametrize("name", ["shapley-sampled", "shapley", "bogus"])
    def test_other_names_are_refused(self, name):
        # a sampled share's count is decided by the dynamics, not here
        with pytest.raises(ConfigError, match=f"^no exact share for mechanism '{name}'$"):
            cost_share(name, query(6.0, [1.0], [2.0], [1, 2], target=1))


class TestBudgetBalance:
    @pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"])
    def test_random_sweep(self, mechanism):
        rng = rng_for(5)
        queries = [random_share_query(rng) for _ in range(150)]
        report = budget_balance_check(
            mechanism, [(q.resource, q.exponents, q.users) for q in queries])
        assert report.queries_tested == 150
        assert report.max_rel_gap <= 1e-9

    def test_forty_users(self):
        rng = rng_for(23)
        queries = [query(1.5, [0.7, 0.2], [2.0, 3.5],
                         [int(w) for w in rng.integers(1, 6, size=40)], target=1)
                   for _ in range(3)]
        report = budget_balance_check(
            "shapley-exact", [(q.resource, q.exponents, q.users) for q in queries])
        assert report.max_rel_gap <= 1e-9


class TestSeparability:
    def test_shares_ignore_identities(self):
        # permuting request ids while keeping the target's weight fixed
        # leaves the share unchanged
        rng = rng_for(9)
        for _ in range(30):
            q = random_share_query(rng, max_users=5)
            relabeled = tuple((i + 100, w) for i, w in q.users)
            q2 = ShareQuery(q.resource, q.exponents, relabeled, target=q.target + 100)
            assert shapley_exact(q) == pytest.approx(shapley_exact(q2), rel=1e-12)
            assert proportional_share(q) == pytest.approx(proportional_share(q2), rel=1e-12)

    def test_bit_identical_under_permuted_ids(self):
        # the pass view memoizes a share by the others' weight multiset
        # alone, which needs every relabelling to give the same float
        rng = rng_for(17)
        for _ in range(30):
            q = random_share_query(rng, max_users=14, max_weight=5)
            share = shapley_exact(q)
            target_weight = q.target_weight
            for _ in range(3):
                ids = [int(i) for i in rng.permutation(len(q.users)) + 1]
                users = tuple(zip(ids, (w for _, w in q.users)))
                target = next(i for i, w in users if w == target_weight)
                permuted = ShareQuery(q.resource, q.exponents, users, target=target)
                assert shapley_exact(permuted) == share


class TestShapleySampled:
    def test_sole_user_exact_for_any_sample_count(self):
        q = query(6.0, [1.0], [2.0], [3], target=1)
        for seed, samples in enumerate((1, 2, 10, 100, MAX_SAMPLES + 1)):
            est = shapley_sampled(q, keyed_rng(seed), samples)
            assert est == pytest.approx(15.0, rel=1e-12)

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("weights", [[3], [1, 2]], ids=["sole", "two"])
    def test_a_count_below_one_is_refused(self, samples, weights):
        q = query(6.0, [1.0], [2.0], weights, target=1)
        with pytest.raises(ConfigError, match=f"at least one permutation, got {samples}$"):
            shapley_sampled(q, keyed_rng(1, "none"), samples)

    def test_band_and_unbiasedness(self):
        q = query(6.0, [1.0], [2.0], [1, 2], target=1)
        exact = shapley_exact(q)
        trials = 400
        m = hoeffding_sample_count(q, 0.05, 0.05)
        estimates = [shapley_sampled(q, keyed_rng(seed, "band"), m) for seed in range(trials)]
        in_band = sum(1 for e in estimates if 0.95 * exact <= e <= 1.05 * exact)
        assert in_band / trials >= 0.95

        # unbiasedness within 3 standard errors; the sigma part is exact, so
        # compare against the analytic per-sample variance of the h marginals
        marginals = [1.0, 5.0]  # h deltas for target first / second
        mean_m = sum(marginals) / 2
        var_m = sum((x - mean_m) ** 2 for x in marginals) / 2
        stderr = math.sqrt(var_m / m / trials)
        assert abs(sum(estimates) / trials - exact) <= 3 * stderr

    def test_convergence_with_more_samples(self):
        q = query(2.0, [1.0, 0.5], [2.0, 3.0], [1, 2, 3], target=2)
        exact = shapley_exact(q)
        errs = []
        for eps in (0.5, 0.1, 0.02):
            est = shapley_sampled(q, keyed_rng(123, eps), hoeffding_sample_count(q, eps, 0.01))
            errs.append(abs(est - exact))
        assert errs[-1] <= 0.02 * exact

    def test_deterministic_per_stream(self):
        q = query(6.0, [1.0], [2.0], [1, 2, 2], target=1)
        m = hoeffding_sample_count(q, 0.1, 0.05)
        a = shapley_sampled(q, keyed_rng(7, "s"), m)
        b = shapley_sampled(q, keyed_rng(7, "s"), m)
        assert a == b

    @pytest.mark.parametrize("block", [1, 7, 50])
    def test_blocks_reproduce_one_draw(self, monkeypatch, block):
        q = query(2.0, [1.0, 0.5], [2.0, 3.0], [1, 2, 3, 5, 8, 13, 21], target=3)
        assert 1000 * 7 <= sharing.SAMPLE_BLOCK      # one block at the default
        whole = shapley_sampled(q, keyed_rng(5, "blocks"), 1000)
        monkeypatch.setattr(sharing, "SAMPLE_BLOCK", block)
        assert shapley_sampled(q, keyed_rng(5, "blocks"), 1000) == whole

    def test_memory_is_bounded_by_the_block(self):
        # one 50,000 x 100 draw held at once peaks near 125 MB
        q = query(1.0, [1.0], [2.0], [k % 7 + 1 for k in range(100)], target=3)
        tracemalloc.start()
        try:
            shapley_sampled(q, keyed_rng(1, "memory"), 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_sample_cap_binds_with_warning(self, caplog):
        # the count itself is uncapped and silent; the estimator applies
        # the cap and logs, at debug level, that the guarantee is void (a
        # run counts its capped shares and reports them once)
        q = query(6.0, [1.0], [2.0], [1, 2, 2], target=1)
        with caplog.at_level("DEBUG"):
            m = hoeffding_sample_count(q, 0.01, 1e-9)
        assert m > MAX_SAMPLES and not caplog.records
        with caplog.at_level("DEBUG"):
            shapley_sampled(q, keyed_rng(3, "cap"), m)
        assert [r.getMessage() for r in caplog.records] == [
            f"sample count {m} for resource 'r' capped at {MAX_SAMPLES};"
            " the epsilon guarantee is void"]
        assert caplog.records[0].levelname == "DEBUG"


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           weights=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
           alphas=st.lists(st.floats(min_value=1.05, max_value=4.0), min_size=1, max_size=2))
    def test_every_marginal_lies_in_the_hoeffding_range(self, data, weights, alphas):
        xis = data.draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                                 min_size=len(alphas), max_size=len(alphas)))
        target = data.draw(st.integers(min_value=1, max_value=len(weights)))
        q = query(1.0, xis, alphas, weights, target)
        res, exp, w = q.resource, q.exponents, q.target_weight
        least = h_value(res, exp, w)
        most = h_value(res, exp, q.load) - h_value(res, exp, q.load - w)
        slack = 1e-12 * most
        users = dict(q.users)
        for order in permutations(users):
            before = sum(users[i] for i in order[:order.index(target)])
            marginal = h_value(res, exp, before + w) - h_value(res, exp, before)
            assert least - slack <= marginal <= most + slack

    def test_a_sampled_share_is_exact_when_counting_is_cheaper(self, monkeypatch):
        # the dynamics decide a sampled share's count; for these queries it
        # is 0, so a pass's toll is the exact share and nothing is drawn
        monkeypatch.setattr(sharing, "shapley_sampled", lambda *args: pytest.fail("sampled"))
        config = AbrdConfig(mechanism="shapley-sampled", epsilon=0.01)
        rng = rng_for(41)
        for _ in range(60):
            q = random_share_query(rng, max_users=8, max_weight=5)
            assert samples_needed(q, 0.01, 1e-6) == 0
            only = ExplicitReplies((frozenset({"r"}),))
            inst = Instance(q.exponents, (q.resource,),
                            tuple(Request(i, only, default_weight=w) for i, w in q.users))
            state = ProfileState(inst, (frozenset({"r"}),) * len(q.users))
            view = PassView(state, config, 1, 1e-6, TollRows())
            assert view.tolls(q.target - 1)["r"] == shapley_exact(q)
            assert view.sampled_shares == 0

    def test_count_spans_the_range_of_the_marginals(self):
        # h(x) = x^2, weights 1 and 2, target 1: the marginal is 1 or 5, a
        # width of 4, and the share is at least sigma/2 + h(1) = 4
        q = query(6.0, [1.0], [2.0], [1, 2], target=1)
        assert hoeffding_sample_count(q, 0.05, 0.05) == math.ceil(
            4.0 ** 2 * math.log(2.0 / 0.05) / (2.0 * (0.05 * 4.0) ** 2))

    def test_few_heavy_users_take_the_counting_table(self):
        # 2^(n-1) subsets bound the table however large the weights are
        weights = [10_000 + 7 * k for k in range(7)]
        q = query(1.0, [1.0], [2.0], weights, target=1)
        assert 7 * 2 ** 6 <= hoeffding_sample_count(q, 0.3, 0.05) < 7 * 7 * q.load
        assert samples_needed(q, 0.3, 0.05) == 0

    def test_spread_heavy_weights_still_sample(self):
        # 14 users whose subset sums all differ: the counting table really
        # has 2^13 cells, so drawing the Hoeffding count is cheaper
        weights = [100_000 + 7 * 2 ** k for k in range(14)]
        q = query(1.0, [1.0], [2.0], weights, target=1)
        others = [w for i, w in q.users if i != q.target]
        assert sum(map(len, subset_sums_by_size(others))) == table_cells_bound(q) == 2 ** 13
        m = samples_needed(q, 0.3, 0.05)
        assert m == hoeffding_sample_count(q, 0.3, 0.05) > 0
        est = shapley_sampled(q, keyed_rng(4, "heavy"), m)
        assert est != shapley_sampled(q, keyed_rng(4, "heavy"), m - 1)
        exact = shapley_exact(q)
        assert est != exact
        assert 0.7 * exact <= est <= 1.3 * exact

    @pytest.mark.parametrize("weights, epsilon, delta, cells", [
        # one cell per size, though the others have 2^15 subsets
        ([100_000] * 16, 0.15, 1e-6, 16),
        # the k-subsets of 10^5 + 1, ..., 10^5 + 13 sum to k(13 - k) + 1
        # values, 378 in all, against 2^13 subsets
        ([100_000 + k for k in range(14)], 0.3, 0.05, 378),
    ], ids=["repeated", "close"])
    def test_heavy_weights_with_few_sums_take_the_counting_table(
            self, weights, epsilon, delta, cells):
        q = query(1.0, [1.0], [2.0], weights, target=1)
        others = [w for i, w in q.users if i != q.target]
        assert sum(map(len, subset_sums_by_size(others))) == table_cells_bound(q) == cells
        assert samples_needed(q, epsilon, delta) == 0

    @settings(max_examples=80, deadline=None)
    @given(weights=st.lists(st.sampled_from([1, 2, 3, 50, 99_991, 100_000, 100_003]),
                            min_size=1, max_size=12),
           target=st.integers(min_value=1, max_value=12))
    def test_table_bound_covers_the_counting_table(self, weights, target):
        q = query(1.0, [1.0], [2.0], weights, min(target, len(weights)))
        others = [w for i, w in q.users if i != q.target]
        cells = sum(map(len, subset_sums_by_size(others)))
        multisets = math.prod(c + 1 for c in Counter(others).values())
        assert cells <= table_cells_bound(q) <= min(multisets, len(weights) * q.load)


class TestExpansion:
    def test_proportional_constants_alpha2(self):
        c = rep_expansion_constants("proportional", ExponentProfile((2.0,)))
        assert c.z == ((2.0, 2.0),)

    def test_shapley_constants_alpha2(self):
        c = rep_expansion_constants("shapley-exact", ExponentProfile((2.0,)))
        assert c.z == ((9.0, 4.0),)

    def test_shapley_constants_alpha3(self):
        c = rep_expansion_constants("shapley-exact", ExponentProfile((3.0,)))
        assert c.z == ((27.0, 6.0),) and c.z_max == 27.0

    def test_exponents_pair_up(self):
        # the bound is the general expansion's left fold over the terms
        # (x, y) = (0, alpha) and (alpha - 1, 1), which pair up to alpha,
        # bit for bit
        rng = rng_for(23)
        for _ in range(200):
            q = random_share_query(rng)
            res, w = q.resource, float(q.target_weight)
            rest = float(q.load - q.target_weight)
            for mechanism in MECHANISMS:
                c = rep_expansion_constants(mechanism, q.exponents)
                bound = res.sigma
                for xi, a, (z1, z2) in zip(res.xis, q.exponents.alphas, c.z):
                    terms = ((0.0, a, z1), (a - 1.0, 1.0, z2))
                    for x, y, _ in terms:
                        assert x + y == a and 0.0 <= x <= a - 1.0 and 1.0 <= y <= a
                    if xi:
                        bound += xi * left_sum(z * rest ** x * w ** y for x, y, z in terms)
                assert rep_expansion_check(mechanism, q).bound.hex() == bound.hex()

    def test_check_examples(self):
        q = query(6.0, [1.0], [2.0], [1, 2], target=1)
        prop = rep_expansion_check("proportional", q)
        assert prop.share == pytest.approx(5.0)
        assert prop.bound == pytest.approx(12.0)
        shap = rep_expansion_check("shapley-exact", q)
        assert shap.share == pytest.approx(6.0)
        assert shap.bound == pytest.approx(23.0)
        assert prop.ok and shap.ok

    @pytest.mark.parametrize("name", MECHANISMS)
    def test_mechanism_names_accepted(self, name):
        c = rep_expansion_constants(name, ExponentProfile((2.0,)))
        assert c.z == (((2.0, 2.0),) if name == "proportional" else ((9.0, 4.0),))

    @pytest.mark.parametrize("name", ["shapley-bogus", "proportional-x", "shapley-", "bogus",
                                      "shapley"])
    def test_unknown_mechanism_names_rejected(self, name):
        with pytest.raises(ConfigError, match=f"unknown mechanism '{name}'"):
            rep_expansion_constants(name, ExponentProfile((2.0,)))
        with pytest.raises(ConfigError, match=f"unknown mechanism '{name}'"):
            rep_expansion_check(name, query(6.0, [1.0], [2.0], [1, 2], target=1))

    @pytest.mark.parametrize("mechanism", ["proportional", "shapley-exact"],
                             ids=["proportional", "shapley"])
    @pytest.mark.parametrize("alphas,xis,sigma", [
        ((2.5,), (0.7,), 1.5),
        ((2.0, 3.5), (1.2, 0.3), 0.0),
        ((1.2,), (2.0,), 4.0),
    ])
    def test_exhaustive_small_queries(self, mechanism, alphas, xis, sigma):
        # all weight multisets with entries <= 4 and up to 4 users
        exp = ExponentProfile(alphas)
        res = ResourceParams("r", sigma, xis)
        for n in range(1, 5):
            for weights in product(range(1, 5), repeat=n):
                for target in range(1, n + 1):
                    q = ShareQuery(res, exp,
                                   tuple((i + 1, w) for i, w in enumerate(weights)),
                                   target=target)
                    assert rep_expansion_check(mechanism, q).ok


class TestPastADouble:
    """Shares and counts whose float formulas leave the double range on the way."""

    @staticmethod
    def float_count(q, epsilon, delta):
        """The count as the float formula alone gives it."""
        res, exp, w = q.resource, q.exponents, q.target_weight
        least = h_value(res, exp, w)
        spread = (h_value(res, exp, q.load) - h_value(res, exp, q.load - w)) - least
        lower = res.sigma / len(q.users) + least
        return math.ceil(spread * spread * math.log(2.0 / delta)
                         / (2.0 * (epsilon * lower) ** 2))

    @pytest.mark.parametrize("xi, failure", [(1e-170, ZeroDivisionError), (1e154, OverflowError)],
                             ids=["divisor-underflows", "square-overflows"])
    def test_the_count_is_the_ceiling_of_the_exact_rational(self, xi, failure):
        q = query(0.0, [xi], [2.0], [1, 1], target=1)
        epsilon, delta = 0.05, 1e-6
        with pytest.raises(failure):
            self.float_count(q, epsilon, delta)

        def h(x):
            return Fraction(h_value(q.resource, q.exponents, x))

        spread, lower = h(2) - h(1) - h(1), h(1)
        expected = math.ceil(spread ** 2 * Fraction(math.log(2.0 / delta))
                             / (2 * (Fraction(epsilon) * lower) ** 2))
        assert hoeffding_sample_count(q, epsilon, delta) == expected
        # the true share is h(1) + (h(2) - 2 h(1)) / 2 whatever the scale,
        # so the count is the one of xi = 1 up to the rounding of the h values
        assert abs(expected - hoeffding_sample_count(query(0.0, [1.0], [2.0], [1, 1], 1),
                                                     epsilon, delta)) <= 1

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), epsilon=st.floats(1e-3, 0.999),
           delta=st.floats(sys.float_info.min, 0.999))
    def test_counts_the_float_formula_gives_keep_their_bits(self, seed, epsilon, delta):
        q = random_share_query(rng_for(seed))
        assert hoeffding_sample_count(q, epsilon, delta) == max(
            1, self.float_count(q, epsilon, delta))

    @pytest.mark.parametrize("delta", [0.0, 5e-324, sys.float_info.min / 2, 1.0])
    def test_a_confidence_below_the_least_normal_double_is_refused(self, delta):
        q = query(1.0, [1.0], [2.0], [1, 2], target=1)
        message = r"^confidence delta must lie in \[2\.2250738585072014e-308, 1\)$"
        with pytest.raises(ConfigError, match=message):
            hoeffding_sample_count(q, 0.1, delta)
        assert hoeffding_sample_count(q, 0.1, sys.float_info.min) > 1

    def test_a_sampled_share_past_a_double_is_refused_as_its_cost_is(self):
        q = query(0.0, [1e306], [2.0], [30, 40], target=1)
        with pytest.raises(InstanceError) as expected:
            h_value(q.resource, q.exponents, q.load)
        with pytest.raises(InstanceError) as info:
            shapley_sampled(q, keyed_rng(1, "edge"), 100)
        assert str(info.value) == str(expected.value)
