"""Tests for the placement-policy API: specs, registry, classifiers.

Pins the contract the redesign must keep: stock-policy cache keys are
byte-identical to the pre-API era, the registry is the single source of
policy names, and the capacity-aware classifiers respect their budget.
"""

import re

import pytest

from repro.moca.classify import Thresholds, classify_object
from repro.moca.lut import ObjectProfile
from repro.moca.naming import ObjectName
from repro.moca.policy import (
    CapacityBudget,
    ClassificationPolicy,
    KnapsackClassifier,
    PolicyContext,
    PolicySpec,
    ThresholdClassifier,
    UNLIMITED,
    build_policy,
    policy_canonical,
    policy_info,
    policy_names,
    register_policy,
    select_fast_tier,
    stock_policy_names,
    thresholds_from_dict,
    thresholds_to_dict,
    unregister_policy,
)
from repro.moca.profiler import profile_app
from repro.sim.single import policy_context
from repro.sim.spec import RunSpec
from repro.trace.events import PAGE_BYTES
from repro.vm.heap import ObjectType

N = 12_000

#: SHA-256 cache keys captured on the commit *before* the policy API
#: landed.  These four pins are the tentpole's core promise: the
#: redesign must not invalidate a single cached stock-policy result.
PRE_API_KEYS = {
    ("mcf", "Heter-config1", "moca", 20_000):
        "ae1e8ff4bc9a4062327d5be316a5a7cc7b085a027a491c01b7d33ecedb1e8e91",
    ("2L1B1N", "Homogen-DDR3", "homogen", 10_000):
        "290a5b050d60590042ef88249cef70587b5ee9bfd17655ff5f589bdfee686c33",
    ("mcf", "Heter-config1", "heter-app", 20_000):
        "792142fdeb3a2f7f9edf08fd321af8673a4638a859efccf534756041b44802b1",
    ("lbm", "Homogen-HBM", "homogen", 20_000):
        "99944f45b9925f51c526ff0f89778c6cdf9f7af7377eb7ca9abf8af019ed1d51",
}


def _profile(frame, size_bytes, mpki, misses, stalls):
    """A minimal hand-built ObjectProfile for classifier unit tests.

    ``llc_mpki`` is a derived property, so the kilo-instruction count is
    back-computed from the requested MPKI.
    """
    return ObjectProfile(
        name=ObjectName(frames=(frame,)), label=f"obj{frame:#x}",
        size_bytes=size_bytes, accesses=max(1, misses * 10),
        llc_misses=misses, load_misses=misses, stall_cycles=stalls,
        kilo_instructions=(misses / mpki if mpki > 0 else 1.0))


class TestStockKeyStability:
    @pytest.mark.parametrize("fields,expect", sorted(PRE_API_KEYS.items()))
    def test_pinned_pre_api_key(self, fields, expect):
        workload, config, policy, n = fields
        assert RunSpec(workload, config, policy, n).key() == expect

    def test_stock_canonical_is_bare_string(self):
        for name in stock_policy_names():
            spec = RunSpec("mcf", "Heter-config1", name, N)
            assert spec.canonical()["policy"] == name

    def test_new_parameterless_policies_also_bare(self):
        # knapsack/ranker are not stock, but the same rule applies: no
        # params, no dict — future pins stay stable the same way.
        doc = RunSpec("mcf", "Heter-config1", "knapsack", N).canonical()
        assert doc["policy"] == "knapsack"

    def test_parameterized_policy_extends_canonical(self):
        bare = RunSpec("mcf", "Heter-config1", "knapsack", N)
        sized = RunSpec("mcf", "Heter-config1", "knapsack:fast_mb=128", N)
        assert sized.canonical()["policy"] == {
            "name": "knapsack", "params": {"fast_mb": 128}}
        assert bare.key() != sized.key()
        assert sized.key() != RunSpec(
            "mcf", "Heter-config1", "knapsack:fast_mb=64", N).key()


class TestPolicySpec:
    def test_parse_bare_name(self):
        spec = PolicySpec.parse("moca")
        assert spec.name == "moca" and spec.params == ()
        assert spec.canonical() == "moca"
        assert spec.label() == "moca"

    def test_parse_parameterized(self):
        spec = PolicySpec.parse("knapsack:fast_mb=128,greedy=true")
        assert spec.params_dict() == {"fast_mb": 128, "greedy": True}
        assert spec.label() == "knapsack[fast_mb=128,greedy=true]"

    def test_params_normalized_sorted(self):
        a = PolicySpec.of("knapsack", b=1, a=2)
        b = PolicySpec.of("knapsack", a=2, b=1)
        assert a == b and hash(a) == hash(b)

    def test_canonical_round_trip(self):
        for text in ("moca", "knapsack:fast_mb=128",
                     "ranker:alpha=0.5,tag=x"):
            spec = PolicySpec.parse(text)
            assert PolicySpec.from_canonical(spec.canonical()) == spec

    def test_bad_names_and_params_rejected(self):
        with pytest.raises(ValueError, match="bad policy name"):
            PolicySpec("Not A Name")
        with pytest.raises(ValueError, match="bad policy parameter"):
            PolicySpec.of("moca", **{"Bad-Key": 1})
        with pytest.raises(ValueError, match="expected name:key=value"):
            PolicySpec.parse("moca:oops")
        with pytest.raises(ValueError, match="scalar"):
            PolicySpec("moca", (("k", [1, 2]),))

    @pytest.mark.parametrize("text, match", [
        ("knapsack:fast_mb=1,fast_mb=2", "duplicate policy parameter"),
        ("knapsack:fast_mb=-5", "policy 'knapsack': fast_mb=-5"),
        ("knapsack:fast_mb=true", "policy 'knapsack': fast_mb=True"),
        ("knapsack:fast_mb=nan", "policy 'knapsack': fast_mb=nan"),
        ("knapsack:fast_mb=inf", "policy 'knapsack': fast_mb=inf"),
        ("ranker:fast_mb=abc", "policy 'ranker': fast_mb='abc'"),
    ])
    def test_parse_rejects_bad_params(self, text, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            PolicySpec.parse(text)

    def test_zero_and_fractional_budgets_accepted(self):
        assert PolicySpec.parse("knapsack:fast_mb=0").params_dict() == {
            "fast_mb": 0}
        assert PolicySpec.of("knapsack", fast_mb=0.5).params_dict() == {
            "fast_mb": 0.5}

    def test_runspec_normalizes_to_bare_string(self):
        # A parameterless PolicySpec collapses to the bare name so equal
        # cache keys mean equal in-memory specs too.
        spec = RunSpec("mcf", "Heter-config1", PolicySpec("moca"), N)
        assert spec.policy == "moca"
        assert spec.policy_label == "moca"
        via_str = RunSpec("mcf", "Heter-config1",
                          "knapsack:fast_mb=64", N)
        assert via_str.policy == PolicySpec.of("knapsack", fast_mb=64)
        assert via_str.policy_name == "knapsack"
        assert via_str.policy_label == "knapsack[fast_mb=64]"


class TestRegistry:
    def test_stock_and_shipped_policies_registered(self):
        assert stock_policy_names() == ("homogen", "heter-app", "moca")
        assert set(("knapsack", "ranker")) <= set(policy_names())

    def test_unknown_policy_error_names_choices(self):
        with pytest.raises(ValueError) as exc:
            policy_info("nonesuch")
        msg = str(exc.value)
        assert "unknown policy 'nonesuch'" in msg
        assert "moca" in msg and "register_policy" in msg

    def test_runspec_validates_against_registry(self):
        with pytest.raises(ValueError, match="unknown policy"):
            RunSpec("mcf", "Heter-config1", "nonesuch", N)

    def test_register_and_unregister_round_trip(self):
        @register_policy("test-all-pow", description="test-only")
        def _factory(spec, context):
            from repro.moca.allocation import MocaPolicy
            return MocaPolicy([{} for _ in context.app_names])

        try:
            assert "test-all-pow" in policy_names()
            assert not policy_info("test-all-pow").stock
            # Registration makes the name valid in a RunSpec and
            # buildable through the registry.
            RunSpec("mcf", "Heter-config1", "test-all-pow", N)
            p = build_policy("test-all-pow", PolicyContext(
                app_names=("mcf",), input_name="ref", n_accesses=N))
            assert p.object_type(0, 7) is ObjectType.POW
        finally:
            unregister_policy("test-all-pow")
        assert "test-all-pow" not in policy_names()
        with pytest.raises(ValueError, match="unknown policy"):
            RunSpec("mcf", "Heter-config1", "test-all-pow", N)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("moca")(lambda s, c: None)

    def test_stock_unregistration_refused(self):
        with pytest.raises(ValueError, match="stock"):
            unregister_policy("moca")

    def test_classifiers_satisfy_protocol(self):
        assert isinstance(ThresholdClassifier(), ClassificationPolicy)
        assert isinstance(KnapsackClassifier(), ClassificationPolicy)


class TestSharedThresholdSerialization:
    def test_round_trip(self):
        t = Thresholds(2.0, 40.0)
        assert thresholds_from_dict(thresholds_to_dict(t)) == t

    def test_runspec_and_sidecar_share_the_form(self):
        # RunSpec.canonical() and the InstrumentedApp sidecar must carry
        # the same dict shape, so a profile artefact can never drift from
        # the cache key that described it.
        from repro.moca.framework import MocaFramework
        from repro.moca.serialize import instrumented_to_dict

        t = Thresholds(2.0, 40.0)
        spec_form = RunSpec("mcf", "Heter-config1", "moca", N,
                            thresholds=t).canonical()["thresholds"]
        inst = MocaFramework(thresholds=t,
                             profile_accesses=N).instrument("mcf")
        sidecar_form = instrumented_to_dict(inst)["thresholds"]
        assert spec_form == sidecar_form == thresholds_to_dict(t)


class TestSelectFastTier:
    def test_density_order_wins(self):
        cands = [("sparse", 10.0, 100), ("dense", 10.0, 10)]
        assert select_fast_tier(cands, 10) == {"dense"}

    def test_straddler_included(self):
        # Fractional-knapsack flavour: the pick that crosses the budget
        # line is still taken (its tail spills page-granularly).
        cands = [("a", 100.0, 8), ("b", 10.0, 8), ("c", 1.0, 8)]
        assert select_fast_tier(cands, 12) == {"a", "b"}

    def test_zero_budget_chooses_nothing(self):
        assert select_fast_tier([("a", 5.0, 8)], 0) == set()

    def test_deterministic_tiebreak(self):
        cands = [("b", 1.0, 8), ("a", 1.0, 8)]
        assert select_fast_tier(cands, 1) == {"a"}


class TestKnapsackClassifier:
    #: hot-lat (LAT: 4 pages), warm-pow (POW with misses: 2 pages),
    #: cold-pow (POW, never misses: 2 pages).
    LUT = [
        _profile(0x10, 4 * PAGE_BYTES, mpki=30.0, misses=9_000,
                 stalls=400_000),
        _profile(0x20, 2 * PAGE_BYTES, mpki=0.5, misses=800,
                 stalls=9_000),
        _profile(0x30, 2 * PAGE_BYTES, mpki=0.0, misses=0,
                 stalls=0),
    ]

    def test_unlimited_budget_equals_threshold(self):
        knap = KnapsackClassifier().classify([self.LUT], UNLIMITED)
        thresh = ThresholdClassifier().classify([self.LUT], UNLIMITED)
        assert knap == thresh

    def test_binding_budget_equals_threshold(self):
        # The allocator's heat-ordered page-granular spill already
        # implements the fractional fill, so a binding budget changes
        # nothing — no demotion.
        budget = CapacityBudget(2 * PAGE_BYTES)  # less than hot-lat
        knap = KnapsackClassifier().classify([self.LUT], budget)
        thresh = ThresholdClassifier().classify([self.LUT], budget)
        assert knap == thresh

    def test_spare_capacity_promotes_missing_objects(self):
        budget = CapacityBudget(7 * PAGE_BYTES)  # 3 spare pages
        types = KnapsackClassifier().classify([self.LUT], budget)[0]
        by_label = {p.name: types[p.name] for p in self.LUT}
        assert by_label[self.LUT[0].name] is ObjectType.LAT
        # warm-pow misses and fits the spare 3 pages → promoted.
        assert by_label[self.LUT[1].name] is ObjectType.LAT
        # cold-pow never misses: promoting it buys nothing.
        assert by_label[self.LUT[2].name] is ObjectType.POW

    def test_promotion_never_overcommits(self):
        budget = CapacityBudget(5 * PAGE_BYTES)  # 1 spare page only
        types = KnapsackClassifier().classify([self.LUT], budget)[0]
        # warm-pow needs 2 pages but only 1 is spare — stays put.
        assert types[self.LUT[1].name] is ObjectType.POW

    def test_run_dominates_threshold_with_spare_capacity(self):
        knap = RunSpec("milc", "Heter-cap512", "knapsack", N)
        moca = RunSpec("milc", "Heter-cap512", "moca", N)
        from repro.sim.spec import run
        assert (run(knap).mem_access_cycles
                < run(moca).mem_access_cycles)


class TestBudgetResolution:
    def test_heterogeneous_config_supplies_lat_capacity(self):
        from repro.sim.config import ALL_SYSTEMS
        cfg = ALL_SYSTEMS["Heter-config1"]
        _, ctx = policy_context("moca", ["mcf"], "ref", N, config=cfg)
        assert ctx.budget.fast_bytes == cfg.fast_tier_bytes()
        assert not ctx.budget.unlimited

    def test_homogeneous_config_is_unlimited(self):
        from repro.sim.config import ALL_SYSTEMS
        _, ctx = policy_context("moca", ["mcf"], "ref", N,
                                config=ALL_SYSTEMS["Homogen-DDR3"])
        assert ctx.budget.unlimited

    def test_fast_mb_param_overrides_config(self):
        from repro.sim.config import ALL_SYSTEMS, CAPACITY_SCALE
        from repro.util.units import MIB
        _, ctx = policy_context(
            "knapsack:fast_mb=128", ["mcf"], "ref", N,
            config=ALL_SYSTEMS["Homogen-DDR3"])
        assert ctx.budget.fast_bytes == 128 * MIB // CAPACITY_SCALE


class TestRanker:
    PROFILE_N = 20_000

    def _classifier(self):
        from repro.moca.ranker import RankerClassifier
        return RankerClassifier.trained(profile_accesses=self.PROFILE_N)

    def test_training_is_deterministic_and_memoized(self):
        a = self._classifier().model
        b = self._classifier().model
        assert a is b  # lru_cache on identical (thresholds, accesses)
        assert a.w_intensive == b.w_intensive

    def test_held_out_accuracy_recorded_and_high(self):
        model = self._classifier().model
        assert set(model.held_out_apps) == {"disparity", "tracking",
                                            "stitch"}
        assert not (set(model.held_out_apps) & set(model.train_apps))
        # The threshold rule is learnable from these features; anything
        # below this bound means the features or fit regressed.
        assert model.held_out_accuracy >= 0.9

    def test_predictions_match_thresholds_on_held_out(self):
        model = self._classifier().model
        lut = profile_app("disparity", n_accesses=self.PROFILE_N).lut
        agree = sum(model.predict(p) is classify_object(p) for p in lut)
        assert agree >= len(lut) - 1

    def test_budget_demotes_lat_overflow(self):
        clf = self._classifier()
        lut = profile_app("mcf", n_accesses=self.PROFILE_N).lut
        unlimited = clf.classify([lut], UNLIMITED)[0]
        n_lat = sum(1 for t in unlimited.values() if t is ObjectType.LAT)
        assert n_lat >= 2  # mcf has several latency objects
        tight = clf.classify([lut], CapacityBudget(PAGE_BYTES))[0]
        kept = [n for n, t in tight.items() if t is ObjectType.LAT]
        assert len(kept) == 1  # straddler only; the rest demote to BW
        demoted = [n for n, t in tight.items()
                   if unlimited[n] is ObjectType.LAT and n not in kept]
        assert all(tight[n] is ObjectType.BW for n in demoted)


class TestWriteMix:
    def test_profiler_records_writes(self):
        lut = profile_app("mcf", n_accesses=20_000).lut
        assert any(p.writes > 0 for p in lut)
        assert all(0.0 <= p.write_frac <= 1.0 for p in lut)

    def test_write_frac_clamped(self):
        # Raw-trace writes include the cache-warmup prefix that the
        # per-object access counter excludes; the property clamps.
        p = _profile(0x40, PAGE_BYTES, 2.0, 10, 100)
        p.writes = p.accesses + 50
        assert p.write_frac == 1.0

    def test_merge_folds_writes(self):
        a = _profile(0x50, PAGE_BYTES, 2.0, 10, 100)
        a.writes = 30
        b = _profile(0x50, PAGE_BYTES, 2.0, 10, 100)
        b.writes = 10
        a.merge(b, weight=0.5)
        assert a.writes == 35
