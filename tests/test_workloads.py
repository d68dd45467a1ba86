"""Tests for the synthetic application suite and workload mixes."""

import pytest

from repro.trace.events import PAGE_BYTES
from repro.workloads.inputs import (REF, TRAIN, app_layout, build_app_trace,
                                    input_names)
from repro.workloads.mixes import MIX_NAMES, MIXES, mix, parse_mix_name
from repro.workloads.spec import APP_CLASSES, APPS, app, apps_in_class


class TestAppSpecs:
    def test_ten_apps(self):
        assert len(APPS) == 10

    def test_table3_classes(self):
        """Table III of the paper, verbatim."""
        assert apps_in_class("L") == ["mcf", "milc", "libquantum", "disparity"]
        assert apps_in_class("B") == ["mser", "lbm", "tracking"]
        assert apps_in_class("N") == ["gcc", "sift", "stitch"]

    def test_lookup(self):
        assert app("mcf").suite == "spec2006"
        assert app("disparity").suite == "sdvbs"
        with pytest.raises(KeyError):
            app("nginx")
        with pytest.raises(ValueError):
            apps_in_class("X")

    def test_every_app_has_segments_and_heap(self):
        for spec in APPS.values():
            heap = spec.heap_behaviors()
            segs = [b for b in spec.behaviors if b.segment is not None]
            assert len(heap) >= 3, spec.name
            assert len(segs) == 3, spec.name

    def test_sites_unique_across_suite(self):
        sites = [b.site for s in APPS.values() for b in s.heap_behaviors()]
        assert len(sites) == len(set(sites))

    def test_weights_positive(self):
        for spec in APPS.values():
            assert all(b.weight > 0 for b in spec.behaviors)

    def test_l_apps_have_dependent_objects(self):
        for name in apps_in_class("L"):
            assert any(b.effective_dep_prob > 0.2
                       for b in app(name).heap_behaviors()), name

    def test_b_apps_have_streaming_objects(self):
        for name in apps_in_class("B"):
            assert any(b.pattern in ("seq", "strided")
                       and b.effective_dep_prob < 0.2
                       for b in app(name).heap_behaviors()), name

    def test_disparity_anecdote_ordering(self):
        """Sec. VI-A: the lower-MPKI major object (img_pyramid) must be
        instantiated before the hot sad_cost object."""
        names = [b.name for b in app("disparity").heap_behaviors()]
        assert names.index("img_pyramid") < names.index("sad_cost")

    def test_footprints_exceed_scaled_rldram(self):
        """Sec. VI-A: app footprints exceed the individual module
        capacity (config1's RLDRAM is 32 MiB at 1:8 scale)."""
        for name in ("mcf", "milc", "libquantum", "disparity"):
            assert app(name).heap_footprint_bytes() > 32 * (1 << 20), name

    def test_class_dict_matches_specs(self):
        assert APP_CLASSES == {n: s.paper_class for n, s in APPS.items()}


class TestInputs:
    def test_input_names(self):
        assert input_names() == (TRAIN, REF)

    def test_train_vs_ref_differ(self):
        t = build_app_trace("mcf", TRAIN, 10_000)
        r = build_app_trace("mcf", REF, 10_000)
        assert not (t.vaddr[:100] == r.vaddr[:100]).all()

    def test_ref_footprint_grows(self):
        t = build_app_trace("gcc", TRAIN, 5_000)
        r = build_app_trace("gcc", REF, 5_000)
        assert (r.layout.heap_footprint_bytes()
                > t.layout.heap_footprint_bytes())

    def test_memoization_identity(self):
        a = build_app_trace("sift", TRAIN, 5_000)
        b = build_app_trace("sift", TRAIN, 5_000)
        assert a is b

    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError):
            build_app_trace("mcf", "validation", 1000)

    def test_trace_objects_match_spec(self):
        t = build_app_trace("lbm", TRAIN, 5_000)
        names = {o.name for o in t.layout.objects}
        assert {"grid_src", "grid_dst", "obstacle"} <= names

    def test_page_aligned_sizes_in_ref(self):
        r = build_app_trace("mcf", REF, 5_000)
        for o in r.layout.objects:
            assert o.size_bytes % PAGE_BYTES == 0


def _regions(layout):
    return [(o.name, o.vbase, o.size_bytes, o.obj_id, o.site)
            for o in layout.all_regions()]


class TestAppLayout:
    """Runs place objects from ``app_layout``; it must be the layout a
    synthesized trace carries, whatever the trace length."""

    @pytest.mark.parametrize("input_name",
                             ["train", "ref", "ref2", "drift1", "drift2"])
    @pytest.mark.parametrize("n_accesses", [1_000, 7_000])
    def test_equals_the_synthesized_layout(self, input_name, n_accesses):
        # The unmemoized builder: a fresh trace per case, and the shared
        # memo of other tests stays as it was.
        build = build_app_trace.__wrapped__
        for name in APPS:
            trace = build(name, input_name, n_accesses)
            assert _regions(app_layout(name, input_name)) == \
                _regions(trace.layout), name

    def test_memoized_and_validated(self):
        assert app_layout("mcf", REF) is app_layout("mcf", REF)
        with pytest.raises(ValueError):
            app_layout("mcf", "validation")


class TestMixes:
    def test_parse(self):
        assert parse_mix_name("2L1B1N") == {"L": 2, "B": 1, "N": 1}
        assert parse_mix_name("4L") == {"L": 4, "B": 0, "N": 0}

    @pytest.mark.parametrize("bad", ["", "4X", "L2", "2l", "2L1B1N!", "0L"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_mix_name(bad)

    def test_mix_composition(self):
        m = mix("3L1B")
        assert m.apps == ("mcf", "milc", "libquantum", "mser")
        assert m.n_cores == 4

    def test_mix_wraps_class_list(self):
        m = mix("4B")  # only three B apps exist
        assert m.apps == ("mser", "lbm", "tracking", "mser")

    def test_canonical_mixes_all_four_cores(self):
        assert len(MIX_NAMES) == 10
        for name in MIX_NAMES:
            assert MIXES[name].n_cores == 4

    def test_mix_deterministic(self):
        assert mix("2L1B1N") == mix("2L1B1N")
