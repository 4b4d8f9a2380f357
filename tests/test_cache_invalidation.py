"""Tests that the trained-weights cache is content-sensitive."""

from repro.common.config import SimConfig
from repro.ml.training import _cache_key, _trace_fingerprint, cached_train
from repro.core.features import REDUCED_FEATURES
from repro.traffic.trace import KIND_REQUEST, Trace


def make_trace(shift: float, name: str = "same-name") -> Trace:
    entries = [
        (i % 8, (i % 8) + 1, KIND_REQUEST, 5.0 * i + shift)
        for i in range(1, 120)
    ]
    return Trace.from_entries(entries, 9, name)


CFG = SimConfig(topology="mesh", radix=3, epoch_cycles=50)


class TestFingerprint:
    def test_identical_traces_same_fingerprint(self):
        assert _trace_fingerprint(make_trace(0.0)) == _trace_fingerprint(
            make_trace(0.0)
        )

    def test_same_name_different_content_differs(self):
        # The failure mode this guards: regenerated traces keep their
        # benchmark name but carry different timing.
        assert _trace_fingerprint(make_trace(0.0)) != _trace_fingerprint(
            make_trace(0.25)
        )

    def test_empty_trace_fingerprints(self):
        a = _trace_fingerprint(Trace.empty(9, "x"))
        b = _trace_fingerprint(Trace.empty(9, "y"))
        assert a != b


class TestCacheKey:
    def test_key_changes_with_trace_content(self):
        a = _cache_key("dozznoc", REDUCED_FEATURES, CFG,
                       [make_trace(0.0)], [make_trace(1.0)], (0.1,))
        b = _cache_key("dozznoc", REDUCED_FEATURES, CFG,
                       [make_trace(0.5)], [make_trace(1.0)], (0.1,))
        assert a != b

    def test_key_changes_with_switching_mode(self):
        traces = ([make_trace(0.0)], [make_trace(1.0)])
        a = _cache_key("dozznoc", REDUCED_FEATURES, CFG, *traces, (0.1,))
        b = _cache_key("dozznoc", REDUCED_FEATURES,
                       CFG.with_(switching="wormhole"), *traces, (0.1,))
        assert a != b

    def test_key_covers_every_config_field(self):
        """Fields a hand-kept list used to miss must split the key."""
        traces = ([make_trace(0.0)], [make_trace(1.0)])
        base = _cache_key("dozznoc", REDUCED_FEATURES, CFG, *traces, (0.1,))
        for change in ({"request_flits": 2}, {"response_flits": 4},
                       {"drain_margin": 3.0}, {"seed": 1}):
            other = _cache_key("dozznoc", REDUCED_FEATURES,
                               CFG.with_(**change), *traces, (0.1,))
            assert other != base, change

    def test_response_flits_gets_its_own_ridge_file(self, tmp_path):
        """Configs differing only in response length never share weights."""
        train, val = [make_trace(0.0)], [make_trace(1.0)]
        cached_train("lead", train, val, CFG, cache_dir=tmp_path)
        cached_train("lead", train, val, CFG.with_(response_flits=4),
                     cache_dir=tmp_path)
        assert len(list(tmp_path.glob("ridge-*.npz"))) == 2

    def test_retuned_traces_retrain(self, tmp_path):
        w1 = cached_train("lead", [make_trace(0.0)], [make_trace(1.0)], CFG,
                          cache_dir=tmp_path)
        w2 = cached_train("lead", [make_trace(0.7)], [make_trace(1.0)], CFG,
                          cache_dir=tmp_path)
        # Two cache entries, not a stale reuse of the first weights.
        assert len(list(tmp_path.glob("ridge-*.npz"))) == 2
        assert w1.weights.shape == w2.weights.shape
        # And an identical request hits the cache (still two files).
        cached_train("lead", [make_trace(0.7)], [make_trace(1.0)], CFG,
                     cache_dir=tmp_path)
        assert len(list(tmp_path.glob("ridge-*.npz"))) == 2
