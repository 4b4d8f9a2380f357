"""Determinism tests for the repro-all writers (CSV, HTML, artifacts).

The emitted bytes must be a pure function of the inputs: repr-exact
float formatting, sorted iteration, no timestamps or environment
leakage.  The artifact layer (canonical JSON, memo, bench artifacts,
manifest validation) is covered here too — it is what makes the
resume/determinism guarantees of ``repro-all`` checkable at all.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactLayout,
    ExperimentMemo,
    canonical_json,
    memo_key,
    read_bench_artifact,
    sha256_file,
    validate_manifest,
    write_bench_artifact,
    write_json,
)
from repro.experiments.figures import EvalScale
from repro.experiments.report import (
    csv_text,
    format_cell,
    render_html_report,
)


class TestFormatCell:
    def test_floats_are_repr_exact(self):
        assert format_cell(0.1) == "0.1"
        assert format_cell(1 / 3) == repr(1 / 3)
        assert float(format_cell(1 / 3)) == 1 / 3  # round-trips

    def test_bool_before_int(self):
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(1) == "1"

    def test_none_and_text(self):
        assert format_cell(None) == ""
        assert format_cell("canneal") == "canneal"


class TestCsvText:
    def test_shape_and_trailing_newline(self):
        text = csv_text(["a", "b"], [[1, 0.5], ["x", None]])
        assert text == "a,b\n1,0.5\nx,\n"

    def test_escaping(self):
        text = csv_text(["h"], [['say "hi", ok']])
        assert text == 'h\n"say ""hi"", ok"\n'

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="columns"):
            csv_text(["a", "b"], [[1]])

    def test_deterministic(self):
        rows = [[0.1 + 0.2, -3, "m"]]
        assert csv_text(["x", "y", "z"], rows) == csv_text(
            ["x", "y", "z"], rows
        )


def _tiny_manifest():
    return {
        "kind": "repro-manifest",
        "schema": ARTIFACT_SCHEMA,
        "scale": "quick",
        "backend": "object",
        "seed": 0,
        "selected": ["exp"],
        "experiments": {
            "exp": {
                "title": "An <experiment> & title",
                "kind": "figure",
                "headlines": {"x": 0.5, "n": 3},
                "files": {"raw": "raw/exp.json", "csv": "csv/exp.csv"},
            }
        },
        "files": {"raw/exp.json": "0" * 64, "csv/exp.csv": "1" * 64},
        "expectations": {
            "status": "clean", "source": "quick.json", "checked": 2,
            "failures": [], "unchecked": [],
        },
        "bench": {},
    }


class TestHtmlReport:
    def test_byte_deterministic(self):
        manifest = _tiny_manifest()
        tables = {"exp": (["a"], [[1.5]])}
        assert render_html_report(manifest, tables) == render_html_report(
            manifest, tables
        )

    def test_no_timestamp_or_env_leakage(self, monkeypatch):
        html = render_html_report(_tiny_manifest(), {})
        # The renderer never consults the clock or the host: rendering
        # under a poisoned clock must not change a byte.
        import datetime
        import time

        year = str(datetime.date.today().year)
        monkeypatch.setattr(
            time, "time", lambda: (_ for _ in ()).throw(AssertionError)
        )
        assert render_html_report(_tiny_manifest(), {}) == html
        for word in (year, "hostname", "elapsed"):
            assert word not in html

    def test_escapes_html(self):
        html = render_html_report(_tiny_manifest(), {
            "exp": (["<th>"], [["<script>alert(1)</script>"]])
        })
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html
        assert "An &lt;experiment&gt; &amp; title" in html

    def test_drift_status_rendered_loudly(self):
        manifest = _tiny_manifest()
        manifest["expectations"] = {
            "status": "drift", "source": "quick.json", "checked": 1,
            "failures": [{"experiment": "exp", "headline": "x",
                          "problem": "value moved"}],
            "unchecked": [],
        }
        html = render_html_report(manifest, {})
        assert 'class="fail">DRIFT' in html
        assert "value moved" in html


class TestCanonicalJson:
    def test_normalizes_tuples_numpy_and_key_order(self):
        payload = {
            "b": (1, 2),
            "a": np.float64(0.5),
            "n": np.int64(3),
            "arr": np.arange(2),
        }
        text = canonical_json(payload)
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 0.5, "b": [1, 2], "n": 3,
                                    "arr": [0, 1]}
        # Key order in the input never changes the bytes.
        assert canonical_json(dict(reversed(list(payload.items())))) == text

    def test_round_trip_is_fixed_point(self):
        payload = {"x": [0.1, {"k": (1,)}]}
        once = json.loads(canonical_json(payload))
        assert canonical_json(once) == canonical_json(payload)


class TestExperimentMemo:
    def test_put_get_round_trip(self, tmp_path):
        memo = ExperimentMemo(tmp_path)
        scale = EvalScale.quick()
        key = memo_key("exp", "quick", replace(
            scale, sim=scale.sim.with_(backend="object")
        ))
        assert memo.get(key) is None
        memo.put(key, {"headlines": {"x": 1.5}})
        assert memo.get(key) == {"headlines": {"x": 1.5}}
        assert (memo.hits, memo.misses) == (1, 1)

    def test_corrupt_entry_is_discarded(self, tmp_path):
        memo = ExperimentMemo(tmp_path)
        key = memo_key("exp", "quick", EvalScale.quick())
        memo.put(key, {"a": 1})
        path = next((tmp_path / "experiments").glob("*.json"))
        path.write_text("{not json")
        assert ExperimentMemo(tmp_path).get(key) is None

    def test_key_depends_on_id_and_fingerprint(self):
        scale = EvalScale.quick()
        base = memo_key("exp", "quick", scale)
        assert memo_key("exp", "quick", EvalScale.quick()) == base
        assert memo_key("exp2", "quick", scale) != base
        assert memo_key("exp", "paper", scale) != base
        # Every scale input that can change a payload changes the key:
        # any SimConfig field (backend, radix, ...), duration and seed.
        for changed in (
            replace(scale, sim=scale.sim.with_(backend="object")),
            replace(scale, sim=scale.sim.with_(radix=5)),
            replace(scale, sim=scale.sim.with_(response_flits=4)),
            replace(scale, duration_ns=scale.duration_ns + 1),
            replace(scale, seed=scale.seed + 1),
        ):
            assert memo_key("exp", "quick", changed) != base, changed
        # Execution knobs never change a payload, so never the key.
        assert memo_key(
            "exp", "quick", replace(scale, jobs=4, cache_dir="elsewhere")
        ) == base


class TestBenchArtifacts:
    def test_schema_wrapped_write_and_read(self, tmp_path):
        out = tmp_path / "out"
        path = write_bench_artifact(out, "BENCH_kernel", {"ns": 12})
        wrapped = json.loads(path.read_text())
        assert wrapped["kind"] == "bench-artifact"
        assert wrapped["schema"] == ARTIFACT_SCHEMA
        assert read_bench_artifact("BENCH_kernel", out) == {"ns": 12}
        layout = ArtifactLayout(out)
        assert layout.bench_artifacts()  # indexed under the manifest

    def test_legacy_compat_read_path(self, tmp_path):
        out = tmp_path / "out"
        legacy = tmp_path / "benchmarks-out"
        write_bench_artifact(out, "BENCH_kernel", {"ns": 12},
                             legacy_dir=legacy)
        # The unwrapped legacy copy still exists for the CI upload path
        # and is readable when the schema'd artifact is gone.
        assert json.loads(
            (legacy / "BENCH_kernel.json").read_text()
        ) == {"ns": 12}
        assert read_bench_artifact(
            "BENCH_kernel", tmp_path / "nowhere", legacy_dir=legacy
        ) == {"ns": 12}
        assert read_bench_artifact(
            "BENCH_kernel", tmp_path / "nowhere"
        ) is None


class TestValidateManifest:
    def _written(self, tmp_path):
        layout = ArtifactLayout(tmp_path / "out")
        raw = write_json(layout.raw_path("exp"), {"payload": 1})
        csv = layout.csv_path("exp")
        csv.parent.mkdir(parents=True, exist_ok=True)
        csv.write_text("a\n1\n")
        manifest = _tiny_manifest()
        manifest["files"] = {
            layout.relative(raw): sha256_file(raw),
            layout.relative(csv): sha256_file(csv),
        }
        return manifest, layout

    def test_valid_manifest_passes(self, tmp_path):
        manifest, layout = self._written(tmp_path)
        assert validate_manifest(manifest, layout) == []

    def test_digest_mismatch_detected(self, tmp_path):
        manifest, layout = self._written(tmp_path)
        layout.csv_path("exp").write_text("tampered\n")
        errors = validate_manifest(manifest, layout)
        assert any("csv/exp.csv" in e for e in errors)

    def test_missing_keys_detected(self, tmp_path):
        manifest, layout = self._written(tmp_path)
        del manifest["expectations"]
        assert validate_manifest(manifest, layout) == [
            "manifest missing key 'expectations'"
        ]

    def test_wrong_kind_detected(self, tmp_path):
        manifest, layout = self._written(tmp_path)
        manifest["kind"] = "other"
        errors = validate_manifest(manifest, layout)
        assert any("kind" in e for e in errors)
