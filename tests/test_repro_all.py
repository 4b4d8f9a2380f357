"""End-to-end tests for ``dozznoc repro-all`` (ISSUE 9's tentpole).

One session-scoped fixture pays for a full quick-scale run; every
layout/validation/expectations assertion reads from it.  The
resume/determinism tests rerun over the same cache directory (must be
fully memoized and byte-identical) and compare ``--jobs 1`` against
``--jobs 4`` on fresh caches.  The perturbation sentinel mirrors
``tests/golden``: a 1e-6 static-power skew must flip the exit code.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import claims
from repro.experiments.artifact import _MEMO_MODULES, validate_manifest
from repro.experiments.repro_all import (
    REPRO_EXPERIMENTS,
    SCALE_NAMES,
    EXPECTATIONS_SCHEMA,
    ReproOptions,
    diff_expectations,
    expectations_payload,
    run_repro_all,
    select_entries,
)


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="session")
def e2e(tmp_path_factory):
    """One full quick-scale run in a fresh cache dir (the expensive run)."""
    base = tmp_path_factory.mktemp("repro-all-e2e")
    options = ReproOptions(
        scale="quick", jobs=2, cache_dir=base / "cache",
        out_dir=base / "out",
    )
    report = run_repro_all(options, log=lambda line: None)
    return base, options, report


class TestEndToEnd:
    def test_exit_clean(self, e2e):
        _, _, report = e2e
        assert report.exit_code == 0
        assert report.manifest["expectations"]["status"] == "clean"
        assert report.manifest["expectations"]["failures"] == []
        assert report.manifest["expectations"]["source"] == "quick.json"
        assert report.manifest["expectations"]["checked"] > 100

    def test_out_layout(self, e2e):
        base, _, report = e2e
        out = base / "out"
        assert (out / "manifest.json").is_file()
        assert (out / "report.html").is_file()
        for exp_id in REPRO_EXPERIMENTS:
            assert (out / "raw" / f"{exp_id}.json").is_file()
            assert (out / "csv" / f"{exp_id}.csv").is_file()
        assert sorted(report.manifest["experiments"]) == sorted(
            REPRO_EXPERIMENTS
        )

    def test_manifest_schema_validates(self, e2e):
        _, _, report = e2e
        assert validate_manifest(report.manifest, report.layout) == []

    def test_manifest_on_disk_round_trips(self, e2e):
        base, _, report = e2e
        on_disk = json.loads((base / "out" / "manifest.json").read_text())
        assert on_disk == report.manifest

    def test_raw_payloads_carry_headlines(self, e2e):
        base, _, _ = e2e
        for exp_id in REPRO_EXPERIMENTS:
            raw = json.loads(
                (base / "out" / "raw" / f"{exp_id}.json").read_text()
            )
            assert raw["kind"] == "repro-experiment"
            assert raw["id"] == exp_id
            assert isinstance(raw["payload"]["headlines"], dict)
            assert raw["payload"]["headlines"]

    def test_no_environment_leakage(self, e2e):
        """Nothing host- or run-specific may reach the emitted bytes."""
        base, options, _ = e2e
        for name in ("manifest.json", "report.html"):
            text = (base / "out" / name).read_text()
            assert str(base) not in text  # no absolute paths
            assert str(options.cache_dir) not in text
            assert "jobs" not in json.loads(
                (base / "out" / "manifest.json").read_text()
            )


class TestResumeDeterminism:
    def test_rerun_fully_cached_and_byte_identical(self, e2e, tmp_path):
        base, options, first = e2e
        rerun = run_repro_all(
            ReproOptions(
                scale="quick", jobs=2, cache_dir=options.cache_dir,
                out_dir=tmp_path / "out",
            ),
            log=lambda line: None,
        )
        assert rerun.exit_code == 0
        assert rerun.computed == ()
        assert sorted(rerun.cached) == sorted(REPRO_EXPERIMENTS)
        assert _tree(tmp_path / "out") == _tree(base / "out")

    def test_jobs_do_not_change_bytes(self, tmp_path):
        """--jobs 4 over a fresh cache matches --jobs 1 byte-for-byte."""
        trees = []
        for jobs in (1, 4):
            d = tmp_path / f"jobs{jobs}"
            report = run_repro_all(
                ReproOptions(
                    scale="quick", jobs=jobs, cache_dir=d / "cache",
                    out_dir=d / "out", only=("tidle", "buffers"),
                ),
                log=lambda line: None,
            )
            assert report.exit_code == 0
            trees.append(_tree(d / "out"))
        assert trees[0] == trees[1]


class TestPerturbationSentinel:
    def test_power_model_skew_flips_exit_code(self, tmp_path, monkeypatch):
        """A 1e-6 static-power skew must register as expectation drift.

        Mirrors the ``tests/golden`` sentinel: patch the accounting
        module's binding and rerun in a *fresh* cache dir at ``--jobs 1``
        (the patch neither survives a cache hit nor crosses a process
        boundary).
        """
        import repro.power.accounting as accounting

        original = accounting.static_power_w
        monkeypatch.setattr(
            accounting, "static_power_w",
            lambda v, *a, **k: original(v, *a, **k) * (1 + 1e-6),
        )
        report = run_repro_all(
            ReproOptions(
                scale="quick", jobs=1, cache_dir=tmp_path / "cache",
                out_dir=tmp_path / "out", only=("tidle",),
            ),
            log=lambda line: None,
        )
        assert report.exit_code == 1
        assert report.manifest["expectations"]["status"] == "drift"
        drifted = {
            f["headline"]
            for f in report.manifest["expectations"]["failures"]
        }
        assert "baseline_static_pj" in drifted


class TestRegistryAndSelection:
    def test_every_paper_artifact_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5",
            "fig5", "fig6", "fig7", "fig8", "fig9",
            "cmesh", "epoch_sweep", "feature_ablation",
        }
        assert expected <= set(REPRO_EXPERIMENTS)
        for exp_id in expected:
            assert REPRO_EXPERIMENTS[exp_id].kind != "extension", exp_id

    def test_extensions_marked(self):
        for exp_id in ("tidle", "buffers", "ladder", "fabrics", "faults",
                       "telemetry", "shadow_promotion"):
            assert REPRO_EXPERIMENTS[exp_id].kind == "extension"

    def test_selection_is_sorted_and_validated(self):
        entries = select_entries(["tidle", "fig5", "tidle"])
        assert [e.id for e in entries] == ["fig5", "tidle"]
        assert len(select_entries(None)) == len(REPRO_EXPERIMENTS)
        with pytest.raises(KeyError, match="nope"):
            select_entries(["nope"])

    def test_list_is_sorted(self):
        ids = [e.id for e in select_entries(None)]
        assert ids == sorted(REPRO_EXPERIMENTS)

    def test_lookup_errors_are_helpful(self):
        with pytest.raises(KeyError, match="fig99.*choices"):
            select_entries(["fig99"])

    def test_cli_wiring(self, tmp_path, capsys):
        # Tables I-V and Figs 5-6: every artifact that needs no simulation.
        only = ["table1", "table2", "table3", "table4", "table5",
                "fig5", "fig6"]
        rc = main([
            "repro-all", "--only", *only, "--out",
            str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "report.html").is_file()
        for exp_id in only:
            assert (tmp_path / "out" / "csv" / f"{exp_id}.csv").is_file()
        out = capsys.readouterr().out
        for exp_id in only:
            assert f"{exp_id}: computed" in out
        assert "expectations clean" in out
        # Every claim reading only these ids ran and passed, among them
        # the Fig 5 settling times (T-Wakeup 8.5 ns, T-Switch 6.9 ns).
        covered = [c.id for c in claims.CLAIMS if set(c.reads) <= set(only)]
        assert {"fig5.t_wakeup", "fig5.t_switch"} <= set(covered)
        assert len(covered) == 11
        assert f"claims: {len(covered)} passed, 0 failed" in out
        assert "CLAIM FAILED" not in out


class TestClaims:
    def test_ids_unique_and_reads_known(self):
        ids = [c.id for c in claims.CLAIMS]
        assert len(ids) == len(set(ids))
        for claim in claims.CLAIMS:
            assert claim.reads, claim.id
            assert set(claim.reads) <= set(REPRO_EXPERIMENTS), claim.id
            assert set(claim.scales) <= set(SCALE_NAMES), claim.id

    def test_every_quick_claim_holds(self, e2e):
        base, _, report = e2e
        by_status = {}
        for result in report.claims:
            by_status.setdefault(result["status"], []).append(result["id"])
        paper_only = sorted(
            c.id for c in claims.CLAIMS if "quick" not in c.scales
        )
        assert "failed" not in by_status, by_status.get("failed")
        assert sorted(by_status["skipped"]) == paper_only
        assert len(by_status["passed"]) == len(claims.CLAIMS) - len(
            paper_only
        )
        # Claims reach the report, never the hashed artifact tree.
        assert "Paper claims" in (base / "out" / "report.html").read_text()
        assert "table1.exact" not in (
            base / "out" / "manifest.json"
        ).read_text()

    def test_broken_builder_fails_its_claim(self, tmp_path, monkeypatch):
        entry = REPRO_EXPERIMENTS["table1"]

        def broken(ctx):
            payload = entry.build(ctx)
            payload["headlines"]["max_abs_error"] = 0.5
            return payload

        monkeypatch.setitem(
            REPRO_EXPERIMENTS, "table1", replace(entry, build=broken)
        )
        lines = []
        report = run_repro_all(
            ReproOptions(out_dir=tmp_path / "out", only=("table1",),
                         expectations="none"),
            log=lines.append,
        )
        assert report.exit_code == 1
        assert report.manifest["expectations"]["status"] == "skipped"
        assert any(
            line.startswith("repro-all: CLAIM FAILED table1.exact: ")
            for line in lines
        )

    def test_selection_skips_unread_claims(self, tmp_path):
        report = run_repro_all(
            ReproOptions(out_dir=tmp_path / "out", only=("table1",)),
            log=lambda line: None,
        )
        assert report.exit_code == 0
        status = {c["id"]: c["status"] for c in report.claims}
        assert status.pop("table1.exact") == "passed"
        assert set(status.values()) == {"skipped"}

    def test_memo_replay_reevaluates_claims(self, tmp_path, monkeypatch):
        # Editing claims.py must not invalidate the experiment memo.
        assert claims.__name__ not in _MEMO_MODULES
        options = ReproOptions(
            cache_dir=tmp_path / "cache", out_dir=tmp_path / "out",
            only=("table1",),
        )
        assert run_repro_all(options, log=lambda line: None).exit_code == 0
        strict = claims.Claim(
            "table1.strict", "an impossible bound", ("table1",),
            lambda p: p["table1"]["headlines"]["max_abs_error"] < 0.0,
        )
        monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS + (strict,))
        lines = []
        rerun = run_repro_all(options, log=lines.append)
        assert rerun.computed == ()
        assert rerun.exit_code == 1
        assert any("CLAIM FAILED table1.strict" in line for line in lines)

    def test_raising_predicate_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(claims, "CLAIMS", (
            claims.Claim("x.raises", "reads a missing key", ("x",),
                         lambda p: p["x"]["headlines"]["nope"] > 0),
        ))
        (result,) = claims.evaluate_claims({"x": {"headlines": {}}}, "quick")
        assert result["status"] == "failed"
        assert result["reason"].startswith("KeyError")


class TestExpectationsDiff:
    def _manifest(self, headlines):
        return {"scale": "quick", "experiments": {
            "exp": {"headlines": headlines}
        }}

    def _expected(self, specs, unchecked=()):
        return {
            "schema": EXPECTATIONS_SCHEMA, "scale": "quick",
            "unchecked": list(unchecked), "experiments": {"exp": specs},
        }

    def test_clean_within_tolerance(self):
        got = {"exp": {"headlines": {"x": 1.0 + 1e-12, "n": 3}}}
        expected = self._expected({
            "x": {"value": 1.0, "rel_tol": 1e-9},
            "n": {"value": 3, "exact": True},
        })
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "clean"
        assert diff["checked"] == 2

    def test_drift_beyond_tolerance(self):
        got = {"exp": {"headlines": {"x": 1.0 + 1e-6}}}
        expected = self._expected({"x": {"value": 1.0, "rel_tol": 1e-9}})
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "drift"
        assert diff["failures"][0]["headline"] == "x"

    def test_exact_means_exact(self):
        got = {"exp": {"headlines": {"n": 4}}}
        expected = self._expected({"n": {"value": 3, "exact": True}})
        assert diff_expectations(expected, "t.json", got, "quick")[
            "status"] == "drift"

    def test_uncovered_headline_is_drift_both_ways(self):
        got = {"exp": {"headlines": {"a": 1, "b": 2}}}
        expected = self._expected({"a": {"value": 1, "exact": True},
                                   "c": {"value": 9, "exact": True}})
        diff = diff_expectations(expected, "t.json", got, "quick")
        problems = {(f["headline"]) for f in diff["failures"]}
        assert problems == {"b", "c"}

    def test_experiment_without_spec_is_drift(self):
        got = {"exp": {"headlines": {"a": 1}}}
        expected = {"schema": EXPECTATIONS_SCHEMA, "scale": "quick",
                    "unchecked": [], "experiments": {}}
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "drift"

    def test_unchecked_experiments_are_skipped(self):
        got = {"exp": {"headlines": {"a": 1}}}
        expected = {"schema": EXPECTATIONS_SCHEMA, "scale": "quick",
                    "unchecked": ["exp"], "experiments": {}}
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "clean"
        assert diff["unchecked"] == ["exp"]

    def test_scale_and_schema_mismatch(self):
        got = {"exp": {"headlines": {}}}
        expected = {"schema": 99, "scale": "paper", "unchecked": ["exp"],
                    "experiments": {}}
        diff = diff_expectations(expected, "t.json", got, "quick")
        assert diff["status"] == "drift"
        assert len(diff["failures"]) == 2

    def test_missing_file_skips(self):
        diff = diff_expectations(None, "none", {"exp": {"headlines": {}}},
                                 "quick")
        assert diff["status"] == "skipped"
        assert diff["unchecked"] == ["exp"]

    def test_regen_round_trip_is_clean(self):
        """expectations_payload(manifest) always diffs clean vs itself."""
        manifest = {
            "scale": "quick",
            "experiments": {
                "exp": {"headlines": {"x": 0.25, "n": 3, "ok": True,
                                      "name": "canneal"}},
                "other": {"headlines": {"y": -1.5}},
            },
        }
        payload = expectations_payload(manifest, unchecked=("other",))
        assert payload["experiments"]["exp"]["x"] == {
            "value": 0.25, "rel_tol": 1e-9
        }
        assert payload["experiments"]["exp"]["n"] == {
            "value": 3, "exact": True
        }
        assert payload["experiments"]["exp"]["ok"] == {
            "value": True, "exact": True
        }
        diff = diff_expectations(
            payload, "t.json", manifest["experiments"], "quick"
        )
        assert diff["status"] == "clean"
