"""HTTP-vs-CLI determinism: serving must not change results.

The serve layer is a transport in front of the exact same exec
machinery the CLI uses.  These tests submit work over the (in-process)
HTTP surface and re-run the equivalent CLI/library call against the
same cache directory, then compare the *stored bytes* — not parsed
values — so any serialization or execution drift fails loudly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.exec.cache import run_cache_for
from repro.exec.pool import run_sim_tasks
from repro.experiments.campaign import run_campaign
from repro.serve import ServeApp, ServeConfig, TestClient, canonical_json
from repro.serve.queue import build_campaign_config, build_run_task

CAMPAIGN_REQ = {"duration_ns": 600.0, "seed": 0,
                "models": ["baseline", "dozznoc"]}
RUN_REQ = {"policy": "lead", "benchmark": "canneal", "duration_ns": 600.0,
           "seed": 3}


@pytest.fixture()
def app(tmp_path):
    app = ServeApp(
        ServeConfig(
            store_path=str(tmp_path / "results.db"),
            cache_dir=str(tmp_path / "cache"),
        )
    )
    yield app
    app.close()


def _submit_and_wait(app, kind: str, request: dict) -> str:
    client = TestClient(app)
    status, payload = client.post(f"/{kind}s", request)
    assert status == 202
    app.queue.wait_idle()
    _, st = client.get(f"/{kind}s/{payload['id']}/status")
    assert st["status"] == "done", st
    return payload["id"]


class TestCampaignDeterminism:
    def test_http_summary_is_byte_identical_to_cli(self, app, tmp_path):
        job_id = _submit_and_wait(app, "campaign", CAMPAIGN_REQ)
        served = app.store.get_summary_text(job_id, "campaign-summary")
        assert served is not None

        # The CLI-equivalent campaign over the same cache directory.
        campaign = build_campaign_config(
            CAMPAIGN_REQ, str(tmp_path / "cache")
        )
        result = run_campaign(campaign, cache=run_cache_for(campaign.cache_dir))
        assert served == canonical_json(result.summary_rows())

    def test_resubmission_is_byte_identical_and_cached(self, app):
        first = _submit_and_wait(app, "campaign", CAMPAIGN_REQ)
        second = _submit_and_wait(app, "campaign", CAMPAIGN_REQ)
        assert first != second
        assert (
            app.store.get_summary_text(first, "campaign-summary")
            == app.store.get_summary_text(second, "campaign-summary")
        )


class TestRunDeterminism:
    def test_http_metrics_match_direct_execution(self, app):
        job_id = _submit_and_wait(app, "run", RUN_REQ)
        served = app.store.get_summary_text(job_id, "metrics")

        [metrics] = run_sim_tasks([build_run_task(RUN_REQ)], jobs=1)
        assert served == canonical_json(dataclasses.asdict(metrics))

    def test_resubmitted_run_hits_the_shared_cache(self, app):
        first = _submit_and_wait(app, "run", RUN_REQ)
        misses_before = app.queue.run_cache.misses
        second = _submit_and_wait(app, "run", RUN_REQ)
        assert app.queue.run_cache.hits >= 1
        assert app.queue.run_cache.misses == misses_before
        assert (
            app.store.get_summary_text(first, "metrics")
            == app.store.get_summary_text(second, "metrics")
        )
