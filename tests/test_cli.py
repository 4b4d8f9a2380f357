"""Tests for the command-line interface."""

import csv

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        # Figures are repro-all ids; an unknown one is refused by name.
        args = build_parser().parse_args(["repro-all", "--only", "fig6"])
        assert args.only == ["fig6"]
        with pytest.raises(KeyError, match="fig99.*choices"):
            main(["repro-all", "--only", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "dozznoc"
        assert args.benchmark == "blackscholes"
        assert not args.compressed

    def test_campaign_flags(self):
        args = build_parser().parse_args(["campaign", "--compressed", "--quick"])
        assert args.compressed and args.quick

    @pytest.mark.parametrize("command", [["tables"], ["figure", "fig5"]],
                             ids=["tables", "figure"])
    def test_retired_commands_do_not_parse(self, command):
        # Paper artifacts regenerate through `repro-all --only ID ...`.
        with pytest.raises(SystemExit):
            build_parser().parse_args(command)


class _Stop(Exception):
    """Raised by the campaign stub once it has seen the config."""


class TestCampaignConfig:
    """``campaign`` flags -> the CampaignConfig it runs, without simulating."""

    @staticmethod
    def _config(monkeypatch, *flags):
        import repro.cli as cli

        def capture(campaign, **kwargs):
            raise _Stop(campaign)

        monkeypatch.setattr(cli, "run_campaign", capture)
        with pytest.raises(_Stop) as stop:
            main(["campaign", *flags])
        return stop.value.args[0]

    def test_quick_cmesh_is_a_cmesh(self, monkeypatch):
        from repro.experiments.repro_all import cmesh_sim

        config = self._config(monkeypatch, "--quick", "--cmesh")
        assert config.sim.topology == "cmesh"
        assert config.sim == cmesh_sim("quick")
        assert config.duration_ns == 2_500.0

    def test_profiles(self, monkeypatch):
        from repro.common.config import SimConfig

        quick = self._config(monkeypatch, "--quick")
        assert (quick.sim.topology, quick.sim.radix) == ("mesh", 4)
        assert quick.duration_ns == 2_500.0
        paper = self._config(monkeypatch)
        assert paper.sim == SimConfig.paper_mesh()
        assert paper.duration_ns == 12_000.0
        cmesh = self._config(monkeypatch, "--cmesh")
        assert cmesh.sim == SimConfig.paper_cmesh()

    def test_duration_overrides_quick(self, monkeypatch, tmp_path):
        # The shard-chaos workers run `campaign --quick --duration N`.
        config = self._config(
            monkeypatch, "--quick", "--duration", "900", "--jobs", "2",
            "--audit", "--cache-dir", str(tmp_path),
        )
        assert config.duration_ns == 900.0
        assert (config.sim.topology, config.sim.radix) == ("mesh", 4)
        assert (config.jobs, config.audit) == (2, True)
        assert config.cache_dir == str(tmp_path)

    def test_cache_dir_must_be_a_directory(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        with pytest.raises(SystemExit, match="is not a directory"):
            main(["campaign", "--quick", "--cache-dir", str(path)])


def _repro_all(tmp_path, capsys, *ids):
    """Run ``repro-all --only IDS``; return (stdout, {id: csv rows})."""
    out_dir = tmp_path / "out"
    rc = main([
        "repro-all", "--only", *ids, "--out", str(out_dir),
        "--cache-dir", str(tmp_path / "cache"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CLAIM FAILED" not in out
    assert "expectations clean" in out
    rows = {}
    for exp_id in ids:
        assert f"{exp_id}: computed" in out
        with open(out_dir / "csv" / f"{exp_id}.csv", newline="") as fh:
            rows[exp_id] = list(csv.DictReader(fh))
    return out, rows


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dozznoc" in out
        assert "blackscholes" in out
        assert "repro-all:  " in out and "table1" in out
        assert "figures:" not in out  # retired; repro-all lists every id

    def test_tables(self, tmp_path, capsys):
        tables = ["table1", "table2", "table3", "table4", "table5"]
        out, rows = _repro_all(tmp_path, capsys, *tables)
        assert "claims: 9 passed, 0 failed" in out
        for table in ("table1", "table5"):
            assert {r["source"] for r in rows[table]} == {"measured", "paper"}

    def test_figure_fig5(self, tmp_path, capsys):
        out, rows = _repro_all(tmp_path, capsys, "fig5")
        assert "claims: 2 passed, 0 failed" in out
        settling = {r["transition"]: float(r["settling_ns"])
                    for r in rows["fig5"]}
        assert round(settling["wakeup"], 1) == 8.5  # T-Wakeup

    def test_figure_fig6(self, tmp_path, capsys):
        _, rows = _repro_all(tmp_path, capsys, "fig6")
        assert list(rows["fig6"][0]) == ["vout", "baseline", "simo", "gain"]
        for row in rows["fig6"]:
            assert float(row["gain"]) == pytest.approx(
                float(row["simo"]) - float(row["baseline"]))
        # The SIMO regulator wins at the lowest output voltage.
        assert float(rows["fig6"][0]["gain"]) > 0

    def test_run_tiny(self, capsys):
        rc = main([
            "run", "--policy", "pg", "--benchmark", "swaptions",
            "--duration", "400",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "packets_delivered" in out
        assert "gated_fraction" in out
