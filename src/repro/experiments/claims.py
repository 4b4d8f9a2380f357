"""Paper-shape claims, evaluated on ``repro-all`` payloads.

The committed expectation files pin every headline *value*; claims pin
the paper's *shape* — "DozzNoC saves the most static energy", "only the
DVFS models save dynamic energy", "mesh out-saves cmesh" — as declarative
predicates over the payloads one ``repro-all`` invocation produced.  A
value can drift within the rules of a regenerated expectations file; a
claim cannot fail without a reviewer seeing ``CLAIM FAILED``.

Each :class:`Claim` names the experiments it reads and the scales it
applies to.  :func:`evaluate_claims` skips a claim whose experiments were
not all selected (``--only``) or whose scale does not match, and records
a predicate that raises as a failure.

Claims never change a payload, so this module stays out of the
experiment memo's code version: editing a claim keeps the memo warm, and
a memo-replayed rerun still re-evaluates every claim.  Results go to the
log, :class:`~repro.experiments.repro_all.ReproReport` and
``report.html`` — never into ``manifest.json``, ``raw/`` or ``csv/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.experiments.figures import SCALE_NAMES

Payloads = Mapping[str, dict]

#: Models that save energy with respect to the always-on baseline.
_SAVING_MODELS = ("pg", "lead", "dozznoc", "turbo")
#: Models that scale voltage and frequency (PG only gates).
_DVFS_MODELS = ("lead", "dozznoc", "turbo")


@dataclass(frozen=True)
class Claim:
    """One paper statement checked against repro-all payloads."""

    id: str
    text: str
    reads: tuple[str, ...]
    check: Callable[[Payloads], bool]
    scales: tuple[str, ...] = SCALE_NAMES


# ---------------------------------------------------------------------- #
# Payload accessors
# ---------------------------------------------------------------------- #


def _records(payload: dict) -> list[dict]:
    """A payload's table as one dict per row, keyed by header."""
    headers = payload["table"]["headers"]
    return [dict(zip(headers, row)) for row in payload["table"]["rows"]]


def _by(payload: dict, column: str) -> dict:
    """Table rows keyed by one column's value."""
    return {r[column]: r for r in _records(payload)}


def _table_rows(payload: dict, source: str) -> list[list]:
    """The ``measured`` or ``paper`` rows of a table payload, unlabelled."""
    return [row[1:] for row in payload["table"]["rows"] if row[0] == source]


def _error(p: Payloads, table_id: str) -> float:
    return p[table_id]["headlines"]["max_abs_error"]


def _campaign(payload: dict, setting: str) -> dict[str, dict]:
    """One campaign's summary rows, keyed by model."""
    return {
        r["model"]: r for r in _records(payload) if r["setting"] == setting
    }


def _unc(p: Payloads) -> dict[str, dict]:
    return _campaign(p["fig8"], "uncompressed")


def _comp(p: Payloads) -> dict[str, dict]:
    return _campaign(p["fig8"], "compressed")


def _dozz_modes(p: Payloads) -> dict[str, dict[str, float]]:
    return p["fig7"]["data"]["distribution"]["dozznoc"]


def _tidle(p: Payloads) -> dict[int, dict]:
    return _by(p["tidle"], "t_idle")


def _depths(p: Payloads) -> dict[int, dict]:
    return _by(p["buffers"], "buffer_depth")


def _accuracy(p: Payloads) -> dict[str, float]:
    return {
        key[len("accuracy_"):]: value
        for key, value in p["fig9"]["headlines"].items()
    }


# ---------------------------------------------------------------------- #
# Predicates that need more than one expression
# ---------------------------------------------------------------------- #


def _table2_shape(p: Payloads) -> bool:
    m = _table_rows(p["table2"], "measured")
    return (
        all(abs(m[i][i]) <= 1e-8 for i in range(len(m)))
        and max(m[0]) == max(max(row) for row in m)
    )


def _table2_corner(p: Payloads) -> bool:
    measured = _table_rows(p["table2"], "measured")
    paper = _table_rows(p["table2"], "paper")
    return abs(measured[1][5] - paper[1][5]) < 0.25


def _fig7_complete(p: Payloads) -> bool:
    dists = p["fig7"]["data"]["distribution"]
    if set(dists) != set(_DVFS_MODELS):
        return False
    for per_bench in dists.values():
        if len(per_bench) != 5:
            return False
        for dist in per_bench.values():
            if set(dist) != {"3", "4", "5", "6", "7"}:
                return False
            if abs(sum(dist.values()) - 1.0) >= 1e-9:
                return False
    return True


def _fig8a_baseline_tops(p: Payloads) -> bool:
    metrics = p["fig8"]["data"]["compressed"]["metrics"]
    for per_model in metrics.values():
        base = per_model["baseline"]["throughput_flits_per_ns"]
        for model in _SAVING_MODELS:
            if per_model[model]["throughput_flits_per_ns"] > base * 1.001:
                return False
    return True


def _fig9_ibu_strongest(p: Payloads) -> bool:
    acc = _accuracy(p)
    return acc["ibu"] == max(acc.values()) and acc["ibu"] > 0.40


def _cmesh_dozznoc_saves(p: Payloads) -> bool:
    d = _campaign(p["cmesh"], "cmesh")["dozznoc"]
    return (
        d["static_savings_pct"] > 10.0
        and d["dynamic_savings_pct"] > 10.0
        and d["throughput_loss_pct"] < 15.0
    )


def _tidle_large_forfeits(p: Payloads) -> bool:
    t = _tidle(p)
    return (
        t[64]["gated_fraction"] < t[4]["gated_fraction"]
        and t[64]["static_savings"] < t[4]["static_savings"] + 0.02
    )


def _epoch_sweep_shape(p: Payloads) -> bool:
    rows = _records(p["epoch_sweep"])
    samples = [r["n_train_samples"] for r in rows]
    return (
        [r["epoch_cycles"] for r in rows] == [100, 250, 500, 750, 1000]
        and samples == sorted(samples, reverse=True)
    )


def _ladder_monotone(p: Payloads) -> bool:
    by = _by(p["ladder"], "ladder")
    five = by["5 modes (paper)"]["dynamic_savings"]
    three = by["3 modes"]["dynamic_savings"]
    one = by["1 mode (M7)"]["dynamic_savings"]
    return five > one + 0.05 and five >= three >= one - 1e-9


# ---------------------------------------------------------------------- #
# The claim table
# ---------------------------------------------------------------------- #


CLAIMS: tuple[Claim, ...] = (
    # Tables I-V.
    Claim("table1.exact", "Table I's LDO dropout ranges reproduce exactly.",
          ("table1",), lambda p: _error(p, "table1") == 0.0),
    Claim("table2.within_quarter_ns",
          "Table II's switch latencies land within 0.25 ns of the paper.",
          ("table2",), lambda p: _error(p, "table2") < 0.25),
    Claim("table2.shape",
          "Table II has a zero diagonal and the power-gating row holds the "
          "worst case.",
          ("table2",), _table2_shape),
    Claim("table2.full_range_switch",
          "The 0.8 V to 1.2 V switch is within 0.25 ns of the paper's.",
          ("table2",), _table2_corner),
    Claim("table3.t_switch",
          "Table III's T-Switch column reproduces exactly (7/11/13/14/16).",
          ("table3",),
          lambda p: [r[2] for r in _table_rows(p["table3"], "measured")][:5]
          == [7, 11, 13, 14, 16]),
    Claim("table3.t_breakeven",
          "Table III's T-Breakeven column reproduces exactly (8 to 12).",
          ("table3",),
          lambda p: [r[4] for r in _table_rows(p["table3"], "measured")]
          == [8, 9, 10, 11, 12]),
    Claim("table3.within_two_cycles",
          "Table III's derived costs land within 2 cycles of the paper.",
          ("table3",), lambda p: _error(p, "table3") <= 2),
    Claim("table4.exact", "Table IV's reduced feature set matches exactly.",
          ("table4",), lambda p: _error(p, "table4") == 0.0),
    Claim("table5.close",
          "Table V's analytic power model is within 0.01 of DSENT's.",
          ("table5",), lambda p: _error(p, "table5") < 0.01),
    # Fig 5: regulator transients.
    Claim("fig5.t_wakeup",
          "Power-gating exit to 0.8 V settles in 8.5 ns (within 0.1 ns).",
          ("fig5",),
          lambda p: abs(p["fig5"]["headlines"]["t_wakeup_ns"] - 8.5) < 0.1),
    Claim("fig5.t_switch",
          "The 0.8 V to 1.2 V DVFS switch settles in 6.9 ns (within 0.2 ns).",
          ("fig5",),
          lambda p: abs(p["fig5"]["headlines"]["t_switch_ns"] - 6.9) < 0.2),
    # Fig 7: DVFS mode distribution.
    Claim("fig7.complete",
          "Every ML model has a mode breakdown over M3-M7 summing to 1 on "
          "each of the five test benchmarks.",
          ("fig7",), _fig7_complete),
    Claim("fig7.m3_dominates",
          "M3 is DozzNoC's most frequent mode on at least 3 of 5 test "
          "benchmarks.",
          ("fig7",),
          lambda p: sum(
              1 for d in _dozz_modes(p).values() if d["3"] == max(d.values())
          ) >= 3),
    Claim("fig7.mid_modes_used",
          "DozzNoC spends over 5% of epochs in M4-M7 on some benchmark.",
          ("fig7",),
          lambda p: any(
              d["4"] + d["5"] + d["6"] + d["7"] > 0.05
              for d in _dozz_modes(p).values()
          ),
          scales=("paper",)),
    Claim("fig7.turbo_promotes",
          "TURBO picks M7 at least as often as DozzNoC.",
          ("fig7",),
          lambda p: sum(
              d["7"] for d in p["fig7"]["data"]["distribution"]["turbo"]
              .values()
          ) >= sum(d["7"] for d in _dozz_modes(p).values())),
    # Fig 8: the headline evaluation.
    Claim("fig8.all_save_static",
          "PG, LEAD, DozzNoC and TURBO each save over 10% static energy.",
          ("fig8",),
          lambda p: all(
              _unc(p)[m]["static_savings_pct"] > 10.0 for m in _SAVING_MODELS
          )),
    Claim("fig8.pg_no_dynamic",
          "PG does not scale voltage, so its dynamic savings stay under 5%.",
          ("fig8",),
          lambda p: abs(_unc(p)["pg"]["dynamic_savings_pct"]) < 5.0),
    Claim("fig8.dvfs_save_dynamic",
          "LEAD, DozzNoC and TURBO each save over 15% dynamic energy.",
          ("fig8",),
          lambda p: all(
              _unc(p)[m]["dynamic_savings_pct"] > 15.0 for m in _DVFS_MODELS
          )),
    Claim("fig8.dozznoc_beats_lead_static",
          "DozzNoC saves at least 5 points more static energy than LEAD.",
          ("fig8",),
          lambda p: _unc(p)["dozznoc"]["static_savings_pct"]
          >= _unc(p)["lead"]["static_savings_pct"] + 5.0),
    Claim("fig8.dozznoc_matches_pg_static",
          "DozzNoC's static savings are within 3 points of PG's or above.",
          ("fig8",),
          lambda p: _unc(p)["dozznoc"]["static_savings_pct"]
          >= _unc(p)["pg"]["static_savings_pct"] - 3.0),
    Claim("fig8.turbo_trades_dynamic",
          "TURBO saves no more than 1 point more dynamic energy than "
          "DozzNoC.",
          ("fig8",),
          lambda p: _unc(p)["turbo"]["dynamic_savings_pct"]
          <= _unc(p)["dozznoc"]["dynamic_savings_pct"] + 1.0),
    Claim("fig8.throughput_cost_uncompressed",
          "Every model loses under 15% throughput on uncompressed traces.",
          ("fig8",),
          lambda p: all(
              r["throughput_loss_pct"] < 15.0 for r in _unc(p).values()
          )),
    Claim("fig8.throughput_cost_compressed",
          "Every model loses under 20% throughput on compressed traces.",
          ("fig8",),
          lambda p: all(
              r["throughput_loss_pct"] < 20.0 for r in _comp(p).values()
          )),
    Claim("fig8a.baseline_tops_throughput",
          "On every compressed benchmark no model beats the baseline's "
          "throughput by more than 0.1%.",
          ("fig8",), _fig8a_baseline_tops),
    Claim("fig8.compression_less_gating",
          "Compression shrinks DozzNoC's gated time.",
          ("fig8",),
          lambda p: _comp(p)["dozznoc"]["gated_fraction_pct"]
          < _unc(p)["dozznoc"]["gated_fraction_pct"]),
    Claim("fig8.compression_less_static",
          "Compression shrinks DozzNoC's static savings.",
          ("fig8",),
          lambda p: _comp(p)["dozznoc"]["static_savings_pct"]
          < _unc(p)["dozznoc"]["static_savings_pct"]),
    # Fig 9/11: single-feature accuracy.
    Claim("fig9.ibu_strongest",
          "Current input-buffer utilization is the strongest single feature "
          "and exceeds 40% accuracy.",
          ("fig9",), _fig9_ibu_strongest),
    Claim("fig9.others_weaker",
          "Core sends, core receives and off time each score below IBU.",
          ("fig9",),
          lambda p: all(
              0.0 <= _accuracy(p)[f] < _accuracy(p)["ibu"]
              for f in ("core_sends", "core_recvs", "off_time")
          )),
    # Section IV.B.2: concentrated mesh.
    Claim("cmesh.dozznoc_saves",
          "On the cmesh DozzNoC saves over 10% static and dynamic energy "
          "for under 15% throughput loss.",
          ("cmesh",),
          _cmesh_dozznoc_saves),
    Claim("cmesh.mesh_saves_more_static",
          "DozzNoC saves more static energy on the mesh than on the cmesh.",
          ("fig8", "cmesh"),
          lambda p: _unc(p)["dozznoc"]["static_savings_pct"]
          > _campaign(p["cmesh"], "cmesh")["dozznoc"]["static_savings_pct"]),
    # Section IV.B.1: epoch size and feature ablation.
    Claim("epoch_sweep.shape",
          "The sweep covers 100-1000 cycles and training data shrinks as "
          "epochs grow.",
          ("epoch_sweep",), _epoch_sweep_shape),
    Claim("epoch_sweep.usable",
          "Every epoch size trains a predictor with 20-100% mode accuracy "
          "and validation RMSE under 0.5.",
          ("epoch_sweep",),
          lambda p: all(
              0.2 <= r["validation_accuracy"] <= 1.0
              and r["validation_rmse"] < 0.5
              for r in _records(p["epoch_sweep"])
          )),
    Claim("feature_ablation.agree",
          "The 5- and 41-feature models' static and dynamic savings agree "
          "within 10 points.",
          ("feature_ablation",),
          lambda p: all(
              abs(p["feature_ablation"]["data"]["reduced"][k]
                  - p["feature_ablation"]["data"]["full"][k]) < 0.10
              for k in ("static_savings", "dynamic_savings")
          )),
    Claim("feature_ablation.both_save",
          "Both feature sets save over 10% static and dynamic energy.",
          ("feature_ablation",),
          lambda p: all(
              p["feature_ablation"]["data"][variant][k] > 0.1
              for variant in ("reduced", "full")
              for k in ("static_savings", "dynamic_savings")
          )),
    # Section III.B: T-Idle trade-off (extension).
    Claim("tidle.large_forfeits_gating",
          "T-Idle 64 gates less than the T-Idle 4 design point and saves "
          "no more than 2 points more static energy.",
          ("tidle",),
          _tidle_large_forfeits),
    Claim("tidle.small_wakes_more",
          "T-Idle 2 wakes routers at least as often as T-Idle 16.",
          ("tidle",),
          lambda p: _tidle(p)[2]["wake_events"]
          >= _tidle(p)[16]["wake_events"]),
    # Extensions: DVFS ladder granularity and buffer depth.
    Claim("ladder.multilevel_pays",
          "The 5-mode ladder saves over 5 points more dynamic energy than "
          "one mode, with 3 modes in between.",
          ("ladder",), _ladder_monotone),
    Claim("buffers.depths",
          "The buffer sweep covers depths 5, 8, 16 and 32.",
          ("buffers",),
          lambda p: [r["buffer_depth"] for r in _records(p["buffers"])]
          == [5, 8, 16, 32]),
    Claim("buffers.all_save",
          "DozzNoC saves static and dynamic energy at every buffer depth.",
          ("buffers",),
          lambda p: all(
              r["static_savings"] > 0.0 and r["dynamic_savings"] > 0.0
              for r in _records(p["buffers"])
          )),
    Claim("buffers.deep_keeps_dynamic",
          "Depth-32 buffers keep DozzNoC's dynamic savings within 5 points "
          "of depth 5 or above.",
          ("buffers",),
          lambda p: _depths(p)[32]["dynamic_savings"]
          >= _depths(p)[5]["dynamic_savings"] - 0.05),
)


def evaluate_claims(payloads: Payloads, scale: str) -> list[dict]:
    """Evaluate every claim, in table order, on one run's payloads.

    Each result is ``{"id", "text", "status", "reason"}`` with status
    ``passed``, ``failed`` or ``skipped``.  A predicate that raises is a
    failure whose reason names the exception.
    """
    results = []
    for claim in CLAIMS:
        status, reason = "passed", ""
        if scale not in claim.scales:
            status, reason = "skipped", f"applies to {'/'.join(claim.scales)}"
        elif not set(claim.reads) <= set(payloads):
            status, reason = "skipped", "needs " + ", ".join(
                sorted(set(claim.reads) - set(payloads))
            )
        else:
            try:
                if not claim.check(payloads):
                    status = "failed"
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                status, reason = "failed", f"{type(exc).__name__}: {exc}"
        results.append(
            {"id": claim.id, "text": claim.text, "status": status,
             "reason": reason}
        )
    return results
