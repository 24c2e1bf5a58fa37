"""Tests for the perf-regression gate (benchmarks.baseline --compare).

The comparison layer is pure functions over records, so almost
everything here runs without timing anything; two end-to-end tests run
``main(["--compare", ...])`` at a tiny packet budget against synthetic
baselines engineered to pass and to regress.
"""

import json
import pathlib
import sys

import pytest

# benchmarks/ lives at the repo root, beside tests/
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from benchmarks.baseline import (  # noqa: E402
    DEFAULT_TOLERANCES,
    GATE_NO_CROSSOVER,
    GATE_OK,
    GATE_SKIPPED,
    PARALLEL_MIN_CPUS,
    append_trajectory,
    compare_records,
    flatten_metrics,
    load_tolerances,
    main,
    measure_em_parallel,
    tolerance_for,
    trajectory_entry,
    validate_record,
)
from repro.engine import usable_cpus  # noqa: E402
from repro.traffic.caida_like import caida_like_trace  # noqa: E402


def make_parallel_section(packets=2_000, ingest_pps=1e6, gate="ok",
                          speedup_vs_serial=2.0, cpus=4):
    """One parallel/parallel_paper section as measure_parallel emits."""
    return {
        "packets": packets,
        "flows": 500,
        "shards": 4,
        "backend": "pool",
        "cpus": cpus,
        "gate": gate,
        "serial_ingest_pps": ingest_pps,
        "packet_loop_pps": ingest_pps / 50.0,
        "sharded_ingest_pps": speedup_vs_serial * ingest_pps,
        "speedup_vs_serial": speedup_vs_serial,
        "speedup_vs_packet_loop": 50.0 * speedup_vs_serial,
        "merge_seconds": 0.002,
        "deterministic": True,
        "codec_state_bytes": 40_000,
        "codec_bytes_per_flow": 80.0,
    }


def make_em_parallel_section(gate="ok", speedup_vs_serial=1.8,
                             identical=True, cpus=4):
    """One em_parallel section as measure_em_parallel emits."""
    return {
        "packets": 2_000,
        "iterations": 5,
        "memory_bytes": 16 * 1024,
        "workers": 2,
        "units": 8,
        "cpus": cpus,
        "gate": gate,
        "serial_seconds": 0.05,
        "parallel_seconds": 0.05 / speedup_vs_serial,
        "speedup_vs_serial": speedup_vs_serial,
        "identical": identical,
    }


def make_em_warm_start_section(iterations_saved=5, warm_iterations=4,
                               warm_converged=True):
    """One em_warm_start section as measure_em_warm_start emits."""
    return {
        "packets": 2_000,
        "epochs": 2,
        "cold_iterations": 4,
        "warm_iterations": warm_iterations,
        "iterations_vs_cold": warm_iterations - 4,
        "iterations_saved": iterations_saved,
        "warm_started": True,
        "warm_converged": warm_converged,
    }


def make_record(packets=2_000, ingest_pps=1e6, query_kps=1e5,
                disabled_over_raw=1.0, enabled_over_disabled=1.05,
                em_runtime=0.05, sketches=("fcm",), fallback=None,
                gate="ok", paper=None, em_parallel=None,
                em_warm_start=None):
    """A schema-valid synthetic baseline record.

    ``fallback`` (a fraction in [0, 1]) adds the optional
    ``batch_fallback_fraction`` field to every sketch entry, as the
    batch-conflict-resolution sketches report it.  ``gate`` sets the
    parallel section's cpu-gate marker; ``paper`` (a dict of
    make_parallel_section overrides) adds a ``parallel_paper``
    section.  ``em_parallel``/``em_warm_start`` (override dicts)
    replace fields of the EM sections, which are always present.
    """
    return {
        "schema_version": 1,
        "packets": packets,
        "memory_bytes": 64 * 1024,
        "seed": 1,
        "repeats": 1,
        "sketches": {
            name: {
                "packets": packets,
                "ingest_seconds": packets / ingest_pps,
                "ingest_pps": ingest_pps,
                "query_keys": 1000,
                "query_seconds": 1000 / query_kps,
                "query_kps": query_kps,
                **({} if fallback is None
                   else {"batch_fallback_fraction": fallback}),
            } for name in sketches
        },
        "telemetry_overhead": {
            "ingest_seconds_raw": 0.01,
            "ingest_seconds_disabled": 0.01 * disabled_over_raw,
            "ingest_seconds_enabled":
                0.01 * disabled_over_raw * enabled_over_disabled,
            "disabled_over_raw": disabled_over_raw,
            "enabled_over_disabled": enabled_over_disabled,
            "budget": 1.05,
        },
        "em": {
            "iterations": 5,
            "runtime_seconds": em_runtime,
            "wall_seconds": em_runtime,
            "estimated_flows": 1234.0,
        },
        "em_parallel": make_em_parallel_section(**(em_parallel or {})),
        "em_warm_start": make_em_warm_start_section(
            **(em_warm_start or {})),
        "parallel": make_parallel_section(
            packets=packets, ingest_pps=ingest_pps, gate=gate),
        **({} if paper is None
           else {"parallel_paper": make_parallel_section(**paper)}),
        "service": {
            "packets": packets,
            "sources": 4,
            "policy": "block",
            "seconds": packets / ingest_pps,
            "ingest_pps": ingest_pps,
            "sealed_epochs": 4,
            "shed": 0,
            "conserved": True,
        },
        "obsplane": {
            "packets": packets,
            "metrics_scraped": 40,
            "series": 60,
            "audit_sample_rate": 0.05,
            "scrape_seconds_per_snapshot": 2e-4,
            "render_seconds": 5e-4,
            "audit_seconds_per_epoch": 3e-3,
        },
    }


class TestFlattenMetrics:
    def test_flattens_all_gated_metrics(self):
        flat = flatten_metrics(make_record(sketches=("fcm", "cm")))
        assert set(flat) == {
            "cm.ingest_pps", "cm.query_kps",
            "fcm.ingest_pps", "fcm.query_kps",
            "telemetry.disabled_over_raw",
            "telemetry.enabled_over_disabled",
            "em.seconds_per_iter",
            "em_parallel.speedup_vs_serial",
            "em_warm_start.iterations_saved",
            "parallel.sharded_ingest_pps",
            "parallel.speedup_vs_serial",
            "parallel.speedup_vs_packet_loop",
            "parallel.codec_bytes_per_flow",
            "service.ingest_pps",
            "obsplane.scrape_seconds_per_snapshot",
            "obsplane.render_seconds",
            "obsplane.audit_seconds_per_epoch",
        }
        assert flat["em.seconds_per_iter"] == pytest.approx(0.05 / 5)

    def test_empty_record_flattens_empty(self):
        assert flatten_metrics({}) == {}

    def test_paper_section_flattens_when_present(self):
        flat = flatten_metrics(make_record(paper=dict()))
        assert "parallel_paper.sharded_ingest_pps" in flat
        assert "parallel_paper.speedup_vs_serial" in flat
        assert "parallel_paper.sharded_ingest_pps" not in \
            flatten_metrics(make_record())

    def test_fallback_fraction_flattens_when_present(self):
        flat = flatten_metrics(make_record(sketches=("cu",),
                                           fallback=0.02))
        assert flat["cu.batch_fallback_fraction"] == pytest.approx(0.02)
        # Sketches without the field (additive paths) stay absent.
        assert "cu.batch_fallback_fraction" not in flatten_metrics(
            make_record(sketches=("cu",)))


class TestToleranceFor:
    def test_exact_name_wins_over_suffix(self):
        tolerances = {"fcm.ingest_pps": 0.1, "ingest_pps": 0.6}
        assert tolerance_for("fcm.ingest_pps", tolerances) == 0.1
        assert tolerance_for("cm.ingest_pps", tolerances) == 0.6

    def test_unknown_metric_defaults_to_half(self):
        assert tolerance_for("new.metric", {}) == 0.5

    def test_defaults_cover_every_gated_suffix(self):
        flat = flatten_metrics(make_record())
        for metric in flat:
            suffix = metric.rsplit(".", 1)[-1]
            assert suffix in DEFAULT_TOLERANCES, metric


class TestCompareRecords:
    def test_identical_records_have_no_regressions(self):
        record = make_record()
        result = compare_records(record, record, DEFAULT_TOLERANCES)
        assert result["regressions"] == []
        assert all(row[-1] == "ok" for row in result["rows"])

    def test_throughput_drop_beyond_tolerance_regresses(self):
        base = make_record(ingest_pps=1e6)
        fresh = make_record(ingest_pps=1e6 * 0.3)  # -70% vs 60% tol
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("fcm.ingest_pps" in r and "fell" in r
                   for r in result["regressions"])

    def test_throughput_gain_never_regresses(self):
        base = make_record(ingest_pps=1e6)
        fresh = make_record(ingest_pps=1e9)
        assert compare_records(base, fresh,
                               DEFAULT_TOLERANCES)["regressions"] == []

    def test_overhead_rise_beyond_tolerance_regresses(self):
        base = make_record(enabled_over_disabled=1.0)
        fresh = make_record(enabled_over_disabled=2.0)  # +100% vs 60%
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("enabled_over_disabled" in r and "rose" in r
                   for r in result["regressions"])

    def test_overhead_drop_never_regresses(self):
        base = make_record(enabled_over_disabled=1.5)
        fresh = make_record(enabled_over_disabled=0.9)
        assert compare_records(base, fresh,
                               DEFAULT_TOLERANCES)["regressions"] == []

    def test_em_skipped_when_packet_budgets_differ(self):
        base = make_record(packets=100_000, em_runtime=0.01)
        fresh = make_record(packets=2_000, em_runtime=100.0)
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        (em_row,) = [row for row in result["rows"]
                     if row[0] == "em.seconds_per_iter"]
        assert em_row[-1].startswith("skipped")
        assert result["regressions"] == []

    def test_fallback_rise_beyond_tolerance_regresses(self):
        base = make_record(sketches=("cu",), fallback=0.10)
        fresh = make_record(sketches=("cu",), fallback=0.50)
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("cu.batch_fallback_fraction" in r and "rose" in r
                   for r in result["regressions"])

    def test_fallback_drop_never_regresses(self):
        base = make_record(sketches=("cu",), fallback=0.50)
        fresh = make_record(sketches=("cu",), fallback=0.0)
        assert compare_records(base, fresh,
                               DEFAULT_TOLERANCES)["regressions"] == []

    def test_zero_fallback_baseline_gates_absolutely(self):
        """A 0.0 baseline makes the multiplicative bound vacuous; the
        tolerance then acts as an absolute ceiling on the fraction."""
        base = make_record(sketches=("cu",), fallback=0.0)
        within = make_record(sketches=("cu",), fallback=0.05)
        beyond = make_record(sketches=("cu",), fallback=0.25)
        tol = DEFAULT_TOLERANCES["batch_fallback_fraction"]
        assert 0.05 <= tol < 0.25
        assert compare_records(base, within,
                               DEFAULT_TOLERANCES)["regressions"] == []
        result = compare_records(base, beyond, DEFAULT_TOLERANCES)
        assert any("cu.batch_fallback_fraction" in r
                   for r in result["regressions"])

    def test_obsplane_cost_rise_beyond_tolerance_regresses(self):
        base = make_record()
        fresh = make_record()
        # scrape cost x3 vs the 1.0 (=+100%) default tolerance
        fresh["obsplane"]["scrape_seconds_per_snapshot"] *= 3.0
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("obsplane.scrape_seconds_per_snapshot" in r
                   and "rose" in r for r in result["regressions"])

    def test_obsplane_cost_drop_never_regresses(self):
        base = make_record()
        fresh = make_record()
        for field in ("scrape_seconds_per_snapshot", "render_seconds",
                      "audit_seconds_per_epoch"):
            fresh["obsplane"][field] *= 0.25
        assert compare_records(base, fresh,
                               DEFAULT_TOLERANCES)["regressions"] == []

    def test_one_sided_metrics_report_but_never_gate(self):
        base = make_record(sketches=("fcm",))
        fresh = make_record(sketches=("fcm", "newcomer"),
                            ingest_pps=1.0)  # newcomer is terrible
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        verdicts = {row[0]: row[-1] for row in result["rows"]}
        assert verdicts["newcomer.ingest_pps"] == "uncompared"
        assert not any("newcomer" in r for r in result["regressions"])

    def test_speedup_skipped_when_either_gate_skipped(self):
        """A 1-core run's speedup is noise, not a bar to hold: the
        relative speedup comparison must carry an explicit skipped
        verdict — never a silent pass, never a false regression."""
        base = make_record(gate=GATE_SKIPPED)  # e.g. a 1-cpu dev box
        fresh = make_record()
        fresh["parallel"]["speedup_vs_serial"] = 0.01
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        (row,) = [r for r in result["rows"]
                  if r[0] == "parallel.speedup_vs_serial"]
        assert row[-1].startswith("skipped (cpus <")
        assert "baseline" in row[-1]
        assert result["regressions"] == []

    def test_speedup_compared_when_both_gates_ok(self):
        base = make_record()
        fresh = make_record()
        fresh["parallel"]["speedup_vs_serial"] = 0.01  # -99.5% vs 60%
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("parallel.speedup_vs_serial" in r and "fell" in r
                   for r in result["regressions"])

    def test_paper_floor_binds_on_multicore_fresh_run(self):
        """The paper-scale acceptance bound is absolute: a fresh run
        whose pool lost to serial regresses even when the committed
        baseline was generated on a 1-core box (gate skipped)."""
        base = make_record(paper=dict(gate=GATE_SKIPPED,
                                      speedup_vs_serial=0.9, cpus=1))
        fresh = make_record(paper=dict(gate=GATE_OK,
                                       speedup_vs_serial=0.9))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("parallel_paper.speedup_vs_serial" in r
                   and "lost to serial" in r
                   for r in result["regressions"])

    def test_paper_floor_skipped_on_single_core_fresh_run(self):
        base = make_record(paper=dict())
        fresh = make_record(paper=dict(gate=GATE_SKIPPED,
                                       speedup_vs_serial=0.9, cpus=1))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert not any("lost to serial" in r
                       for r in result["regressions"])

    def test_em_speedup_skipped_when_either_gate_skipped(self):
        """Same marker pattern as the ingest pool: a 1-core run's EM
        speedup is noise, and the skip is explicit, never silent."""
        base = make_record(em_parallel=dict(gate=GATE_SKIPPED, cpus=1,
                                            speedup_vs_serial=0.5))
        fresh = make_record(em_parallel=dict(speedup_vs_serial=0.01))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        (row,) = [r for r in result["rows"]
                  if r[0] == "em_parallel.speedup_vs_serial"]
        assert row[-1].startswith("skipped (cpus <")
        # But the absolute floor still binds on the multi-core fresh
        # run regardless of the 1-core baseline.
        assert any("em_parallel.speedup_vs_serial" in r
                   and "lost to" in r for r in result["regressions"])

    def test_em_floor_binds_on_multicore_fresh_run(self):
        base = make_record(em_parallel=dict(gate=GATE_SKIPPED, cpus=1,
                                            speedup_vs_serial=0.5))
        fresh = make_record(em_parallel=dict(gate=GATE_OK,
                                             speedup_vs_serial=0.9))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("em_parallel.speedup_vs_serial" in r
                   and "lost to the inline response step" in r
                   for r in result["regressions"])

    def test_em_floor_skipped_on_single_core_fresh_run(self):
        base = make_record()
        fresh = make_record(em_parallel=dict(gate=GATE_SKIPPED, cpus=1,
                                             speedup_vs_serial=0.5))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert not any("inline response step" in r
                       for r in result["regressions"])

    def test_em_floor_fires_at_one_when_gate_ok(self):
        """Where the EM floor binds — a section whose gate is ok — a
        pool merely as fast as serial already regresses."""
        base = make_record()
        fresh = make_record(em_parallel=dict(speedup_vs_serial=1.0))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any(r.startswith("em_parallel.speedup_vs_serial")
                   and "lost to the inline response step" in r
                   for r in result["regressions"])

    def test_em_floor_skipped_without_crossover(self):
        """Without a measured crossover the marker is explicit: the
        row says so and neither the floor nor the relative bound
        fires."""
        base = make_record(em_parallel=dict(gate=GATE_NO_CROSSOVER))
        fresh = make_record(em_parallel=dict(gate=GATE_NO_CROSSOVER,
                                             speedup_vs_serial=0.5))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        (row,) = [r for r in result["rows"]
                  if r[0] == "em_parallel.speedup_vs_serial"]
        assert row[-1].startswith(GATE_NO_CROSSOVER)
        assert result["regressions"] == []

    def test_warm_start_savings_drop_beyond_tolerance_regresses(self):
        base = make_record(em_warm_start=dict(iterations_saved=6))
        fresh = make_record(em_warm_start=dict(iterations_saved=1,
                                               warm_iterations=9))
        result = compare_records(base, fresh, DEFAULT_TOLERANCES)
        assert any("em_warm_start.iterations_saved" in r and "fell" in r
                   for r in result["regressions"])

    def test_warm_start_savings_rise_never_regresses(self):
        base = make_record(em_warm_start=dict(iterations_saved=2))
        fresh = make_record(em_warm_start=dict(iterations_saved=8,
                                               warm_iterations=2))
        assert compare_records(base, fresh,
                               DEFAULT_TOLERANCES)["regressions"] == []


class TestTrajectory:
    def test_entry_carries_metrics_and_regressions(self):
        base, fresh = make_record(), make_record(ingest_pps=1.0)
        comparison = compare_records(base, fresh, DEFAULT_TOLERANCES)
        entry = trajectory_entry(base, fresh, comparison)
        assert entry["packets"] == fresh["packets"]
        assert entry["baseline_packets"] == base["packets"]
        assert entry["metrics"] == flatten_metrics(fresh)
        assert entry["regressions"] == comparison["regressions"]
        assert "T" in entry["timestamp"]

    def test_append_grows_history_file(self, tmp_path):
        path = str(tmp_path / "traj.json")
        assert append_trajectory(path, {"n": 1}) == 1
        assert append_trajectory(path, {"n": 2}) == 2
        history = json.loads((tmp_path / "traj.json").read_text())
        assert [e["n"] for e in history] == [1, 2]

    def test_append_refuses_non_list_file(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            append_trajectory(str(path), {"n": 1})


class TestLoadTolerances:
    def test_none_returns_defaults(self):
        assert load_tolerances(None) == DEFAULT_TOLERANCES

    def test_overrides_merge_and_comments_skip(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"__comment": "noise",
                                    "ingest_pps": 0.9,
                                    "custom.metric": 0.01}))
        tolerances = load_tolerances(str(path))
        assert tolerances["ingest_pps"] == 0.9
        assert tolerances["custom.metric"] == 0.01
        assert tolerances["query_kps"] == DEFAULT_TOLERANCES["query_kps"]
        assert "__comment" not in tolerances

    def test_non_object_file_raises(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_tolerances(str(path))


class TestSyntheticRecordIsValid:
    def test_make_record_passes_schema(self):
        assert validate_record(make_record()) == []
        assert validate_record(make_record(paper=dict())) == []

    def test_missing_gate_marker_is_invalid(self):
        record = make_record()
        del record["parallel"]["gate"]
        assert any("parallel.gate" in e
                   for e in validate_record(record))

    def test_paper_speedup_floor_validates_by_own_gate(self):
        losing = dict(speedup_vs_serial=0.9)
        errors = validate_record(make_record(paper=losing))
        assert any("speedup_vs_serial" in e and "multi-core" in e
                   for e in errors)
        skipped = dict(speedup_vs_serial=0.9, gate=GATE_SKIPPED,
                       cpus=1)
        assert validate_record(make_record(paper=skipped)) == []

    def test_em_parallel_divergence_is_invalid(self):
        """Bit-exactness is a hard invariant, not a tolerance."""
        errors = validate_record(
            make_record(em_parallel=dict(identical=False)))
        assert any("em_parallel.identical" in e for e in errors)

    def test_em_parallel_no_crossover_gate_validates(self):
        record = make_record(em_parallel=dict(gate=GATE_NO_CROSSOVER))
        assert validate_record(record) == []

    def test_em_parallel_missing_gate_is_invalid(self):
        record = make_record()
        del record["em_parallel"]["gate"]
        assert any("em_parallel.gate" in e
                   for e in validate_record(record))

    def test_warm_start_zero_savings_is_invalid(self):
        errors = validate_record(
            make_record(em_warm_start=dict(iterations_saved=0,
                                           warm_iterations=10)))
        assert any("iterations_saved" in e for e in errors)
        errors = validate_record(
            make_record(em_warm_start=dict(warm_converged=False)))
        assert any("warm_converged" in e for e in errors)

    def test_fallback_fraction_validates_range(self):
        assert validate_record(make_record(fallback=0.0)) == []
        assert validate_record(make_record(fallback=1.0)) == []
        errors = validate_record(make_record(fallback=1.5))
        assert any("batch_fallback_fraction" in e for e in errors)
        errors = validate_record(make_record(fallback=-0.1))
        assert any("batch_fallback_fraction" in e for e in errors)


# ----------------------------------------------------------------------
# end-to-end: main(["--compare", ...]) at a tiny packet budget
# ----------------------------------------------------------------------

def _loose_tolerances(tmp_path):
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({suffix: 1e9
                                for suffix in DEFAULT_TOLERANCES}))
    return str(path)


def test_main_compare_passes_and_appends_trajectory(tmp_path, capsys):
    base_path = tmp_path / "base.json"
    traj_path = tmp_path / "traj.json"
    # Absurdly slow baseline + unbounded tolerances: any machine passes.
    base_path.write_text(json.dumps(make_record(
        packets=2_000, ingest_pps=1.0, query_kps=1.0, em_runtime=1e6)))
    rc = main(["--compare", "--repeats", "1",
               "--out", str(base_path),
               "--trajectory", str(traj_path),
               "--tolerances", _loose_tolerances(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no regressions beyond tolerance" in out
    assert "baseline: 2000 packets" in out  # budget came from baseline
    history = json.loads(traj_path.read_text())
    assert len(history) == 1
    assert history[0]["regressions"] == []


def test_main_compare_exits_2_on_regression(tmp_path, capsys):
    base_path = tmp_path / "base.json"
    traj_path = tmp_path / "traj.json"
    # A baseline no machine can meet: fresh fcm throughput regresses.
    record = make_record(packets=2_000, ingest_pps=1e15, query_kps=1e15,
                         em_runtime=1e6)
    base_path.write_text(json.dumps(record))
    rc = main(["--compare", "--repeats", "1",
               "--out", str(base_path),
               "--trajectory", str(traj_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "fcm.ingest_pps" in err
    # The trajectory records the failed run too.
    history = json.loads(traj_path.read_text())
    assert history[0]["regressions"]


def test_em_parallel_gate_is_an_explicit_skip():
    """A measured EM section never gates, and says why."""
    section = measure_em_parallel(
        caida_like_trace(num_packets=2_000, seed=1).keys, 1)
    assert section["identical"]
    assert section["gate"] == (GATE_NO_CROSSOVER
                               if usable_cpus() >= PARALLEL_MIN_CPUS
                               else GATE_SKIPPED)


def test_main_compare_rejects_invalid_baseline(tmp_path, capsys):
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps({"schema_version": 999}))
    rc = main(["--compare", "--out", str(base_path),
               "--trajectory", str(tmp_path / "traj.json")])
    assert rc == 1
    assert "INVALID baseline" in capsys.readouterr().err
