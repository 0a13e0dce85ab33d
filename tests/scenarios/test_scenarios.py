"""Tests for the scenario-matrix harness.

The expensive end-to-end properties run on the cheap synthetic drift
cells only (a 9 h cyclic home).  The CI scenario-smoke job runs one cell
per axis; neither CI nor the bench runs the full default matrix (that is
``repro scenarios`` without ``--cells``).
"""

import json

import pytest

from repro.scenarios import (
    SCENARIO_SCHEMA,
    ScenarioCell,
    ScenarioSettings,
    build_report,
    default_matrix,
    refresh_pairs,
    render_table,
    run_matrix,
    select_cells,
    validate_report,
    write_report,
)

FAST = ScenarioSettings(trials=1)

DRIFT_PAIR = [
    ScenarioCell("drift", "seasonal_shift", "synthetic", refresh=False),
    ScenarioCell("drift", "seasonal_shift", "synthetic", refresh=True),
]


@pytest.fixture(scope="module")
def pair_doc():
    """One seeded run of the seasonal-shift refresh A/B, shared readonly."""
    results = run_matrix(DRIFT_PAIR, seed=7, settings=FAST)
    return build_report(results, seed=7, settings=FAST)


class TestCells:
    def test_default_matrix_coverage(self):
        cells = default_matrix()
        ids = [c.cell_id for c in cells]
        assert len(ids) == len(set(ids))
        variants = {(c.kind, c.variant) for c in cells}
        # All five Ni et al. fault classes, plus the actuator rendering.
        for fault in ("fail_stop", "outlier", "stuck_at", "high_noise", "spike"):
            assert ("fault", fault) in variants
        assert ("fault", "actuator") in variants
        # The Ch. VI attacks.
        for attack in ("temperature", "light", "coordinated"):
            assert ("attack", attack) in variants
        # Both drift renderings, each as a refresh A/B pair.
        drift = [c for c in cells if c.kind == "drift"]
        assert {c.variant for c in drift} == {
            "seasonal_shift",
            "device_replacement",
        }
        for variant in ("seasonal_shift", "device_replacement"):
            stances = {c.refresh for c in drift if c.variant == variant}
            assert stances == {False, True}
        # Multi-fault coverage.
        assert any(c.multi for c in cells)

    def test_refresh_pair_shares_injection(self):
        plain, refresh = DRIFT_PAIR
        assert plain.injection_id == refresh.injection_id
        assert plain.cell_id != refresh.cell_id

    def test_select_cells_substring(self):
        cells = default_matrix()
        picked = select_cells(cells, ["stuck_at"])
        assert picked
        assert all("stuck_at" in c.cell_id for c in picked)
        assert select_cells(cells, None) == list(cells)

    def test_select_cells_unmatched_filter_raises(self):
        with pytest.raises(ValueError, match="no cell"):
            select_cells(default_matrix(), ["no_such_cell"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioCell("mystery", "x", "houseA")


class TestDeterminism:
    def test_same_seed_byte_identical_report(self, pair_doc, tmp_path):
        again = build_report(
            run_matrix(DRIFT_PAIR, seed=7, settings=FAST),
            seed=7,
            settings=FAST,
        )
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_report(pair_doc, str(first))
        write_report(again, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_changes_injection(self, pair_doc):
        other = run_matrix(DRIFT_PAIR[:1], seed=8, settings=FAST)
        base = next(
            r for r in pair_doc["cells"] if not r["refresh_enabled"]
        )
        assert (
            other[0]["victims"] != base["victims"]
            or other[0]["onset_hours"] != base["onset_hours"]
        )


class TestReportSchema:
    def test_real_report_validates(self, pair_doc):
        assert validate_report(pair_doc) is pair_doc
        assert pair_doc["schema"] == SCENARIO_SCHEMA

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(schema="bogus/9"), "schema"),
            (lambda d: d.update(seed="seven"), "seed"),
            (lambda d: d.update(cells=[]), "non-empty"),
            (
                lambda d: d["cells"][0]["detection"].update(recall=1.5),
                "rate",
            ),
            (
                lambda d: d["cells"][0]["detection"].update(tp=5),
                "trials",
            ),
            (
                lambda d: d["cells"][0].update(refresh=None),
                "refresh",
            ),
            (
                lambda d: d["cells"].append(dict(d["cells"][0])),
                "duplicate",
            ),
        ],
    )
    def test_mutated_report_rejected(self, pair_doc, mutate, message):
        doc = json.loads(json.dumps(pair_doc))
        mutate(doc)
        with pytest.raises(ValueError, match=message):
            validate_report(doc)

    def test_render_table_lists_every_cell(self, pair_doc):
        table = render_table(pair_doc)
        for row in pair_doc["cells"]:
            assert row["id"] in table


class TestGracefulDegradation:
    def test_refresh_lowers_sustained_alert_rate(self, pair_doc):
        # The ISSUE acceptance criterion: with refresh enabled, the
        # sustained false-alert rate after a drift settles must be
        # measurably lower than the refresh-disabled twin's.
        pairs = refresh_pairs(pair_doc)
        assert [p["variant"] for p in pairs] == ["seasonal_shift"]
        pair = pairs[0]
        assert pair["plain"] is not None and pair["refresh"] is not None
        assert pair["plain"] > 1.0  # drift keeps the plain detector alerting
        assert pair["refresh"] < pair["plain"] / 4.0
        # And the refresh actually happened, per the recorded stats.
        refreshed = next(
            r for r in pair_doc["cells"] if r["refresh_enabled"]
        )
        assert refreshed["refresh"]["applied"] >= 1

    def test_drift_cells_carry_refresh_stats_plain_cells_dont(self, pair_doc):
        for row in pair_doc["cells"]:
            assert isinstance(row["refresh"], dict)
        fault_row = run_matrix(
            [ScenarioCell("fault", "stuck_at", "houseA")],
            seed=7,
            settings=FAST,
        )[0]
        assert fault_row["refresh"] is None
        assert fault_row["sustained_alerts_per_hour"] is None
