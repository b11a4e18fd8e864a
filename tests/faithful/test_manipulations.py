"""Detection and incentive tests for every catalogued manipulation.

These tests operationalise Theorem 1: under the extended specification
no catalogued deviation strictly profits, construction deviations are
caught by the BANK1/BANK2 checkpoints, and execution deviations are
caught at settlement.  The plain-FPSS counterparts document which
manipulations *do* profit without the extension.
"""

import pytest

from repro.errors import MechanismError
from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    PlainFPSSProtocol,
    construction_deviations,
    execution_deviations,
    faithful_deviant_factory,
    plain_deviant_factory,
)
from repro.faithful.manipulations import _scale_row_costs
from repro.faithful.mirror import PrincipalMirror
from repro.faithful.protocol import run_checked_construction
from repro.routing import KIND_PRICE_UPDATE, KIND_RT_UPDATE, figure1_graph
from repro.workloads import uniform_all_pairs

GRAPH = figure1_graph()
TRAFFIC = uniform_all_pairs(GRAPH)
TARGET = "C"  # the paper's Example 1 manipulator


@pytest.fixture(scope="module")
def faithful_baseline():
    return FaithfulFPSSProtocol(GRAPH, TRAFFIC).run()


@pytest.fixture(scope="module")
def plain_baseline():
    return PlainFPSSProtocol(GRAPH, TRAFFIC).run()


def run_faithful(spec, target=TARGET):
    return FaithfulFPSSProtocol(
        GRAPH, TRAFFIC, node_factory=faithful_deviant_factory(spec, target)
    ).run()


def run_plain(spec, target=TARGET):
    return PlainFPSSProtocol(
        GRAPH, TRAFFIC, node_factory=plain_deviant_factory(spec, target)
    ).run()


class TestCatalogueStructure:
    def test_catalogue_covers_all_four_manipulation_arms(self):
        names = set(DEVIATION_CATALOGUE)
        # Section 4.3's manipulations 1-4 plus execution frauds.
        assert {"copy-drop", "copy-alter", "copy-spoof"} <= names
        assert {"false-route-announce", "route-suppress"} <= names
        assert {"false-price-announce"} <= names
        assert {"charge-understate", "payment-underreport"} <= names

    def test_stage_partition(self):
        names = {s.name for s in construction_deviations()} | {
            s.name for s in execution_deviations()
        }
        assert names == set(DEVIATION_CATALOGUE)

    def test_with_params_override(self):
        spec = DEVIATION_CATALOGUE["cost-lie"].with_params(declared=9.0)
        assert spec.params["declared"] == 9.0
        assert DEVIATION_CATALOGUE["cost-lie"].params.get("declared") is None

    def test_plain_factory_rejects_faithful_only(self):
        with pytest.raises(MechanismError, match="no counterpart"):
            plain_deviant_factory(DEVIATION_CATALOGUE["copy-drop"], TARGET)


@pytest.mark.parametrize(
    "name", [s.name for s in construction_deviations() if s.name != "cost-lie"]
)
class TestConstructionDetection:
    def test_detected_and_unprofitable(self, name, faithful_baseline):
        spec = DEVIATION_CATALOGUE[name]
        result = run_faithful(spec)
        assert result.detection.detected_any, f"{name} went undetected"
        gain = result.utilities[TARGET] - faithful_baseline.utilities[TARGET]
        assert gain <= 1e-9, f"{name} profited by {gain}"


@pytest.mark.parametrize("name", [s.name for s in execution_deviations()])
class TestExecutionDetection:
    def test_detected_and_unprofitable(self, name, faithful_baseline):
        spec = DEVIATION_CATALOGUE[name]
        result = run_faithful(spec)
        assert result.progressed  # execution frauds pass construction
        assert result.detection.detected_any, f"{name} went undetected"
        gain = result.utilities[TARGET] - faithful_baseline.utilities[TARGET]
        assert gain <= 1e-9, f"{name} profited by {gain}"


class TestCostLie:
    """Example 1's deviation is permitted (consistent revelation) but
    neutralised by VCG: undetected AND unprofitable."""

    def test_not_detected(self):
        result = run_faithful(DEVIATION_CATALOGUE["cost-lie"])
        assert result.progressed
        assert not result.detection.detected_any

    def test_not_profitable_faithful(self, faithful_baseline):
        result = run_faithful(DEVIATION_CATALOGUE["cost-lie"])
        assert (
            result.utilities[TARGET]
            <= faithful_baseline.utilities[TARGET] + 1e-9
        )

    def test_not_profitable_plain_under_vcg(self, plain_baseline):
        result = run_plain(DEVIATION_CATALOGUE["cost-lie"])
        assert (
            result.utilities[TARGET]
            <= plain_baseline.utilities[TARGET] + 1e-9
        )


class TestPlainIsManipulable:
    """The holes the extension closes: strict gains in plain FPSS."""

    @pytest.mark.parametrize(
        "name",
        ["false-route-announce", "charge-understate", "payment-underreport",
         "packet-drop"],
    )
    def test_profitable_in_plain(self, name, plain_baseline):
        result = run_plain(DEVIATION_CATALOGUE[name])
        gain = result.utilities[TARGET] - plain_baseline.utilities[TARGET]
        assert gain > 1e-9, f"{name} did not profit in plain FPSS"

    @pytest.mark.parametrize(
        "name",
        ["false-route-announce", "charge-understate", "payment-underreport",
         "packet-drop"],
    )
    def test_same_deviation_never_profits_in_faithful(
        self, name, faithful_baseline
    ):
        result = run_faithful(DEVIATION_CATALOGUE[name])
        gain = result.utilities[TARGET] - faithful_baseline.utilities[TARGET]
        assert gain <= 1e-9


class TestCheckpointSemantics:
    def test_construction_deviant_blocks_progress(self):
        result = run_faithful(DEVIATION_CATALOGUE["false-route-announce"])
        # A persistent construction deviant exhausts the restart
        # budget: the mechanism halts rather than certify bad tables.
        assert not result.progressed
        assert result.detection.restarts >= 1

    def test_settlement_identifies_the_culprit(self):
        result = run_faithful(DEVIATION_CATALOGUE["payment-underreport"])
        assert TARGET in result.detection.suspects()

    def test_execution_deviant_pays_penalty(self):
        result = run_faithful(DEVIATION_CATALOGUE["payment-underreport"])
        assert result.penalties[TARGET] > 0
        innocent = [n for n in GRAPH.nodes if n != TARGET]
        assert all(result.penalties[n] == 0.0 for n in innocent)

    def test_packet_drop_denies_payment(self, faithful_baseline):
        result = run_faithful(DEVIATION_CATALOGUE["packet-drop"])
        assert result.received[TARGET] < faithful_baseline.received[TARGET]


class TestOtherTargets:
    """Deviations are caught wherever they sit in the topology."""

    @pytest.mark.parametrize("target", ["A", "D", "X"])
    def test_false_route_announce_caught_everywhere(self, target):
        spec = DEVIATION_CATALOGUE["false-route-announce"]
        result = run_faithful(spec, target=target)
        assert result.detection.detected_any

    @pytest.mark.parametrize("target", ["A", "D"])
    def test_payment_underreport_caught_everywhere(self, target):
        spec = DEVIATION_CATALOGUE["payment-underreport"]
        result = run_faithful(spec, target=target)
        assert result.detection.detected_any


class TestBroadcastSeams:
    """A rewriting principal sends its checkers' honest predictions,
    scaled: the computation manipulations rewrite the settled delta
    itself, in both delivery modes."""

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize(
        "name, kind, param",
        [
            ("false-route-announce", "route", "shade"),
            ("false-price-announce", "price", "inflate"),
        ],
    )
    def test_every_broadcast_is_the_scaled_prediction(
        self, monkeypatch, batch, name, kind, param
    ):
        kind = {"route": KIND_RT_UPDATE, "price": KIND_PRICE_UPDATE}[kind]
        spec = DEVIATION_CATALOGUE[name]
        scale = float(spec.params[param])
        seen = {KIND_RT_UPDATE: [], KIND_PRICE_UPDATE: []}
        original = PrincipalMirror.observe_broadcast

        def observe(mirror, which, rows):
            if mirror.principal_id == TARGET:
                expected = mirror._expected[which]
                seen[which].append((expected[0] if expected else None, rows))
            original(mirror, which, rows)

        monkeypatch.setattr(PrincipalMirror, "observe_broadcast", observe)
        run_checked_construction(
            GRAPH,
            batch_delivery=batch,
            node_factory=faithful_deviant_factory(spec, TARGET),
        )
        assert seen[KIND_RT_UPDATE] and seen[KIND_PRICE_UPDATE]
        for which, observed in seen.items():
            for predicted, sent in observed:
                assert predicted is not None
                if which == kind:
                    assert sent == _scale_row_costs(predicted, scale)
                else:
                    assert sent == predicted
        assert any(predicted != sent for predicted, sent in seen[kind])
