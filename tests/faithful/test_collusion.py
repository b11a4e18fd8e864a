"""Tests for the collusion boundary (Section 1's 'without collusion')."""

import pytest

from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    encode_flag,
    run_checked_churn,
    run_checked_construction,
)
from repro.faithful.collusion import coalition_factory
from repro.faithful.manipulations import DeviationSpec
from repro.routing import figure1_graph
from repro.sim.churn import ChurnEvent, ChurnSchedule
from repro.specs import ActionClass
from repro.workloads import uniform_all_pairs

GRAPH = figure1_graph()
TRAFFIC = uniform_all_pairs(GRAPH)
SPEC = DEVIATION_CATALOGUE["false-route-announce"]
PRINCIPAL = "C"
CHECKERS = GRAPH.neighbors(PRINCIPAL)


class NoopMixin:
    """A 'deviation' that is actually the faithful behaviour."""

    dev_params = {}


NOOP = DeviationSpec("noop", NoopMixin, frozenset({ActionClass.COMPUTATION}))


def run_with(accomplices):
    return FaithfulFPSSProtocol(
        GRAPH,
        TRAFFIC,
        node_factory=coalition_factory(SPEC, PRINCIPAL, accomplices),
    ).run()


class TestCoalitionEvasion:
    def test_full_coalition_evades_detection(self):
        result = run_with(CHECKERS)
        assert result.progressed
        assert not result.detection.detected_any

    def test_principal_profits_inside_full_coalition(self):
        baseline = FaithfulFPSSProtocol(GRAPH, TRAFFIC).run()
        result = run_with(CHECKERS)
        assert (
            result.utilities[PRINCIPAL]
            > baseline.utilities[PRINCIPAL] + 1e-9
        )

    @pytest.mark.parametrize("honest_index", range(len(CHECKERS)))
    def test_one_honest_checker_suffices(self, honest_index):
        """Leave any single checker honest: the deviation is caught —
        the paper's 'at least one checker' argument."""
        accomplices = [
            c for i, c in enumerate(CHECKERS) if i != honest_index
        ]
        result = run_with(accomplices)
        assert result.detection.detected_any

    def test_empty_coalition_is_unilateral_case(self):
        result = run_with([])
        assert result.detection.detected_any
        assert not result.progressed


class TestComplicitCheckersAreOtherwiseFaithful:
    def test_accomplices_without_deviant_principal_are_clean(self):
        """Complicit checkers shielding an honest principal change
        nothing observable: the run certifies with no flags."""
        result = FaithfulFPSSProtocol(
            GRAPH,
            TRAFFIC,
            node_factory=coalition_factory(NOOP, PRINCIPAL, CHECKERS),
        ).run()
        assert result.progressed
        assert not result.detection.detected_any


def epoch_flags(driver, spec, accomplices):
    """Wire-encoded quiescence flags per epoch of a batched checked run:
    one construction, or a construction plus one cost epoch."""
    factory = coalition_factory(spec, PRINCIPAL, accomplices)
    if driver == "construction":
        checked = run_checked_construction(GRAPH, node_factory=factory)
        return [[encode_flag(f) for f in checked.flags]]
    schedule = ChurnSchedule.single(ChurnEvent(kind="cost", node="D", cost=3.0))
    run = run_checked_churn(GRAPH, schedule, node_factory=factory, verify=False)
    return [run.initial.flags] + [report.flags for report in run.epochs]


def about_principal(flags):
    """``(kind, checker)`` of every flag raised about the principal."""
    return [
        (kind, checker)
        for kind, checker, principal, _phase, _detail in flags
        if principal == PRINCIPAL
    ]


@pytest.mark.parametrize("driver", ["construction", "churn"])
class TestComplicitCheckersStaySilent:
    """A complicit checker raises no flag about the principal it
    shields, at any quiescence checkpoint, whatever the principal does;
    an honest checker beside it still does."""

    def test_honest_principal_no_flags_at_all(self, driver):
        for flags in epoch_flags(driver, NOOP, CHECKERS):
            assert flags == []

    def test_full_coalition_no_flag_about_principal(self, driver):
        epochs = epoch_flags(driver, SPEC, CHECKERS)
        assert len(epochs) == (1 if driver == "construction" else 2)
        for flags in epochs:
            assert about_principal(flags) == []

    def test_partial_coalition_honest_checker_still_flags(self, driver):
        honest = CHECKERS[0]
        for flags in epoch_flags(driver, SPEC, CHECKERS[1:]):
            about = about_principal(flags)
            assert about
            assert {checker for _kind, checker in about} == {honest}


class TestCheckedChurnVerifiesDeviantRuns:
    """With ``verify=True`` the epoch oracle runs only on all-obedient
    networks; an unflagged coalition keeps its manipulated tables, and
    the run still finishes (mirror agreement is checked either way)."""

    @pytest.mark.parametrize("accomplices", [CHECKERS, ()], ids=["full", "none"])
    def test_verified_run_matches_unverified_flags(self, accomplices):
        factory = coalition_factory(SPEC, PRINCIPAL, accomplices)
        schedule = ChurnSchedule.single(ChurnEvent(kind="cost", node="D", cost=3.0))
        runs = [
            run_checked_churn(GRAPH, schedule, node_factory=factory, verify=verify)
            for verify in (True, False)
        ]
        flags = [
            [run.initial.flags] + [report.flags for report in run.epochs]
            for run in runs
        ]
        assert flags[0] == flags[1]
