"""Tests for budgets, candidate enumeration, case scans, refinements, volume
exclusions, the full pipeline, and the orbifold registry.

Candidate lists are verified against a literal brute-force enumeration that
shares no code with the engine.  Lower bounds are checked against frozen
mpmath values.
"""

import json
import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnover import engine
from turnover.collars import cone_order_universe, refined_boundary_orders
from turnover.engine import (
    Conclusion,
    RefinementInput,
    Verdict,
    analyze,
    boundary_candidates,
    exclusion_by_volume,
    known_refinements,
    make_ledger,
    miyamoto_case_scan,
    order4_refinement,
    order5_refinement,
    registry,
    registry_json,
)
from turnover.errors import DomainError
from turnover.rooms import constant_H
from turnover.simplices import ReturnPathCase, TruncatedSimplexSpec, edge_from_angle
from turnover.trig import GeometryClass, TurnoverSignature, classify, turnover_area

# mpmath, 40 digits
UB_WITH_BOUNDARY_245 = 0.3768901602902289
CHAIN_334_K4_CLOSED = 0.4288509100402153
BOUND_ORDER4 = 0.3839860716052123
BOUND_ORDER5 = 0.4602224494745811
DISK_RADIUS_245 = 0.5306375309525178
SEPARATION_245 = 0.9213650173505565

# Census verdict table over every hyperbolic signature with orders <= 7 at
# ext 1 and 2, recorded for the benchmark; read here, never written.
CENSUS_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "census.json"

# Every census analysis; the four first checked keep their place (and ids).
DENSITY_CHECKED = [((2, 4, 5), 1), ((2, 4, 6), 2), ((2, 4, 7), 2), ((7, 7, 7), 1)]
DENSITY_CHECKED += [
    (tuple(row["sig"]), row["ext"])
    for row in json.loads(CENSUS_GOLDEN.read_text())["rows"]
    if (tuple(row["sig"]), row["ext"]) not in DENSITY_CHECKED
]

HYPERBOLIC_UP_TO_9 = [
    (p, q, r)
    for p, q, r in combinations_with_replacement(range(2, 10), 3)
    if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1
]


def sig(*orders) -> TurnoverSignature:
    return TurnoverSignature(*orders)


def brute_force_candidates(budget_defect: Fraction, orders):
    """Independent oracle: all hyperbolic triples over ``orders`` with angle
    defect strictly under the budget, via direct rational arithmetic."""
    out = []
    for p, q, r in combinations_with_replacement(sorted(orders), 3):
        defect = 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)
        if 0 < defect < budget_defect:
            out.append((p, q, r))
    out.sort(key=lambda t: (1 - Fraction(1, t[0]) - Fraction(1, t[1]) - Fraction(1, t[2]), t))
    return out


def per_triple_candidates(ledger, orders):
    """Reference for ``boundary_candidates``: one signature, one exact
    comparison and one area per triple, then a sort by exact defect."""
    budget = 2 * -ledger.sig.chi_fraction() / ledger.extension_index
    found = []
    for triple in combinations_with_replacement(sorted(set(orders)), 3):
        boundary = TurnoverSignature(*triple)
        if classify(boundary) is not GeometryClass.HYPERBOLIC:
            continue
        if -boundary.chi_fraction() < budget:
            found.append((boundary, turnover_area(boundary)))
    found.sort(key=lambda item: (-item[0].chi_fraction(), item[0].orders))
    return found


class TestLedger:
    def test_245_ext1(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        assert ledger.area == pytest.approx(math.pi / 10.0, abs=1e-14)
        assert ledger.two_sided_budget == pytest.approx(math.pi / 5.0, abs=1e-14)
        assert ledger.upper_bound_with_boundary == pytest.approx(
            UB_WITH_BOUNDARY_245, abs=1e-10
        )
        assert ledger.upper_bound_no_boundary == pytest.approx(
            math.pi / 10.0, abs=1e-14
        )
        assert ledger.max_boundary_pieces == 4

    def test_245_ext2_halves(self):
        ledger = make_ledger(sig(2, 4, 5), 2)
        assert ledger.upper_bound_no_boundary == pytest.approx(
            math.pi / 20.0, abs=1e-14
        )
        assert ledger.two_sided_budget == pytest.approx(math.pi / 10.0, abs=1e-14)
        assert ledger.max_boundary_pieces == 2

    def test_bound_ratio_is_constant_h(self):
        for orders, ext in [((2, 4, 5), 1), ((2, 3, 7), 1), ((2, 4, 6), 2)]:
            ledger = make_ledger(sig(*orders), ext)
            assert ledger.upper_bound_with_boundary == constant_H() * (
                ledger.upper_bound_no_boundary
            )

    def test_exact_piece_count_at_integer_ratio(self):
        # budget(2,3,7)/(pi/21) is exactly 2; float division must not round down.
        assert make_ledger(sig(2, 3, 7), 1).max_boundary_pieces == 2

    def test_validation(self):
        with pytest.raises(DomainError):
            make_ledger(sig(2, 3, 6), 1)
        with pytest.raises(DomainError):
            make_ledger(sig(2, 4, 5), 3)

    @pytest.mark.parametrize("ext", [True, 1.0, 2.0])
    def test_extension_index_must_be_an_int(self, ext):
        """A bool or a float equal to 1 or 2 is no extension index; a float
        one would make the budget an inexact float."""
        with pytest.raises(DomainError, match="extension index must be 1 or 2"):
            make_ledger(sig(2, 4, 5), ext)


class TestBoundaryCandidates:
    def test_245_worked_case(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        rows = boundary_candidates(ledger, refined_boundary_orders(sig(2, 4, 5)))
        assert [s.orders for s, _ in rows] == [(2, 4, 5), (3, 3, 4)]
        assert rows[0][1] == pytest.approx(math.pi / 10.0, abs=1e-14)
        assert rows[1][1] == pytest.approx(math.pi / 6.0, abs=1e-14)

    def test_245_against_brute_force(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        orders = refined_boundary_orders(sig(2, 4, 5))
        rows = boundary_candidates(ledger, orders)
        # budget as a multiple of 2*pi: 2 * (1/20) / 1 = 1/10
        oracle = brute_force_candidates(Fraction(1, 10), list(orders))
        assert [s.orders for s, _ in rows] == oracle

    def test_237_universe_case_with_brute_force(self):
        ledger = make_ledger(sig(2, 3, 7), 1)
        orders = cone_order_universe(sig(2, 3, 7))
        rows = boundary_candidates(ledger, orders)
        assert [s.orders for s, _ in rows] == [(2, 3, 7), (2, 3, 8)]
        oracle = brute_force_candidates(Fraction(2, 42), list(orders))
        assert [s.orders for s, _ in rows] == oracle

    def test_exact_budget_is_excluded(self):
        # (2,5,5) has area exactly the two-sided budget of (2,4,5) at ext 1.
        ledger = make_ledger(sig(2, 4, 5), 1)
        rows = boundary_candidates(ledger, (2, 3, 4, 5))
        assert (2, 5, 5) not in [s.orders for s, _ in rows]

    def test_superset_monotonicity(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        small = boundary_candidates(ledger, (2, 3, 4))
        large = boundary_candidates(ledger, (2, 3, 4, 5))
        assert {s.orders for s, _ in small} <= {s.orders for s, _ in large}

    def test_areas_below_budget(self):
        ledger = make_ledger(sig(2, 4, 6), 2)
        rows = boundary_candidates(ledger, refined_boundary_orders(sig(2, 4, 6)))
        assert rows
        for _, area in rows:
            assert area < ledger.two_sided_budget

    def test_empty_order_set(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        assert boundary_candidates(ledger, []) == []

    def test_float_order_raises_before_and_after_caching(self):
        """The table is cached by typed orders: 2.0 is not 2, and it
        reaches ``TurnoverSignature``, which rejects it."""
        ledger = make_ledger(sig(2, 4, 5), 1)
        with pytest.raises(DomainError):
            boundary_candidates(ledger, [2.0, 4, 5])
        assert boundary_candidates(ledger, [2, 4, 5])
        with pytest.raises(DomainError):
            boundary_candidates(ledger, [2.0, 4, 5])

    def test_mutating_a_result_leaves_the_next_call_alone(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        orders = refined_boundary_orders(sig(2, 4, 5))
        expected = [(s, turnover_area(s)) for s in (sig(2, 4, 5), sig(3, 3, 4))]
        assert boundary_candidates(ledger, orders) == expected
        boundary_candidates(ledger, orders).append((sig(7, 7, 7), 0.0))
        assert boundary_candidates(ledger, orders) == expected
        boundary_candidates(ledger, orders).clear()
        assert boundary_candidates(ledger, orders) == expected

    def test_one_order_set_two_budgets(self):
        """One cached table, cut at the ext 1 and the ext 2 budget of (2,4,5)."""
        orders = tuple(range(2, 13))
        rows = {}
        for ext in (1, 2):
            ledger = make_ledger(sig(2, 4, 5), ext)
            rows[ext] = [s.orders for s, _ in boundary_candidates(ledger, orders)]
        assert rows[1] == brute_force_candidates(Fraction(1, 10), list(orders))
        assert rows[2] == brute_force_candidates(Fraction(1, 20), list(orders))
        assert rows[2] == [(2, 3, 7), (2, 3, 8)]
        assert rows[1][: len(rows[2])] == rows[2] and len(rows[1]) > len(rows[2])

    def test_order_sets_share_one_signature_object(self):
        """Signatures are built once per process: the tables of two order
        sets that both hold (2,3,7) hand out the same object."""
        ledger = make_ledger(sig(7, 7, 7), 1)
        rows = [
            {s.orders: s for s, _ in boundary_candidates(ledger, orders)}
            for orders in ([2, 3, 7], [2, 3, 7, 8])
        ]
        assert rows[0][(2, 3, 7)] is rows[1][(2, 3, 7)]

    @settings(max_examples=150, deadline=None)
    @given(
        orders=st.tuples(*[st.integers(min_value=2, max_value=30)] * 3).filter(
            lambda o: sum(Fraction(1, n) for n in o) < 1
        ),
        ext=st.sampled_from([1, 2]),
        subset=st.lists(st.integers(min_value=2, max_value=30), max_size=12),
        one_shot=st.booleans(),
    )
    @example(orders=(2, 4, 5), ext=1, subset=[], one_shot=True)
    @example(orders=(7, 7, 7), ext=2, subset=[2, 3, 7, 14, 3], one_shot=True)
    def test_matches_the_per_triple_exact_loop(self, orders, ext, subset, one_shot):
        """Same signatures, areas (bit for bit) and order as the exact loop,
        for any order subset, including an empty one and a one-shot
        generator."""
        ledger = make_ledger(sig(*orders), ext)
        given_orders = (n for n in subset) if one_shot else subset
        assert boundary_candidates(ledger, given_orders) == per_triple_candidates(
            ledger, subset
        )


class TestCaseScan:
    def test_334_k4_closed_is_the_binding_case(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        records = miyamoto_case_scan(ledger, sig(3, 3, 4))
        assert all(rec.verdict is Verdict.EXCLUDED for rec in records)
        binding = min(records, key=lambda rec: rec.lower_bound)
        assert (binding.case.k, binding.case.closed) == (4, True)
        assert binding.case.theta == math.pi / 4.0
        assert binding.lower_bound == pytest.approx(CHAIN_334_K4_CLOSED, abs=1e-5)
        assert binding.lower_bound > ledger.upper_bound_with_boundary

    def test_245_boundary_survivors(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        records = miyamoto_case_scan(ledger, sig(2, 4, 5))
        survivors = {
            (rec.case.k, rec.case.closed)
            for rec in records
            if rec.verdict is Verdict.SURVIVES
        }
        assert survivors == {(4, True), (5, True)}

    def test_245_k2_closed_angle(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        records = miyamoto_case_scan(ledger, sig(2, 4, 5))
        k2 = next(
            rec for rec in records if rec.case.k == 2 and rec.case.closed
        )
        # chi = -1/20, so theta = pi / (3 (1 + 2/20)) = pi / 3.3.
        assert k2.case.theta == pytest.approx(math.pi / 3.3, abs=1e-14)
        assert k2.verdict is Verdict.EXCLUDED

    def test_forced_closed_skipping(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        records = miyamoto_case_scan(ledger, sig(3, 3, 4))
        combos = {(rec.case.k, rec.case.closed) for rec in records}
        assert (4, False) not in combos
        assert (3, False) in combos  # order 3 occurs twice: open case possible
        assert len(records) == 5

    def test_synthetic_infinite_bound_survives_everything(self):
        ledger = make_ledger(sig(2, 4, 5), 1)._replace(upper_bound_with_boundary=math.inf)
        records = miyamoto_case_scan(ledger, sig(3, 3, 4))
        assert all(rec.verdict is Verdict.SURVIVES for rec in records)

    def test_a_bound_equal_to_the_cap_survives(self):
        """Excluded needs the bound strictly above the ledger's cap: at a
        cap equal to the bound the case survives, one step below it the
        case is Excluded."""
        ledger = make_ledger(sig(2, 4, 5), 1)
        boundary = sig(3, 3, 4)
        for index, rec in enumerate(miyamoto_case_scan(ledger, boundary)):
            for cap, verdict in (
                (rec.lower_bound, Verdict.SURVIVES),
                (math.nextafter(rec.lower_bound, 0.0), Verdict.EXCLUDED),
            ):
                tied = ledger._replace(upper_bound_with_boundary=cap)
                assert miyamoto_case_scan(tied, boundary)[index].verdict is verdict

    def test_a_plain_tuple_boundary_is_a_domain_error_cold_or_warm(self):
        """A signature equals the tuple of its orders, so an untyped case
        cache answered a tuple with the signature's records once the
        signature was scanned; the tuple is one ``DomainError`` either way."""
        engine._case_records.cache_clear()
        ledger = make_ledger(sig(2, 4, 5), 1)
        message = r"^\(3, 3, 4\) is not a TurnoverSignature$"
        with pytest.raises(DomainError, match=message):
            miyamoto_case_scan(ledger, (3, 3, 4))
        assert len(miyamoto_case_scan(ledger, sig(3, 3, 4))) == 5
        with pytest.raises(DomainError, match=message):
            miyamoto_case_scan(ledger, (3, 3, 4))

    @pytest.mark.parametrize("boundary", [(3, 3, 3), (2, 3, 6)])
    def test_rejects_euclidean_boundary(self, boundary):
        ledger = make_ledger(sig(2, 4, 5), 1)
        with pytest.raises(DomainError, match="euclidean"):
            miyamoto_case_scan(ledger, sig(*boundary))

    def test_excluded_cases_exceed_the_bound(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        for rec in miyamoto_case_scan(ledger, sig(2, 4, 5)):
            if rec.verdict is Verdict.EXCLUDED:
                assert rec.lower_bound > ledger.upper_bound_with_boundary

    @settings(max_examples=60, deadline=None)
    @given(
        boundary=st.sampled_from(HYPERBOLIC_UP_TO_9),
        immersed=st.lists(
            st.tuples(st.sampled_from(HYPERBOLIC_UP_TO_9), st.sampled_from([1, 2])),
            min_size=2,
            max_size=4,
        ),
    )
    def test_bounds_are_shared_and_verdicts_follow_each_ledger(self, boundary, immersed):
        """A case bound depends only on the boundary; each verdict compares
        it with the ledger it was scanned against."""
        scans = []
        for orders, ext in immersed:
            ledger = make_ledger(sig(*orders), ext)
            scans.append((ledger, miyamoto_case_scan(ledger, sig(*boundary))))
        first = [(rec.case, rec.lower_bound) for rec in scans[0][1]]
        for ledger, records in scans:
            assert [(rec.case, rec.lower_bound) for rec in records] == first
            for rec in records:
                expected = (
                    Verdict.EXCLUDED
                    if rec.lower_bound > ledger.upper_bound_with_boundary
                    else Verdict.SURVIVES
                )
                assert rec.verdict is expected


class TestRefinements:
    def test_order4(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        bound, verdict = order4_refinement(ledger, sig(2, 4, 5), DISK_RADIUS_245)
        assert bound == pytest.approx(BOUND_ORDER4, abs=1e-5)
        assert verdict is Verdict.EXCLUDED

    def test_order5(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        bound, verdict = order5_refinement(ledger, sig(2, 4, 5), SEPARATION_245)
        assert bound == pytest.approx(BOUND_ORDER5, abs=1e-5)
        assert verdict is Verdict.EXCLUDED

    def test_large_disk_small_theta_regime(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        bound, verdict = order4_refinement(ledger, sig(2, 4, 5), 10.0)
        # Enormous disk forces a tiny return path: octahedral density regime.
        assert bound == pytest.approx(
            (3.6638623767088761 / (4 * math.pi)) * math.pi / 10.0, rel=1e-3
        )
        assert verdict is Verdict.SURVIVES

    def test_degenerate_disk_radius_raises(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        with pytest.raises(DomainError):
            order4_refinement(ledger, sig(2, 4, 5), 1e-12)

    def test_separation_validation(self):
        ledger = make_ledger(sig(2, 4, 5), 1)
        with pytest.raises(DomainError):
            order5_refinement(ledger, sig(2, 4, 5), 0.0)

    def test_known_refinements_values_come_from_trig(self):
        refs = known_refinements(sig(2, 4, 5))
        assert [r.kind for r in refs] == ["disk", "separation"]
        assert refs[0].value == pytest.approx(DISK_RADIUS_245, abs=1e-12)
        assert refs[1].value == pytest.approx(SEPARATION_245, abs=1e-12)
        assert known_refinements(sig(2, 4, 6)) == ()


class TestVolumeExclusion:
    def test_o9_excludes(self):
        assert exclusion_by_volume(1.004261, sig(3, 3, 5), False) is Verdict.EXCLUDED
        assert exclusion_by_volume(1.004261, sig(2, 5, 5), False) is Verdict.EXCLUDED

    def test_o9_does_not_exclude_355(self):
        assert exclusion_by_volume(1.004261, sig(3, 5, 5), False) is Verdict.SURVIVES

    def test_o8(self):
        for orders in [(2, 4, 5), (2, 5, 5), (3, 3, 4)]:
            assert exclusion_by_volume(0.717306, sig(*orders), False) is Verdict.EXCLUDED
        for orders in [(3, 3, 5), (3, 5, 5)]:
            assert exclusion_by_volume(0.717306, sig(*orders), False) is Verdict.SURVIVES

    def test_embedded_flag_uses_scaled_cap(self):
        # area(3,3,5) = 0.8378 < 0.9: excluded without embedded turnovers,
        # but H * area = 1.005 > 0.9 survives with them.
        assert exclusion_by_volume(0.9, sig(3, 3, 5), False) is Verdict.EXCLUDED
        assert exclusion_by_volume(0.9, sig(3, 3, 5), True) is Verdict.SURVIVES

    def test_validation(self):
        with pytest.raises(DomainError):
            exclusion_by_volume(0.0, sig(2, 4, 5), False)

    def test_nan_volume_is_named_not_a_number(self):
        with pytest.raises(DomainError, match=r"orbifold volume is not a number \(nan\)"):
            exclusion_by_volume(math.nan, sig(2, 4, 5), False)

    @settings(max_examples=200, deadline=None)
    @given(
        orders=st.tuples(*[st.integers(min_value=2, max_value=60)] * 3).filter(
            lambda o: sum(Fraction(1, n) for n in o) < 1
        ),
        excess=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_corollary_volume_at_least_two_pi_excludes(self, orders, excess):
        """Area(sig) < 2 pi for every hyperbolic turnover, so an orbifold of
        volume >= 2 pi without embedded turnovers has no immersed one."""
        s = sig(*orders)
        assert turnover_area(s) < 2.0 * math.pi
        volume = 2.0 * math.pi + excess
        assert exclusion_by_volume(volume, s, has_embedded_turnovers=False) is Verdict.EXCLUDED


class TestAnalyze:
    def test_245_full_pipeline(self):
        report = analyze(sig(2, 4, 5), 1)
        assert report.conclusion is Conclusion.NO_EMBEDDED_TURNOVERS
        assert [s.orders for s, _ in report.candidates] == [(2, 4, 5), (3, 3, 4)]
        assert list(report.admissible_orders) == [2, 3, 4, 5]

    def test_245_argument_shape(self):
        """(3,3,4) dies in the scan with k=4 closed binding; (2,4,5) needs
        both refinements, one per surviving axis order."""
        report = analyze(sig(2, 4, 5), 1)
        by_boundary = {}
        for rec in report.cases:
            by_boundary.setdefault(rec.case.boundary_sig.orders, []).append(rec)
        assert all(
            rec.verdict is Verdict.EXCLUDED for rec in by_boundary[(3, 3, 4)]
        )
        survivors = [
            rec for rec in by_boundary[(2, 4, 5)] if rec.verdict is Verdict.SURVIVES
        ]
        assert {(rec.case.k, rec.case.closed) for rec in survivors} == {
            (4, True),
            (5, True),
        }
        refinement_targets = {
            (rec.input.k, rec.verdict) for rec in report.refinements
        }
        assert refinement_targets == {(4, Verdict.EXCLUDED), (5, Verdict.EXCLUDED)}

    def test_245_without_refinements_cannot_conclude(self):
        report = analyze(sig(2, 4, 5), 1, refinements=())
        assert report.conclusion is Conclusion.CANDIDATES_REMAIN

    def test_246_ext2_remains_open(self):
        report = analyze(sig(2, 4, 6), 2)
        assert report.conclusion is Conclusion.CANDIDATES_REMAIN

    def test_247_ext2_keeps_237_candidate(self):
        report = analyze(sig(2, 4, 7), 2)
        assert report.conclusion is Conclusion.CANDIDATES_REMAIN
        assert (2, 3, 7) in [s.orders for s, _ in report.candidates]

    def test_the_order_filters_carry_five_verdicts(self, monkeypatch):
        """Without the boundary-order filters five of the seven settled
        verdicts are lost; (2,3,7) and (2,3,8) at ext 2 settle on area alone."""
        carried = [((2, 4, 5), 1), ((2, 4, 5), 2)] + [((2, 3, r), 2) for r in (9, 10, 11)]
        by_area = [((2, 3, 7), 2), ((2, 3, 8), 2)]
        for orders, ext in carried + by_area:
            assert analyze(sig(*orders), ext).conclusion is Conclusion.NO_EMBEDDED_TURNOVERS
        monkeypatch.setattr("turnover.engine.refined_boundary_orders", cone_order_universe)
        for orders, ext in carried:
            assert analyze(sig(*orders), ext).conclusion is Conclusion.CANDIDATES_REMAIN
        for orders, ext in by_area:
            assert analyze(sig(*orders), ext).conclusion is Conclusion.NO_EMBEDDED_TURNOVERS

    def test_doubled_order_above_the_cap_is_named(self):
        """(600000,600000,600000) keeps 2r = 1200000, which no boundary
        signature can carry; the error names it and the cap."""
        with pytest.raises(DomainError) as info:
            analyze(sig(600000, 600000, 600000))
        message = str(info.value)
        assert "(600000,600000,600000)" in message
        assert "1200000" in message and "1000000" in message

    def test_doubled_order_removed_by_the_filter_is_no_error(self):
        report = analyze(sig(2, 3, 600000))
        assert 1200000 not in report.admissible_orders

    def test_doubled_order_at_the_cap_is_kept(self):
        report = analyze(sig(500000, 500000, 500000), 2)
        assert report.admissible_orders[-1] == 1000000

    def test_report_json_schema(self):
        payload = analyze(sig(2, 4, 5), 1).to_dict()
        json.dumps(payload)  # serializable
        assert set(payload) == {
            "signature",
            "extension_index",
            "bounds",
            "orders",
            "candidates",
            "cases",
            "refinements",
            "conclusion",
        }
        assert set(payload["bounds"]) == {
            "with_boundary",
            "no_boundary",
            "budget",
            "max_pieces",
        }
        case = payload["cases"][0]
        assert set(case) == {"boundary", "k", "closed", "theta", "lower_bound", "verdict"}
        assert payload["conclusion"] == "NoEmbeddedTurnovers"
        assert payload["signature"] == [2, 4, 5]

    def test_census_matches_golden_table(self):
        """Conclusion and Excluded/Survives counts of all 88 census rows."""
        rows = json.loads(CENSUS_GOLDEN.read_text())["rows"]
        assert len(rows) == 88
        for row in rows:
            report = analyze(sig(*row["sig"]), row["ext"])
            verdicts = [rec.verdict for rec in report.cases]
            assert (
                report.conclusion.value,
                verdicts.count(Verdict.EXCLUDED),
                verdicts.count(Verdict.SURVIVES),
            ) == (row["conclusion"], row["excluded"], row["survives"]), row

    @settings(max_examples=25, deadline=None)
    @given(orders=st.sampled_from(HYPERBOLIC_UP_TO_9))
    def test_ext2_excludes_at_least_what_ext1_excludes(self, orders):
        """Halving the budgets can only remove candidates and survivors."""

        def survivors(report):
            return {
                (rec.case.boundary_sig, rec.case.k, rec.case.closed)
                for rec in report.cases
                if rec.verdict is Verdict.SURVIVES
            }

        ext1, ext2 = analyze(sig(*orders), 1), analyze(sig(*orders), 2)
        assert {s for s, _ in ext2.candidates} <= {s for s, _ in ext1.candidates}
        assert survivors(ext2) <= survivors(ext1)
        if ext1.conclusion is Conclusion.NO_EMBEDDED_TURNOVERS:
            assert ext2.conclusion is Conclusion.NO_EMBEDDED_TURNOVERS

    @settings(max_examples=20, deadline=None)
    @given(
        orders=st.tuples(*[st.integers(min_value=2, max_value=12)] * 3).filter(
            lambda o: sum(Fraction(1, n) for n in o) < 1
        ),
        ext=st.sampled_from([1, 2]),
    )
    def test_permutation_invariance(self, orders, ext):
        """The payload depends on the orders as a multiset, not their order."""
        payloads = {
            json.dumps(analyze(TurnoverSignature(*perm), ext).to_dict())
            for perm in permutations(orders)
        }
        assert len(payloads) == 1

    @pytest.mark.parametrize("orders, ext", DENSITY_CHECKED)
    def test_every_bound_is_the_density_at_its_theta(self, orders, ext):
        """Every case of every census analysis, bit for bit: theta is the
        exact-rational formula, the minimal length is the edge at theta, the
        bound is the density at theta times the boundary area, and the case
        is the one ``ReturnPathCase.build`` makes.  Refinement bounds are the
        density at their theta too."""
        report = analyze(sig(*orders), ext)
        assert bool(report.cases) == bool(report.candidates)
        for rec in report.cases:
            case = rec.case
            boundary, k, closed = case.boundary_sig, case.k, case.closed
            chi = sum(Fraction(1, n) for n in boundary.orders) - 1
            weight = Fraction(k) if closed else Fraction(k, 2)
            theta = math.pi / float(3 * (1 - weight * chi))
            assert case.theta == theta, case
            assert case.min_length == edge_from_angle(theta), case
            expected = TruncatedSimplexSpec.from_angle(theta).rho3 * turnover_area(boundary)
            assert rec.lower_bound == expected, case
            assert case == ReturnPathCase.build(boundary, k, closed)
        for rec in report.refinements:
            expected = (TruncatedSimplexSpec.from_angle(rec.theta).rho3
                        * turnover_area(rec.input.boundary))
            assert rec.lower_bound == expected, rec.input

    def test_refinement_input_validation(self):
        with pytest.raises(DomainError):
            RefinementInput(sig(2, 4, 5), 4, "nope", 1.0)
        with pytest.raises(DomainError):
            RefinementInput(sig(2, 4, 5), 4, "disk", 0.0)

    @pytest.mark.parametrize("boundary, k, named", [
        (sig(2, 4, 5), 4.5, "k=4.5"),
        (sig(2, 4, 5), 7, "k=7"),
        ((2, 4, 5), 4, "boundary (2, 4, 5)"),
    ])
    def test_refinement_input_that_fits_no_case_is_rejected(self, boundary, k, named):
        """A k that is not a cone order of the boundary, or a boundary that
        is not a signature, matches no case, so it is an error that names
        the value rather than an input ``analyze`` ignores or trips on."""
        with pytest.raises(DomainError, match=re.escape(named)):
            RefinementInput(boundary, k, "disk", 0.5)

    def test_nan_refinement_input_is_named_not_a_number(self):
        with pytest.raises(DomainError, match="refinement input is not a number"):
            RefinementInput(sig(2, 4, 5), 4, "disk", math.nan)


class TestRegistry:
    def test_entries_present(self):
        names = {entry.name for entry in registry()}
        assert names == {"Q3", "Q10", "O8", "O9", "Q(2,4,7)", "Q(2,4,inf)"}

    def test_q3(self):
        entry = next(e for e in registry() if e.name == "Q3")
        assert entry.volume == pytest.approx(0.071770, abs=1e-9)
        assert [s.orders for s in entry.known_immersed] == [(2, 4, 5)]
        assert entry.extension_index == 2

    def test_q10(self):
        entry = next(e for e in registry() if e.name == "Q10")
        assert entry.volume == pytest.approx(0.211446, abs=1e-9)
        assert [s.orders for s in entry.known_immersed] == [(2, 4, 6)]

    def test_o8_o9_prisms(self):
        volumes = {e.name: e.volume for e in registry()}
        assert volumes["O8"] == pytest.approx(0.717306, abs=1e-9)
        assert volumes["O9"] == pytest.approx(1.004261, abs=1e-9)
        assert volumes["Q(2,4,7)"] == pytest.approx(0.325947, abs=1e-9)
        assert volumes["Q(2,4,inf)"] == pytest.approx(0.501921, abs=1e-9)

    @pytest.mark.parametrize("name", [
        "O8",
        "O9",
        # The stored edge orders of Q3 and Q10 are not a compact
        # tetrahedron's; these pass once they are re-read from the paper.
        pytest.param("Q3", marks=pytest.mark.xfail(
            strict=True, reason="stored Q3 edge orders give a hyperbolic (3,3,4) link")),
        pytest.param("Q10", marks=pytest.mark.xfail(
            strict=True, reason="stored Q10 edge orders give a hyperbolic (3,3,4) "
                                "and two euclidean (2,3,6) links")),
    ])
    def test_compact_tetrahedra_have_spherical_vertex_links(self, name):
        """Read as (A, B, C) at one vertex and (D, E, F) opposite, the edge
        orders give four spherical vertex links, as a compact tetrahedron
        must."""
        entry = next(e for e in registry() if e.name == name)
        a, b, c, d, e, f = entry.edge_orders
        links = [(a, b, c), (a, e, f), (b, d, f), (c, d, e)]
        assert [classify(sig(*link)) for link in links] == [GeometryClass.SPHERICAL] * 4

    def test_consistency_with_volume_caps(self):
        """No registry entry contradicts its own volume cap: each cited
        immersed turnover's budget (with the entry's extension index, and
        the boundary bound when embedded turnovers are present) exceeds the
        cited volume."""
        H = constant_H()
        for entry in registry():
            for s in entry.known_immersed:
                cap = turnover_area(s) / entry.extension_index
                if entry.has_embedded:
                    cap *= H
                assert entry.volume < cap, entry.name

    def test_ideal_prism_consistency(self):
        # The (2,4,inf) roof is outside the finite signature model; its area
        # is pi/2 and the halved boundary bound still clears the volume.
        entry = next(e for e in registry() if e.name == "Q(2,4,inf)")
        assert entry.prism_orders == (2, 4, None)
        cap = constant_H() * (math.pi / 2.0) / entry.extension_index
        assert entry.volume < cap

    def test_json_round_trip(self):
        rows = registry_json()
        json.dumps(rows)
        q3 = next(r for r in rows if r["name"] == "Q3")
        assert q3["known_immersed"] == [[2, 4, 5]]
        assert q3["edge_orders"] == [2, 4, 2, 3, 5, 3]

    def test_engine_reexports_the_registry_module_objects(self):
        """``engine`` reads its three registry names from ``registry`` on
        first use; any other missing attribute is still an AttributeError."""
        from turnover import registry as registry_module

        for name in ("RegistryEntry", "registry", "registry_json"):
            assert getattr(engine, name) is getattr(registry_module, name)
        with pytest.raises(AttributeError, match="'turnover.engine' has no attribute 'nope'"):
            engine.nope
