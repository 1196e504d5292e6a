"""Tests for collar bounds, the subgroup table, and the boundary-order filters.

The table's index-equals-area-ratio identity is exercised as the loader
self-test; candidate order sets are pinned against the worked cases.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from turnover.collars import (
    EllipticPair,
    boundary_order_report,
    c_bound,
    cone_order_universe,
    delta,
    delta_nn,
    max_injectivity_radius,
    oblique_order_admissible,
    refined_boundary_orders,
    supergroup_table,
    supergroup_table_json,
    supergroups,
)
from turnover.errors import DomainError
from turnover.trig import (
    GeometryClass,
    TurnoverSignature,
    classify,
    hyperbolic_signatures,
    turnover_area,
)

# mpmath, 40 digits
C_5 = 0.2779464851257106
C_7 = 0.2484852126975904
DELTA_5_5 = 0.7361750877628936
DELTA_4_5 = 0.6268696629061778
DELTA_NN_7 = 1.0905496635070862
R_MAX = 0.9866469610448341


def signatures_with_defect(defect: Fraction) -> list[tuple[int, int, int]]:
    """Every (p, q, r), p <= q <= r, with 1/p + 1/q + 1/r = 1 - defect,
    found by an exact search: p <= 3/(1 - defect), q <= 2/(rest after p),
    and r is then fixed."""
    total = 1 - defect
    found = []
    for p in range(2, math.floor(3 / total) + 1):
        rest = total - Fraction(1, p)
        if rest <= 0:
            continue
        for q in range(max(p, math.floor(1 / rest) + 1), math.floor(2 / rest) + 1):
            last = rest - Fraction(1, q)
            if last.numerator == 1 and last.denominator >= q:
                found.append((p, q, last.denominator))
    return found


class TestEllipticPair:
    def test_normalizes(self):
        pair = EllipticPair(4, 5)
        assert (pair.n, pair.m) == (5, 4)

    def test_allows_3_2(self):
        pair = EllipticPair(2, 3)
        assert (pair.n, pair.m) == (3, 2)

    @pytest.mark.parametrize("args", [(2, 2), (1, 5), (2, 1)])
    def test_rejects(self, args):
        with pytest.raises(DomainError):
            EllipticPair(*args)


class TestCBound:
    def test_6_2(self):
        assert c_bound(EllipticPair(6, 2)) == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-15)

    def test_6_with_m_at_least_3(self):
        assert c_bound(EllipticPair(6, 4)) == pytest.approx(
            math.cos(math.pi / 4.0) / 2.0, abs=1e-15
        )

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_5_branch_ignores_m(self, m):
        assert c_bound(EllipticPair(5, m)) == pytest.approx(C_5, abs=1e-12)

    def test_7_branch(self):
        assert c_bound(EllipticPair(7, 2)) == pytest.approx(C_7, abs=1e-12)

    def test_low_branches(self):
        assert c_bound(EllipticPair(4, 2)) == pytest.approx(
            math.sqrt((math.sqrt(3.0) - 1.0) / 8.0), abs=1e-15
        )
        assert c_bound(EllipticPair(3, 2)) == pytest.approx(
            math.sqrt((math.sqrt(5.0) - 2.0) / 8.0), abs=1e-15
        )


class TestDelta:
    def test_5_5(self):
        assert delta(EllipticPair(5, 5)) == pytest.approx(DELTA_5_5, abs=1e-10)

    def test_4_5(self):
        assert delta(EllipticPair(4, 5)) == pytest.approx(DELTA_4_5, abs=1e-10)

    def test_consistency_with_equal_order_form(self):
        assert delta(EllipticPair(7, 7)) == pytest.approx(delta_nn(7), abs=1e-10)

    @pytest.mark.parametrize("n", range(7, 101))
    def test_matches_delta_nn_for_all_equal_orders(self, n):
        assert delta(EllipticPair(n, n)) == pytest.approx(delta_nn(n), abs=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_increasing_in_n(self, m):
        values = [delta(EllipticPair(n, m)) for n in range(max(7, m), 101)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDeltaNN:
    def test_value_at_7(self):
        assert delta_nn(7) == pytest.approx(DELTA_NN_7, abs=1e-10)

    def test_strictly_increasing(self):
        assert delta_nn(9) > delta_nn(8) > delta_nn(7)

    def test_divergence(self):
        assert delta_nn(10**6) > 20.0

    @pytest.mark.parametrize("n", [6, 2, 0])
    def test_domain(self, n):
        with pytest.raises(DomainError):
            delta_nn(n)


class TestInjectivityRadius:
    def test_value(self):
        assert max_injectivity_radius() == pytest.approx(R_MAX, abs=1e-12)

    def test_exp_round_trip(self):
        assert math.exp(max_injectivity_radius()) * math.sqrt(3.0) == pytest.approx(
            2.0 + math.sqrt(7.0), abs=1e-12
        )

    def test_separates_9_from_10(self):
        assert delta_nn(9) < 2.0 * max_injectivity_radius() < delta_nn(10)


class TestObliqueAdmissibility:
    @pytest.mark.parametrize("n,expected", [(7, True), (8, True), (9, True), (10, False), (10**6, False)])
    def test_cutoff(self, n, expected):
        assert oblique_order_admissible(n) is expected

    def test_domain(self):
        with pytest.raises(DomainError):
            oblique_order_admissible(6)


class TestSupergroupTable:
    def test_fourteen_rows(self):
        assert len(supergroup_table()) == 14

    def test_json_shape(self):
        rows = supergroup_table_json()
        assert len(rows) == 14
        assert rows[0] == {"super": "(3,3,t)", "sub": "(t,t,t)", "index": 3, "normal": True}
        assert {"super": "(2,3,8)", "sub": "(4,8,8)", "index": 12, "normal": False} in rows
        assert {"super": "(2,s,2t)", "sub": "(s,s,t)", "index": 2, "normal": True} in rows

    @pytest.mark.parametrize("t", range(4, 13))
    def test_area_ratio_self_test(self, t):
        """Index equals area ratio for every row instantiated at t (and s=t)."""
        for entry in supergroup_table():
            env = {"s": t, "t": t}
            sub = tuple(mult * env.get(sym, 1) for mult, sym in entry.sub_pattern)
            sup = tuple(mult * env.get(sym, 1) for mult, sym in entry.super_pattern)
            sub_sig = TurnoverSignature(*sub)
            sup_sig = TurnoverSignature(*sup)
            if (
                classify(sub_sig) is not GeometryClass.HYPERBOLIC
                or classify(sup_sig) is not GeometryClass.HYPERBOLIC
            ):
                continue
            assert turnover_area(sub_sig) == pytest.approx(
                entry.index * turnover_area(sup_sig), abs=1e-10
            ), f"row {entry.super_str} >= {entry.sub_str} at t={t}"


class TestSupergroups:
    def test_777(self):
        rows = {(s.orders, i, n) for s, i, n in supergroups(TurnoverSignature(7, 7, 7))}
        assert ((3, 3, 7), 3, True) in rows
        assert ((2, 3, 14), 6, True) in rows
        assert ((2, 3, 7), 24, False) in rows

    def test_245_is_maximal(self):
        assert supergroups(TurnoverSignature(2, 4, 5)) == []

    def test_488(self):
        rows = {(s.orders, i, n) for s, i, n in supergroups(TurnoverSignature(4, 8, 8))}
        assert ((2, 3, 8), 12, False) in rows

    def test_237_is_maximal(self):
        assert supergroups(TurnoverSignature(2, 3, 7)) == []

    @pytest.mark.parametrize(
        "orders", [(2, 4, 5), (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10), (2, 3, 11)]
    )
    def test_settled_signatures_are_maximal_by_area_alone(self, orders):
        """A proper supergroup of index i has defect d/i, and no hyperbolic
        signature has defect d/i for i >= 2; so the six signatures with a
        settled verdict are maximal without the containment table."""
        sig = TurnoverSignature(*orders)
        defect = -sig.chi_fraction()
        # No hyperbolic defect is below 1/42, the (2,3,7) one.
        for index in range(2, math.floor(42 * defect) + 1):
            assert signatures_with_defect(defect / index) == []
        assert supergroups(sig) == []

    def test_defect_search_finds_known_signatures(self):
        assert signatures_with_defect(Fraction(1, 42)) == [(2, 3, 7)]
        assert signatures_with_defect(Fraction(1, 20)) == [(2, 4, 5)]
        assert signatures_with_defect(Fraction(1, 12)) == [(2, 3, 12), (2, 4, 6), (3, 3, 4)]

    def test_area_ratio_on_instantiations(self):
        for base in [(7, 7, 7), (4, 8, 8), (4, 4, 5), (3, 3, 7), (5, 5, 5), (9, 9, 9)]:
            sig = TurnoverSignature(*base)
            for sup, index, _ in supergroups(sig):
                assert turnover_area(sig) == pytest.approx(
                    index * turnover_area(sup), abs=1e-10
                )

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(DomainError):
            supergroups(TurnoverSignature(2, 4, 4))

    def test_every_instantiation_keeps_chi_exactly(self):
        """chi(sub) = index chi(super) in exact arithmetic for every row
        returned at orders <= 40, so every supergroup is hyperbolic."""
        found = 0
        for sig in hyperbolic_signatures(range(2, 41)):
            for sup, index, _ in supergroups(sig):
                assert sig.chi_fraction() == index * sup.chi_fraction(), (sig, sup)
                assert classify(sup) is GeometryClass.HYPERBOLIC
                found += 1
        assert found == 1615


class TestConeOrderSets:
    def test_universe_245(self):
        assert list(cone_order_universe(TurnoverSignature(2, 4, 5))) == list(range(2, 11))

    def test_universe_777(self):
        assert list(cone_order_universe(TurnoverSignature(7, 7, 7))) == [
            2, 3, 4, 5, 6, 7, 8, 9, 14,
        ]

    def test_universe_237(self):
        assert list(cone_order_universe(TurnoverSignature(2, 3, 7))) == [
            2, 3, 4, 5, 6, 7, 8, 9, 14,
        ]

    def test_refined_245(self):
        assert list(refined_boundary_orders(TurnoverSignature(2, 4, 5))) == [2, 3, 4, 5]

    def test_refined_is_subset_of_universe(self):
        for orders in [(2, 4, 5), (2, 3, 7), (2, 4, 6), (7, 7, 7), (3, 3, 4)]:
            sig = TurnoverSignature(*orders)
            universe = set(cone_order_universe(sig))
            assert set(refined_boundary_orders(sig)) <= universe

    def test_refined_contains_vertex_orders(self):
        for orders in [(2, 3, 7), (2, 4, 6), (7, 7, 7), (2, 4, 1000)]:
            sig = TurnoverSignature(*orders)
            assert set(sig.orders) <= set(refined_boundary_orders(sig))

    def test_report_exposes_filters(self):
        rows = boundary_order_report(TurnoverSignature(2, 4, 5))
        by_order = {row["order"]: row for row in rows}
        assert by_order[7]["removed"] is True
        assert by_order[7]["delta_exceeds_diameter"][5] is True
        assert by_order[7]["delta_exceeds_diameter"][2] is False
        assert by_order[5]["vertex_order"] is True
        assert by_order[5]["removed"] is False

    @given(
        orders=st.tuples(
            st.integers(min_value=2, max_value=20),
            st.integers(min_value=2, max_value=20),
            st.integers(min_value=2, max_value=20),
        )
    )
    def test_refined_never_grows(self, orders):
        sig = TurnoverSignature(*orders)
        if classify(sig) is not GeometryClass.HYPERBOLIC:
            return
        universe = set(cone_order_universe(sig))
        refined = set(refined_boundary_orders(sig))
        assert refined <= universe
        assert set(sig.orders) <= refined
