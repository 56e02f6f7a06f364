from itertools import permutations

import pytest

from aggcheck.errors import BudgetExceededError

from aggcheck.modal import (
    KripkeFrame,
    MODAL_SIGNATURE,
    bao_from_frame,
    certify_implication_bottom,
    check_subjunctive_conditions,
    is_consistent,
    material_implication,
    reflexive_frames,
    subjunctive_implication,
    _class_successors,
    _frame_classes,
    _frame_from_mask,
    _sliced_program,
)
from aggcheck.syntax import App, Var, parse_formula


def mf(text):
    return parse_formula(text, MODAL_SIGNATURE)


class TestBaoFromFrame:
    def test_single_reflexive_world_box_is_identity(self):
        algebra = bao_from_frame(KripkeFrame(1, frozenset({(0, 0)})))
        assert algebra.tables["box"] == (0, 1)

    def test_two_worlds_one_arrow(self):
        # worlds 0 -> 1 plus loops; subsets indexed by bitmask
        frame = KripkeFrame(2, frozenset({(0, 0), (1, 1), (0, 1)}))
        algebra = bao_from_frame(frame)
        box = algebra.tables["box"]
        assert box[0b10] == 0b10  # box {1} = {1}
        assert box[0b01] == 0b00  # box {0} = {}
        assert box[0b11] == 0b11

    def test_complete_two_world_relation(self):
        frame = KripkeFrame(2, frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))
        box = bao_from_frame(frame).tables["box"]
        assert box[0b11] == 0b11
        assert box[0b01] == 0 and box[0b10] == 0 and box[0] == 0

    def test_non_reflexive_rejected(self):
        with pytest.raises(ValueError, match="reflexive"):
            bao_from_frame(KripkeFrame(2, frozenset({(0, 0), (0, 1)})))

    def test_identities_all_frames_up_to_three_worlds(self):
        for n in (1, 2, 3):
            for frame in reflexive_frames(n):
                algebra = bao_from_frame(frame)
                box = algebra.tables["box"]
                top = algebra.constant("top")
                assert box[top] == top
                for a in range(algebra.size):
                    assert algebra.leq(box[a], a)
                    for b in range(algebra.size):
                        assert box[algebra.op("and", [a, b])] == algebra.op(
                            "and", [box[a], box[b]]
                        )


class TestSubjunctiveFormula:
    def test_shape(self):
        p, q = Var("p"), Var("q")
        assert subjunctive_implication(p, q) == mf("(box (or (not p) q))")

    def test_reflexive_case(self):
        p = Var("p")
        assert subjunctive_implication(p, p) == mf("(box (or (not p) p))")

    def test_nested(self):
        p, q, r = Var("p"), Var("q"), Var("r")
        inner = subjunctive_implication(p, q)
        outer = subjunctive_implication(inner, r)
        assert outer == App(
            "box", (App("or", (App("not", (inner,)), r)),)
        )


class TestIsConsistent:
    def test_refuting_pattern_has_no_model(self):
        p, q = Var("p"), Var("q")
        formulas = [subjunctive_implication(p, q), p, App("not", (q,))]
        for bound in (1, 2, 3):
            ok, witness = is_consistent(formulas, bound)
            assert not ok and witness is None

    def test_affirming_pattern_one_world(self):
        p, q = Var("p"), Var("q")
        ok, witness = is_consistent([subjunctive_implication(p, q), p, q], 1)
        assert ok
        assert witness.frame.worlds == 1
        # p and q both true at the witness world
        assert witness.valuation["p"] >> witness.world & 1
        assert witness.valuation["q"] >> witness.world & 1

    def test_negated_implication_needs_second_world(self):
        p, q = Var("p"), Var("q")
        formulas = [App("not", (subjunctive_implication(p, q),)), p, q]
        ok, _ = is_consistent(formulas, 1)
        assert not ok
        ok, witness = is_consistent(formulas, 2)
        assert ok and witness.frame.worlds == 2

    def test_witness_is_valid(self):
        from aggcheck.algebra import evaluate

        p, q = Var("p"), Var("q")
        formulas = [App("not", (subjunctive_implication(p, q),)), p, q]
        ok, witness = is_consistent(formulas, 2)
        assert ok
        algebra = bao_from_frame(witness.frame)
        for formula in formulas:
            value = evaluate(formula, witness.valuation, algebra)
            assert value >> witness.world & 1

    def test_monotone_in_bound(self):
        p, q = Var("p"), Var("q")
        cases = [
            [subjunctive_implication(p, q), p, q],
            [App("not", (subjunctive_implication(p, q),)), Var("p"), q],
        ]
        for formulas in cases:
            ok1, _ = is_consistent(formulas, 1)
            ok2, _ = is_consistent(formulas, 2)
            ok3, _ = is_consistent(formulas, 3)
            if ok1:
                assert ok2 and ok3
            if ok2:
                assert ok3

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            is_consistent([Var("p")], 0)

    def test_frame_budget_refuses_six_worlds_before_searching(self, monkeypatch):
        from aggcheck import modal

        calls = []
        monkeypatch.setattr(modal, "_frame_classes", lambda n: calls.append(n))
        monkeypatch.setattr(modal, "_class_successors", lambda n: calls.append(n))
        with pytest.raises(BudgetExceededError, match="1073741824 reflexive frames"):
            is_consistent([Var("p")], 6)
        assert calls == []  # refused before any orbit pass


def brute_orbit_minima(worlds):
    """Each labelled mask's least image over all world permutations."""
    off = [(a, b) for a in range(worlds) for b in range(worlds) if a != b]
    bit = {pair: i for i, pair in enumerate(off)}
    masks = 1 << len(off)
    minima = list(range(masks))
    for pi in permutations(range(worlds)):
        moved = [1 << bit[pi[a], pi[b]] for a, b in off]
        image = [0] * masks
        for mask in range(1, masks):
            lowest = mask & -mask
            image[mask] = image[mask ^ lowest] | moved[lowest.bit_length() - 1]
        minima = list(map(min, minima, image))
    return minima


class TestFrameClasses:
    def test_class_counts(self):
        # unlabelled loop-free digraphs, OEIS A000273
        assert [len(_frame_classes(k)) for k in range(1, 6)] == [1, 3, 16, 218, 9608]

    @pytest.mark.parametrize("worlds", [1, 2, 3, 4])
    def test_representatives_are_the_orbit_minima(self, worlds):
        minima = brute_orbit_minima(worlds)
        expected = tuple(m for m, least in enumerate(minima) if least == m)
        assert _frame_classes(worlds) == expected

    def test_sliced_box_matches_frame_algebra(self):
        box = _sliced_program([mf("(box p)")], ["p"])
        for worlds in (1, 2, 3, 4):
            for mask, succ in _class_successors(worlds):
                table = bao_from_frame(_frame_from_mask(worlds, mask)).tables["box"]
                (at_world,) = box(worlds, succ)
                for p in range(1 << worlds):  # valuation number p gives p the subset p
                    assert table[p] == sum(
                        1 << w for w in range(worlds) if at_world[w] >> p & 1
                    )


class TestBottomCertification:
    def test_pointwise_bottom_up_to_three_worlds(self):
        assert certify_implication_bottom(3)


class TestConditions:
    def test_bound_two_passes_everything(self):
        report = check_subjunctive_conditions(2)
        assert report.a_holds
        assert report.b_holds
        assert report.material_b_fails
        assert report.bottom_certified
        assert not report.insufficient_bound

    def test_material_loses_exactly_three(self):
        report = check_subjunctive_conditions(2)
        # not(not p or q) is p and not q: consistent only with that pattern
        assert report.material_b == {
            "consistent with p,q": False,
            "consistent with p,not q": True,
            "consistent with not p,q": False,
            "consistent with not p,not q": False,
        }

    def test_material_two_valued_oracle(self):
        # two-valued truth-table oracle for the material baseline
        def mat_consistent(p, q, signs):
            return any(
                (not (not pv or qv))
                and (pv if signs[0] else not pv)
                and (qv if signs[1] else not qv)
                for pv in (0, 1)
                for qv in (0, 1)
            )

        assert mat_consistent(0, 0, (True, False))
        assert not mat_consistent(0, 0, (True, True))
        assert not mat_consistent(0, 0, (False, True))
        assert not mat_consistent(0, 0, (False, False))

    def test_bound_one_flags_insufficient(self):
        report = check_subjunctive_conditions(1)
        assert not report.b_holds
        assert report.insufficient_bound
        # the sole (b)-pattern that survives with box collapsed to identity
        assert report.condition_b["consistent with p,not q"]

    def test_material_reading_formula(self):
        assert material_implication(Var("p"), Var("q")) == mf("(or (not p) q)")
