import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.algebra import (FiniteAlgebra, _program_steps, element_coordinates, evaluate,
                              truth_vectors)
from aggcheck.errors import BudgetExceededError

from aggcheck.modal import (
    CERTIFIED_WORLDS,
    KripkeFrame,
    MODAL_SIGNATURE,
    bao_from_frame,
    certify_implication_bottom,
    check_subjunctive_conditions,
    material_implication,
    small_model_bound,
    subjunctive_implication,
    _frame_classes,
    _frame_from_mask,
    _sliced_program,
    _variable_worlds,
)
from aggcheck.oracles import is_consistent, reflexive_frames
from aggcheck.syntax import App, Var, parse_formula, print_formula, variables_of


def mf(text):
    return parse_formula(text, MODAL_SIGNATURE)


# box(not p or q), p and not q: bottom in every reflexive frame's algebra
MEET = mf("(and (and (box (or (not p) q)) p) (not q))")


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
                    assert (box[a], a) in algebra.order
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
        with pytest.raises(BudgetExceededError, match="1073741824 reflexive frames"):
            is_consistent([Var("p")], 6)
        assert calls == []  # refused before any orbit pass

    def test_frame_count_past_the_digit_limit_is_refused_unprinted(self):
        # 2^39800 has more decimal digits than Python converts by default
        with pytest.raises(BudgetExceededError) as refused:
            is_consistent([Var("p")], 200)
        assert str(refused.value) == (
            "consistency search: 2^39800 reflexive frames on 200 worlds exceed the limit of 1048576"
        )

    def test_valuation_words_are_charged_before_the_values_are_built(self, monkeypatch):
        from aggcheck import modal

        built = []
        original = modal._variable_worlds
        monkeypatch.setattr(modal, "_variable_worlds",
                            lambda worlds, count: built.append(worlds) or original(worlds, count))
        names = [Var(f"v{i}") for i in range(4)]
        formulas = [App("box", (v,)) for v in names] + [App("not", (names[0],))]
        with pytest.raises(BudgetExceededError) as refused:
            is_consistent(formulas, 5)
        assert str(refused.value) == (
            "consistency search: 9608 frame classes x 5 worlds x 16384 words = 787087360 "
            "exceed the limit of 100000000"
        )
        assert 5 not in built

    def test_a_witness_below_the_charged_world_count_is_unchanged(self):
        names = [Var(f"v{i}") for i in range(4)]
        ok, witness = is_consistent(names, 5)  # four variables: five worlds would be refused
        assert ok and witness.frame.worlds == 1
        assert witness.valuation == {f"v{i}": 1 for i in range(4)} and witness.world == 0

    def test_three_variables_still_run_at_five_worlds(self):
        names = [Var(f"v{i}") for i in range(3)]
        formulas = [App("box", (v,)) for v in names] + [App("not", (names[0],))]
        assert is_consistent(formulas, 5) == (False, None)

    @pytest.mark.parametrize("worlds", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_variable_bitsets_match_the_valuation_vectors(self, worlds, count):
        # reference: bit i set where variable v's value under valuation i contains the world
        size = 1 << worlds
        valuations = [element_coordinates(size, count, i) for i in range(size**count)]
        expected = tuple(
            tuple(sum(1 << i for i, values in enumerate(valuations) if values[v] >> w & 1)
                  for w in range(worlds))
            for v in range(count)
        )
        assert _variable_worlds(worlds, count) == expected


def random_modal_formula(rng, depth):
    """A formula over p and q with at most ``depth`` nested connectives."""
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice("pq"))
    symbol = rng.choice(["not", "box", "box", "or", "and"])
    arity = 2 if symbol in ("or", "and") else 1
    return App(symbol, tuple(random_modal_formula(rng, depth - 1) for _ in range(arity)))


def reference_small_model_bound(formulas):
    """small_model_bound with a structure table of its own, which makes equal
    subformulas share one class however the program numbers them."""
    formulas = tuple(formulas)
    names = variables_of(*formulas)
    steps, _ = _program_steps(formulas, names)
    classes = {}  # (connective, argument classes) -> class: equal subformulas share one
    slot_class = list(range(len(names)))  # a program slot's class; a variable is its own
    slot_depth = [0] * len(names)  # a program slot's modal depth
    boxes = 0
    for symbol, args in steps:
        structure = (symbol, *[slot_class[a] for a in args])
        boxed = symbol == "box"
        if structure not in classes:
            classes[structure] = len(names) + len(classes)
            boxes += boxed
        slot_class.append(classes[structure])
        slot_depth.append(max([slot_depth[a] for a in args], default=0) + boxed)
    depth = max(slot_depth, default=0)
    return sum(boxes ** i for i in range(depth + 1))


modal_formulas = st.recursive(
    st.sampled_from([Var("p"), Var("q"), App("top"), App("bot")]),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["not", "box"]), children).map(
            lambda drawn: App(drawn[0], drawn[1:])),
        st.tuples(st.sampled_from(["or", "and"]), children, children).map(
            lambda drawn: App(drawn[0], drawn[1:]))),
    max_leaves=10)


class TestSmallModelBound:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(modal_formulas, max_size=4))
    def test_matches_the_structure_table_on_reparsed_sets(self, formulas):
        # parsed from text, equal subformulas are separate objects
        reparsed = [mf(print_formula(f)) for f in formulas]
        assert small_model_bound(reparsed) == reference_small_model_bound(reparsed)

    @pytest.mark.parametrize("texts, bound", [
        ([], 1),
        (["p", "(not (or p q))"], 1),  # no box: one world decides it
        (["(box p)"], 2),
        (["(box (box p))"], 1 + 2 + 4),  # b = 2 (box p counts too), d = 2
        (["(box p)", "(not (box q))"], 3),  # two distinct boxes at depth 1
        (["(box p)", "(not (box p))", "(or q (box p))"], 2),  # one box, counted once
    ])
    def test_hand_cases(self, texts, bound):
        assert small_model_bound([mf(t) for t in texts]) == bound

    def test_nested_boxes_count_although_one_box_is_outermost(self):
        # one outermost box at depth 2, yet the least model has 4 worlds: the
        # witness for the outer box needs a successor for each of not p and
        # not q, and box (or p q) keeps the root out of its successors. A bound
        # that counted outermost boxes only (1 + 1 + 1 = 3) would be unsound.
        body = "(or (not p) (or (not q) (or (box p) (or (box q) (not (box (or p q)))))))"
        formulas = [mf("(not p)"), mf("(not q)"), mf(f"(not (box {body}))")]
        assert is_consistent(formulas, 3) == (False, None)
        ok, witness = is_consistent(formulas, 4)
        assert ok and witness.frame.worlds == 4
        assert small_model_bound(formulas) == 1 + 4 + 16

    def test_a_chain_deeper_than_the_recursion_limit(self):
        chain = Var("p")
        for _ in range(1500):
            chain = App("box", (chain,))
        assert small_model_bound([chain]) == sum(1500 ** i for i in range(1501))

    def test_subjunctive_condition_sets_need_two_worlds_at_most(self):
        p, q = Var("p"), Var("q")
        subj = subjunctive_implication(p, q)
        assert small_model_bound([subj, p, App("not", (q,))]) == 2
        assert small_model_bound([App("not", (subj,)), p, q]) == 2
        assert small_model_bound([App("not", (material_implication(p, q),)), p, q]) == 1

    def test_the_bound_keeps_verdict_and_witness_on_random_sets(self):
        rng = random.Random(21)
        cut = 0
        for _ in range(300):
            formulas = [random_modal_formula(rng, 3) for _ in range(rng.randint(1, 3))]
            bound = rng.randint(1, 4)
            small = min(bound, small_model_bound(formulas))
            cut += small < bound
            assert is_consistent(formulas, bound) == is_consistent(formulas, small), formulas
        assert cut == 110  # the cases where the bound is below the search's


def mask_pairs(worlds):
    """The pairs of distinct worlds, bit i of a mask standing for the i-th."""
    return [(a, b) for a in range(worlds) for b in range(worlds) if a != b]


def brute_orbit_minima(worlds):
    """Each labelled mask's least image over all world permutations."""
    off = mask_pairs(worlds)
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
        assert tuple(mask for mask, _ in _frame_classes(worlds)) == expected

    def test_sampled_representatives_are_orbit_minima_at_five_worlds(self):
        # every 16th of the 9,608 classes; checking all of them takes about 3 s
        off = mask_pairs(5)
        bit = {pair: i for i, pair in enumerate(off)}
        perms = list(permutations(range(5)))
        for mask, _ in _frame_classes(5)[::16]:
            relation = [pair for i, pair in enumerate(off) if mask >> i & 1]
            for pi in perms:
                assert sum(1 << bit[pi[a], pi[b]] for a, b in relation) >= mask

    @pytest.mark.parametrize("worlds", [1, 2, 3, 4, 5])
    def test_class_successors_read_the_mask_pairs(self, worlds):
        off = mask_pairs(worlds)
        expected = []
        for mask, _ in _frame_classes(worlds):
            relation = {pair for i, pair in enumerate(off) if mask >> i & 1}
            expected.append((mask, tuple((w, *sorted(b for a, b in relation if a == w))
                                         for w in range(worlds))))
        assert _frame_classes(worlds) == tuple(expected)

    def test_sliced_box_matches_frame_algebra(self):
        box = _sliced_program(*_program_steps([mf("(box p)")], ["p"]), 1)
        for worlds in (1, 2, 3, 4):
            for mask, succ in _frame_classes(worlds):
                table = bao_from_frame(_frame_from_mask(worlds, mask)).tables["box"]
                (at_world,) = box(worlds, succ)
                for p in range(1 << worlds):  # valuation number p gives p the subset p
                    assert table[p] == sum(
                        1 << w for w in range(worlds) if at_world[w] >> p & 1
                    )


class TestBottomCertification:
    def test_pointwise_bottom_up_to_three_worlds(self):
        assert certify_implication_bottom()

    @pytest.mark.parametrize("worlds", [1, 2, 3])
    def test_every_labelled_frame_algebra_by_brute_force(self, worlds):
        # the reference the class representatives stand for: all 1 + 4 + 64 labelled frames
        for frame in reflexive_frames(worlds):
            algebra = bao_from_frame(frame)
            bottom = algebra.constant("bot")
            for a in range(algebra.size):
                for b in range(algebra.size):
                    assert evaluate(MEET, {"p": a, "q": b}, algebra) == bottom

    def test_no_frame_algebra_built_and_every_class_searched(self, monkeypatch):
        from aggcheck import modal

        built, searched = [], []
        monkeypatch.setattr(FiniteAlgebra, "__post_init__",
                            lambda algebra: built.append(algebra.name))
        original = modal._sliced_program

        def counting(*args):
            run = original(*args)
            return lambda worlds, succ: searched.append(worlds) or run(worlds, succ)

        monkeypatch.setattr(modal, "_sliced_program", counting)
        assert certify_implication_bottom()
        assert [searched.count(n) for n in (1, 2, 3)] == [1, 3, 16]  # not 1 + 4 + 64 frames
        for bound in (1, 2, 3):
            check_subjunctive_conditions(bound)
        assert built == []

    @pytest.mark.parametrize("faulty", [0, 7, 15])
    def test_one_class_that_loses_a_loop_is_caught(self, monkeypatch, faulty):
        # world 0 sees only world 1: the meet holds there with p, not q at
        # world 0 and not p at world 1
        from aggcheck import modal

        original = modal._frame_classes

        def planted(worlds):
            classes = original(worlds)
            if worlds != 3:
                return classes
            mask, succ = classes[faulty]
            return (*classes[:faulty], (mask, ((1,), *succ[1:])), *classes[faulty + 1:])

        monkeypatch.setattr(modal, "_frame_classes", planted)
        assert not certify_implication_bottom()
        ok, witness = modal._search(modal._compile_set([MEET]), CERTIFIED_WORLDS)
        # the classes before it all passed
        assert ok and witness.frame == _frame_from_mask(3, original(3)[faulty][0])
        assert witness.world == 0


class TestCertificateEngines:
    """The certificate's bit-sliced search against the table evaluation in
    each frame algebra up to CERTIFIED_WORLDS worlds."""

    @pytest.mark.parametrize("formula, bottom", [(mf("(and (box p) (not q))"), False),
                                                 (MEET, True)], ids=["box-p-not-q", "meet"])
    def test_sliced_program_matches_the_tables(self, formula, bottom):
        program = _sliced_program(*_program_steps([formula], ["p", "q"]), 2)
        values = set()
        for worlds in range(1, CERTIFIED_WORLDS + 1):
            for mask, succ in _frame_classes(worlds):
                algebra = bao_from_frame(_frame_from_mask(worlds, mask))
                (tables,) = truth_vectors([formula], ["p", "q"], algebra)
                (sliced,) = program(worlds, succ)
                # valuation i sets (p, q) to element_coordinates(size, 2, i); its
                # table value is the set of worlds whose bit i is set
                assert tuple(tables) == tuple(
                    sum(1 << w for w in range(worlds) if sliced[w] >> i & 1)
                    for i in range(len(tables)))
                values.update(tables)
        assert (values == {0}) == bottom


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

    def test_bound_below_one_is_refused(self):
        with pytest.raises(ValueError, match="max_worlds must be >= 1"):
            check_subjunctive_conditions(0)

    def test_bound_one_flags_insufficient(self):
        report = check_subjunctive_conditions(1)
        assert not report.b_holds
        assert report.insufficient_bound
        # the sole (b)-pattern that survives with box collapsed to identity
        assert report.condition_b["consistent with p,not q"]

    def test_material_reading_formula(self):
        assert material_implication(Var("p"), Var("q")) == mf("(or (not p) q)")
