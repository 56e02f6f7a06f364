"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import sys
import textwrap
import time
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def _power_ops(ops, size, n):
    """Coordinatewise operations on the n-th power, in the documented
    row-major carrier order. ``ops`` maps symbol -> (arity, function)."""
    elements = oracle.coordinates(size, n)
    index = {e: i for i, e in enumerate(elements)}
    return elements, {
        sym: (arity, lambda *xs, f=f: index[tuple(
            f(*(elements[x][i] for x in xs)) for i in range(n))])
        for sym, (arity, f) in ops.items()
    }


def _brute_force_homs(ops, size, n):
    elements, power = _power_ops(ops, size, n)
    found = []
    for table in product(range(size), repeat=len(elements)):
        if all(
            table[fn(*args)] == ops[sym][1](*(table[a] for a in args))
            for sym, (arity, fn) in power.items()
            for args in product(range(len(elements)), repeat=arity)
        ):
            found.append(list(table))
    return sorted(found)


BOOLEAN = {
    "not": (1, lambda a: 1 - a),
    "or": (2, lambda a, b: a | b),
    "and": (2, lambda a, b: a & b),
    "bot": (0, lambda: 0),
    "top": (0, lambda: 1),
}
DIAMOND = {
    "and": (2, lambda a, b: a & b),
    "or": (2, lambda a, b: a | b),
    "bot": (0, lambda: 0),
    "top": (0, lambda: 3),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boolean_homs_are_the_projections(n):
    assert _brute_force_homs(BOOLEAN, 2, n) == oracle.projection_tables(2, n)


def test_diamond_homs_match_4n_squared():
    assert _brute_force_homs(DIAMOND, 4, 1) == oracle.diamond_tables(1)
    for n in (1, 2, 3):
        tables = oracle.diamond_tables(n)
        assert len(tables) == len({tuple(t) for t in tables}) == 4 * n * n


def test_projection_tables_use_row_major_order():
    assert oracle.projection_tables(2, 2) == [[0, 0, 1, 1], [0, 1, 0, 1]]
    assert oracle.projection_tables(3, 1) == [[0, 1, 2]]


def test_verify_compares_verdict_fields_only():
    expect = oracle.expect_bijection(2, 2)
    report = {"pass": True, "homs": 2, "aggregators": 2, "counts_equal": True,
              "same_tables": True, "roundtrips": "pass",
              "hom_tables": [[0, 1, 0, 1], [0, 0, 1, 1]], "stats": {"nodes": 7}}
    assert oracle.verify(expect, 0, report) == []
    assert oracle.verify(expect, 1, report) == ["exit code 1, expected 0"]
    assert oracle.verify(expect, 0, None) == ["no report written"]
    wrong = dict(report, homs=3)
    assert oracle.verify(expect, 0, wrong) == ["homs: got 3, expected 2"]


def test_dictator_expectations():
    assert oracle.expect_dictators(1)["fields"]["homomorphism"] is True
    assert oracle.expect_dictators(None)["fields"]["ultrafilter"] is False


def test_counterexample_recheck_on_lukasiewicz3():
    # x and x odot x are designated together, their negations are not
    good = {"connective": "not", "left": ["x1"], "right": ["(odot x1 x1)"],
            "left_result": "(not x1)", "right_result": "(not (odot x1 x1))"}
    assert oracle.check_counterexample(good, 3) == []
    bogus = {"connective": "not", "left": ["x1"], "right": ["(not x1)"],
             "left_result": "(not x1)", "right_result": "(not (not x1))"}
    assert oracle.check_counterexample(bogus, 3) != []
    assert oracle.check_counterexample(None, 3) == ["no counterexample reported"]


def test_generator_is_seeded(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = workloads.generate(5, str(a))
    again = workloads.generate(5, str(b))
    other = workloads.generate(6, str(c))
    read = lambda p: open(p).read()  # noqa: E731
    assert read(first["boolean_agenda"]) == read(again["boolean_agenda"])
    assert (first["variables"], first["dictator"]) == (again["variables"], again["dictator"])
    assert read(first["boolean_agenda"]) != read(other["boolean_agenda"])
    formulas = json.loads(read(first["boolean_agenda"]))["formulas"]
    assert len(formulas) == 4 and "x1" not in " ".join(formulas)


# ---------------------------------------------------------------------------
# Statistics and tracing arithmetic
# ---------------------------------------------------------------------------


def test_typical_times_take_each_checks_median_repeat():
    records = [{"id": "a", "verdict_s": 2.0}, {"id": "b", "verdict_s": 1.0},
               {"id": "a", "verdict_s": 1.5}, {"id": "a", "verdict_s": 9.0},
               {"id": "b"}, {"id": "c"}]
    typical = run.typical_times(records)
    assert typical == {"a": 2.0, "b": 1.0}
    assert run.rate(typical) == pytest.approx(2 / 3.0)
    assert run.rate({}) == 0.0


def test_normalize_drops_probe_time_and_divides_by_slowdown():
    nominal = speed.NOMINAL_S
    samples = [(0.5, 2 * nominal), (1.5, 2 * nominal), (9.0, 2 * nominal)]
    assert speed.slowdown(samples) == pytest.approx(2.0)
    # Two probes fall in [0, 2); the one at 9.0 does not.
    assert speed.normalize(0.0, 2.0, samples) == pytest.approx((2.0 - 4 * nominal) / 2)


def test_probes_sample_while_the_process_works():
    probes = speed.Probes()
    probes.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probes.stop()
    assert len(probes.samples) >= 3
    assert all(d > 0 for _, d in probes.samples)


def test_self_time_on_synthetic_span_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["a.f", 1.0, 4.0, 0],
        ["a.g", 2.0, 3.0, 1],
        ["b.h", 5.0, 9.0, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    # children are clipped to their parent and overlaps merged
    odd = [["p.x", 0.0, 10.0, -1], ["p.y", 8.0, 12.0, 0], ["p.z", 8.5, 9.0, 0]]
    assert spans.self_times(odd)[0] == pytest.approx(8.0)
    summary = spans.summarize([{"spans": tree, "counts": {"a.leaf": 5},
                                "sizes": {"a.f.items": 3}, "totals": {"a.leaf": 0.5}}])
    assert summary["a.calls"] == 2 + 5
    assert summary["a.self_s"] == pytest.approx(3.0)
    assert summary["cli.self_s"] == pytest.approx(3.0)
    assert summary["a.leaf.total_s"] == 0.5 and summary["a.f.items"] == 3


def test_installer_patches_every_binding_site_and_restores():
    import aggcheck
    import aggcheck.cli  # noqa: F401  (loads every layer module)
    from aggcheck import aggregation, algebra, semantics, syntax

    originals = spans.public_functions()
    op = algebra.FiniteAlgebra.op
    tracer = spans.Tracer()
    try:
        tracer.install()
        sites = [syntax, aggregation, semantics, aggcheck]
        wrapped = {m.bounded_closure for m in sites}
        assert len(wrapped) == 1
        assert wrapped != {originals["syntax.bounded_closure"]}
        assert algebra.FiniteAlgebra.op is not op
        for name, fn in originals.items():
            layer, attr = name.split(".", 1)
            module = sys.modules[f"aggcheck.{layer}"]
            assert getattr(module, attr) is not fn, name
        rc = aggcheck.cli.main(["enumerate-homs", "--logic", "boolean2", "--electorate", "2"])
        assert rc == 0
    finally:
        tracer.restore()
    for name, fn in originals.items():
        layer, attr = name.split(".", 1)
        assert getattr(sys.modules[f"aggcheck.{layer}"], attr) is fn, name
    assert aggcheck.bounded_closure is originals["syntax.bounded_closure"]
    assert algebra.FiniteAlgebra.op is op
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and "algebra.enumerate_homomorphisms" in names
    assert tracer.counts["algebra.op"] > 0
    assert tracer.sizes["algebra.enumerate_homomorphisms.found"] == 2


# ---------------------------------------------------------------------------
# Check processes
# ---------------------------------------------------------------------------

FAKE_CLI = textwrap.dedent("""
    import json, time

    def main(argv):
        kind, out = argv[0], argv[argv.index("--out") + 1]
        if kind == "crash":
            raise RuntimeError("boom")
        if kind == "hang":
            time.sleep(30)
        if kind == "refuse":
            return 3
        with open(out, "w") as fh:
            json.dump({"pass": kind == "ok"}, fh)
        return 0
""")


def test_killed_and_crashing_checks_count_as_failed(tmp_path):
    package = tmp_path / "src" / "aggcheck"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    expect = {"rc": 0, "fields": {"pass": True}}
    fake = workloads.Workload(
        checks=tuple(workloads.Check(k, (k,), expect) for k in ("ok", "wrong", "crash", "hang")),
        probe=workloads.Probe(1, lambda n: workloads.Check(f"refuse{n}", ("refuse",), expect)),
        round_s=1000.0,
    )
    runner = run.Runner(str(tmp_path), str(scratch), time.perf_counter() + 60, check_limit=1.0)
    metrics, attempted = run.timed_run(runner, fake, 1, lambda line: None)
    problems = {r["id"]: r["problems"] for r in attempted}
    assert problems["ok"] == [] and problems["refuse1"] == []
    assert problems["wrong"] == ["pass: got False, expected True"]
    assert any("traceback" in p for p in problems["crash"])
    assert any("killed" in p for p in problems["hang"])
    rounds = run.rounds_for(fake, 1)
    assert len(attempted) == 4 * rounds + 1
    assert metrics["ok_share"] == pytest.approx((rounds + 1) / (4 * rounds + 1))
    assert metrics["frontier_n"] == 0


def test_traced_counts_repeat_exactly(tmp_path):
    inputs = workloads.generate(3, str(tmp_path))
    check = workloads.workloads(inputs)["characterization"].checks[0]
    runner = run.Runner(ROOT, str(tmp_path), time.perf_counter() + 120)
    first, second = (runner.check(check, trace=True) for _ in range(2))
    assert first["problems"] == second["problems"] == []
    for key in ("counts", "sizes"):
        assert first["trace"][key] == second["trace"][key]
    assert [s[0] for s in first["trace"]["spans"]] == [s[0] for s in second["trace"]["spans"]]


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == ["characterization", "metatheory", "homs"]
