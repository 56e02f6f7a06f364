"""The exit-code contract under malformed input files, fuzzed.

Each example takes a valid matrix, agenda or criterion file and breaks it:
a key or list entry dropped, a value replaced by one of another type, by
``null``, by a huge integer or by itself nested one level deeper, or the
JSON text cut short. Every command that reads the file runs in process on
it. Whatever the input, the exit code is 0, 1, 2 (input error) or 3 (budget
exceeded), a refusal is one stderr line, and nothing prints a traceback or
reports an internal error. Agenda formulas nested around the parser's depth
limit keep the same contract.
"""

import contextlib
import io
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.cli import main

MATRIX = {
    "algebra": {
        "name": "b2",
        "signature": {"connectives": [{"name": "not", "arity": 1}, {"name": "or", "arity": 2},
                                      {"name": "top", "arity": 0}]},
        "carrier": ["0", "1"],
        "ops": {"not": [1, 0], "or": [[0, 1], [1, 1]], "top": [1]},
        "order": [[0, 0], [0, 1], [1, 1]],
    },
    "designated": [1],
}
DEGREE_MATRIX = {"algebra": MATRIX["algebra"], "mode": "degree"}
AGENDA = {"formulas": ["x1", "x2", "(or x1 x2)", "(not x1)"]}
CRITERION = {"electorate": 2, "values": ["0", "0", 1, 1]}

# the commands that read each kind of file, the other files given valid
COMMANDS = {
    "matrix": [
        ["check-agenda", "--logic", "{matrix}", "--agenda", "{agenda}"],
        ["verify-bijection", "--logic", "{matrix}", "--agenda", "{agenda}",
         "--electorate", "2", "--budget", "100000"],
        ["classify-dictators", "--logic", "{matrix}", "--criterion", "{criterion}"],
        ["check-selfext", "--logic", "{matrix}", "--variables", "1", "--depth", "1"],
        ["enumerate-homs", "--logic", "{matrix}", "--electorate", "2"],
    ],
    "agenda": [
        ["check-agenda", "--logic", "{matrix}", "--agenda", "{agenda}"],
        ["verify-bijection", "--logic", "{matrix}", "--agenda", "{agenda}",
         "--electorate", "2", "--budget", "100000"],
    ],
    "criterion": [["classify-dictators", "--logic", "{matrix}", "--criterion", "{criterion}"]],
}
VALID = {"matrix": MATRIX, "agenda": AGENDA, "criterion": CRITERION}

OTHER_VALUES = [0, 1, -1, 2, True, 1.5, "", "x1", "(or x1", "1", [], {}, [0, 1], {"name": "or"}]
# integer literals, written into the JSON text as they are: the last is past
# the interpreter's digit limit, so Python could not even print it as an int
HUGE = ["18446744073709551616", "-1000000000000000000000000000000", "9" * 5001]


def paths(doc, prefix=()):
    """Every position in a JSON document, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


DROP = object()  # marks the value at a path for removal


def replaced(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``, or nothing there for DROP."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    inner = replaced(doc[head], rest, value)
    if inner is DROP:
        del copy[head]
    else:
        copy[head] = inner
    return copy


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """The JSON text of ``doc`` after one to three mutations."""
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        kind = draw(st.sampled_from(["drop", "swap", "null", "nest", "huge"]))
        if kind == "drop" and path:
            value = DROP
        elif kind == "swap":
            value = draw(st.sampled_from(OTHER_VALUES))
        elif kind == "nest":
            old = value_at(doc, path)
            value = draw(st.sampled_from([[old], {"values": old}]))
        elif kind == "huge":
            value = f"@huge{draw(st.integers(0, len(HUGE) - 1))}@"
        else:
            value = None
        doc = replaced(doc, path, value)
    text = json.dumps(doc)
    for k, digits in enumerate(HUGE):
        text = text.replace(f'"@huge{k}@"', digits)
    if draw(st.booleans()) and draw(st.booleans()):  # a quarter of the files are cut short
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def cases(draw):
    target = draw(st.sampled_from(sorted(COMMANDS)))
    command = draw(st.sampled_from(COMMANDS[target]))
    if target == "matrix":
        doc = draw(st.sampled_from([MATRIX, DEGREE_MATRIX]))
    else:
        doc = VALID[target]
    return target, draw(mutated(doc)), command


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    for kind, doc in VALID.items():
        (folder / f"{kind}.json").write_text(json.dumps(doc))
    return folder


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cases())
def test_malformed_files_keep_the_exit_code_contract(directory, case):
    target, text, command = case
    broken = directory / f"broken-{target}.json"
    broken.write_text(text)
    files = {kind: str(directory / f"{kind}.json") for kind in VALID}
    files[target] = str(broken)
    argv = [arg.format(**files) for arg in command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, text, err)
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, text, err)
    assert "Traceback" not in err + stdout.getvalue(), (argv, text, err)
    assert "internal error" not in err, (argv, text, err)


LEAVES = ["x1", "x2", "x3", "top", "bot", "(not x2)"]
DEEP_COMMANDS = [["check-agenda"], ["verify-bijection", "--electorate", "1"]]


@st.composite
def deep_formulas(draw):
    """A formula text nested 195 to 205 connectives deep, around the parser's
    limit of 200 (a ``(not x2)`` leaf at the bottom adds one more): each layer
    a ``not``, or an ``or``/``and`` with a leaf on either side, picked by a
    drawn seed so that one example is a few draws. A third of the texts then
    lose a character, repeat one or are cut short."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    text = rng.choice(LEAVES)
    for _ in range(draw(st.integers(195, 205))):
        layer = rng.choice(["not", "or", "and"])
        if layer == "not":
            text = f"(not {text})"
        elif rng.random() < 0.5:
            text = f"({layer} {text} {rng.choice(LEAVES)})"
        else:
            text = f"({layer} {rng.choice(LEAVES)} {text})"
    kind = draw(st.sampled_from(["whole", "whole", "whole", "whole", "drop", "double", "cut"]))
    if kind != "whole":
        at = draw(st.integers(0, len(text) - 1))
        text = {"drop": text[:at] + text[at + 1:], "double": text[:at + 1] + text[at:],
                "cut": text[:at]}[kind]
    return text


@settings(max_examples=12, derandomize=True, deadline=None)
@given(deep_formulas())
def test_formulas_nested_around_the_depth_limit_keep_the_exit_code_contract(directory, text):
    agenda = directory / "deep-agenda.json"
    agenda.write_text(json.dumps({"formulas": ["x1", "x2", text]}))
    for command in DEEP_COMMANDS:
        argv = [*command, "--logic", "boolean2", "--agenda", str(agenda)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, text, err)
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, text, err)
        assert "Traceback" not in err + stdout.getvalue(), (argv, text, err)


def test_mutations_change_a_copy_of_the_document():
    doc = {"a": [1, 2]}
    assert list(paths(doc)) == [(), ("a",), ("a", 0), ("a", 1)]
    assert replaced(doc, ("a", 0), DROP) == {"a": [2]}
    assert replaced(doc, ("a",), [value_at(doc, ("a",))]) == {"a": [[1, 2]]}
    assert replaced(doc, (), None) is None
    assert doc == {"a": [1, 2]}
    assert len(HUGE[-1]) > sys.get_int_max_str_digits() > 0
