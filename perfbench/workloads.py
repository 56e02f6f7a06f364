"""Seeded inputs and the check lists of the three workloads.

The seed permutes agenda formula order, renames the agenda variables and
picks the dictator of the projection criterion. Every expected answer is
invariant under these changes. The program receives only the files written
here and argv.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass

import oracle

BOOLEAN_AGENDA = ("x1", "x2", "(or x1 x2)", "(not x1)")
MV_AGENDA = ("x1", "x2", "(oplus x1 x2)")
VOTERS = 3


@dataclass(frozen=True)
class Check:
    id: str
    argv: tuple[str, ...]
    expect: dict


@dataclass(frozen=True)
class Probe:
    """A frontier ladder: ``rung(n)`` is the check run at scale n."""

    start: int
    rung: object  # int -> Check


@dataclass(frozen=True)
class Workload:
    checks: tuple[Check, ...]
    probe: Probe
    # Seconds one round (every check once, spawn included) took at the
    # baseline commit on the reference machine (see README.md). Used only
    # to size a run, so that every run of a workload repeats each check the
    # same number of times, whatever the machine load.
    round_s: float


def _rename(text: str, names: dict[str, str]) -> str:
    return re.sub(r"[A-Za-z][A-Za-z0-9_]*", lambda m: names.get(m.group(), m.group()), text)


def _fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct letter+digits names: never a connective, never ``x_fresh``."""
    names: list[str] = []
    while len(names) < count:
        name = f"{rng.choice('abcdefghijklmnpqrsuvw')}{rng.randrange(10, 100)}"
        if name not in names:
            names.append(name)
    return names


def _write(directory: str, name: str, obj) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def diamond_matrix() -> dict:
    """The four-element Boolean lattice {0, a, b, 1}, designated top."""
    n = len(oracle.DIAMOND_CARRIER)
    return {
        "algebra": {
            "signature": {
                "connectives": [
                    {"name": "and", "arity": 2},
                    {"name": "or", "arity": 2},
                    {"name": "bot", "arity": 0},
                    {"name": "top", "arity": 0},
                ]
            },
            "carrier": list(oracle.DIAMOND_CARRIER),
            "ops": {
                "and": [[a & b for b in range(n)] for a in range(n)],
                "or": [[a | b for b in range(n)] for a in range(n)],
                "bot": [0],
                "top": [n - 1],
            },
            "order": [[a, b] for a in range(n) for b in range(n) if a & ~b == 0],
        },
        "designated": [n - 1],
    }


def criterion(n: int, value) -> dict:
    return {"electorate": n, "values": [value(c) for c in oracle.coordinates(2, n)]}


def generate(seed: int, directory: str) -> dict[str, object]:
    """Write the seeded input files; returns paths and the seeded choices."""
    rng = random.Random(seed)
    names = dict(zip(("x1", "x2"), _fresh_names(rng, 2)))
    boolean = [_rename(f, names) for f in BOOLEAN_AGENDA]
    mv = [_rename(f, names) for f in MV_AGENDA]
    rng.shuffle(boolean)
    rng.shuffle(mv)
    dictator = rng.randrange(VOTERS)
    return {
        "seed": seed,
        "variables": sorted(names.values()),
        "dictator": dictator,
        "boolean_agenda": _write(directory, "agenda_boolean.json", {"formulas": boolean}),
        "mv_agenda": _write(directory, "agenda_mv.json", {"formulas": mv}),
        "diamond": _write(directory, "diamond.json", diamond_matrix()),
        "majority": _write(
            directory, "majority3.json", criterion(VOTERS, lambda c: int(2 * sum(c) > VOTERS))
        ),
        "projection": _write(
            directory, "projection3.json", criterion(VOTERS, lambda c: c[dictator])
        ),
        "constant": _write(directory, "constant2.json", criterion(2, lambda c: 1)),
    }


def _lifted_budget(size: int, n: int) -> str:
    """Exactly the candidate-map count of B^n -> B, so the search runs."""
    return str(size ** (size**n))


def workloads(inputs: dict) -> dict[str, Workload]:
    bool_agenda, mv_agenda = inputs["boolean_agenda"], inputs["mv_agenda"]
    diamond = inputs["diamond"]

    def bijection(id, logic, agenda, size, n, depth=1):
        argv = ("verify-bijection", "--logic", logic, "--agenda", agenda,
                "--electorate", str(n), "--depth", str(depth))
        return Check(id, argv, oracle.expect_bijection(size, n))

    def dictators(id, path, dictator):
        return Check(id, ("classify-dictators", "--criterion", path),
                     oracle.expect_dictators(dictator))

    def selfext(id, logic, variables, holds, chain=0):
        argv = ("check-selfext", "--logic", logic, "--variables", str(variables),
                "--depth", "2")
        return Check(id, argv, oracle.expect_selfext(holds, chain))

    def subjunctive(k):
        return Check(f"subjunctive-k{k}", ("check-subjunctive", "--frame-bound", str(k)),
                     oracle.expect_subjunctive())

    def homs(id, logic, size, n, tables, budget=True):
        argv = ("enumerate-homs", "--logic", logic, "--electorate", str(n))
        if budget:
            argv += ("--budget", _lifted_budget(size, n))
        return Check(id, argv, oracle.expect_homs(tables))

    characterization = Workload(
        checks=(
            bijection("bijection-boolean2-n3", "boolean2", bool_agenda, 2, 3),
            bijection("bijection-boolean2-n4", "boolean2", bool_agenda, 2, 4),
            bijection("bijection-boolean2-n2-depth2", "boolean2", bool_agenda, 2, 2, depth=2),
            bijection("bijection-mv3-n2", "mv3", mv_agenda, 3, 2),
            bijection("bijection-mv3-degree-n2", "mv3-degree", mv_agenda, 3, 2),
            dictators("dictators-majority-n3", inputs["majority"], None),
            dictators("dictators-projection-n3", inputs["projection"], inputs["dictator"]),
            dictators("dictators-constant-n2", inputs["constant"], None),
        ),
        probe=Probe(3, lambda n: bijection(f"probe-bijection-n{n}", "boolean2",
                                           bool_agenda, 2, n)),
        round_s=6.0,
    )
    metatheory = Workload(
        checks=(
            selfext("selfext-boolean2-v3", "boolean2", 3, True),
            selfext("selfext-mv3-degree-v2", "mv3-degree", 2, True),
            selfext("selfext-diamond-v2", diamond, 2, True),
            selfext("selfext-mv3-v1", "mv3", 1, False, chain=3),
            subjunctive(2),
            subjunctive(3),
            Check("agenda-boolean2", ("check-agenda", "--logic", "boolean2", "--agenda",
                                      bool_agenda), oracle.expect_agenda(inputs["variables"])),
            Check("agenda-mv3", ("check-agenda", "--logic", "mv3", "--agenda", mv_agenda),
                  oracle.expect_agenda(inputs["variables"])),
        ),
        probe=Probe(2, lambda k: Check(f"probe-subjunctive-k{k}",
                                       ("check-subjunctive", "--frame-bound", str(k)),
                                       oracle.expect_subjunctive())),
        round_s=3.2,
    )
    homs_workload = Workload(
        checks=(
            homs("homs-boolean2-n7", "boolean2", 2, 7, oracle.projection_tables(2, 7)),
            homs("homs-boolean2-n8", "boolean2", 2, 8, oracle.projection_tables(2, 8)),
            homs("homs-mv3-n4", "mv3", 3, 4, oracle.projection_tables(3, 4)),
            homs("homs-mv4-n3", "mv4", 4, 3, oracle.projection_tables(4, 3)),
            homs("homs-diamond-n3", diamond, 4, 3, oracle.diamond_tables(3)),
        ),
        probe=Probe(3, lambda n: homs(f"probe-homs-n{n}", "boolean2", 2, n,
                                      oracle.projection_tables(2, n), budget=False)),
        round_s=6.0,
    )
    return {
        "characterization": characterization,
        "metatheory": metatheory,
        "homs": homs_workload,
    }
