"""Independent brute-force oracles the fast implementations are checked against.

Everything here is deliberately naive: permutation enumeration for cycles,
exhaustive simple-path search for reachability, plain loops for the
arc-difference counts. None of it shares code with the package, except
:func:`reenumerating_enforce_acyclicity`, which builds on the package's graph
type and cycle listing (both checked against the brute force above).
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable

from causaltext.graph import DEFAULT_CYCLE_CAP, Arc, CausalGraph, detect_cycles


def brute_force_simple_cycles(
    nodes: list[str], arc_pairs: set[tuple[str, str]]
) -> set[tuple[str, ...]]:
    """Every simple directed cycle, found by trying all vertex permutations.

    Each cycle is reported once, rotated to start at its smallest node.
    """
    adjacency: dict[str, set[str]] = {node: set() for node in nodes}
    for cause, effect in arc_pairs:
        adjacency[cause].add(effect)
    found: set[tuple[str, ...]] = set()
    ordered = sorted(nodes)
    for size in range(2, len(ordered) + 1):
        for combo in combinations(ordered, size):
            start = combo[0]
            for perm in permutations(combo[1:]):
                previous = start
                for node in perm:
                    if node not in adjacency[previous]:
                        break
                    previous = node
                else:
                    if start in adjacency[previous]:
                        found.add((start,) + perm)
    return found


def brute_force_counts(
    extracted: set[tuple[str, str]], truth: set[tuple[str, str]]
) -> tuple[int, int, int]:
    """(tp, fp, fn) counted with explicit loops."""
    tp = 0
    fp = 0
    for pair in extracted:
        if pair in truth:
            tp += 1
        else:
            fp += 1
    fn = 0
    for pair in truth:
        if pair not in extracted:
            fn += 1
    return tp, fp, fn


def brute_force_has_witness_path(
    nodes: list[str], arc_pairs: set[tuple[str, str]], arc: tuple[str, str]
) -> bool:
    """True when a simple path of length >= 2 connects the arc's endpoints.

    Enumerates every simple path from cause to effect by depth-first search
    over the full arc set and checks its length.
    """
    adjacency: dict[str, list[str]] = {node: [] for node in nodes}
    for cause, effect in sorted(arc_pairs):
        adjacency[cause].append(effect)
    start, goal = arc

    stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
    while stack:
        node, path = stack.pop()
        for successor in adjacency[node]:
            if successor == goal:
                if len(path) >= 2:
                    return True
                continue
            if successor not in path:
                stack.append((successor, path + (successor,)))
    return False


def reenumerating_enforce_acyclicity(
    graph: CausalGraph, transitive: Iterable[Arc], cycle_cap: int = DEFAULT_CYCLE_CAP
) -> tuple[CausalGraph, tuple[Arc, ...]]:
    """The cycle-coverage greedy that lists every cycle again after each removal.

    While cycles remain, remove the arc on the most simple cycles; ties
    prefer the arcs in ``transitive``, then the smallest (cause, effect).
    """
    suspects = {arc.pair for arc in transitive}
    work = graph
    removed: list[Arc] = []
    while True:
        report = detect_cycles(work, cycle_cap=cycle_cap)
        if report.is_acyclic:
            return work, tuple(removed)
        coverage: dict[tuple[str, str], int] = {}
        for cycle in report.cycles:
            for index, cause in enumerate(cycle):
                pair = (cause, cycle[(index + 1) % len(cycle)])
                coverage[pair] = coverage.get(pair, 0) + 1
        victim_pair = min(
            coverage, key=lambda pair: (-coverage[pair], pair not in suspects, pair)
        )
        removed.append(work.arc(*victim_pair))
        remaining = [arc for arc in work.arcs if arc.pair != victim_pair]
        work = CausalGraph(work.kind, work.entities, remaining)
