"""Wu-Larus frequency propagation tests."""

import copy

import pytest

from repro.analysis import frequency
from repro.analysis.frequency import (
    DAMPING,
    FREQUENCY_CAP,
    FrequencyResult,
    _nested_order,
    edge_probabilities,
    function_frequencies,
    propagate_frequencies,
)
from repro.analysis.loops import LoopInfo
from repro.core import VRPPredictor
from repro.evalharness import synthetic_program
from repro.ir import prepare_module
from repro.ir.cfg import CFG
from repro.lang import compile_source
from repro.opt.function_order import allocation_priority, function_order
from repro.opt.inlining import inline_hot_calls
from repro.opt.layout import chain_layout
from repro.opt.speculation import hoisting_candidates
from repro.opt.superblock import form_traces
from repro.workloads import all_workloads

from tests.helpers import prepare_single
from tests.ir.test_dominance import build


class TestEdgeProbabilities:
    def test_jump_gets_one(self):
        function, _ = prepare_single("func main(n) { var x = 1; return x; }")
        probabilities = edge_probabilities(function, {})
        assert all(p == 1.0 for p in probabilities.values())

    def test_branch_split(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        branch_label = next(
            label
            for label, block in function.blocks.items()
            if len(block.successors()) == 2
        )
        probabilities = edge_probabilities(function, {branch_label: 0.7})
        branch = function.block(branch_label).terminator
        assert probabilities[(branch_label, branch.true_target)] == pytest.approx(0.7)
        assert probabilities[(branch_label, branch.false_target)] == pytest.approx(0.3)


class TestBlockFrequencies:
    def test_straight_line_all_one(self):
        function, _ = prepare_single("func main(n) { var x = 1; return x; }")
        result = propagate_frequencies(function, {})
        for label in function.blocks:
            assert result.frequency(label) == pytest.approx(1.0)

    def test_if_arms_split(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } else { n = 2; } return n; }"
        )
        branch_label = next(
            label
            for label, block in function.blocks.items()
            if len(block.successors()) == 2
        )
        result = propagate_frequencies(function, {branch_label: 0.25})
        branch = function.block(branch_label).terminator
        assert result.frequency(branch.true_target) == pytest.approx(0.25)
        assert result.frequency(branch.false_target) == pytest.approx(0.75)

    def test_loop_geometric_closure(self):
        function, _ = prepare_single(
            "func main(n) { var t = 0; while (t < 9) { t = t + 1; } return t; }"
        )
        branch_label = next(
            label
            for label, block in function.blocks.items()
            if len(block.successors()) == 2
        )
        result = propagate_frequencies(function, {branch_label: 0.9})
        # Header executes 1 / (1 - 0.9) = 10 times.
        assert result.frequency(branch_label) == pytest.approx(10.0, rel=1e-3)

    def test_always_taken_loop_capped_not_crashed(self):
        function, _ = prepare_single(
            "func main(n) { while (1) { n = n + 1; } return n; }"
        )
        result = propagate_frequencies(function, {})
        assert all(f >= 0 for f in result.block_frequency.values())

    def test_matches_engine_frequencies(self):
        from tests.helpers import analyse

        source = """
        func main(n) {
          var t = 0;
          for (i = 0; i < 9; i = i + 1) {
            if (i > 4) { t = t + 2; } else { t = t + 1; }
          }
          return t;
        }
        """
        prediction = analyse(source)
        result = propagate_frequencies(
            prediction.function, prediction.branch_probability
        )
        for label, frequency in prediction.block_frequency.items():
            assert result.frequency(label) == pytest.approx(frequency, rel=0.02, abs=0.02)


class TestFunctionFrequencies:
    def test_call_weights_flow(self):
        module = compile_source(
            """
            func leaf() { return 1; }
            func mid() { return leaf() + leaf(); }
            func main(n) { return mid(); }
            """
        )
        frequencies = function_frequencies(
            module.functions, {name: {} for name in module.functions}
        )
        assert frequencies["main"] == pytest.approx(1.0)
        assert frequencies["mid"] == pytest.approx(1.0)
        assert frequencies["leaf"] == pytest.approx(2.0)

    def test_loop_multiplies_call_frequency(self):
        module = compile_source(
            """
            func leaf() { return 1; }
            func main(n) {
              var t = 0;
              for (i = 0; i < 9; i = i + 1) { t = t + leaf(); }
              return t;
            }
            """
        )
        branch_label = next(
            label
            for label, block in module.function("main").blocks.items()
            if len(block.successors()) == 2
        )
        frequencies = function_frequencies(
            module.functions, {"main": {branch_label: 0.9}, "leaf": {}}
        )
        assert frequencies["leaf"] == pytest.approx(9.0, rel=0.05)


# -- the sparse solver against the dense numpy solve it replaced -------------

ORACLE_REL = 1e-9


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


def _dense_frequencies(np, function, branch_probability):
    """Block frequencies from ``np.linalg.solve`` over the same matrix."""
    labels = CFG(function).reverse_postorder()
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.eye(len(labels))
    rhs = np.zeros(len(labels))
    rhs[index[function.entry_label]] = 1.0
    for (src, dst), p in edge_probabilities(function, branch_probability).items():
        if src in index and dst in index:
            matrix[index[dst], index[src]] -= p * (1.0 - DAMPING)
    solution = np.linalg.solve(matrix, rhs)
    return {
        label: float(min(max(solution[index[label]], 0.0), FREQUENCY_CAP))
        for label in labels
    }


def _dense_result(np, function, branch_probability) -> FrequencyResult:
    blocks = _dense_frequencies(np, function, branch_probability)
    edges = {
        (src, dst): blocks[src] * p
        for (src, dst), p in edge_probabilities(function, branch_probability).items()
        if src in blocks
    }
    return FrequencyResult(blocks, edges)


def _assert_matches_oracle(np, function, branch_probability):
    sparse = propagate_frequencies(function, branch_probability).block_frequency
    dense = _dense_frequencies(np, function, branch_probability)
    assert sparse.keys() == dense.keys()
    for label, expected in dense.items():
        assert sparse[label] == pytest.approx(expected, rel=ORACLE_REL, abs=1e-300), (
            function.name,
            label,
        )


SUITE_PROGRAMS = [(w.name, w.source) for w in all_workloads()] + [
    ("synthetic16", synthetic_program(16))
]


@pytest.fixture(scope="module")
def suite_predictions():
    """``(name, source, module, prediction)`` for every suite program."""
    out = []
    for name, source in SUITE_PROGRAMS:
        module = compile_source(source)
        prediction = VRPPredictor().predict_module(module, prepare_module(module))
        out.append((name, source, module, prediction))
    return out


class TestSolverOracle:
    def test_suite_has_every_program(self):
        assert len(SUITE_PROGRAMS) == 32

    def test_every_suite_function(self, np, suite_predictions):
        checked = 0
        for _, _, module, prediction in suite_predictions:
            for name, function in module.functions.items():
                function_prediction = prediction.functions.get(name)
                branches = (
                    function_prediction.branch_probability if function_prediction else {}
                )
                _assert_matches_oracle(np, function, branches)
                checked += 1
        assert checked >= len(SUITE_PROGRAMS)

    def test_irreducible_two_entry_cycle(self, np):
        # entry branches into both a and b; a <-> b is a cycle with two
        # entries, so neither block dominates the other.
        function = build(
            [("entry", "a"), ("entry", "b"), ("a", "b"), ("a", "x"), ("b", "a")]
        )
        for entry_p, a_p in [(0.3, 0.8), (0.5, 0.5), (0.9, 0.99), (1.0, 1.0)]:
            _assert_matches_oracle(np, function, {"entry": entry_p, "a": a_p})
        result = propagate_frequencies(function, {"entry": 0.3, "a": 0.8})
        # Every execution leaves through a -> x exactly once.
        assert result.frequency("x") == pytest.approx(1.0, rel=1e-6)

    def test_always_taken_loop(self, np):
        function, _ = prepare_single(
            "func main(n) { while (1) { n = n + 1; } return n; }"
        )
        _assert_matches_oracle(np, function, {})
        looped = build([("entry", "head"), ("head", "body"), ("head", "exit"),
                        ("body", "head")])
        _assert_matches_oracle(np, looped, {"head": 1.0})
        header = propagate_frequencies(looped, {"head": 1.0}).frequency("head")
        assert 1e8 < header < FREQUENCY_CAP


class TestNestedOrder:
    """Elimination order: topological, with every loop contiguous."""

    def test_loops_contiguous_and_only_back_edges_go_up(self, suite_predictions):
        for _, _, module, _ in suite_predictions:
            for function in module.functions.values():
                cfg = CFG(function)
                order = _nested_order(cfg)
                assert sorted(order) == sorted(cfg.reachable())
                position = {label: i for i, label in enumerate(order)}
                loops = LoopInfo(cfg).loops
                for header, loop in loops.items():
                    span = sorted(position[label] for label in loop.blocks)
                    assert span == list(range(span[0], span[0] + len(span)))
                    assert span[0] == position[header]
                for src in order:
                    for dst in cfg.successors[src]:
                        if position[dst] <= position[src]:
                            assert dst in loops and src in loops[dst].blocks

    def test_irreducible_cycle_is_one_region(self):
        function = build(
            [("entry", "a"), ("entry", "b"), ("a", "b"), ("a", "x"), ("b", "a")]
        )
        order = _nested_order(CFG(function))
        assert order[0] == "entry" and order[-1] == "x"
        assert set(order[1:3]) == {"a", "b"}


def _with_frequencies(function_prediction, result: FrequencyResult):
    clone = copy.copy(function_prediction)
    clone.block_frequency = result.block_frequency
    clone.edge_frequency = result.edge_frequency
    return clone


def _assert_same_ranking(got, want):
    """Same candidates with the same usefulness, ranked alike.

    Candidates whose usefulness is mathematically equal (say 1.0 for
    every block that post-dominates its target) differ only in the last
    bits under either solver, so their relative order is rounding noise;
    the ranking must agree position by position up to such ties.
    """
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.usefulness == pytest.approx(b.usefulness, rel=ORACLE_REL)
    usefulness = {(h.block, h.target, h.speculation_depth): h.usefulness for h in want}
    for h in got:
        key = (h.block, h.target, h.speculation_depth)
        assert h.usefulness == pytest.approx(usefulness[key], rel=ORACLE_REL)


class TestClientsUnchangedBySolver:
    """The opt clients decide identically on sparse and dense frequencies."""

    def test_function_clients(self, np, suite_predictions):
        for _, _, module, prediction in suite_predictions:
            for name, function in module.functions.items():
                function_prediction = prediction.functions[name]
                branches = function_prediction.branch_probability
                sparse = propagate_frequencies(function, branches)
                dense = _dense_result(np, function, branches)
                assert chain_layout(function, sparse.edge_frequency) == chain_layout(
                    function, dense.edge_frequency
                )
                traces = [
                    form_traces(function, _with_frequencies(function_prediction, r))
                    for r in (sparse, dense)
                ]
                assert [t.blocks for t in traces[0]] == [t.blocks for t in traces[1]]
                hoists = [
                    hoisting_candidates(function, _with_frequencies(function_prediction, r))
                    for r in (sparse, dense)
                ]
                _assert_same_ranking(hoists[0], hoists[1])

    def test_function_order(self, np, suite_predictions, monkeypatch):
        sparse = [
            (function_order(module, prediction), allocation_priority(module, prediction))
            for _, _, module, prediction in suite_predictions
        ]
        monkeypatch.setattr(
            frequency, "propagate_frequencies", lambda f, b: _dense_result(np, f, b)
        )
        for (order, priority), (_, _, module, prediction) in zip(sparse, suite_predictions):
            assert allocation_priority(module, prediction) == priority
            dense_order = function_order(module, prediction)
            assert [name for name, _ in dense_order] == [name for name, _ in order]
            for (_, got), (_, want) in zip(order, dense_order):
                assert got == pytest.approx(want, rel=ORACLE_REL)

    def test_inline_hot_calls(self, np, suite_predictions):
        for _, source, module, prediction in suite_predictions:
            decisions = []
            for solve in (propagate_frequencies, lambda f, b: _dense_result(np, f, b)):
                replaced = copy.copy(prediction)
                replaced.functions = {
                    name: _with_frequencies(
                        fp, solve(module.functions[name], fp.branch_probability)
                    )
                    for name, fp in prediction.functions.items()
                }
                fresh = compile_source(source)
                prepare_module(fresh)
                decisions.append(
                    [
                        (d.caller, d.callee, d.block_label)
                        for d in inline_hot_calls(fresh, replaced)
                    ]
                )
            assert decisions[0] == decisions[1]
