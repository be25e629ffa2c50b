"""Optimisation client tests (paper §6 applications)."""

import pytest

from repro.core.rangeset import RangeSet
from repro.opt.array_alias import (
    collect_accesses,
    disambiguated_fraction,
    independent_pairs,
    may_alias,
    provably_disjoint,
)
from repro.opt.boundscheck import (
    SAFE,
    UNKNOWN,
    UNSAFE,
    analyse_bounds_checks,
    classify_index,
    dynamic_checks_eliminated,
    eliminated_fraction,
)
from repro.opt.constfold import (
    constants_from_prediction,
    copies_from_prediction,
    fold_constants,
    fold_copies,
)
from repro.opt.layout import chain_layout, fallthrough_fraction, layout_quality
from repro.opt.unreachable import dead_edges, unreachable_blocks

from tests.helpers import analyse


class TestUnreachable:
    def test_dead_then_block_found(self):
        prediction = analyse(
            "func main(n) { var x = 5; if (x > 10) { n = 1; } return n; }"
        )
        dead = unreachable_blocks(prediction.function, prediction)
        assert dead  # the then-arm never executes

    def test_live_code_not_flagged(self):
        prediction = analyse(
            "func main(n) { var x = 5; if (x < 10) { n = 1; } return n; }"
        )
        dead = unreachable_blocks(prediction.function, prediction)
        # The else/fall-through path may contain a zero-frequency
        # assertion block; the then block itself must be live.
        (label,) = prediction.branch_probability
        then_target = prediction.function.block(label).terminator.true_target
        assert then_target not in dead

    def test_dead_edges_reported(self):
        prediction = analyse(
            "func main(n) { var x = 5; if (x > 10) { n = 1; } return n; }"
        )
        edges = dead_edges(prediction.function, prediction)
        (label,) = prediction.branch_probability
        branch = prediction.function.block(label).terminator
        assert (label, branch.true_target) in edges


class TestConstFold:
    def test_constants_extracted(self):
        prediction = analyse(
            "func main(n) { var a = 6; var b = a * 7; return b; }"
        )
        constants = constants_from_prediction(prediction)
        assert constants["b.0"] == 42

    def test_fold_constants_rewrites_uses(self):
        prediction = analyse(
            "func main(n) { var a = 6; var b = a * 7; return b; }"
        )
        replaced = fold_constants(prediction.function, prediction)
        assert replaced >= 1
        from repro.ir.instructions import Return
        from repro.ir.values import Constant

        returns = [
            i for i in prediction.function.instructions() if isinstance(i, Return)
        ]
        assert any(r.value == Constant(42) for r in returns)

    def test_copies_extracted(self):
        prediction = analyse(
            "func main(n) { var a = n; var b = a; return b; }",
            param_ranges={"n": RangeSet.symbol("n.0")},
        )
        copies = copies_from_prediction(prediction)
        assert copies.get("a.0") == "n.0"
        assert copies.get("b.0") == "n.0"

    def test_fold_copies_rewrites(self):
        prediction = analyse(
            "func main(n) { var a = n; var b = a + 1; return b; }",
            param_ranges={"n": RangeSet.symbol("n.0")},
        )
        replaced = fold_copies(prediction.function, prediction)
        assert replaced >= 1


class TestBoundsChecks:
    def test_classify_index(self):
        assert classify_index(RangeSet.span(0, 9), 10) == SAFE
        assert classify_index(RangeSet.span(0, 10), 10) == UNKNOWN
        assert classify_index(RangeSet.span(10, 20), 10) == UNSAFE
        assert classify_index(RangeSet.span(-5, -1), 10) == UNSAFE
        assert classify_index(RangeSet.bottom(), 10) == UNKNOWN
        assert classify_index(RangeSet.span(0, 5), None) == UNKNOWN

    def test_loop_indexed_access_proven_safe(self):
        prediction = analyse(
            """
            func main(n) {
              array a[100];
              for (i = 0; i < 100; i = i + 1) { a[i] = i; }
              return a[0];
            }
            """
        )
        reports = analyse_bounds_checks(prediction.function, prediction)
        stores = [r for r in reports if r.kind == "store"]
        assert all(r.classification == SAFE for r in stores)
        assert eliminated_fraction(reports) == pytest.approx(1.0)

    def test_unknown_index_needs_check(self):
        prediction = analyse(
            """
            func main(n) {
              array a[100];
              a[n] = 1;
              return a[0];
            }
            """
        )
        reports = analyse_bounds_checks(prediction.function, prediction)
        store = next(r for r in reports if r.kind == "store")
        assert store.classification == UNKNOWN

    def test_masked_index_safe(self):
        prediction = analyse(
            """
            func main(n) {
              array a[64];
              a[n % 64] = 1;
              return a[0];
            }
            """
        )
        reports = analyse_bounds_checks(prediction.function, prediction)
        store = next(r for r in reports if r.kind == "store")
        assert store.classification == SAFE

    def test_dynamic_elimination_weighted(self):
        prediction = analyse(
            """
            func main(n) {
              array a[10];
              for (i = 0; i < 10; i = i + 1) { a[i] = i; }
              a[n] = 0;
              return a[0];
            }
            """
        )
        reports = analyse_bounds_checks(prediction.function, prediction)
        fraction = dynamic_checks_eliminated(reports, prediction)
        # The hot in-loop store is safe; the cold unknown store is not.
        assert fraction > 0.8


class TestArrayAlias:
    def test_even_odd_strides_disjoint(self):
        assert provably_disjoint(RangeSet.span(0, 98, 2), RangeSet.span(1, 99, 2))

    def test_overlapping_ranges_alias(self):
        assert not provably_disjoint(RangeSet.span(0, 50), RangeSet.span(40, 90))

    def test_separated_ranges_disjoint(self):
        assert provably_disjoint(RangeSet.span(0, 49), RangeSet.span(50, 99))

    def test_different_arrays_never_alias(self):
        prediction = analyse(
            """
            func main(n) {
              array a[10];
              array b[10];
              a[0] = 1;
              b[0] = 2;
              return a[0] + b[0];
            }
            """
        )
        accesses = collect_accesses(prediction.function, prediction)
        a_store = next(x for x in accesses if x.array == "a" and x.kind == "store")
        b_store = next(x for x in accesses if x.array == "b" and x.kind == "store")
        assert not may_alias(a_store, b_store)

    def test_halves_split_loop_disambiguated(self):
        prediction = analyse(
            """
            func main(n) {
              array a[100];
              for (i = 0; i < 50; i = i + 1) {
                a[i] = a[i + 50] + 1;
              }
              return a[0];
            }
            """
        )
        accesses = collect_accesses(prediction.function, prediction)
        pairs = independent_pairs(accesses)
        in_loop = [
            p
            for p in pairs
            if not (p.first.index_range.is_bottom or p.second.index_range.is_bottom)
        ]
        assert any(p.independent for p in in_loop)
        assert disambiguated_fraction(pairs) > 0.0


class TestLayout:
    def test_hot_path_becomes_fallthrough(self):
        prediction = analyse(
            """
            func main(n) {
              var x = 1;
              var t = 0;
              if (x > 100) { t = 999; } else { t = 1; }
              return t;
            }
            """
        )
        layout = chain_layout(prediction.function, prediction.edge_frequency)
        assert set(layout) == set(prediction.function.blocks)
        assert layout[0] == prediction.function.entry_label
        # The hot else-arm must directly follow the branch block.
        (label,) = prediction.branch_probability
        branch = prediction.function.block(label).terminator
        position = {block: i for i, block in enumerate(layout)}
        assert position[branch.false_target] == position[label] + 1

    def test_layout_quality_improves_fallthrough(self):
        source = """
        func main(n) {
          var t = 0;
          for (i = 0; i < 40; i = i + 1) {
            if (i % 8 == 0) { t = t + 100; } else { t = t + 1; }
          }
          return t;
        }
        """
        prediction = analyse(source)
        from tests.helpers import compile_and_prepare
        from repro.profiling import run_module

        module, _ = compile_and_prepare(source)
        run = run_module(module, args=[0])
        dynamic = {
            (src, dst): count
            for (func, src, dst), count in run.edge_counts.items()
            if func == "main"
        }
        original, optimised = layout_quality(
            prediction.function, prediction.edge_frequency, dynamic
        )
        assert optimised >= original

    def test_fallthrough_fraction_bounds(self):
        assert fallthrough_fraction([], {}) == 0.0
        assert fallthrough_fraction(["a", "b"], {("a", "b"): 10}) == 1.0
        assert fallthrough_fraction(["b", "a"], {("a", "b"): 10}) == 0.0
