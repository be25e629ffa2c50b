"""Figure-rendering tests."""

import pytest

from repro.evalharness.reporting import (
    fit_line,
    format_cdf_table,
    format_scatter,
    ranking,
)


class TestCdfTable:
    def test_contains_all_predictors_and_rows(self):
        series = {
            "alpha": [10.0] * 20,
            "beta": [90.0] * 20,
        }
        text = format_cdf_table(series, title="demo")
        assert "demo" in text
        assert "alpha" in text and "beta" in text
        assert text.count("<") == 20
        assert "AUC" in text

    def test_values_formatted_as_percentages(self):
        series = {"only": [12.3456] * 20}
        text = format_cdf_table(series)
        assert "12.3%" in text

    def test_custom_thresholds(self):
        series = {"p": [1.0, 2.0, 3.0]}
        text = format_cdf_table(series, thresholds=[1, 5, 10])
        assert "<  1" in text
        assert "< 10" in text


class TestRanking:
    def test_best_first(self):
        series = {
            "weak": [10.0, 10.0],
            "strong": [90.0, 95.0],
            "middle": [50.0, 50.0],
        }
        names = [name for name, _ in ranking(series)]
        assert names == ["strong", "middle", "weak"]

    def test_scores_are_auc(self):
        series = {"p": [0.0, 100.0]}
        (entry,) = ranking(series)
        assert entry[1] == pytest.approx(50.0)


class TestScatter:
    def test_points_and_fit(self):
        points = [(10, 100), (20, 210), (30, 290)]
        text = format_scatter(points, "x", "y", title="scaling")
        assert "scaling" in text
        for x, y in points:
            assert str(x) in text and str(y) in text
        assert "linear fit" in text
        assert "rms residual" in text

    def test_single_point_no_fit(self):
        text = format_scatter([(5, 10)], "x", "y")
        assert "linear fit" not in text

    # The Figure 5/6 inputs (work counts over the size-scaled synthetic
    # family) with the fit lines the numpy ``polyfit`` version printed for
    # them, as committed in benchmarks/results/fig{5,6}_*.txt.
    FIGURE_FITS = [
        (
            [(98, 1838), (194, 3738), (386, 7429), (770, 14567), (1538, 27288),
             (3074, 31808)],
            "linear fit: y = 10.365x + 3975.9  (rms residual 27.2% of mean)",
        ),
        (
            [(98, 1210), (194, 2546), (386, 5178), (770, 10358), (1538, 20261),
             (3074, 24123)],
            "linear fit: y = 7.957x + 2576.0  (rms residual 26.7% of mean)",
        ),
    ]

    @pytest.mark.parametrize("points,fit", FIGURE_FITS, ids=["fig5", "fig6"])
    def test_figure_fit_lines_unchanged(self, points, fit):
        text = format_scatter(points, "instructions", "evaluations")
        assert text.splitlines()[-1] == fit

    def test_scaling_family_renders_like_polyfit(self):
        np = pytest.importorskip("numpy")
        from repro.evalharness import measure_scaling

        points = [(i, e) for i, e, _ in measure_scaling([2, 4, 8])]
        xs = np.array([x for x, _ in points], dtype=float)
        ys = np.array([y for _, y in points], dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
        want = (
            f"linear fit: y = {slope:.3f}x + {intercept:.1f}  "
            f"(rms residual {100.0 * residual / float(np.mean(ys)):.1f}% of mean)"
        )
        assert format_scatter(points, "x", "y").splitlines()[-1] == want

    def test_fit_line_matches_polyfit(self):
        np = pytest.importorskip("numpy")
        import random

        rng = random.Random(5)
        for _ in range(200):
            xs = sorted(rng.sample(range(1, 5000), rng.randint(2, 12)))
            points = [(x, rng.randint(0, 40000)) for x in xs]
            want = np.polyfit(
                np.array(xs, dtype=float), np.array([y for _, y in points], dtype=float), 1
            )
            assert fit_line(points) == pytest.approx(tuple(want), rel=1e-9, abs=1e-6)

    def test_constant_x_fits_the_mean(self):
        text = format_scatter([(4, 10), (4, 20)], "x", "y")
        assert text.splitlines()[-1].startswith("linear fit: y = 0.000x + 15.0")
