from avibound.ratios import (
    CMP_TOL,
    STABLE_REL_CHANGE,
    ZERO_OVER_ZERO_FLOOR,
    holdout,
    running_max,
)


class TestRunningMax:
    def test_witness_is_the_first_strict_maximum(self):
        reduced = running_max([0.5, 2.0, 1.0, 2.0, 0.0])
        assert reduced.c_emp == 2.0
        assert reduced.witness == 1

    def test_all_zero_ratios_have_no_witness_and_are_stable(self):
        reduced = running_max([0.0] * 10)
        assert reduced.c_emp == 0.0
        assert reduced.witness is None
        assert reduced.stable is True

    def test_empty_ratios(self):
        reduced = running_max([])
        assert (reduced.c_emp, reduced.witness, reduced.trace, reduced.stable) == (
            0.0, None, [], False,
        )

    def test_trace_checkpoints_double_and_end_at_the_last_count(self):
        ratios = [float(k) for k in range(1, 12)]
        assert running_max(ratios).trace == [
            (1, 1.0), (2, 2.0), (4, 4.0), (8, 8.0), (11, 11.0),
        ]
        # the last count is not repeated when it is itself a checkpoint
        assert [c for c, _ in running_max(ratios[:8]).trace] == [1, 2, 4, 8]
        assert running_max([3.0, 1.0, 2.0]).trace == [(1, 3.0), (2, 3.0), (3, 3.0)]

    def test_stable_at_exactly_five_percent(self):
        # 19 -> 20 is a growth of exactly 1/20 = 0.05 in binary arithmetic
        assert (20.0 - 19.0) / 20.0 == STABLE_REL_CHANGE
        assert running_max([1.0, 1.0, 1.0, 19.0] + [20.0] * 4).stable is True
        assert running_max([1.0, 1.0, 1.0, 19.0] + [20.01] * 4).stable is False

    def test_stability_compares_the_maximum_of_the_first_half(self):
        # the first half is the first 4 of 8 samples: its maximum is 1, not 19
        assert running_max([1.0] * 4 + [19.0] + [20.0] * 3).stable is False
        assert running_max([1.0] * 4 + [19.0] + [20.0] * 4).stable is False
        assert running_max([1.0] * 4 + [19.0] * 2 + [20.0] * 4).stable is True

    def test_stability_needs_eight_samples(self):
        assert running_max([1.0] * 7).stable is False
        assert running_max([1.0] * 8).stable is True


class TestHoldout:
    def test_bound_includes_the_comparison_slack(self):
        # bound = slack * c_emp * denominator + CMP_TOL = 1.0 * 1.0 * 2.0 + CMP_TOL
        samples = [(2.0 + CMP_TOL, 2.0, "at"), (2.0 + CMP_TOL / 2, 2.0, "inside"),
                   (2.0 + 2 * CMP_TOL, 2.0, "above")]
        report = holdout(samples, c_emp=1.0, slack=1.0)
        assert report.num_checked == 3
        assert report.violations == ["above"]
        assert not report.passed

    def test_slack_scales_the_constant(self):
        samples = [(3.0, 2.0, "a"), (2.0, 2.0, "b")]
        report = holdout(samples, c_emp=1.0, slack=1.5)
        assert report.passed
        assert (report.c_emp, report.slack, report.num_checked) == (1.0, 1.5, 2)
        report = holdout(samples, c_emp=1.0, slack=0.5)
        assert report.violations == ["a", "b"]

    def test_empty_sample_passes(self):
        report = holdout([], c_emp=1.0, slack=1.05)
        assert report.passed and report.num_checked == 0


def test_zero_over_zero_floor_scales_the_comparison_tolerance():
    # the reports write CMP_TOL as their tolerance and count the samples below
    # the floor, so both values are part of the report bytes
    assert CMP_TOL == 1e-6
    assert ZERO_OVER_ZERO_FLOOR == 10 * CMP_TOL
