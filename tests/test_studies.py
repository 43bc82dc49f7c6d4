import concurrent.futures

import pytest

from diracsea.errors import InvalidParameter
from diracsea.studies import (
    LambdaSpec,
    ProbeSpec,
    StudyKind,
    nearest_physical_eigenvalue,
    run_study,
)


class TestLambdaSelection:
    def test_nearest_physical_eigenvalue(self):
        assert nearest_physical_eigenvalue(1.0) == 1.5
        assert nearest_physical_eigenvalue(6.31) == 6.5
        assert nearest_physical_eigenvalue(6.8) == 6.5
        assert nearest_physical_eigenvalue(-4.0) == -4.5 or \
            nearest_physical_eigenvalue(-4.0) == -3.5
        assert abs(nearest_physical_eigenvalue(-7.2)) == 7.5

    def test_specs(self):
        assert LambdaSpec(kind="fixed", value=2.5).resolve(100.0) == 2.5
        lam = LambdaSpec(kind="track_mrmax", k=1.0).resolve(10.0)
        assert lam % 0.5 == 0 and lam % 1.0 != 0 and abs(lam - 10.0) <= 0.5
        lam = LambdaSpec(kind="track_power", exponent=0.8).resolve(10.0)
        assert lam == 6.5
        with pytest.raises(InvalidParameter):
            LambdaSpec(kind="nope").resolve(10.0)


class TestRunStudy:
    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            run_study(StudyKind.S_WKB_BOUND, [])
        with pytest.raises(InvalidParameter):
            run_study(StudyKind.S_WKB_BOUND, [10.0, 5.0])
        with pytest.raises(InvalidParameter):
            run_study(StudyKind.S_WKB_BOUND, [0.5, 10.0])

    @pytest.mark.parametrize("kind", list(StudyKind))
    @pytest.mark.parametrize("tols,match", [
        ({"ode_tol": 5.0, "quad_tol": -1.0, "gap_tol": -1.0}, "ode tolerance"),
        ({"quad_tol": -1.0, "gap_tol": -1.0}, "quadrature tolerance"),
        ({"gap_tol": -1.0}, "gap_tol"),
    ], ids=["ode_first", "quad_next", "gap_last"])
    def test_every_tolerance_is_checked_whatever_the_kind_reads(self, kind, tols, match):
        with pytest.raises(InvalidParameter, match=match):
            run_study(kind, [5.0, 10.0], **tols)

    def test_s_wkb_envelope_small_grid(self):
        res = run_study(StudyKind.S_WKB_BOUND, [5.0, 10.0],
                        lam_spec=LambdaSpec(kind="fixed", value=1.5))
        assert res.passed
        assert len(res.records) == 2
        rec = res.records[0]
        # the fit point sits exactly on the envelope divided by the slack
        assert rec.measured == pytest.approx(
            rec.envelope / (1 + res.slack), rel=1e-12)
        rec = res.records[1]
        assert rec.lam / rec.m_rmax == pytest.approx(0.15)

    def test_p_wkb_with_tracked_lambda(self):
        res = run_study(StudyKind.P_WKB_BOUND, [5.0, 10.0],
                        lam_spec=LambdaSpec(kind="track_mrmax", k=1.0),
                        probe=ProbeSpec())
        assert res.passed
        for rec in res.records:
            assert abs(rec.lam) <= 1.0 * rec.m_rmax + 0.5

    def test_leading_term_bound(self):
        res = run_study(StudyKind.LEADING_TERM_BOUND, [10.0, 30.0],
                        lam_spec=LambdaSpec(kind="fixed", value=1.5),
                        leading_r_max=1.0)
        assert res.passed
        # the residual shrinks like 1/mass, so the log-log slope is near -1
        assert res.slope < -0.6

    def test_leading_term_bound_reaches_asymptotic_regime(self):
        # the Levin quadrature's cost does not grow with m * r_max, so the
        # 1/m envelope can be checked out to m = 1e5
        res = run_study(StudyKind.LEADING_TERM_BOUND, [10.0, 1e3, 1e5],
                        lam_spec=LambdaSpec(kind="fixed", value=1.5))
        assert res.passed
        assert res.slope < -1.0

    def test_w_deviation_tracked(self):
        res = run_study(StudyKind.W_DEVIATION, [5.0, 10.0],
                        lam_spec=LambdaSpec(kind="track_power", exponent=0.8))
        assert res.passed
        assert all(rec.measured < 0.2 for rec in res.records)

    def test_parallel_jobs_match_serial(self):
        kwargs = dict(lam_spec=LambdaSpec(kind="fixed", value=1.5))
        serial = run_study(StudyKind.S_WKB_BOUND, [5.0, 8.0, 12.0], **kwargs)
        parallel = run_study(StudyKind.S_WKB_BOUND, [5.0, 8.0, 12.0],
                             jobs=3, **kwargs)
        for a, b in zip(serial.records, parallel.records):
            assert a.measured == b.measured
            assert a.envelope == b.envelope

    def test_workers_never_outnumber_the_points(self, monkeypatch):
        # a pool starts all of its workers at once; this stand-in records how
        # many were asked for and runs the tasks in this process
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        # run_study imports the pool only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        kwargs = dict(lam_spec=LambdaSpec(kind="fixed", value=1.5))
        grid = [10.0, 20.0, 30.0, 40.0]
        pooled = run_study(StudyKind.LEADING_TERM_BOUND, grid, jobs=64, **kwargs)
        assert asked == [3]
        assert pooled == run_study(StudyKind.LEADING_TERM_BOUND, grid, **kwargs)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(InvalidParameter, match="jobs"):
            run_study(StudyKind.S_WKB_BOUND, [5.0, 10.0], jobs=jobs)

    @pytest.mark.parametrize("slack", [-2.0, float("nan"), float("inf")])
    def test_slack_must_be_finite_and_nonnegative(self, slack):
        # a negative slack puts the fit point outside its own envelope
        with pytest.raises(InvalidParameter, match="slack"):
            run_study(StudyKind.LEADING_TERM_BOUND, [10.0, 30.0], slack=slack)
