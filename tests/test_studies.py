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

    def test_s_wkb_envelope_small_grid(self):
        res = run_study(StudyKind.S_WKB_BOUND, [5.0, 10.0],
                        lam_spec=LambdaSpec(kind="fixed", value=1.5))
        assert res.passed
        assert len(res.records) == 2
        rec = res.records[0]
        # the fit point sits exactly on the envelope divided by the slack
        assert rec.measured == pytest.approx(
            rec.envelope / (1 + res.slack), rel=1e-12)
        assert res.records[1].lambda_ratio == pytest.approx(0.15)

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
