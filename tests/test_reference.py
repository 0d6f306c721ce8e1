import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy import stats
from scipy.linalg import solve_triangular

from georst import (Family, InvalidInputError, ReferenceModel,
                    estimate_covariance)
from georst.runner import RunConfig, build_context

from conftest import generate_toy_inputs


def test_mahalanobis_known_value(correlated_model):
    # closed form for sigma = [[1, .5], [.5, 1]] at s = (1, 1)
    s = np.array([1.0, 1.0])
    assert correlated_model.mahalanobis_sq(s) == pytest.approx(4.0 / 3.0,
                                                               abs=1e-12)


def test_whiten_round_trip(correlated_model):
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.standard_normal(2)
        y = correlated_model.whiten(s)
        assert correlated_model.unwhiten(y) == pytest.approx(s, abs=1e-12)
        assert correlated_model.mahalanobis_sq(s) == pytest.approx(
            float(y @ y), abs=1e-12)


def test_whiten_many_matches_scalar(correlated_model):
    S = np.random.default_rng(2).standard_normal((10, 2))
    Y = correlated_model.whiten_many(S)
    for row_s, row_y in zip(S, Y):
        assert correlated_model.whiten(row_s) == pytest.approx(row_y, abs=1e-12)
    m2 = correlated_model.mahalanobis_sq_many(S)
    assert m2 == pytest.approx([correlated_model.mahalanobis_sq(r) for r in S])


def test_gaussian_tail_d2_closed_form(identity_model):
    # relative accuracy far into the tail, where 1 - cdf cancels to 0
    for m2 in np.arange(0.1, 200.01, 0.5):
        assert identity_model.tail_probability(m2) == pytest.approx(
            math.exp(-m2 / 2.0), rel=1e-12, abs=0.0)


def test_student_t_tail_is_the_scaled_fisher_survival_function():
    for d, nu in ((2, 3.0), (4, 6.0), (8, 6.0), (8, 30.0)):
        model = ReferenceModel.from_covariance(np.eye(d),
                                               family=Family.STUDENT_T, nu=nu)
        for m2 in np.logspace(-1.0, 7.0, 33):
            assert model.tail_probability(m2) == pytest.approx(
                stats.f.sf(m2 / d, d, nu), rel=1e-12, abs=0.0)


def test_gaussian_tail_one_factor_closed_form():
    # P(chi2_1 >= 1) = 2 * (1 - Phi(1))
    from georst.special_functions import chi2_cdf

    assert 1.0 - chi2_cdf(1.0, 1) == pytest.approx(0.3173105078629141,
                                                   abs=1e-10)


def test_gaussian_tail_quoted_percentile(identity_model):
    # exp(-m2/2) = 0.01 at m2 = 2 ln 100
    m2 = 2.0 * math.log(100.0)
    assert identity_model.tail_probability(m2) == pytest.approx(
        0.01, rel=1e-12, abs=0.0)


def test_student_t_neg_log_density_known_value():
    model = ReferenceModel.from_covariance(np.eye(2), family=Family.STUDENT_T,
                                           nu=6.0)
    # ((nu + d) / 2) * log(1 + m2 / nu) at nu=6, d=2, m2=3
    assert model.neg_log_density_from_m2(3.0) == pytest.approx(
        4.0 * math.log(1.5), abs=1e-14)


def test_student_t_tail_monotone_in_nu():
    # heavier tails (smaller nu) give larger exceedance probability at
    # fixed m2 > d
    m2 = 9.0
    tails = []
    for nu in (3.0, 6.0, 30.0):
        model = ReferenceModel.from_covariance(np.eye(2),
                                               family=Family.STUDENT_T, nu=nu)
        tails.append(model.tail_probability(m2))
    assert tails[0] > tails[1] > tails[2]
    # nu -> inf approaches the Gaussian tail from above
    gauss = ReferenceModel.from_covariance(np.eye(2))
    assert tails[2] > gauss.tail_probability(m2)


def test_neg_log_density_monotone_in_m2():
    for family, nu in ((Family.GAUSSIAN, None), (Family.STUDENT_T, 5.0)):
        model = ReferenceModel.from_covariance(np.eye(2), family=family, nu=nu)
        vals = [model.neg_log_density_from_m2(m2) for m2 in (0.0, 1.0, 4.0, 9.0)]
        assert vals == sorted(vals)
        assert all(np.diff(vals) > 0)


def test_plausibility_score_fields(correlated_model):
    score = correlated_model.plausibility(np.array([1.0, 1.0]))
    assert score.mahalanobis_sq == pytest.approx(4.0 / 3.0)
    assert score.tail_probability == pytest.approx(
        math.exp(-score.mahalanobis_sq / 2.0), abs=1e-12)
    assert score.rarity == pytest.approx(-math.log10(score.tail_probability))


def test_invalid_covariance_rejected():
    with pytest.raises(InvalidInputError):
        ReferenceModel.from_covariance(np.array([[1.0, 0.9], [0.2, 1.0]]))
    with pytest.raises(InvalidInputError):
        ReferenceModel.from_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        ReferenceModel.from_covariance(np.eye(2), family=Family.STUDENT_T,
                                       nu=None)


def test_estimate_covariance_matches_numpy():
    X = np.random.default_rng(3).standard_normal((200, 3))
    model = estimate_covariance(X, ridge=0.0)
    assert model.sigma == pytest.approx(np.cov(X, rowvar=False), abs=1e-12)


def test_estimate_covariance_needs_enough_rows():
    with pytest.raises(InvalidInputError):
        estimate_covariance(np.zeros((3, 3)))


def test_estimate_covariance_ridge_rescues_degenerate_history():
    col = np.random.default_rng(4).standard_normal(50)
    X = np.column_stack([col, col])  # rank deficient
    model = estimate_covariance(X)
    assert np.all(np.isfinite(model.chol))
    assert model.mahalanobis_sq(np.array([1.0, -1.0])) > 0


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-6, 1e6))
def test_whiten_round_trip_property(d, seed, scale):
    # a well-conditioned covariance (eigenvalues in [0.5, 0.5 + d]) keeps the
    # round-off of the triangular solve and product near machine precision
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    model = ReferenceModel.from_covariance(a @ a.T / d + 0.5 * np.eye(d))
    s = scale * rng.standard_normal(d)
    back = model.unwhiten(model.whiten(s))
    assert np.linalg.norm(back - s) <= 1e-12 * np.linalg.norm(s)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 12), n=st.one_of(st.just(1), st.integers(0, 200)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_geometry_of_a_block_equals_its_rows(d, n, seed):
    # one body serves a scenario and a block: each row's m^2 and whitened
    # vector do not depend on the block they sit in
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    model = ReferenceModel.from_covariance(a @ a.T + 1e-3 * np.eye(d))
    S = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, (n, 1))
    m2 = model.mahalanobis_sq(S)
    assert m2.shape == (n,)
    assert m2.tobytes() == np.array(
        [model.mahalanobis_sq(s) for s in S]).tobytes()
    assert model.whiten(S).tobytes() == np.array(
        [model.whiten(s) for s in S]).reshape(n, d).tobytes()


def test_whiten_of_a_block_equals_its_rows_on_the_workload_covariances(
        tmp_path):
    # whiten is one einsum body over the inverse factor: on each benchmark
    # workload's seed-0 covariance, row i of a block of 800 N(0, sigma)
    # draws whitens to whiten(S[i]) bit for bit; whiten leaves its input
    # alone and keeps the whiten_many name
    for workload in ("design-large-n", "scenario-list-sector"):
        model = build_context(RunConfig.from_file(generate_toy_inputs(
            workload, tmp_path / workload))).model
        d = model.d
        rng = np.random.default_rng(8)
        S = rng.multivariate_normal(np.zeros(d), model.sigma, size=800)
        before = S.copy()
        Y = model.whiten(S)
        assert Y.shape == (800, d) and Y.flags.c_contiguous
        for s, y in zip(S, Y):
            assert model.whiten(s).tobytes() == y.tobytes()
        assert S.tobytes() == before.tobytes()
        assert np.abs(Y - solve_triangular(model.chol, S.T, lower=True).T
                      ).max() <= 1e-12 * np.abs(Y).max()
        assert model.whiten(np.empty((0, d))).shape == (0, d)
        assert model.whiten_many(S).tobytes() == Y.tobytes()


def test_whiten_raises_on_a_singular_factor():
    model = ReferenceModel(sigma=np.eye(2), chol=np.diag([1.0, 0.0]))
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
        model.whiten(np.ones(2))

@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 8), n=st.integers(0, 50),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-6, 1e6))
def test_unwhiten_of_a_block_equals_its_rows(d, n, seed, scale):
    # unwhiten is one einsum body: row i of a block equals the one-point
    # result bit for bit, and whitening undoes it to round-off; Sigma is
    # random SPD with eigenvalues in [0.5, 0.5 + d]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    model = ReferenceModel.from_covariance(a @ a.T / d + 0.5 * np.eye(d))
    Y = scale * rng.standard_normal((n, d))
    S = model.unwhiten(Y)
    assert S.shape == (n, d)
    assert S.tobytes() == np.array(
        [model.unwhiten(y) for y in Y]).reshape(n, d).tobytes()
    for y in Y:
        back = model.whiten(model.unwhiten(y))
        assert np.linalg.norm(back - y) <= 1e-12 * np.linalg.norm(y)


def test_geometry_takes_one_validated_shape(correlated_model):
    assert isinstance(correlated_model.mahalanobis_sq([1.0, 1.0]), float)
    for bad in ([1.0, 1.0, 1.0], [[1.0, np.nan]], [[[1.0, 1.0]]]):
        with pytest.raises(InvalidInputError):
            correlated_model.mahalanobis_sq(bad)
        with pytest.raises(InvalidInputError):
            correlated_model.whiten(bad)
