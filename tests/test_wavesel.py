"""Band selection: exclusion, correlation init, greedy forward search,
covariance-procedure rounds, and round reordering."""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectral_sift import wavesel
from spectral_sift.pls import DegenerateDataError, fit_simpls
from spectral_sift.preprocess import apply_scale, fit_scale, scaled_cross_product
from spectral_sift.wavesel import (
    TIE_RTOL,
    SelectionReport,
    covproc_select,
    exclude_tail,
    init_by_correlation,
    r2_forward_select,
    reorder_rounds,
)

from pls_oracle import covproc_select_x_form, predict


def cross_product(X, y):
    """The autoscaled cross-product of [X | y] that band selection reads,
    summed from one tile."""
    return scaled_cross_product((np.column_stack((X, y)),))[1]

# ---------------------------------------------------------------------------
# independent inner model for the greedy oracle: NIPALS PLS1 with deflation,
# a different algorithm that agrees with SIMPLS for a univariate response
# ---------------------------------------------------------------------------


def nipals_pls1_predict(X, y, a):
    mx, sx = X.mean(axis=0), X.std(axis=0, ddof=1)
    sx = np.where(sx < 1e-12, 1.0, sx)
    my, sy = y.mean(), y.std(ddof=1)
    Xd = (X - mx) / sx
    yd = (y - my) / sy
    Xw = Xd.copy()
    W, P, Q = [], [], []
    for _ in range(a):
        w = Xd.T @ yd
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            break
        w = w / norm
        t = Xd @ w
        tt = float(t @ t)
        P.append(Xd.T @ t / tt)
        Q.append(float(yd @ t / tt))
        W.append(w)
        Xd = Xd - np.outer(t, P[-1])
        yd = yd - Q[-1] * t
    if not W:  # nothing to extract: predict the mean
        return np.full(len(X), my)
    W, P, Q = np.column_stack(W), np.column_stack(P), np.array(Q)
    b = W @ np.linalg.solve(P.T @ W, Q)
    return (Xw @ b) * sy + my


def oracle_greedy(X, y, target, lv=5, init=(), exclude=()):
    selected = list(init)
    usable = [b for b in range(X.shape[1]) if b not in set(exclude)]
    tss = float(np.sum((y - y.mean()) ** 2))
    picks = []
    while len(selected) < target:
        best = (-np.inf, None)
        for band in usable:
            if band in selected:
                continue
            cols = selected + [band]
            a = min(lv, len(cols), X.shape[0] - 1)
            yhat = nipals_pls1_predict(X[:, cols], y, a)
            r2 = 1.0 - float(np.sum((y - yhat) ** 2)) / tss
            if r2 > best[0]:
                best = (r2, band)
        selected.append(best[1])
        picks.append(best)
    return selected, picks


# ---------------------------------------------------------------------------
# the per-candidate refit loop that r2_forward_select's batched cross-product
# SIMPLS replaced, kept as its oracle: a full fit_simpls model per candidate
# on its autoscaled columns and y, stepping the factor count down while the
# cross-product is exhausted, and R^2 from the model's predictions in y's units
# ---------------------------------------------------------------------------


def reference_r2_steps(X, y, target_count, init=(), lv=5, exclude=()):
    """Selected bands, and per step the R^2 of every candidate in band order."""
    usable = [b for b in range(X.shape[1]) if b not in set(exclude)]
    selected = list(init)
    tss = float(np.sum((y - y.mean()) ** 2))
    y_scale = fit_scale(y[:, None])
    ys = apply_scale(y_scale, y[:, None])
    steps = []
    while len(selected) < target_count:
        bands = [b for b in usable if b not in selected]
        r2s = []
        for band in bands:
            cols = selected + [band]
            Xs = apply_scale(fit_scale(X[:, cols]), X[:, cols])
            a = min(lv, len(cols), X.shape[0] - 1)
            model = None
            while model is None and a >= 1:
                try:
                    model = fit_simpls(Xs, ys, a)
                except DegenerateDataError:
                    a -= 1
            if model is None:  # no covariance with y even at one factor
                r2s.append(0.0)
            else:
                yhat = predict(model, Xs)[:, 0] * y_scale.stds[0] + y_scale.means[0]
                r2s.append(1.0 - float(np.sum((y - yhat) ** 2)) / tss)
        r2s = np.array(r2s)
        i = int(np.flatnonzero(r2s.max() - r2s <= TIE_RTOL * abs(r2s.max()))[0])
        selected.append(bands[i])
        steps.append(r2s)
    return selected, steps


def scaled_orthogonal_design(rng, n=40, p=8):
    raw = rng.normal(size=(n, p))
    Q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    return Q * np.sqrt(n - 1)  # unit-variance centered orthogonal columns


class TestExcludeTail:
    def test_detector_tail(self):
        excluded = exclude_tail(204, 10)
        assert excluded == set(range(194, 204))

    def test_zero_tail(self):
        assert exclude_tail(50, 0) == set()

    def test_whole_range_rejected(self):
        with pytest.raises(ValueError, match="n_tail"):
            exclude_tail(10, 10)


class TestInitByCorrelation:
    def test_duplicated_response_ranks_first(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 10))
        y = rng.integers(0, 2, size=60).astype(float)
        X[:, 7] = y
        assert init_by_correlation(cross_product(X, y), m=3)[0] == 7

    def test_returns_m_distinct(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 12))
        y = rng.integers(0, 2, size=30).astype(float)
        picked = init_by_correlation(cross_product(X, y), m=3)
        assert len(picked) == 3 and len(set(picked)) == 3

    def test_matches_bruteforce_ranking(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 9))
        y = (X[:, 1] + 0.3 * rng.normal(size=50) > 0).astype(float)
        rhos = [abs(np.corrcoef(X[:, j], y)[0, 1]) for j in range(9)]
        oracle = sorted(range(9), key=lambda j: (-rhos[j], j))[:4]
        assert init_by_correlation(cross_product(X, y), m=4) == oracle

    def test_respects_exclusion(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 2, size=40).astype(float)
        X[:, 5] = y
        picked = init_by_correlation(cross_product(X, y), m=2, exclude={5})
        assert 5 not in picked

    def test_m_too_large_rejected(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, size=20).astype(float)
        with pytest.raises(ValueError, match="usable"):
            init_by_correlation(cross_product(X, y), m=4)


class TestR2Forward:
    def test_exact_single_band(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 8))
        y = X[:, 5].copy()
        report = r2_forward_select(cross_product(X, y), target_count=1)
        assert report.selected == [5]
        assert report.trace[0] == pytest.approx(1.0, abs=1e-10)

    def test_two_orthogonal_sources(self):
        # bands 2 and 9 tie exactly at step 1; seed 6 rounds in favour of band
        # 2, seed 4 in favour of band 9, and the lower band must win either way;
        # the other bands have no covariance with y and score R^2 = 0 silently
        for seed in (6, 4):
            rng = np.random.default_rng(seed)
            X = scaled_orthogonal_design(rng, n=50, p=10)
            y = X[:, 2] + X[:, 9]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = r2_forward_select(cross_product(X, y), target_count=2)
            assert report.selected == [2, 9], seed
            # exhaustive 2-subset oracle agrees that this pair is the best
            best_pair, best_r2 = None, -np.inf
            tss = float(np.sum((y - y.mean()) ** 2))
            for i in range(10):
                for j in range(i + 1, 10):
                    yhat = nipals_pls1_predict(X[:, [i, j]], y, 2)
                    r2 = 1.0 - float(np.sum((y - yhat) ** 2)) / tss
                    if r2 > best_r2:
                        best_pair, best_r2 = {i, j}, r2
            assert best_pair == {2, 9}, seed

    def test_matches_exhaustive_greedy_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n, p = 40, 12
            X = rng.normal(size=(n, p))
            beta = np.zeros(p)
            beta[rng.choice(p, size=4, replace=False)] = rng.normal(size=4)
            y = X @ beta + 0.3 * rng.normal(size=n)
            report = r2_forward_select(cross_product(X, y), target_count=6)
            oracle_sel, oracle_picks = oracle_greedy(X, y, target=6)
            assert report.selected == oracle_sel
            np.testing.assert_allclose(
                report.trace, [r for r, _ in oracle_picks], atol=1e-8
            )

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 10))
        y = X @ rng.normal(size=10) + rng.normal(size=50)
        report = r2_forward_select(cross_product(X, y), target_count=5)
        assert np.all(np.diff(report.trace) >= -1e-12)

    def test_exclusion_honored(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 8))
        y = X[:, 6].copy()
        report = r2_forward_select(cross_product(X, y), target_count=3, exclude={6})
        assert 6 not in report.selected

    def test_init_respected_and_counted(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 8))
        y = X @ rng.normal(size=8)
        report = r2_forward_select(cross_product(X, y), target_count=4, init=[1, 3])
        assert report.selected[:2] == [1, 3]
        assert len(report.selected) == 4

    def test_target_count_must_exceed_the_init_size(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 10))
        y = X @ rng.normal(size=10)
        cross = cross_product(X, y)
        for target_count in (1, 2):
            with pytest.raises(ValueError, match=r"target_count must be in \[3, 10\]"):
                r2_forward_select(cross, target_count=target_count, init=[1, 3])
        assert r2_forward_select(cross, target_count=3, init=[1, 3]).selected[:2] == [1, 3]


def random_design(rng, n=60, p=12):
    X = rng.normal(size=(n, p)) @ (np.eye(p) + 0.5 * rng.normal(size=(p, p)))
    return X, X @ rng.normal(size=p) + rng.normal(size=n)


def duplicated_band_design(rng, n=60):
    X, _ = random_design(rng, n=n)
    X[:, 7] = X[:, 2]
    return X, 3.0 * X[:, 2] + X[:, 5] + 0.2 * rng.normal(size=X.shape[0])


def linear_combination_design(rng):
    X, _ = random_design(rng)
    X[:, 9] = X[:, 0] - 2.0 * X[:, 4]
    return X, X[:, 0] - X[:, 4] + 0.5 * X[:, 6] + 0.2 * rng.normal(size=X.shape[0])


def constant_band_design(rng):
    X, y = random_design(rng)
    X[:, 3] = 0.3
    return X, y


def wide_design(rng):  # fewer rows than bands
    return random_design(rng, n=9, p=14)


def orthogonal_tie_design(seed):
    X = scaled_orthogonal_design(np.random.default_rng(seed), n=50, p=10)
    return X, X[:, 2] + X[:, 9]


ORACLE_DESIGNS = {
    "random": lambda: random_design(np.random.default_rng(20)),
    "duplicated-band": lambda: duplicated_band_design(np.random.default_rng(21)),
    # the exhausted factor's score norm grows with the rows, as its bound must:
    # a bound of 1e-12 max(||X|| / max(1, ||y||), 1) missed it here
    "duplicated-band-600": lambda: duplicated_band_design(np.random.default_rng(21), n=600),
    "linear-combination": lambda: linear_combination_design(np.random.default_rng(22)),
    "constant-band": lambda: constant_band_design(np.random.default_rng(23)),
    "n-below-p": lambda: wide_design(np.random.default_rng(24)),
    # 5 rows hold 4 factors at most: the oracle caps the factors at n - 1, and
    # r2 must find the ones past them dead
    "rows-below-lv": lambda: random_design(np.random.default_rng(28), n=5),
    "orthogonal-tie-6": lambda: orthogonal_tie_design(6),
    "orthogonal-tie-4": lambda: orthogonal_tie_design(4),
}


class TestR2AgainstRefitOracle:
    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_every_candidate_r2(self, design, monkeypatch):
        X, y = ORACLE_DESIGNS[design]()
        seen = []  # the candidate R^2 array of every step, in band order
        first_near_max = wavesel._first_near_max

        def record(values):
            seen.append(np.array(values))
            return first_near_max(values)

        monkeypatch.setattr(wavesel, "_first_near_max", record)
        report = r2_forward_select(cross_product(X, y), target_count=8, init=[1])
        oracle_sel, steps = reference_r2_steps(X, y, target_count=8, init=[1])
        assert report.selected == oracle_sel
        assert len(seen) == len(steps) == 7
        for r2, oracle_r2 in zip(seen, steps):
            np.testing.assert_allclose(r2, oracle_r2, rtol=1e-9)
        np.testing.assert_allclose(report.trace, [r2.max() for r2 in seen], rtol=1e-12)

    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_picks_do_not_depend_on_the_row_count(self, design):
        # k-fold repeated rows multiply the cross-product by about k: the R^2 of
        # each step must not move, so a dead factor's bound must grow as its
        # rounding-level score does, with trace(C) sqrt(y'y) (a bound of 1e-12
        # max(||X|| max(1, ||y||), 1) kept dead factors and changed the picks
        # of 5 of these designs at k = 1e8, and of a sixth at 1e12)
        X, y = ORACLE_DESIGNS[design]()
        cross = cross_product(X, y)
        report = r2_forward_select(cross, target_count=8, init=[1])
        for k in (1e4, 1e8, 1e12):
            scaled = r2_forward_select(k * cross, target_count=8, init=[1])
            assert scaled.selected == report.selected, k
            np.testing.assert_allclose(scaled.trace, report.trace, rtol=1e-9)

    def test_non_finite_input_rejected(self):
        # a NaN or Inf in X or y makes the cross-product's column NaN
        X, y = random_design(np.random.default_rng(25))
        X[3, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            r2_forward_select(cross_product(X, y), target_count=2)
        X[3, 4] = 0.0
        y[0] = np.inf
        with np.errstate(invalid="ignore"):  # inf - inf while centering
            cross = cross_product(X, y)
        with pytest.raises(ValueError, match="finite"):
            r2_forward_select(cross, target_count=2)

    def test_no_latent_variables_rejected(self):
        X, y = random_design(np.random.default_rng(26))
        with pytest.raises(ValueError, match="lv"):
            r2_forward_select(cross_product(X, y), target_count=2, lv=0)


class TestCovproc:
    def test_single_informative_column(self):
        rng = np.random.default_rng(12)
        X = scaled_orthogonal_design(rng, n=45, p=7)
        y = 2.0 * X[:, 3]
        report = covproc_select(cross_product(X, y), rounds=1)
        assert report.rounds[0].variables == [3]
        assert report.rounds[0].chosen_n == 1
        # enumeration oracle: recompute alpha for every prefix directly; with
        # y = c x_3 and x_3'x_3 = n - 1 every prefix has alpha = 1 / (n - 1)
        # in exact arithmetic, so only the tie rule makes band 3 alone win
        w = X.T @ y
        order = sorted(range(7), key=lambda j: (-abs(w[j]), j))
        alphas = []
        w_r = np.zeros(7)
        for i, band in enumerate(order):
            w_r[band] = y @ X[:, band]
            t = X @ w_r
            alphas.append(abs(y @ t) / (t @ t))
        np.testing.assert_allclose(alphas, 1.0 / 44, rtol=1e-12)
        np.testing.assert_allclose(report.rounds[0].alphas, 1.0 / 44, rtol=1e-12)

    def test_alphas_match_direct_formula(self):
        # covproc autoscales X and centres y itself; the oracle works on both done by hand
        rng = np.random.default_rng(13)
        for trial in range(10):
            n, p = 35, 10
            raw = rng.normal(size=(n, p)) @ (np.eye(p) + 0.4 * rng.normal(size=(p, p)))
            scale = fit_scale(raw)
            X = apply_scale(scale, raw)
            raw_y = X @ rng.normal(size=p) + 0.5 * rng.normal(size=n) + 3.0
            y = raw_y - raw_y.mean()
            report = covproc_select(cross_product(raw, raw_y), rounds=3)
            Xd = X.copy()
            for rnd in report.rounds:
                w_full = Xd.T @ y
                order = np.argsort(-np.abs(w_full), kind="stable")
                w_r = np.zeros(p)
                for i, band in enumerate(order):
                    w_r[band] = float(y @ Xd[:, band])
                    t = Xd @ w_r
                    tt = float(t @ t)
                    alpha = abs(float(y @ t)) / tt if tt > 0 else np.nan
                    np.testing.assert_allclose(rnd.alphas[i], alpha, atol=1e-10)
                best = np.nanmax(rnd.alphas)
                near = np.flatnonzero(best - rnd.alphas <= TIE_RTOL * best)
                assert rnd.chosen_n == int(near[0]) + 1  # smallest near-maximal prefix
                assert rnd.variables == [int(b) for b in order[: rnd.chosen_n]]
                w_keep = np.zeros(p)
                for band in rnd.variables:
                    w_keep[band] = float(y @ Xd[:, band])
                t = Xd @ w_keep
                Xd = Xd - np.outer(t, Xd.T @ t / float(t @ t))

    def test_deflation_kills_round_score_covariance(self):
        rng = np.random.default_rng(14)
        raw = rng.normal(size=(40, 8)) + 2.0
        scale = fit_scale(raw)
        X = apply_scale(scale, raw)
        y = X @ rng.normal(size=8)
        y = y - y.mean()
        report = covproc_select(cross_product(raw, y), rounds=2)
        # recompute round-1 score on the original matrix, then deflate
        w_r = np.zeros(8)
        for band in report.rounds[0].variables:
            w_r[band] = float(y @ X[:, band])
        t1 = X @ w_r
        X1 = X - np.outer(t1, X.T @ t1 / float(t1 @ t1))
        np.testing.assert_allclose(X1.T @ t1, 0.0, atol=1e-8)
        # and the round-2 score is orthogonal to the round-1 score
        w_2 = np.zeros(8)
        for band in report.rounds[1].variables:
            w_2[band] = float(y @ X1[:, band])
        t2 = X1 @ w_2
        assert abs(t1 @ t2) <= 1e-8 * np.linalg.norm(t1) * np.linalg.norm(t2)

    def test_exclusion_honored(self):
        rng = np.random.default_rng(16)
        raw = rng.normal(size=(40, 6))
        X = apply_scale(fit_scale(raw), raw)
        y = X[:, 5] + 0.1 * rng.normal(size=40)
        y = y - y.mean()
        report = covproc_select(cross_product(X, y), rounds=2, exclude={5})
        assert 5 not in report.selected
        for rnd in report.rounds:
            assert 5 not in rnd.variables

    def test_degenerate_response_direction(self):
        rng = np.random.default_rng(17)
        X = scaled_orthogonal_design(rng, n=30, p=5)
        # y orthogonal to every column: the one-factor fit cannot start
        q_full, _ = np.linalg.qr(np.hstack([X, rng.normal(size=(30, 1))]))
        y = q_full[:, 5] - q_full[:, 5].mean()
        # in any units of y: the score of rounding-level covariances scales with
        # y, as its bound must (a bound of 1e-12 max(||X|| / max(1, ||y||), 1)
        # missed it at 1e6)
        for units in (1.0, 1e-6, 1e6):
            with pytest.raises(DegenerateDataError, match="round 1: .* give no score"):
                covproc_select(cross_product(X, units * y), rounds=1)
        # and at any row count: k-fold repeated rows multiply the cross-product
        # by about k, and that score by k^1.5, as trace(C) sqrt(y'y) grows (a
        # bound of 1e-12 max(||X|| max(1, ||y||), 1) missed it at k = 1e8)
        for k in (1e4, 1e8, 1e12):
            with pytest.raises(DegenerateDataError, match="round 1: .* give no score"):
                covproc_select(k * cross_product(X, y), rounds=1)

    @staticmethod
    def simpls_order(X, y, usable):
        """Oracle: usable bands by descending |one-factor SIMPLS weight| on X."""
        weights = fit_simpls(X[:, usable], y, a=1).weights[:, 0]
        return [usable[i] for i in np.argsort(-np.abs(weights), kind="stable")]

    def check_rounds_against_simpls(self, raw, y, report, usable):
        X = apply_scale(fit_scale(raw), raw)
        y = y - y.mean()
        for rnd in report.rounds:
            assert rnd.variables == self.simpls_order(X, y, usable)[: rnd.chosen_n]
            w = np.zeros(X.shape[1])
            for band in rnd.variables:
                w[band] = float(y @ X[:, band])
            t = X @ w
            X = X - np.outer(t, X.T @ t / float(t @ t))

    def test_rounds_follow_the_one_factor_pls_weights(self):
        rng = np.random.default_rng(18)
        for trial in range(30):
            n, p = int(rng.integers(20, 80)), int(rng.integers(3, 25))
            raw = rng.normal(size=(n, p)) @ (np.eye(p) + 0.5 * rng.normal(size=(p, p)))
            y = raw @ rng.normal(size=p) + rng.normal(size=n)
            if trial % 2:
                y = (y > np.median(y)).astype(float)  # a bee/mite indicator
            exclude = set(rng.choice(p, size=p // 3, replace=False).tolist())
            rounds = min(3, p - len(exclude))
            report = covproc_select(cross_product(raw, y), rounds=rounds, exclude=exclude)
            usable = [b for b in range(p) if b not in exclude]
            self.check_rounds_against_simpls(raw, y, report, usable)

    def test_duplicated_band_tie_goes_to_the_lower_band(self):
        # each column is a shuffle of (2, -2, ..., 2, -2, 0): it autoscales to
        # exactly (1, -1, ..., 0), so with an integer centered y every round-1
        # covariance is an exact integer, and bands 2 and 6 tie exactly
        rng = np.random.default_rng(19)
        n, p = 41, 8
        base = np.array([2.0, -2.0] * (n // 2) + [0.0])
        raw = np.column_stack([rng.permutation(base) for _ in range(p)])
        raw[:, 6] = raw[:, 2]
        noise = rng.integers(-1, 2, size=n).astype(float)
        noise[0] -= noise.sum()  # sums to 0, so y - mean(y) stays an integer vector
        y = 3.0 * raw[:, 2] + noise + 7.0
        report = covproc_select(cross_product(raw, y), rounds=1)
        order = self.simpls_order(apply_scale(fit_scale(raw), raw), y - y.mean(), list(range(p)))
        assert order[:2] == [2, 6]
        assert report.rounds[0].variables[0] == 2
        self.check_rounds_against_simpls(raw, y, report, list(range(p)))

    @pytest.mark.parametrize("p, repeats", [
        *(pytest.param(p, 1, id=str(p)) for p in (3, 4, 6, 10, 20)),
        # 300 000 rows: the exhausted round's c'Cc rounds to about 0, either
        # side of it, and a square root of a value below 0 is NaN, which no
        # bound catches
        pytest.param(3, 10_000, id="3-rows-x10000"),
    ])
    def test_more_rounds_than_bands_exhaust_at_round_p_plus_1(self, p, repeats):
        # each round deflates X by one rank, so after p rounds nothing is left
        rng = np.random.default_rng(p)
        X, y = rng.normal(size=(30, p)), rng.normal(size=30)
        cross = cross_product(np.tile(X, (repeats, 1)), np.tile(y, repeats))
        assert len(covproc_select(cross, rounds=p).rounds) == p
        with pytest.raises(DegenerateDataError, match=f"round {p + 1}:"):
            covproc_select(cross, rounds=p + 1)

    @pytest.mark.parametrize("p", [3, 4, 20])
    def test_exhaustion_does_not_depend_on_the_row_count(self, p):
        # k-fold repeated rows multiply the cross-product by about k; the rounds
        # and their exhaustion stay (a bound of 1e-12 max(||X|| max(1, ||y||),
        # 1) missed round p + 1 at k = 1e8 for p = 4 and 20, at 1e12 for 3)
        rng = np.random.default_rng(p)
        X, y = rng.normal(size=(30, p)), rng.normal(size=30)
        cross = cross_product(X, y)
        report = covproc_select(cross, rounds=p)
        for k in (1e4, 1e8, 1e12):
            scaled = covproc_select(k * cross, rounds=p)
            assert [r.variables for r in scaled.rounds] == [r.variables for r in report.rounds]
            np.testing.assert_allclose(scaled.trace, np.array(report.trace) / k, rtol=1e-9)
            with pytest.raises(DegenerateDataError, match=f"round {p + 1}:"):
                covproc_select(k * cross, rounds=p + 1)

    def test_rounds_match_the_x_form_oracle(self):
        # the rounds on the cross-product are the rounds on X that deflate X
        rng = np.random.default_rng(27)
        for trial in range(30):
            n, p = int(rng.integers(20, 80)), int(rng.integers(3, 25))
            raw = rng.normal(size=(n, p)) @ (np.eye(p) + 0.5 * rng.normal(size=(p, p)))
            y = raw @ rng.normal(size=p) + rng.normal(size=n)
            if trial % 2:
                y = (y > np.median(y)).astype(float)  # a bee/mite indicator
            exclude = set(rng.choice(p, size=p // 3, replace=False).tolist())
            rounds = min(4, p - len(exclude))
            report = covproc_select(cross_product(raw, y), rounds=rounds, exclude=exclude)
            oracle = covproc_select_x_form(raw, y, rounds=rounds, exclude=exclude)
            assert report.selected == oracle.selected
            for rnd, expected in zip(report.rounds, oracle.rounds, strict=True):
                assert (rnd.variables, rnd.chosen_n) == (expected.variables, expected.chosen_n)
                np.testing.assert_allclose(rnd.alphas, expected.alphas, rtol=1e-9)
            np.testing.assert_allclose(report.trace, oracle.trace, rtol=1e-9)


class TestReorderRounds:
    def make_report(self):
        return SelectionReport(
            method="covproc",
            selected=[4, 1, 7, 2],
            excluded=[9],
            trace=[0.5, 0.4, 0.3],
            rounds=[
                type("R", (), {"index": 1, "variables": [4, 1]})(),
                type("R", (), {"index": 2, "variables": [7, 1]})(),
                type("R", (), {"index": 3, "variables": [2]})(),
            ],
        )

    def test_single_round_verbatim(self):
        assert reorder_rounds(self.make_report(), [1]) == [4, 1]

    def test_order_changes_sequence_not_set(self):
        r23 = reorder_rounds(self.make_report(), [2, 3])
        r32 = reorder_rounds(self.make_report(), [3, 2])
        assert r23 == [7, 1, 2]
        assert r32 == [2, 7, 1]
        assert set(r23) == set(r32)

    def test_deduplicates_preserving_first_occurrence(self):
        assert reorder_rounds(self.make_report(), [1, 2]) == [4, 1, 7]

    def test_unknown_round_rejected(self):
        with pytest.raises(ValueError, match="unknown round"):
            reorder_rounds(self.make_report(), [5])

    def test_non_covproc_report_rejected(self):
        report = SelectionReport(
            method="r2_forward", selected=[1], excluded=[], trace=[0.9]
        )
        with pytest.raises(ValueError, match="no rounds"):
            reorder_rounds(report, [1])


class TestSelectionReport:
    def test_invariants(self):
        with pytest.raises(ValueError, match="unique"):
            SelectionReport(method="r2_forward", selected=[1, 1], excluded=[], trace=[])
        with pytest.raises(ValueError, match="excluded"):
            SelectionReport(method="r2_forward", selected=[1], excluded=[1], trace=[])

    def test_to_dict_schema(self):
        report = SelectionReport(
            method="r2_forward", selected=[3, 0], excluded=[5],
            trace=[0.7, 0.9], wavelengths_nm=np.array([400.0, 450, 500, 550, 600, 650]),
        )
        doc = report.to_dict()
        assert doc["selected"] == [3, 0]
        assert doc["selected_nm"] == [550.0, 400.0]
        assert doc["excluded"] == [5]
        assert "rounds" not in doc


@pytest.mark.parametrize("best", [1e3, 1e-3, -1e3])
def test_near_tie_is_relative_to_the_best(best):
    # a value TIE_RTOL/2 of |best| below the best ties with it and, coming
    # first, wins; one 2 TIE_RTOL of |best| below does not, whatever |best|
    inside = best - 0.5 * TIE_RTOL * abs(best)
    outside = best - 2.0 * TIE_RTOL * abs(best)
    assert outside < inside < best
    assert wavesel._first_near_max(np.array([np.nan, outside, inside, best])) == 2
    assert wavesel._first_near_max(np.array([outside, best, inside])) == 1


def test_benchmark_near_tie_rtol_is_tie_rtol(monkeypatch):
    # bench/workloads.py keeps its own copy of the tie tolerance, and its
    # near_tie check means "decided by the tie rule" only while they agree
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.NEAR_TIE_RTOL == TIE_RTOL
