"""Wavelength (band) selection on top of PLS.

Two selectors: a greedy forward search that adds whichever band raises the
training R^2 most, and a covariance-procedure search that works in rounds of
sorted one-factor PLS weights with an alpha = |y't| / (t't) prefix criterion
and X deflation between rounds.

The forward search reads the rows only to form its cross-products: SIMPLS
needs only X'X and X'y, and autoscaling is per column, so every candidate
band set is fitted from its block of the autoscaled C = X'X and s = X'y. The
scores are orthonormal, so the training R^2 is sum(q^2) / y'y, with no
regression coefficients. A factor whose score norm vanishes is dead: the
set's cross-product is exhausted (collinear or constant bands), and the set
keeps only the factors before it, as a refit with fewer factors would.

Both selectors honor an up-front excluded set (the unstable detector tail)
and break every tie toward the lower band index (the smaller prefix), where
scores within a relative ``TIE_RTOL`` of the best count as tied, so last-bit
rounding cannot decide the pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .pls import DegenerateDataError, fit_simpls
from .preprocess import apply_scale, fit_scale

METHOD_R2 = "r2_forward"
METHOD_COVPROC = "covproc"

#: latent-variable cap for the forward search's inner PLS models
DEFAULT_FORWARD_LV = 5

#: relative gap below which two R^2 values or two alphas count as tied
TIE_RTOL = 1e-12


@dataclass
class RoundTrace:
    """One covariance-procedure round: its sorted candidates and alpha curve."""

    index: int  # 1-based round number
    variables: list[int]  # bands chosen this round, in sorted-weight order
    alphas: np.ndarray  # alpha per prefix length (NaN where undefined)
    chosen_n: int


@dataclass
class SelectionReport:
    method: str
    selected: list[int]  # unique band indices in selection order
    excluded: list[int]
    # per-step R^2 of the added band (forward), or per-round alpha of the
    # chosen prefix, which may sit up to TIE_RTOL below the maximum (covproc)
    trace: list[float]
    rounds: list[RoundTrace] | None = None
    wavelengths_nm: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected band indices must be unique")
        if set(self.selected) & set(self.excluded):
            raise ValueError("selected bands intersect the excluded set")

    def selected_nm(self) -> list[float] | None:
        if self.wavelengths_nm is None:
            return None
        return [float(self.wavelengths_nm[i]) for i in self.selected]

    def to_dict(self) -> dict:
        doc = {
            "method": self.method,
            "selected": [int(i) for i in self.selected],
            "selected_nm": self.selected_nm(),
            "excluded": [int(i) for i in self.excluded],
            "trace": [float(v) for v in self.trace],
        }
        if self.rounds is not None:
            doc["rounds"] = [
                {
                    "round": r.index,
                    "variables": [int(i) for i in r.variables],
                    "alphas": [None if not np.isfinite(a) else float(a) for a in r.alphas],
                    "chosen_n": int(r.chosen_n),
                }
                for r in self.rounds
            ]
        return doc


def exclude_tail(bands: int, n_tail: int) -> set[int]:
    """The top ``n_tail`` band indices (the noisy detector tail)."""
    if not 0 <= n_tail < bands:
        raise ValueError(f"n_tail must be in [0, {bands - 1}], got {n_tail}")
    return set(range(bands - n_tail, bands))


def _usable(bands: int, exclude: Iterable[int]) -> list[int]:
    excluded = set(exclude)
    bad = [i for i in excluded if not 0 <= i < bands]
    if bad:
        raise ValueError(f"excluded indices {bad} out of range for {bands} bands")
    return [i for i in range(bands) if i not in excluded]


def _first_near_max(values: np.ndarray) -> int:
    """Index of the first value within ``TIE_RTOL`` of the largest; NaN never wins."""
    best = np.nanmax(values)
    return int(np.flatnonzero(best - values <= TIE_RTOL * abs(best))[0])


def init_by_correlation(
    X: np.ndarray, y: np.ndarray, m: int, exclude: Iterable[int] = ()
) -> list[int]:
    """Top-m usable bands by |Pearson correlation| with the response."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    usable = _usable(X.shape[1], exclude)
    if m >= len(usable):
        raise ValueError(f"m={m} must be below the {len(usable)} usable bands")
    yc = y - y.mean()
    sy = np.sqrt(yc @ yc)
    if sy == 0:
        raise ValueError("response has zero variance")
    Xc = X[:, usable] - X[:, usable].mean(axis=0)
    sx = np.sqrt(np.sum(Xc**2, axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(sx > 0, (Xc.T @ yc) / (sx * sy), 0.0)
    order = np.argsort(-np.abs(rho), kind="stable")
    return [usable[i] for i in order[:m]]


def _simpls_r2(C: np.ndarray, s: np.ndarray, yy: float, a: int) -> np.ndarray:
    """Training R^2 of single-response SIMPLS with up to ``a`` factors for k
    autoscaled column sets, from their cross-products C = X'X (k, c, c) and
    s = X'y (k, c) and yy = y'y: t't = r'C r, q = s'r, R^2 = sum(q^2) / yy.
    A score norm within ``fit_simpls``'s 1e-12 bound ends the set's factors.
    """
    k = s.shape[0]
    norm_x = np.sqrt(np.trace(C, axis1=1, axis2=2))
    bound = 1e-12 * np.maximum(norm_x * max(1.0, np.sqrt(yy)), 1.0)
    S = s.copy()
    basis: list[np.ndarray] = []  # orthonormal past x-loadings, for deflating S
    alive = np.ones(k, dtype=bool)
    explained = np.zeros(k)
    with np.errstate(invalid="ignore", divide="ignore"):  # dead sets go NaN, masked off
        for _ in range(a):
            norm_t = np.sqrt(np.einsum("ki,kij,kj->k", S, C, S))
            alive &= norm_t > bound
            r = S / norm_t[:, None]
            q = np.einsum("ki,ki->k", s, r)
            explained += np.where(alive, q * q, 0.0)
            p = np.einsum("kij,kj->ki", C, r)
            v = p - sum(u * np.einsum("ki,ki->k", u, p)[:, None] for u in basis)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            basis.append(v)
            S -= v * np.einsum("ki,ki->k", v, S)[:, None]
    return explained / yy


def r2_forward_select(
    X: np.ndarray,
    y: np.ndarray,
    target_count: int,
    init: Sequence[int] = (),
    lv: int = DEFAULT_FORWARD_LV,
    exclude: Iterable[int] = (),
    stop: Callable[[list[int]], bool] | None = None,
    wavelengths_nm: np.ndarray | None = None,
) -> SelectionReport:
    """Greedy forward band selection by training R^2.

    Every step scores a PLS model (min(lv, |selection|) latent variables) on
    the selection plus each unselected usable band and permanently adds the
    best one; among bands whose R^2 is within ``TIE_RTOL`` of the best, the
    lowest wins. X and y are autoscaled once, and all of a step's
    candidates are fitted in one batched SIMPLS on their blocks of C = X'X
    and s = X'y. A band set whose cross-product with y vanishes scores
    R^2 = 0. X and y must be finite.
    ``stop`` is consulted after each addition; returning True ends the
    search early (the pipeline wires the clustering success test here).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.size:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} entries")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite (no NaN or Inf)")
    if lv < 1:
        raise ValueError(f"lv must be >= 1, got {lv}")
    excluded = sorted(set(exclude))
    usable = _usable(X.shape[1], excluded)
    selected = [int(i) for i in init]
    if len(set(selected)) != len(selected):
        raise ValueError("init bands must be unique")
    if set(selected) - set(usable):
        raise ValueError("init bands fall in the excluded set")
    if not 1 <= target_count <= len(usable):
        raise ValueError(f"target_count must be in [1, {len(usable)}], got {target_count}")
    if float(np.sum((y - y.mean()) ** 2)) == 0:
        raise ValueError("response has zero variance")

    Xs = apply_scale(fit_scale(X), X)
    ys = apply_scale(fit_scale(y[:, None]), y[:, None])[:, 0]
    C, s, yy = Xs.T @ Xs, Xs.T @ ys, float(ys @ ys)

    trace: list[float] = []
    while len(selected) < target_count:
        remaining = [b for b in usable if b not in selected]
        cols = np.array([selected + [b] for b in remaining])  # (candidates, |selection| + 1)
        a = min(lv, cols.shape[1], X.shape[0] - 1)
        r2 = _simpls_r2(C[cols[:, :, None], cols[:, None, :]], s[cols], yy, a)
        i = _first_near_max(r2)  # remaining ascends, so the lowest tied band wins
        selected.append(remaining[i])
        trace.append(float(r2[i]))
        if stop is not None and stop(list(selected)):
            break

    return SelectionReport(
        method=METHOD_R2, selected=selected, excluded=excluded, trace=trace,
        wavelengths_nm=wavelengths_nm,
    )


def covproc_select(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int,
    exclude: Iterable[int] = (),
    wavelengths_nm: np.ndarray | None = None,
) -> SelectionReport:
    """Covariance-procedure selection in rounds, deflating X between rounds.

    Expects X autoscaled and y centered (the caller preprocesses once; the
    deflation must not be rescaled). Each round sorts bands by one-factor
    PLS weight magnitude, grows a sparse weight vector whose entries are the
    band/response covariances y'x, and keeps the shortest prefix whose
    alpha = |y't| / (t't), with t = X w, is within ``TIE_RTOL`` of the
    round's largest alpha.
    """
    X = np.array(X, dtype=np.float64)  # deflated in place, so copy
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.size:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} entries")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if abs(float(y.mean())) > 1e-8 * max(1.0, float(np.abs(y).max())):
        raise ValueError("y must be centered before covariance-procedure selection")
    col_means = np.abs(X.mean(axis=0))
    if float(col_means.max()) > 1e-6 * max(1.0, float(np.abs(X).max())):
        raise ValueError("X must be autoscaled before covariance-procedure selection")

    excluded = sorted(set(exclude))
    usable = _usable(X.shape[1], excluded)

    selected: list[int] = []
    round_traces: list[RoundTrace] = []
    chosen_alphas: list[float] = []
    for r in range(1, rounds + 1):
        model = fit_simpls(X[:, usable], y, a=1, scale=False)
        weights = model.weights[:, 0]
        order = np.argsort(-np.abs(weights), kind="stable")
        sorted_bands = [usable[i] for i in order]

        alphas = np.full(len(sorted_bands), np.nan)
        scores = np.zeros(X.shape[0])
        for i, band in enumerate(sorted_bands):
            scores = scores + X[:, band] * float(y @ X[:, band])
            tt = float(scores @ scores)
            if tt > 0:
                alphas[i] = abs(float(y @ scores)) / tt
        if not np.any(np.isfinite(alphas)):
            raise DegenerateDataError(f"round {r}: every prefix has zero scores")
        n = _first_near_max(alphas)  # smallest prefix among near-maximal alphas
        chosen = sorted_bands[: n + 1]
        w_r = np.zeros(X.shape[1])
        for band in chosen:
            w_r[band] = float(y @ X[:, band])
        t = X @ w_r
        p_r = X.T @ t / float(t @ t)
        X -= np.outer(t, p_r)

        round_traces.append(
            RoundTrace(index=r, variables=chosen, alphas=alphas, chosen_n=n + 1)
        )
        chosen_alphas.append(float(alphas[n]))
        for band in chosen:
            if band not in selected:
                selected.append(band)

    return SelectionReport(
        method=METHOD_COVPROC, selected=selected, excluded=excluded,
        trace=chosen_alphas, rounds=round_traces, wavelengths_nm=wavelengths_nm,
    )


def reorder_rounds(report: SelectionReport, order: Sequence[int]) -> list[int]:
    """Concatenate round variable lists in the given order, de-duplicated.

    The paper-style trick: a later, smaller round placed first can make a
    much shorter list sufficient. The caller truncates the result with its
    own downstream success test.
    """
    if report.rounds is None:
        raise ValueError("report has no rounds (not a covariance-procedure report)")
    by_index = {r.index: r for r in report.rounds}
    unknown = [i for i in order if i not in by_index]
    if unknown:
        raise ValueError(f"unknown round indices {unknown}; have {sorted(by_index)}")
    bands: list[int] = []
    for i in order:
        for band in by_index[i].variables:
            if band not in bands:
                bands.append(band)
    return bands
