"""Wavelength (band) selection on top of PLS, from one cross-product.

Both selectors read Z'Z for Z = [X | y], the bee and mite spectra with the
response as a last column, every column autoscaled
(:func:`preprocess.scaled_cross_product`). Its blocks C = X'X, s = X'y and
y'y hold all they need, so neither touches a pixel: the kernel form of PLS
(Lindgren, Geladi & Wold, J. Chemometrics 7 (1993) 45; Dayal & MacGregor,
J. Chemometrics 11 (1997) 73).

The greedy forward search adds whichever band raises the training R^2 most,
fitting every candidate band set by SIMPLS on its blocks of C and s; the
scores are orthonormal, so R^2 = sum(q^2) / y'y. The covariance procedure
works in rounds of band/response covariances c = X'y sorted by |c|, with an
alpha = |y't| / (t't) prefix criterion and X deflation between rounds, all
done on C and c. A score of norm at most 1e-12 trace(C) sqrt(y'y), the scale
of a rounding-level X X'y (as in :func:`pls.fit_simpls`), means the
cross-product is exhausted (collinear or constant bands, or X deflated
away).

Both selectors honor an up-front excluded set (the unstable detector tail)
and break every tie toward the lower band index (the smaller prefix), where
scores within a relative ``TIE_RTOL`` of the best count as tied, so last-bit
rounding cannot decide the pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .pls import DegenerateDataError
from .pls import fit_simpls  # noqa: F401  bench/spans.py traces wavesel.fit_simpls by name

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
    variables: list[int]  # bands chosen this round, in sorted-covariance order
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


def init_by_correlation(cross: np.ndarray, m: int, exclude: Iterable[int] = ()) -> list[int]:
    """Top-m usable bands by |Pearson correlation| with the response, from the
    autoscaled cross-product of [X | y]: |s_j| / sqrt(C_jj y'y), 0 where C_jj
    is 0 (a constant band). Ties go toward the lower band."""
    usable = _usable(cross.shape[0] - 1, exclude)
    if m >= len(usable):
        raise ValueError(f"m={m} must be below the {len(usable)} usable bands")
    norms = np.sqrt(cross.diagonal()[usable] * cross[-1, -1])
    rho = np.divide(np.abs(cross[usable, -1]), norms, out=np.zeros(norms.size), where=norms > 0)
    order = np.argsort(-rho, kind="stable")
    return [usable[i] for i in order[:m]]


def _simpls_r2(C: np.ndarray, s: np.ndarray, yy: float, a: int) -> np.ndarray:
    """Training R^2 of single-response SIMPLS with up to ``a`` factors for k
    autoscaled column sets, from their cross-products C = X'X (k, c, c) and
    s = X'y (k, c) and yy = y'y: t't = r'C r, q = s'r, R^2 = sum(q^2) / yy.
    A score norm within 1e-12 trace(C) sqrt(yy) ends the set's factors, as a
    refit with fewer factors would.
    """
    k = s.shape[0]
    bound = 1e-12 * np.trace(C, axis1=1, axis2=2) * np.sqrt(yy)
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


def r2_forward_select(cross: np.ndarray, target_count: int, init: Sequence[int] = (),
                      lv: int = DEFAULT_FORWARD_LV, exclude: Iterable[int] = (),
                      wavelengths_nm: np.ndarray | None = None) -> SelectionReport:
    """Greedy forward band selection by training R^2, from the autoscaled
    cross-product of [X | y].

    Every step scores a PLS model (min(lv, |selection|) latent variables,
    less any found dead, as those past the rows' rank are) on the selection
    plus each unselected usable band and permanently adds the best one;
    among bands whose R^2 is within ``TIE_RTOL`` of the best, the lowest
    wins. All of a step's candidates are fitted in one batched SIMPLS on
    their blocks of C = X'X and s = X'y. A band set whose cross-product with
    y vanishes scores R^2 = 0. The cross-product must be finite, and
    ``target_count`` above the init size. A step depends on the bands
    before it alone, so each prefix of the report is the search stopped
    there.
    """
    if not np.isfinite(cross).all():
        raise ValueError("the cross-product must be finite (no NaN or Inf)")
    if lv < 1:
        raise ValueError(f"lv must be >= 1, got {lv}")
    excluded = sorted(set(exclude))
    usable = _usable(cross.shape[0] - 1, excluded)
    selected = [int(i) for i in init]
    if len(set(selected)) != len(selected):
        raise ValueError("init bands must be unique")
    if set(selected) - set(usable):
        raise ValueError("init bands fall in the excluded set")
    if not len(selected) < target_count <= len(usable):
        raise ValueError(f"target_count must be in [{len(selected) + 1}, {len(usable)}], "
                         f"got {target_count}")
    C, s, yy = cross[:-1, :-1], cross[:-1, -1], float(cross[-1, -1])
    if yy == 0:
        raise ValueError("response has zero variance")

    trace: list[float] = []
    while len(selected) < target_count:
        remaining = [b for b in usable if b not in selected]
        cols = np.array([selected + [b] for b in remaining])  # (candidates, |selection| + 1)
        a = min(lv, cols.shape[1])
        r2 = _simpls_r2(C[cols[:, :, None], cols[:, None, :]], s[cols], yy, a)
        i = _first_near_max(r2)  # remaining ascends, so the lowest tied band wins
        selected.append(remaining[i])
        trace.append(float(r2[i]))

    return SelectionReport(
        method=METHOD_R2, selected=selected, excluded=excluded, trace=trace,
        wavelengths_nm=wavelengths_nm,
    )


def covproc_select(cross: np.ndarray, rounds: int, exclude: Iterable[int] = (),
                   wavelengths_nm: np.ndarray | None = None) -> SelectionReport:
    """Covariance-procedure selection in rounds, from the autoscaled
    cross-product of [X | y], deflating X between rounds.

    Each round sorts the usable bands by |c| for c = X'y, takes each prefix's
    covariances as its weights w, and keeps the shortest prefix whose alpha
    = |y't| / (t't), t = X w, is within ``TIE_RTOL`` of the largest: y't is
    the prefix's sum of c^2 and t't = w'C w. Deflating X by t takes C to
    C - (Cw)(Cw)' / (w'Cw) and c to c - alpha Cw. A round whose full score
    X c has a norm of at most 1e-12 trace(C) sqrt(y'y) of the undeflated C
    raises :class:`DegenerateDataError`.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    excluded = sorted(set(exclude))
    usable = _usable(cross.shape[0] - 1, excluded)
    C, c = cross[np.ix_(usable, usable)], cross[usable, -1]  # copies, deflated in place
    bound = 1e-12 * float(np.trace(C)) * float(np.sqrt(cross[-1, -1]))

    round_traces: list[RoundTrace] = []
    for r in range(1, rounds + 1):
        order = np.argsort(-np.abs(c), kind="stable")
        co = c[order]
        yt = np.cumsum(co * co)
        tt = np.cumsum(np.cumsum(C[np.ix_(order, order)] * np.outer(co, co), axis=0),
                       axis=1).diagonal()
        alphas = np.divide(yt, tt, out=np.full(tt.size, np.nan), where=tt > 0)
        # the last prefix holds every usable band: its t't is c'Cc, which can round below 0
        if np.sqrt(max(tt[-1], 0.0)) <= bound:
            raise DegenerateDataError(f"round {r}: the band/response covariances give no score")
        n = _first_near_max(alphas)  # smallest prefix among near-maximal alphas
        kept = order[: n + 1]
        Cw = C[:, kept] @ c[kept]
        c -= alphas[n] * Cw
        C -= np.outer(Cw, Cw / tt[n])
        round_traces.append(RoundTrace(r, [usable[j] for j in kept], alphas, n + 1))

    return SelectionReport(
        method=METHOD_COVPROC,
        selected=list(dict.fromkeys(b for rt in round_traces for b in rt.variables)),
        excluded=excluded, trace=[float(rt.alphas[rt.chosen_n - 1]) for rt in round_traces],
        rounds=round_traces, wavelengths_nm=wavelengths_nm,
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
