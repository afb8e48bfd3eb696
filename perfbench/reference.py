"""Reference values computed from the channel matrices alone.

Nothing here imports ``expurg``: every figure the workloads compare against
is derived with numpy/scipy from closed forms or direct enumeration, so a
fault in the program cannot hide behind the same fault in its check.

Notation: the bound at (n, M, rho) is ``(4 (M - 1))^rho * inner^rho`` with
``inner = E[T(X, Xbar)^(1/rho)]``, where ``T`` is the probability that the
competitor's metric ties or beats the transmitted word's.  All sums are in
log domain where the values can underflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, logsumexp

RHO_LO, RHO_HI = 1.0, 100.0         # the rho range the finite-n bounds are minimized over


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def diag_dominant(deltas) -> np.ndarray:
    k = len(deltas)
    w = np.empty((k, k))
    for i, d in enumerate(deltas):
        w[i] = d
        w[i, i] = 1.0 - (k - 1) * d
    return w


FIG1_W = diag_dominant((0.01, 0.05, 0.25))
MIN_HAMMING_Q = diag_dominant((0.25, 0.25, 0.25))
BSC_P = 0.1
BSC_W = np.array([[1 - BSC_P, BSC_P], [BSC_P, 1 - BSC_P]])

# name -> (channel W[x, y], metric q[x, y], input law Q[x])
INSTANCES = {
    "fig1-mismatched": (FIG1_W, MIN_HAMMING_Q, np.full(3, 1 / 3)),
    "fig1-ml": (FIG1_W, FIG1_W, np.full(3, 1 / 3)),
    "bsc": (BSC_W, BSC_W, np.full(2, 0.5)),
}


# ---------------------------------------------------------------------------
# product-ensemble exponent: Gallager's closed form, maximized on a grid
# ---------------------------------------------------------------------------

class GallagerIID:
    """E_x(rho, s) = -rho log sum Q(x)Q(xb) [sum_y W(y|x)(q(xb,y)/q(x,y))^s]^(1/rho).

    ``eex(R)`` is sup over rho in [1, 1000] and s in [0, 10] of E_x - rho R,
    clamped at zero: a geometric rho grid picks the bracket, bounded Brent
    searches refine rho and, inside, s (E_x is concave in s).
    """

    RHO_GRID = np.geomspace(1.0, 1000.0, 241)
    S_HI = 10.0

    def __init__(self, name: str):
        w, q, qv = INSTANCES[name]
        self.qq = np.outer(qv, qv).ravel()
        self.w = w
        self.lr = np.log(q)[None, :, :] - np.log(q)[:, None, :]    # [x, xb, y]
        self.grid_ex = np.array([self.ex_best_s(r) for r in self.RHO_GRID])

    def _overlap(self, s: float) -> np.ndarray:
        return np.einsum("xy,xby->xb", self.w, np.exp(s * self.lr)).ravel()

    def ex(self, rho: float, s: float) -> float:
        return -rho * float(logsumexp(np.log(self._overlap(s)) / rho, b=self.qq))

    def ex_best_s(self, rho: float) -> float:
        res = minimize_scalar(lambda s: -self.ex(rho, s), bounds=(0.0, self.S_HI),
                              method="bounded", options={"xatol": 1e-10})
        return -float(res.fun)

    def eex(self, rate: float) -> float:
        g = self.grid_ex - self.RHO_GRID * rate
        k = int(np.argmax(g))
        lo = self.RHO_GRID[max(k - 1, 0)]
        hi = self.RHO_GRID[min(k + 1, len(g) - 1)]
        res = minimize_scalar(lambda r: -(self.ex_best_s(r) - r * rate), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10})
        return max(float(-res.fun), float(g[k]), 0.0)


# ---------------------------------------------------------------------------
# BSC: closed binomial / hypergeometric forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bsc_log_tails(n: int, p: float = BSC_P) -> np.ndarray:
    """log P[Bin(d, p) >= d/2] for d = 0..n: the flips that make the rival tie or win."""
    out = np.empty(n + 1)
    lp, lq = math.log(p), math.log1p(-p)
    for d in range(n + 1):
        j = np.arange((d + 1) // 2, d + 1)
        terms = gammaln(d + 1) - gammaln(j + 1) - gammaln(d - j + 1) + j * lp + (d - j) * lq
        out[d] = logsumexp(terms)
    return out


@lru_cache(maxsize=None)
def bsc_distance_law(n: int, ensemble: str) -> tuple[np.ndarray, np.ndarray]:
    """(distances d, log P[d]) for a codeword pair of the product or cc ensemble."""
    if ensemble == "iid":
        d = np.arange(n + 1)
        return d, gammaln(n + 1) - gammaln(d + 1) - gammaln(n - d + 1) - n * math.log(2.0)
    # constant composition: c0 = ceil(n/2) zeros, c1 = floor(n/2) ones; d = 2k where
    # k zeros of x turn to ones in xb and k ones turn to zeros (hypergeometric in k)
    c0, c1 = (n + 1) // 2, n // 2
    k = np.arange(c1 + 1)
    lc = lambda a, b: gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1)  # noqa: E731
    return 2 * k, lc(c0, k) + lc(c1, k) - lc(n, c1)


def bsc_log_inner(n: int, rho: float, ensemble: str) -> float:
    d, lpd = bsc_distance_law(n, ensemble)
    return float(logsumexp(lpd + bsc_log_tails(n)[d] / rho))


# ---------------------------------------------------------------------------
# 3-letter instances whose per-letter log2 metric ratios lie in {-1, 0, 1}
# ---------------------------------------------------------------------------

class RowClassTails:
    """Exact tails for fig1-mismatched by row classes.

    For a letter pair (a, b) with a != b the log2 ratio q(b,y)/q(a,y) is -1
    at y = a, +1 at y = b and 0 otherwise, so its law depends on the row a
    only; diagonal pairs contribute 0.  A pair of words with m_a off-diagonal
    letters in row a has tail T(m) = P[S_0 + S_1 + S_2 >= 0] where S_a sums
    m_a draws of row a's law.
    """

    def __init__(self, name: str, n_max: int):
        w, q, qv = INSTANCES[name]
        lr = np.log2(q)[None, :, :] - np.log2(q)[:, None, :]
        if not np.allclose(lr, np.round(lr), atol=1e-12) or np.abs(lr).max() > 1:
            raise ValueError(f"{name}: log2 metric ratios are not in {{-1, 0, 1}}")
        lr = np.round(lr).astype(int)
        k = len(qv)
        self.k, self.qv, self.n_max = k, qv, n_max
        self.pmf = []                                   # per row: P[-1], P[0], P[+1]
        for a in range(k):
            laws = set()
            for b in range(k):
                if b == a:
                    continue
                law = tuple(float(w[a][lr[a, b] == v].sum()) for v in (-1, 0, 1))
                laws.add(law)
            if len(laws) != 1:
                raise ValueError(f"{name}: row {a} mixes letter laws")
            self.pmf.append(np.array(laws.pop()))
        # powers[a][m]: law of S_a for m draws, on support -m..m
        self.powers = []
        for a in range(k):
            seq = [np.ones(1)]
            for _ in range(n_max):
                seq.append(np.convolve(seq[-1], self.pmf[a]))
            self.powers.append(seq)
        # ccdf[m, t + 2 n_max]: P[S_2 >= t] for t in -2 n_max .. 2 n_max
        width = 4 * n_max + 1
        self.ccdf = np.zeros((n_max + 1, width))
        for m in range(n_max + 1):
            pm = np.zeros(width)
            pm[2 * n_max - m:2 * n_max + m + 1] = self.powers[2][m]
            self.ccdf[m] = np.cumsum(pm[::-1])[::-1]

    def tails(self, m0: int, m1: int, m2_max: int) -> np.ndarray:
        """T(m0, m1, m2) for m2 = 0..m2_max."""
        conv = np.convolve(self.powers[0][m0], self.powers[1][m1])      # support -h..h
        h = m0 + m1
        # need P[S2 >= -s] for s in -h..h: column index -s + 2 n_max
        cols = 2 * self.n_max - np.arange(-h, h + 1)
        return self.ccdf[:m2_max + 1][:, cols] @ conv

    def log_inner_iid(self, n: int, rho: float) -> float:
        """Product ensemble: Q(a)Q(b) weights, multinomial over (diag, m0, m1, m2)."""
        qv = self.qv
        lp_diag = math.log(float(qv @ qv))
        lp_row = [math.log(qv[a] * (1.0 - qv[a])) for a in range(self.k)]
        terms = []
        for m0 in range(n + 1):
            for m1 in range(n - m0 + 1):
                m2 = np.arange(n - m0 - m1 + 1)
                t = self.tails(m0, m1, n - m0 - m1)
                diag = n - m0 - m1 - m2
                lprob = (gammaln(n + 1) - gammaln(m0 + 1) - gammaln(m1 + 1) - gammaln(m2 + 1)
                         - gammaln(diag + 1) + m0 * lp_row[0] + m1 * lp_row[1]
                         + m2 * lp_row[2] + diag * lp_diag)
                with np.errstate(divide="ignore"):
                    terms.append(lprob + np.log(t) / rho)
        return float(logsumexp(np.concatenate(terms)))

    def cc_types(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(m vectors, log P) over 3x3 joint types whose rows and columns equal c."""
        c = largest_remainder(self.qv, n)
        t10, t11 = (g.ravel() for g in np.meshgrid(np.arange(c[1] + 1), np.arange(c[1] + 1),
                                                   indexing="ij"))
        ms, lps = [], []
        lconst = 2 * gammaln(c + 1).sum() - gammaln(n + 1)
        for t00 in range(c[0] + 1):                 # free cells t00, t01, t10, t11
            for t01 in range(c[0] - t00 + 1):
                t02 = c[0] - t00 - t01
                t12 = c[1] - t10 - t11
                t20 = c[0] - t00 - t10
                t21 = c[1] - t01 - t11
                t22 = c[2] - t02 - t12
                table = np.stack([np.full_like(t10, t00), np.full_like(t10, t01),
                                  np.full_like(t10, t02), t10, t11, t12, t20, t21, t22], axis=1)
                table = table[(table >= 0).all(axis=1)]
                ms.append(c[None, :] - table[:, [0, 4, 8]])
                lps.append(lconst - gammaln(table + 1).sum(axis=1))
        return np.concatenate(ms), np.concatenate(lps)

    def log_inner_cc(self, n: int, rho: float) -> float:
        m, lprob = self.cc_types(n)
        tail = {}
        for m0, m1 in {(int(a), int(b)) for a, b in m[:, :2]}:
            tail[m0, m1] = self.tails(m0, m1, self.n_max)
        t = np.array([tail[int(a), int(b)][int(z)] for a, b, z in m])
        with np.errstate(divide="ignore"):
            return float(logsumexp(lprob + np.log(t) / rho))


def largest_remainder(qv: np.ndarray, n: int) -> np.ndarray:
    """Integer composition of n closest to nQ; ties go to the lower index."""
    scaled = np.asarray(qv) * n
    c = np.floor(scaled).astype(int)
    order = sorted(range(len(c)), key=lambda i: (-(scaled[i] - c[i]), i))
    for i in order[:n - c.sum()]:
        c[i] += 1
    return c


# ---------------------------------------------------------------------------
# brute force: every word pair and every output word
# ---------------------------------------------------------------------------

def brute_log_inner_iid(name: str, n: int, rho: float) -> float:
    """Product ensemble by full enumeration; metric products compared exactly.

    Only valid where the metric entries are powers of two (exact float
    products), which the min-Hamming metric satisfies.
    """
    w, q, qv = INSTANCES[name]
    if not np.all(np.log2(q) == np.round(np.log2(q))):
        raise ValueError("brute force needs a power-of-two metric")
    k = len(qv)
    words = np.array(np.meshgrid(*(np.arange(k),) * n, indexing="ij")).reshape(n, -1).T
    py = np.prod(w[words[:, None, :], words[None, :, :]], axis=2)      # [x, y]: W^n(y|x)
    qm = np.prod(q[words[:, None, :], words[None, :, :]], axis=2)      # [x, y]: q^n(x, y)
    pw = np.prod(qv[words], axis=1)
    total = 0.0
    for i in range(len(words)):
        t = (qm >= qm[i][None, :]) @ py[i]           # [xb]: P[rival ties or wins]
        total += pw[i] * float(pw @ t ** (1.0 / rho))
    return math.log(total)


# ---------------------------------------------------------------------------
# bound assembly and minimization over rho
# ---------------------------------------------------------------------------

def log_bound(log_inner: float, log_m: float, rho: float) -> float:
    """rho * (log 4(M-1) + log inner); log_m = log M with M > 1."""
    return rho * (math.log(4.0) + log_m + math.log(-math.expm1(-log_m)) + log_inner)


def min_over_rho(log_inner_fn, log_m: float) -> tuple[float, float]:
    """(min over rho in [1, 100] of the log bound, rho*); the bound is log-convex in rho."""
    f = lambda r: log_bound(log_inner_fn(r), log_m, r)       # noqa: E731
    res = minimize_scalar(f, bounds=(RHO_LO, RHO_HI), method="bounded",
                          options={"xatol": 1e-9})
    best = min((float(res.fun), float(res.x)), (f(RHO_LO), RHO_LO))
    return best
