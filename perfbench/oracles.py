"""Independent reference values for the benchmark's correctness checks.

Nothing here imports softprob. Gaussian quantities over intervals use
closed-form truncated moments, point terms are summed in log space with
numpy, and 2-D mutual-information integrals use a dense tensor
Gauss-Legendre grid, a different method from the package's adaptive
refinement. Sets are (points, intervals) pairs of plain floats.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass

import numpy as np

LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)
MAX_ABS_CORRELATION = 0.999  # the tree's documented clamp on a fitted rho


def phi(z: float) -> float:
    return math.exp(-0.5 * z * z - LOG_SQRT2PI)


def big_phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def phi_mass(a: float, b: float) -> float:
    """Standard normal mass of (a, b), without cancellation in either tail."""
    if a > 0.0:
        return 0.5 * (math.erfc(a / math.sqrt(2.0)) - math.erfc(b / math.sqrt(2.0)))
    return big_phi(b) - big_phi(a)


@dataclass(frozen=True)
class Normal:
    mean: float
    var: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.var)

    def pdf(self, x: float) -> float:
        return phi((x - self.mean) / self.sd) / self.sd

    def cdf(self, x: float) -> float:
        return big_phi((x - self.mean) / self.sd)

    def log_coeffs(self) -> tuple[float, float, float]:
        """log pdf(x) = c0 + c1*x + c2*x^2."""
        return (-0.5 * math.log(2.0 * math.pi * self.var) - self.mean ** 2 / (2.0 * self.var),
                self.mean / self.var, -0.5 / self.var)

    def moments(self, lo: float, hi: float) -> tuple[float, float, float]:
        """Integrals of x^k * pdf(x) over (lo, hi) for k = 0, 1, 2."""
        a, b = (lo - self.mean) / self.sd, (hi - self.mean) / self.sd
        z0 = phi_mass(a, b)
        z1 = phi(a) - phi(b)
        z2 = z0 + a * phi(a) - b * phi(b)
        m, s = self.mean, self.sd
        return z0, m * z0 + s * z1, m * m * z0 + 2.0 * m * s * z1 + s * s * z2

    def poly_integral(self, intervals, c0: float, c1: float, c2: float) -> float:
        """Sum over intervals of the integral of (c0 + c1*x + c2*x^2) * pdf(x)."""
        total = 0.0
        for lo, hi in intervals:
            m0, m1, m2 = self.moments(lo, hi)
            total += c0 * m0 + c1 * m1 + c2 * m2
        return total


def entropy(d: Normal, points, intervals) -> tuple[float, float, float]:
    """(0log0~, soft, real) coefficients of the soft entropy."""
    dens = [d.pdf(p) for p in points]
    return (-sum(dens), -sum(f * math.log(f) for f in dens),
            -d.poly_integral(intervals, *d.log_coeffs()))


def kld(d: Normal, d_hat: Normal, points, intervals) -> tuple[float, float]:
    soft = sum(d.pdf(p) * (math.log(d.pdf(p)) - math.log(d_hat.pdf(p))) for p in points)
    coeffs = [u - v for u, v in zip(d.log_coeffs(), d_hat.log_coeffs())]
    return soft, d.poly_integral(intervals, *coeffs)


def moments(d: Normal, points, intervals) -> dict[str, float]:
    """Soft expectation and variance components, named as the CLI prints them."""
    nu = sum(p * d.pdf(p) for p in points)
    kappa = d.poly_integral(intervals, 0.0, 1.0, 0.0)
    coverage = d.poly_integral(intervals, 1.0, 0.0, 0.0)
    gamma1_sq = sum((kappa - p) ** 2 * d.pdf(p) for p in points)
    gamma2 = -kappa * (1.0 - coverage)
    lambda_sq = d.poly_integral(intervals, kappa * kappa, -2.0 * kappa, 1.0)
    return {"nu": nu, "kappa": kappa, "gamma1_sq": gamma1_sq, "gamma2": gamma2,
            "lambda_sq": lambda_sq, "gamma": gamma1_sq + 2.0 * nu * gamma2}


@dataclass(frozen=True)
class Bivariate:
    """Jointly Gaussian (X, Y) with correlation rho."""

    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    rho: float

    @classmethod
    def additive(cls, signal: Normal, noise: Normal) -> "Bivariate":
        """(X, Y) for Y = X + W with independent X ~ signal and W ~ noise."""
        var_y = signal.var + noise.var
        return cls(signal.mean, signal.mean + noise.mean, signal.var, var_y,
                   math.sqrt(signal.var / var_y))

    @property
    def x(self) -> Normal:
        return Normal(self.mean_x, self.var_x)

    @property
    def y(self) -> Normal:
        return Normal(self.mean_y, self.var_y)

    def cond_y(self, x):
        """Mean and variance of Y given X = x (x may be an array)."""
        slope = self.rho * math.sqrt(self.var_y / self.var_x)
        return self.mean_y + slope * (x - self.mean_x), self.var_y * (1.0 - self.rho ** 2)

    def cond_x(self, y):
        slope = self.rho * math.sqrt(self.var_x / self.var_y)
        return self.mean_x + slope * (y - self.mean_y), self.var_x * (1.0 - self.rho ** 2)

    def mi_density(self, x, y):
        """f_XY * log(f_XY / (f_X f_Y)) on numpy grids, computed in log space."""
        cm, cv = self.cond_y(x)
        log_cond = -0.5 * (y - cm) ** 2 / cv - 0.5 * np.log(2.0 * np.pi * cv)
        log_fx = -0.5 * (x - self.mean_x) ** 2 / self.var_x - 0.5 * np.log(2.0 * np.pi * self.var_x)
        log_fy = -0.5 * (y - self.mean_y) ** 2 / self.var_y - 0.5 * np.log(2.0 * np.pi * self.var_y)
        return np.exp(log_cond + log_fx) * (log_cond - log_fy)

    def ps2_leq_leq(self, x: float, y: float) -> tuple[float, float]:
        """Ps(X <= x, Y <= y): soft = both cdf partials plus the density, real = cdf."""
        cmy, cvy = self.cond_y(x)
        cmx, cvx = self.cond_x(y)
        partial_x = self.x.pdf(x) * Normal(cmy, cvy).cdf(y)
        partial_y = self.y.pdf(y) * Normal(cmx, cvx).cdf(x)
        density = self.x.pdf(x) * Normal(cmy, cvy).pdf(y)
        lo = self.mean_x - 12.0 * math.sqrt(self.var_x)
        t, w = _panels(lo, x, 64, 0.5)
        cm, cv = self.cond_y(t)
        erfc = np.frompyfunc(math.erfc, 1, 1)
        cond_cdf = 0.5 * erfc(-(y - cm) / math.sqrt(2.0 * cv)).astype(float)
        fx = (np.exp(-0.5 * (t - self.mean_x) ** 2 / self.var_x)
              / math.sqrt(2.0 * math.pi * self.var_x))
        return partial_x + partial_y + density, float(np.sum(w * fx * cond_cdf))


def _panels(lo: float, hi: float, nodes: int, width: float):
    """Gauss-Legendre nodes and weights on (lo, hi) split into panels of at most `width`."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    count = max(1, math.ceil((hi - lo) / width))
    edges = np.linspace(lo, hi, count + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


def mi_rectangle(b: Bivariate, xlo: float, xhi: float, ylo: float, yhi: float,
                 nodes: int = 64, width: float = 0.5) -> float:
    """Dense tensor Gauss-Legendre integral of the MI density over a rectangle.

    The grid is evaluated one x panel at a time to keep memory small.
    """
    xs, wx = _panels(xlo, xhi, nodes, width)
    ys, wy = _panels(ylo, yhi, nodes, width)
    total = 0.0
    for start in range(0, len(xs), nodes):
        x = xs[start:start + nodes, None]
        total += float(wx[start:start + nodes] @ (b.mi_density(x, ys[None, :]) @ wy))
    return total


def mi_points(b: Bivariate, xs, ys) -> float:
    """Sum of the MI density over every point pair, as one numpy reduction."""
    if len(xs) == 0 or len(ys) == 0:
        return 0.0
    return float(np.sum(b.mi_density(np.asarray(xs, float)[:, None],
                                      np.asarray(ys, float)[None, :])))


def mutual_information(b: Bivariate, sx, sy, nodes: int = 64,
                       width: float = 0.5) -> tuple[float, float]:
    """(soft, real): point pairs on the soft axis, interval rectangles on the real one."""
    (px, ix), (py, iy) = sx, sy
    real = sum(mi_rectangle(b, xlo, xhi, ylo, yhi, nodes, width)
               for ylo, yhi in iy for xlo, xhi in ix)
    return mi_points(b, px, py), real


# Tree cells are ("point", v) or ("interval", lo, hi).

def midpoint(cell) -> float:
    return cell[1] if cell[0] == "point" else 0.5 * (cell[1] + cell[2])


def fit(feature_col, label_col) -> Bivariate:
    """Bivariate Gaussian from midpoints; each interval adds width^2/12 variance."""
    def stats(col):
        mids = np.array([midpoint(c) for c in col])
        spread = np.mean([0.0 if c[0] == "point" else (c[2] - c[1]) ** 2 / 12.0 for c in col])
        return mids, float(mids.mean()), float(mids.var(ddof=1) + spread)

    mx, mean_x, var_x = stats(feature_col)
    my, mean_y, var_y = stats(label_col)
    rho = float(np.cov(mx, my)[0, 1]) / math.sqrt(var_x * var_y)
    rho = max(-MAX_ABS_CORRELATION, min(MAX_ABS_CORRELATION, rho))
    return Bivariate(mean_x, mean_y, var_x, var_y, rho)


def column_set(col):
    """Merge touching intervals; drop points inside or on a merged interval."""
    merged: list[list[float]] = []
    for _, lo, hi in sorted(c for c in col if c[0] == "interval"):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    starts = [lo for lo, _ in merged]
    points = []
    for p in sorted({c[1] for c in col if c[0] == "point"}):
        k = bisect.bisect_right(starts, p) - 1
        if k < 0 or p > merged[k][1]:
            points.append(p)
    return points, [tuple(iv) for iv in merged]


def root_split(rows):
    """Best root feature index, its median threshold and each feature's (soft, real) gain.

    rows are (feature cells, label cell). Gains compare real part first,
    as the soft-number order does; ties go to the lower index.
    """
    labels = [label for _, label in rows]
    sy = column_set(labels)
    gains = []
    for index in range(len(rows[0][0])):
        col = [features[index] for features, _ in rows]
        b = fit(col, labels)
        sx = column_set(col)
        gains.append(mutual_information(b, sx, sy, nodes=32, width=1.0))
    best = max(range(len(gains)), key=lambda i: (gains[i][1], gains[i][0], -i))
    threshold = statistics.median(midpoint(features[best]) for features, _ in rows)
    return best, threshold, gains
