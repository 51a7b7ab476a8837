"""Continuous distributions and bivariate joint models.

The abstract bases deliberately expose a small surface (pdf, cdf, support
plus location/scale hints for truncating improper integrals). The Gaussian
joint model overrides every generic quadrature path with closed forms; the
generic paths remain available for user-supplied models.

Densities at many points at once come from the array methods (pdf_array,
joint_pdf_grid, conditional_pdf_grid). Their defaults call the scalar
methods point by point; the Gaussian models override them with numpy
broadcasts of the same formulas.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureConfig, integrate_1d, integrate_2d

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# span of location +/- TRUNC_SCALES * scale bounds every improper integral
TRUNC_SCALES = 10.0


class ContinuousDistribution(ABC):
    """A real-valued random variable given by density and distribution function."""

    @abstractmethod
    def pdf(self, x: float) -> float: ...

    @abstractmethod
    def cdf(self, x: float) -> float: ...

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        """Density at each of the points xs."""
        return np.array([self.pdf(float(x)) for x in xs], dtype=float)

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]: ...

    @property
    def location(self) -> float:
        lo, hi = self.support
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi)
        return 0.0

    @property
    def scale(self) -> float:
        lo, hi = self.support
        if math.isfinite(lo) and math.isfinite(hi):
            return (hi - lo) / math.sqrt(12.0)
        return 1.0

    def truncated_range(self) -> tuple[float, float]:
        """Finite integration window: support clipped to +/-10 scales."""
        lo, hi = self.support
        lo = max(lo, self.location - TRUNC_SCALES * self.scale)
        hi = min(hi, self.location + TRUNC_SCALES * self.scale)
        return lo, hi

    def prob_between(self, a: float, b: float) -> float:
        return self.cdf(b) - self.cdf(a)


class Gaussian(ContinuousDistribution):
    """Normal distribution with the given mean and variance."""

    def __init__(self, mean: float, variance: float):
        if not (math.isfinite(mean) and math.isfinite(variance)) or variance <= 0.0:
            raise DomainError(
                f"need finite mean and positive variance, got ({mean!r}, {variance!r})")
        self.mean = float(mean)
        self.variance = float(variance)
        self.sigma = math.sqrt(self.variance)

    def pdf(self, x: float) -> float:
        z = (x - self.mean) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        z = (xs - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    def cdf(self, x: float) -> float:
        z = (x - self.mean) / self.sigma
        return 0.5 * (1.0 + math.erf(z / _SQRT2))

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    @property
    def location(self) -> float:
        return self.mean

    @property
    def scale(self) -> float:
        return self.sigma

    def __repr__(self) -> str:
        return f"Gaussian(mean={self.mean!r}, variance={self.variance!r})"


class Uniform(ContinuousDistribution):
    """Uniform distribution on the open interval (lo, hi); pdf is 0 at the endpoints."""

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise DomainError(f"need finite lo < hi, got ({lo!r}, {hi!r})")
        self.lo = float(lo)
        self.hi = float(hi)
        self._density = 1.0 / (self.hi - self.lo)

    def pdf(self, x: float) -> float:
        return self._density if self.lo < x < self.hi else 0.0

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) * self._density

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def __repr__(self) -> str:
        return f"Uniform(lo={self.lo!r}, hi={self.hi!r})"


class UserDefinedDistribution(ContinuousDistribution):
    """Wrap caller-supplied pdf and cdf callables."""

    def __init__(self, pdf: Callable[[float], float], cdf: Callable[[float], float],
                 support: tuple[float, float] = (-math.inf, math.inf),
                 location: Optional[float] = None, scale: Optional[float] = None):
        lo, hi = support
        if not lo < hi:
            raise DomainError(f"support must satisfy lo < hi, got {support!r}")
        self._pdf = pdf
        self._cdf = cdf
        self._support = (float(lo), float(hi))
        self._location = location
        self._scale = scale
        if scale is not None and not scale > 0.0:
            raise DomainError(f"scale must be positive, got {scale!r}")

    def pdf(self, x: float) -> float:
        return float(self._pdf(x))

    def cdf(self, x: float) -> float:
        return float(self._cdf(x))

    @property
    def support(self) -> tuple[float, float]:
        return self._support

    @property
    def location(self) -> float:
        if self._location is not None:
            return self._location
        return super().location

    @property
    def scale(self) -> float:
        if self._scale is not None:
            return self._scale
        return super().scale


class JointModel(ABC):
    """Bivariate model (X, Y): joint density plus both marginals.

    The cdf and its partial derivatives default to adaptive quadrature of
    the joint density over truncated ranges; subclasses with closed forms
    should override them.
    """

    quad_1d = QuadratureConfig(rel_tol=1e-10)
    quad_2d = QuadratureConfig(rel_tol=1e-8)

    @abstractmethod
    def joint_pdf(self, x: float, y: float) -> float: ...

    @property
    @abstractmethod
    def marginal_x(self) -> ContinuousDistribution: ...

    @property
    @abstractmethod
    def marginal_y(self) -> ContinuousDistribution: ...

    @abstractmethod
    def conditional_pdf(self, y: float, given_x: float) -> float:
        """Density of Y at y conditioned on X = given_x."""

    def joint_pdf_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Joint density with rows over ys and columns over xs: [j, i] = f(xs[i], ys[j])."""
        return np.array([[self.joint_pdf(float(x), float(y)) for x in xs] for y in ys],
                        dtype=float).reshape(len(ys), len(xs))

    def conditional_pdf_grid(self, ys: np.ndarray, given_xs: np.ndarray) -> np.ndarray:
        """Conditional density laid out like joint_pdf_grid: [j, i] = f(ys[j] | given_xs[i])."""
        return np.array([[self.conditional_pdf(float(y), float(x)) for x in given_xs]
                         for y in ys], dtype=float).reshape(len(ys), len(given_xs))

    def joint_cdf(self, x: float, y: float) -> float:
        """P(X <= x, Y <= y)."""
        x_lo, x_hi = self.marginal_x.truncated_range()
        y_lo, y_hi = self.marginal_y.truncated_range()
        xu, yu = min(x, x_hi), min(y, y_hi)
        if xu <= x_lo or yu <= y_lo:
            return 0.0
        return integrate_2d(self.joint_pdf, x_lo, xu, y_lo, yu, self.quad_2d)

    def cdf_partial_x(self, x: float, y: float) -> float:
        """d/dx of the joint cdf: integral of joint_pdf(x, t) for t <= y."""
        y_lo, y_hi = self.marginal_y.truncated_range()
        yu = min(y, y_hi)
        if yu <= y_lo:
            return 0.0
        return integrate_1d(lambda t: self.joint_pdf(x, t), y_lo, yu, self.quad_1d)

    def cdf_partial_y(self, x: float, y: float) -> float:
        """d/dy of the joint cdf: integral of joint_pdf(t, y) for t <= x."""
        x_lo, x_hi = self.marginal_x.truncated_range()
        xu = min(x, x_hi)
        if xu <= x_lo:
            return 0.0
        return integrate_1d(lambda t: self.joint_pdf(t, y), x_lo, xu, self.quad_1d)


class BivariateGaussianModel(JointModel):
    """Jointly Gaussian (X, Y) with correlation rho, |rho| < 1."""

    def __init__(self, mean_x: float, mean_y: float, var_x: float, var_y: float,
                 correlation: float):
        if not all(map(math.isfinite, (mean_x, mean_y, var_x, var_y, correlation))):
            raise DomainError("parameters must be finite")
        if var_x <= 0.0 or var_y <= 0.0:
            raise DomainError(f"variances must be positive, got ({var_x!r}, {var_y!r})")
        if not abs(correlation) < 1.0:
            raise DomainError(f"|correlation| must be < 1, got {correlation!r}")
        self.mean_x = float(mean_x)
        self.mean_y = float(mean_y)
        self.var_x = float(var_x)
        self.var_y = float(var_y)
        self.rho = float(correlation)
        self._mx = Gaussian(mean_x, var_x)
        self._my = Gaussian(mean_y, var_y)
        self._cond_var = var_y * (1.0 - self.rho * self.rho)
        self._cond_slope = self.rho * math.sqrt(var_y / var_x)
        if not (math.isfinite(self._cond_slope) and self._cond_var > 0.0):
            raise DomainError(
                f"variances ({var_x!r}, {var_y!r}) are too far apart for a conditional model")

    def _cond_mean(self, x: float) -> float:
        return self.mean_y + self._cond_slope * (x - self.mean_x)

    @property
    def marginal_x(self) -> ContinuousDistribution:
        return self._mx

    @property
    def marginal_y(self) -> ContinuousDistribution:
        return self._my

    def joint_pdf(self, x: float, y: float) -> float:
        return self._mx.pdf(x) * self.conditional_pdf(y, x)

    def conditional_pdf(self, y: float, given_x: float) -> float:
        z = y - self._cond_mean(given_x)
        return math.exp(-0.5 * z * z / self._cond_var) / math.sqrt(
            2.0 * math.pi * self._cond_var)

    def joint_pdf_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        grid = self.conditional_pdf_grid(ys, xs)
        grid *= self._mx.pdf_array(xs)
        return grid

    def conditional_pdf_grid(self, ys: np.ndarray, given_xs: np.ndarray) -> np.ndarray:
        cond_mean = self.mean_y + self._cond_slope * (given_xs - self.mean_x)
        # the scalar formula, evaluated in place on one temporary
        z = ys[:, None] - cond_mean
        z *= -0.5 * z
        z /= self._cond_var
        np.exp(z, out=z)
        z /= math.sqrt(2.0 * math.pi * self._cond_var)
        return z

    def conditional_cdf(self, y: float, given_x: float) -> float:
        z = (y - self._cond_mean(given_x)) / math.sqrt(self._cond_var)
        return 0.5 * (1.0 + math.erf(z / _SQRT2))

    def cdf_partial_x(self, x: float, y: float) -> float:
        return self._mx.pdf(x) * self.conditional_cdf(y, x)

    def cdf_partial_y(self, x: float, y: float) -> float:
        # by symmetry, condition X on Y = y
        cond_var = self.var_x * (1.0 - self.rho * self.rho)
        cond_mean = self.mean_x + self.rho * math.sqrt(self.var_x / self.var_y) * (
            y - self.mean_y)
        z = (x - cond_mean) / math.sqrt(cond_var)
        return self._my.pdf(y) * 0.5 * (1.0 + math.erf(z / _SQRT2))

    def joint_cdf(self, x: float, y: float) -> float:
        if self.rho == 0.0:
            return self._mx.cdf(x) * self._my.cdf(y)
        x_lo, x_hi = self._mx.truncated_range()
        xu = min(x, x_hi)
        if xu <= x_lo:
            return 0.0
        return integrate_1d(
            lambda t: self._mx.pdf(t) * self.conditional_cdf(y, t),
            x_lo, xu, self.quad_1d)

    def __repr__(self) -> str:
        return (f"BivariateGaussianModel(mean_x={self.mean_x!r}, mean_y={self.mean_y!r}, "
                f"var_x={self.var_x!r}, var_y={self.var_y!r}, correlation={self.rho!r})")


def joint_gaussian_additive(signal: Gaussian, noise: Gaussian) -> BivariateGaussianModel:
    """Model of (X, Y) for Y = X + W with X ~ signal and independent W ~ noise.

    Y is Gaussian with mean_x + mean_w and variance var_x + var_w, and the
    correlation between X and Y is sigma_x / sigma_y.
    """
    var_y = signal.variance + noise.variance
    rho = signal.sigma / math.sqrt(var_y)
    return BivariateGaussianModel(signal.mean, signal.mean + noise.mean,
                                  signal.variance, var_y, rho)


def parse_distribution(obj: dict) -> ContinuousDistribution:
    """Build a distribution from a descriptor like {"kind": "gaussian", ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"distribution descriptor must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "gaussian":
            return Gaussian(float(obj["mean"]), float(obj["variance"]))
        if kind == "uniform":
            return Uniform(float(obj["lo"]), float(obj["hi"]))
    except KeyError as exc:
        raise DomainError(f"descriptor for {kind!r} is missing field {exc}") from exc
    raise DomainError(f"unknown distribution kind {kind!r}")


def _parse_gaussian_params(obj: dict, role: str) -> Gaussian:
    if not isinstance(obj, dict):
        raise DomainError(f"{role} must be an object with mean and variance: {obj!r}")
    if "kind" in obj and obj["kind"] != "gaussian":
        raise DomainError(f"{role} must be gaussian, got kind {obj['kind']!r}")
    try:
        return Gaussian(float(obj["mean"]), float(obj["variance"]))
    except KeyError as exc:
        raise DomainError(f"{role} descriptor is missing field {exc}") from exc


def parse_joint(obj: dict) -> JointModel:
    """Build a joint model from a descriptor."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"joint descriptor must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    if kind == "joint_gaussian_additive":
        try:
            signal = _parse_gaussian_params(obj["input"], "input")
            noise = _parse_gaussian_params(obj["noise"], "noise")
        except KeyError as exc:
            raise DomainError(f"joint descriptor is missing field {exc}") from exc
        return joint_gaussian_additive(signal, noise)
    if kind == "bivariate_gaussian":
        try:
            return BivariateGaussianModel(
                float(obj["mean_x"]), float(obj["mean_y"]),
                float(obj["var_x"]), float(obj["var_y"]),
                float(obj["correlation"]))
        except KeyError as exc:
            raise DomainError(f"joint descriptor is missing field {exc}") from exc
    raise DomainError(f"unknown joint model kind {kind!r}")
