"""The two-sided Student t tail, ``2 P(T_nu > |t|)``, in numpy and ``math``.

The tail is a regularized incomplete beta function, ``p = I_x(nu/2, 1/2)``
with ``x = nu / (nu + t^2)`` (Abramowitz & Stegun 26.7.1 and 26.5.27).
``two_sided_tail`` evaluates it as DiDonato & Morris (*ACM TOMS* 18, 1992,
Algorithm 708) do for ``b = 1/2``, in one of two ways:

* ``a = nu/2 >= LARGE_A`` and ``t^2 <= nu``: their asymptotic expansion
  BGRAT (their (9) to (9.6)), a series in ``1/T^2``, ``T = a - 1/4``, led
  by ``erfc(sqrt(u))`` with ``u = -T ln x``.  It takes at most a dozen
  terms there, where the continued fraction takes ``O(sqrt(a))``.
* otherwise the continued fraction of A&S 26.5.8 by modified Lentz
  (Press et al., *Numerical Recipes*, 3rd ed., 6.4), of ``I_x(a, 1/2)``
  for ``x < (a + 1) / (a + 3/2)`` and of the complement ``I_{1-x}(1/2,
  a)`` above, where ``p >= 1/2`` for ``nu = 1`` and ``p > 0.08`` for
  larger ``nu``, so the subtraction keeps the relative error small.

A relative error e in x is ``a e`` in ``x^a``, so no rounded x is raised to
a power: ``ln x`` is ``-log1p(t^2 / nu)`` for ``t^2 <= nu`` and ``ln(nu /
t^2) - log1p(nu / t^2)`` above, whose error times a stays a few hundred
eps while ``x^a`` is above 1e-300.  ``Gamma(a + 1/2) / Gamma(a)`` comes
from its asymptotic series (DLMF 5.11.8) at ``a >= 16``, carried down by
``Gamma(a + 1) = a Gamma(a)`` below, never from a difference of
``lgamma`` values, which cancels as a grows.  Against 50-digit mpmath the
relative error stays below 1e-12 wherever ``p >= 1e-300`` for ``nu`` from
1 to 1e5 (``tests/test_student_t.py``).
"""

from __future__ import annotations

import math
import sys

import numpy as np

EPS = sys.float_info.epsilon
LARGE_A = 15.0  # BGRAT's least a, as in Algorithm 708
# a bound far above use: on dof 1 to 1e7, at most 43 steps and 9 BGRAT terms
MAX_LENTZ_STEPS = 200
_TINY = 1e-300  # Lentz's stand-in for a zero denominator
_SQRT_PI = math.sqrt(math.pi)
_SERIES_A = 16.0  # the least a the log-gamma-ratio series is summed at
# ln(Gamma(a + 1/2) / Gamma(a)) - (ln a) / 2 = sum_k c_k / a^(2k - 1)
_LOG_RATIO = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)


def _bgrat_coefficients(b: float, terms: int) -> tuple[float, ...]:
    """DiDonato & Morris's (9.4): ``p_0 = 1``, ``p_n = (b - 1) / (2n + 1)!
    + (1/n) sum_{m=1}^{n-1} (m b - n) p_{n-m} / (2m + 1)!``."""
    p = [1.0]
    for n in range(1, terms):
        lower = sum((m * b - n) * p[n - m] / math.factorial(2 * m + 1)
                    for m in range(1, n))
        p.append(lower / n + (b - 1) / math.factorial(2 * n + 1))
    return tuple(p)


_BGRAT_P = _bgrat_coefficients(0.5, 20)


def _gamma_ratio(a: np.ndarray) -> np.ndarray:
    """``Gamma(a + 1/2) / Gamma(a)``: the series at ``a + k >= 16`` for the
    least whole k, times ``prod_{i<k} (a + i) / (a + i + 1/2)``."""
    steps = np.ceil(np.maximum(_SERIES_A - a, 0.0))
    shifted = a + steps
    inverse_square = 1.0 / (shifted * shifted)
    series = 0.0
    for c in _LOG_RATIO[:0:-1]:
        series = (series + c) * inverse_square
    ratio = np.sqrt(shifted) * np.exp((series + _LOG_RATIO[0]) / shifted)
    for i in range(int(steps.max(initial=0.0))):
        ratio = np.where(i < steps, ratio * (a + i) / (a + i + 0.5), ratio)
    return ratio


def _nonzero(z: np.ndarray) -> np.ndarray:
    return np.where(np.abs(z) < _TINY, _TINY, z)


def _lentz(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of ``I_x(a, b) a B(a, b) / (x^a (1-x)^b)``
    (A&S 26.5.8), each entry until its last even step is within EPS of 1."""
    c = np.ones_like(x)
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    live = np.ones(len(x), dtype=bool)
    for m in range(1, MAX_LENTZ_STEPS + 1):
        step = np.ones_like(x)
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / _nonzero(1.0 + numerator * d)
            c = _nonzero(1.0 + numerator / c)
            last = d * c
            step *= last
        h = np.where(live, h * step, h)
        live &= np.abs(last - 1.0) > EPS
        if not live.any():
            break
    return h


def _bgrat(a: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """``I_x(a, 1/2)`` by BGRAT.  With ``K_n = prefix J_n`` of their (9.2)
    and (9.6), the sum is ``sum_n p_n K_n``: ``K_0 = Gamma(a + 1/2) /
    Gamma(a) erfc(sqrt(u)) / sqrt(T)`` and ``K_n = ((b + 2n - 2) (b + 2n -
    1) K_{n-1} + (u + b + 2n - 1) (ln x / 2)^(2n-2) prefix) / (4 T^2)``,
    ``prefix = sqrt(u) e^-u Gamma(a + 1/2) / (Gamma(a) sqrt(pi T))``."""
    big_t = a - 0.25
    u = -big_t * log_x
    root = np.sqrt(u)
    scale = _gamma_ratio(a) / np.sqrt(big_t)
    prefix = root * np.exp(-u) * scale / _SQRT_PI
    k = np.array([math.erfc(z) for z in root.tolist()]) * scale
    total = k.copy()
    half_log2 = (0.5 * log_x) ** 2
    power = np.ones_like(u)
    quarter = 0.25 / (big_t * big_t)
    live = np.ones(len(u), dtype=bool)
    b2n = 0.5
    for p_n in _BGRAT_P[1:]:
        k = (b2n * (b2n + 1.0) * k + (u + b2n + 1.0) * power * prefix) * quarter
        power *= half_log2
        b2n += 2.0
        term = p_n * k
        total = np.where(live, total + term, total)
        live &= np.abs(term) > EPS * np.abs(total)
        if not live.any():
            break
    return total


def two_sided_tail(t, dof) -> np.ndarray:
    """``2 P(T_dof > |t|)`` for each entry of ``t`` and ``dof > 0``
    (broadcast together): 1.0 at ``t = 0`` and 0.0 at ``|t| = inf``."""
    t = np.abs(np.asarray(t, dtype=float))
    t, dof = np.broadcast_arrays(t, np.asarray(dof, dtype=float))
    shape = t.shape
    t, dof = t.ravel(), dof.ravel()
    p = np.ones(len(t))
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        square = t * t
        near = square <= dof
        v = square / dof  # x = 1 / (1 + v) where near
        u = dof / t / t  # x = u / (1 + u) elsewhere
        # ln u, from nu / t and t where u leaves the normal range
        log_u = np.where(u > 1e-300, np.log(u), np.log(dof / t) - np.log(t))
        log_x = np.where(near, -np.log1p(v), log_u - np.log1p(u))
        x = np.where(near, 1.0 / (1.0 + v), u / (1.0 + u))
        y = np.where(near, v / (1.0 + v), 1.0 / (1.0 + u))
        a = 0.5 * dof
        series = near & (a >= LARGE_A) & (t > 0.0)
        fraction = ~near | ((a < LARGE_A) & (t > 0.0))
        if series.any():
            p[series] = _bgrat(a[series], log_x[series])
        if fraction.any():
            a, x, y = a[fraction], x[fraction], y[fraction]
            front = (np.exp(a * log_x[fraction]) * np.sqrt(y)
                     * _gamma_ratio(a) / _SQRT_PI)
            flip = x * (a + 1.5) >= a + 1.0
            first = np.where(flip, 0.5, a)
            part = front * _lentz(first, np.where(flip, a, 0.5),
                                  np.where(flip, y, x)) / first
            p[fraction] = np.where(flip, 1.0 - part, part)
    return p.reshape(shape)
