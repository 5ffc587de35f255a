"""Tanh-sinh (double-exponential) quadrature at arbitrary precision.

The rule never evaluates the integrand exactly at an endpoint, so integrands
with logarithmic endpoint singularities (e.g. arcsinh(csch x) near 0) are
handled without special-casing.  Semi-infinite integrals of exponentially
decaying integrands are mapped to (0, 1) with x = a - ln(1 - u).

Nodes and weights are generated once per (working precision, level) and
cached; the cache is read-only after construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from mpmath import mp, mpf

from .core import BigReal, PrecisionContext
from .errors import DomainError, NoConvergence, NonFiniteEvaluation

DEFAULT_MAX_LEVEL = 12
ERROR_SAFETY_FACTOR = 10


@dataclass(frozen=True)
class QuadratureResult:
    value: BigReal
    error_estimate: BigReal
    evaluations: int
    levels: int


# (dps, level) -> list of (one_minus_x, weight) for the nodes new at that
# level, t > 0 side only.  Entry [0] of level 0 is the center node t = 0.
_node_cache: dict = {}
_cache_lock = threading.Lock()


def _level_nodes(dps: int, level: int):
    key = (dps, level)
    nodes = _node_cache.get(key)
    if nodes is not None:
        return nodes
    with _cache_lock:
        nodes = _node_cache.get(key)
        if nodes is not None:
            return nodes
        # one exponential per node: e^t is stepped by e^(step h) and gives
        # sinh t and cosh t; E = e^(2z) gives 1 - tanh z = 2/(E+1) and
        # cosh^-2 z = 4E/(E+1)^2 (Bailey, Jeyabalan & Li 2005).  The 15 extra
        # digits cover the stepping and the growth of z.
        with mp.workdps(dps + 15):
            h = mpf(2) ** (-level)
            cutoff = mpf(10) ** (-(dps + 10))
            built = []
            j = 0 if level == 0 else 1
            step = 1 if level == 0 else 2
            et = mp.exp(j * h)
            growth = mp.exp(step * h)
            while True:
                inv = 1 / et
                E = mp.exp(mp.pi * (et - inv) / 2)  # e^(2z), z = (pi/2) sinh t
                d = 2 / (E + 1)
                w = mp.pi * (et + inv) * E / (E + 1) ** 2
                built.append((d, w))
                if j > 0 and w < cutoff:
                    break
                j += step
                et *= growth
        with mp.workdps(dps):
            built = [(+d, +w) for d, w in built]
        _node_cache[key] = built
        return built


def integrate(f, a, b, ctx: PrecisionContext, *, max_level: int = DEFAULT_MAX_LEVEL,
              tolerance=None) -> QuadratureResult:
    """Integrate f over (a, b) with the tanh-sinh rule.

    Levels are doubled (step halved) until the difference between the two
    deepest levels, times a safety factor, falls below the tolerance.
    Raises NoConvergence at the level cap and NonFiniteEvaluation if f
    returns a non-finite value at an interior node.
    """
    wp = ctx.working_dps + 10
    with mp.workdps(wp):
        a = mpf(a)
        b = mpf(b)
        if not a < b:
            raise DomainError(f"integrate requires a < b, got a={a}, b={b}")
        tol = mpf(ctx.tolerance if tolerance is None else tolerance)
        r = (b - a) / 2
        mid = (a + b) / 2
        evals = 0
        raw_sum = mpf(0)
        prev_estimate = None
        estimate = None
        for level in range(max_level + 1):
            h = mpf(2) ** (-level)
            new_sum = mpf(0)
            for d, w in _level_nodes(wp, level):
                if d == 1:  # center node
                    points = (mid,)
                else:
                    lo = a + r * d
                    hi = b - r * d
                    points = tuple(p for p in (lo, hi) if a < p < b)
                for p in points:
                    v = f(p)
                    if not mp.isfinite(v):
                        raise NonFiniteEvaluation(f"integrand returned {v} at x={p}")
                    new_sum += w * v
                    evals += 1
            # the raw node sum carries over: halving h re-weights the old
            # nodes while the new odd-index nodes fill the gaps
            raw_sum = raw_sum + new_sum
            prev_estimate = estimate
            estimate = r * h * raw_sum
            if level >= 3 and prev_estimate is not None:
                err = abs(estimate - prev_estimate) * ERROR_SAFETY_FACTOR
                if err < tol:
                    return QuadratureResult(value=estimate, error_estimate=err,
                                            evaluations=evals, levels=level + 1)
        err = abs(estimate - prev_estimate) * ERROR_SAFETY_FACTOR
        raise NoConvergence(
            f"tanh-sinh did not reach tolerance {tol} within {max_level} levels "
            f"(error estimate {err})"
        )


def integrate_to_infinity(f, a, ctx: PrecisionContext, *, max_level: int = DEFAULT_MAX_LEVEL,
                          tolerance=None) -> QuadratureResult:
    """Integrate f over (a, inf) for integrands with eventual exponential decay.

    Uses the transform x = a - ln(1 - u), u in (0, 1), which turns exponential
    decay of f into a regular endpoint at u = 1.
    """
    wp = ctx.working_dps + 10
    with mp.workdps(wp):
        a = mpf(a)

        def g(u):
            return f(a - mp.log(1 - u)) / (1 - u)

        return integrate(g, mpf(0), mpf(1), ctx, max_level=max_level, tolerance=tolerance)
