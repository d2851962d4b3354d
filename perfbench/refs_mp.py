"""High-precision reference values for the benchmark, independent of hypbm.

Nothing here imports hypbm. The odd kernels come from symbolic
differentiation of the closed-form q_3 (sympy), evaluated in mpmath:

  q_3(t,r)     = e^{-t/2} (2 pi t)^{-3/2} (r / sinh r) e^{-r^2/(2t)}
  q_{d+2}(t,r) = -e^{-d t/2} / (2 pi sinh r) * d/dr q_d(t,r)

Even kernels use the descent identity over the exact odd kernel,

  q_d(t,r) = sqrt(2) e^{(2d-1)t/8} int_r^inf q_{d+1}(t,s) sinh s (cosh s - cosh r)^{-1/2} ds,

and even tails swap the order of the resulting double integral, which leaves
the elementary inner integral

  I_k(T,s) = int_T^s sinh^{2k+1} r (cosh s - cosh r)^{-1/2} dr,   d = 2k+2,

a polynomial in v = cosh s - u integrated against v^{-1/2}. Odd tails
integrate the density directly; the d=3 tail has an erfc closed form.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import sympy as sp

_r, _t = sp.symbols("r t", positive=True)


@lru_cache(maxsize=None)
def _odd_kernel_fn(d: int):
    q = sp.exp(-_t / 2) * (2 * sp.pi * _t) ** sp.Rational(-3, 2) * _r / sp.sinh(_r) * sp.exp(-_r**2 / (2 * _t))
    k = 3
    while k < d:
        q = -sp.exp(-k * _t / 2) / (2 * sp.pi * sp.sinh(_r)) * sp.diff(q, _r)
        k += 2
    return sp.lambdify((_t, _r), q, modules="mpmath", cse=True)


def odd_kernel(d: int, t, r):
    """q_d(t, r) for odd d, with working precision raised near r = 0 where
    the symbolic terms cancel like r^{-(d-3)}."""
    r = mp.mpf(r)
    extra = 10 + (d - 3) * max(0, int(-mp.log10(r)) + 1) if r < 1 else 10
    with mp.extradps(extra):
        return +_odd_kernel_fn(d)(mp.mpf(t), r)


def _quad(f, pts):
    """mp.quad with the integrand scaled to O(1) first: mpmath's convergence
    test is absolute, so an integrand of size 1e-165 would otherwise stop at
    the lowest degree."""
    scale = max(abs(f((a + b) / 2)) for a, b in zip(pts, pts[1:]))
    if scale == 0:
        return mp.mpf(0)
    return scale * mp.quad(lambda z: f(z) / scale, pts)


def _s_breaks(lo, t, hi_center):
    """Breakpoints in s from lo to well past the Gaussian bulk."""
    st = mp.sqrt(t)
    hi = max(lo, hi_center) + 20 * st + 10
    pts = [lo]
    step = max(st, mp.mpf(1) / 4)
    s = lo
    while s + step < hi:
        s += step
        pts.append(s)
    pts.append(hi)
    return pts


def even_kernel(d: int, t, r):
    """q_d(t, r) for even d by descent from the exact odd kernel q_{d+1}."""
    t, r = mp.mpf(t), mp.mpf(r)

    def f(w):
        s = r + w * w
        gap = 2 * mp.sinh((s + r) / 2) * mp.sinh(w * w / 2)
        return odd_kernel(d + 1, t, s) * mp.sinh(s) * 2 * w / mp.sqrt(gap)

    # s = r + w^2; break the w axis at the s-breakpoints
    ws = [mp.sqrt(s - r) for s in _s_breaks(r, t, r)]
    val = _quad(f, ws)
    return mp.sqrt(2) * mp.exp((2 * d - 1) * t / 8) * val


def heat_kernel(d: int, t, r):
    return odd_kernel(d, t, r) if d % 2 == 1 else even_kernel(d, t, r)


def surface_area(d: int):
    return 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)


def threshold(d: int, t, x):
    t, x = mp.mpf(t), mp.mpf(x)
    return max(mp.mpf(0), mp.sqrt(t) * x + (d - 1) * t / 2)


def normal_tail(x):
    return mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2


def tail_d3(t, x):
    """Closed form Q(l) + phi(l)/sqrt t + Q(l + 2 sqrt t) - phi(l + 2 sqrt t)/sqrt t, l = max(x, -sqrt t)."""
    t, x = mp.mpf(t), mp.mpf(x)
    st = mp.sqrt(t)
    l = max(x, -st)
    phi = lambda z: mp.exp(-z * z / 2) / mp.sqrt(2 * mp.pi)
    return normal_tail(l) + phi(l) / st + normal_tail(l + 2 * st) - phi(l + 2 * st) / st


def _tail_odd_direct(d: int, t, x):
    t = mp.mpf(t)
    T = threshold(d, t, x)
    center = (d - 1) * t / 2
    f = lambda r: odd_kernel(d, t, r) * mp.sinh(r) ** (d - 1)
    return surface_area(d) * _quad(f, _s_breaks(T, t, center))


def _inner_even(k: int, C, V):
    """int_0^V ((C - v)^2 - 1)^k v^{-1/2} dv."""
    # ((C - v)^2 - 1)^k = sum_j a_j v^j
    base = [C * C - 1, -2 * C, mp.mpf(1)]
    poly = [mp.mpf(1)]
    for _ in range(k):
        nxt = [mp.mpf(0)] * (len(poly) + 2)
        for i, a in enumerate(poly):
            for j, b in enumerate(base):
                nxt[i + j] += a * b
        poly = nxt
    return sum(a * V ** (j + mp.mpf(1) / 2) / (j + mp.mpf(1) / 2) for j, a in enumerate(poly))


def _tail_even_swapped(d: int, t, x):
    t = mp.mpf(t)
    k = (d - 2) // 2
    T = threshold(d, t, x)
    center = d * t / 2

    def f(w):
        s = T + w * w
        V = 2 * mp.sinh((s + T) / 2) * mp.sinh(w * w / 2)  # cosh s - cosh T, no cancellation
        return odd_kernel(d + 1, t, s) * mp.sinh(s) * _inner_even(k, mp.cosh(s), V) * 2 * w

    ws = [mp.sqrt(s - T) for s in _s_breaks(T, t, center)]
    val = _quad(f, ws)
    return mp.sqrt(2) * mp.exp((2 * d - 1) * t / 8) * surface_area(d) * val


def tail(d: int, t, x):
    """P((R_t - (d-1)t/2)/sqrt(t) >= x) for the d-dimensional radial law."""
    if d == 3:
        return tail_d3(t, x)
    if d % 2 == 1:
        return _tail_odd_direct(d, t, x)
    return _tail_even_swapped(d, t, x)
