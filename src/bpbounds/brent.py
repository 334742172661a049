"""Brent's bounded minimiser on plain floats (Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 5).

``minimize_bounded`` follows ``scipy.optimize.minimize_scalar(method=
"bounded")`` operation for operation, so it returns the same floats from the
same function evaluations without loading scipy (``scipy.optimize`` alone
costs about 0.6 s to import).  It refines CB* and SB*; SB*'s sigma(x) needs
no root finder, since ``binary_bounds.ub_sb_sigma`` solves it by Newton's
method on the ub-sb step's rational form.
"""

from __future__ import annotations

import math

__all__ = ["minimize_bounded"]

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(x: float) -> float:
    # numpy's sign(x) + (x == 0): +1 or -1, with +1 at zero
    return -1.0 if x < 0.0 else 1.0


def minimize_bounded(f, a: float, b: float, xatol: float):
    """(x, f(x)) at a local minimum of f on [a, b], to about ``xatol``, by
    golden-section and parabolic steps; at most 500 evaluations."""
    a, b = float(a), float(b)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:              # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx
