"""Edge-perspective degree distributions (lambda, rho) of LDPC ensembles.

lambda_k (rho_k) is the fraction of edges attached to variable (check) nodes
of degree k, and lambda(x) = sum_k lambda_k x^(k-1), likewise rho.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass

__all__ = [
    "DegreeEnsemble", "regular_ensemble", "lambda_eval", "rho_eval",
    "lambda2", "rho_prime1", "design_rate", "ensemble_from_json",
    "ensemble_to_json",
]

MASS_TOL = 1e-12
JSON_MASS_TOL = 1e-9
MAX_DEGREE = 10_000     # enumeration kernels elsewhere need bounded degree


def real_number(x) -> bool:
    """Not a string or a bool (JSON's true is an int): ensemble and matrix entries."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _validated_pairs(pairs, side: str, tol: float = MASS_TOL):
    try:
        pairs = [(k, w) for k, w in pairs]
    except (TypeError, ValueError):
        raise ValueError(f"{side} must be a list of (degree, mass) pairs") from None
    if not all(real_number(k) and (isinstance(k, numbers.Integral) or float(k).is_integer())
               for k, _ in pairs):
        raise ValueError(f"{side} degrees must be integers")
    if not all(real_number(w) for _, w in pairs):
        raise ValueError(f"{side} masses must be numbers")
    pairs = tuple((int(k), float(w)) for k, w in pairs)
    if not pairs:
        raise ValueError(f"{side} distribution is empty")
    degrees = [k for k, _ in pairs]
    if len(set(degrees)) != len(degrees):
        raise ValueError(f"{side} degrees must be distinct")
    if any(k < 2 for k in degrees):
        raise ValueError(f"{side} degrees must be >= 2")
    if any(k > MAX_DEGREE for k in degrees):
        raise ValueError(f"{side} degree exceeds the supported maximum {MAX_DEGREE}")
    if any(not w >= 0.0 for _, w in pairs):      # NaN fails too
        raise ValueError(f"{side} masses must be nonnegative numbers")
    total = sum(w for _, w in pairs)
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"{side} masses sum to {total}, expected 1 +- {tol}")
    return tuple((k, w / total) for k, w in pairs)


@dataclass(frozen=True)
class DegreeEnsemble:
    """Sparse (degree, mass) pairs for the lambda and rho edge polynomials."""
    lam: tuple   # of (degree, mass)
    rho: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(sorted(_validated_pairs(self.lam, "lambda"))))
        object.__setattr__(self, "rho", tuple(sorted(_validated_pairs(self.rho, "rho"))))


def regular_ensemble(dv: int, dc: int) -> DegreeEnsemble:
    """The regular (dv, dc) ensemble: lambda(x) = x^(dv-1), rho(x) = x^(dc-1)."""
    return DegreeEnsemble(((dv, 1.0),), ((dc, 1.0),))


def lambda_eval(e: DegreeEnsemble, x):
    return sum(w * x ** (k - 1) for k, w in e.lam)


def rho_eval(e: DegreeEnsemble, x, mul=operator.mul):
    """rho(x) = sum_k rho_k x^(k-1), the power taken under ``mul``: the
    check-node product of scalars, of Z_m CB vectors (``circ_conv``) or of
    DE densities.  Repeated squaring, the squares shared across degrees."""
    squares, out = [x], 0.0
    for k, w in e.rho:
        n, i, acc = k - 1, 0, None
        while n:
            if i == len(squares):
                squares.append(mul(squares[-1], squares[-1]))
            if n & 1:
                acc = squares[i] if acc is None else mul(acc, squares[i])
            n, i = n >> 1, i + 1
        out = out + w * acc
    return out


def lambda2(e: DegreeEnsemble) -> float:
    """Mass of degree-2 variable nodes (drives the stability condition)."""
    return next((w for k, w in e.lam if k == 2), 0.0)


def rho_prime1(e: DegreeEnsemble) -> float:
    """rho'(1) = sum_k rho_k (k - 1)."""
    return sum(w * (k - 1) for k, w in e.rho)


def design_rate(e: DegreeEnsemble) -> float:
    """1 - (sum rho_k / k) / (sum lambda_k / k)."""
    return 1.0 - sum(w / k for k, w in e.rho) / sum(w / k for k, w in e.lam)


def ensemble_from_json(text: str) -> DegreeEnsemble:
    """Parse {"lambda": [[deg, mass], ...], "rho": [...]}; masses to 1 +- 1e-9."""
    data = json.loads(text)
    if not (isinstance(data, dict) and {"lambda", "rho"} <= data.keys()):
        raise ValueError("ensemble JSON must be an object with 'lambda' and 'rho' keys")
    return DegreeEnsemble(_validated_pairs(data["lambda"], "lambda", JSON_MASS_TOL),
                          _validated_pairs(data["rho"], "rho", JSON_MASS_TOL))


def ensemble_to_json(e: DegreeEnsemble) -> str:
    return json.dumps({"lambda": [list(p) for p in e.lam],
                       "rho": [list(p) for p in e.rho]})
