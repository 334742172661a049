"""Channel models and their noise measures.

Binary-input channels are described by small frozen dataclasses; m-ary
symmetric channels (MSCs) by a probability vector p with
P(Y = x + i | X = x) = p_i over the ring Z_m.  All noise measures assume a
uniform input distribution unless stated otherwise.

Two scalar measures are used throughout:

    CB = E[sqrt(p(xbar|Y) / p(x|Y))]   (Bhattacharyya noise parameter)
    SB = 2 E[p(xbar|Y)]                (soft bit value)

Both are 0 for a noise-free channel and 1 for a useless one, and satisfy
SB <= CB <= sqrt(SB).  For a BSC with crossover p, CB = 2 sqrt(p(1-p)) and
SB = 4 p(1-p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Bsc", "Bec", "BiAwgn", "BiLaplace", "BiRayleigh", "Bnsc", "BscMixture",
    "BinaryChannel", "NoisePair", "MscChannel", "MscMixture", "CbVector",
    "ReverseBnsc", "ChannelSpecError", "NotSymmetricError",
    "UnsupportedChannelError",
    "cb_of", "sb_of", "pe_of", "noise_pair_of", "reverse_form",
    "msc_decompose", "symmetrize", "circ_conv", "cb_vector_of", "cutoff_rate",
    "pairwise_pe", "msc_pe", "x_erasure_decompose", "x_erasure_vector",
    "parse_channel_spec", "ChannelFamily", "CHANNEL_FAMILIES",
]

PROB_TOL = 1e-12          # probability vectors validated to this, then renormalized
SYMMETRY_TOL = 1e-10      # circular-symmetry check of conditional matrices
# largest BiAWGN sigma accepted: the SB sum is checked against 30-digit
# integrals up to it; past about 1.3e154 sigma ** 2 overflows
BIAWGN_SIGMA_MAX = 1e6
BIRAYLEIGH_SIGMA_MAX = 1e150


class ChannelSpecError(ValueError):
    """Malformed channel spec string; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotSymmetricError(ValueError):
    """Conditional matrix is not circularly symmetric under the given transform."""

    def __init__(self, x: int, y: int, delta: float):
        super().__init__(
            f"symmetry violated at input x={x}, output y={y} (|delta|={delta:.3e})")
        self.x = x
        self.y = y


class UnsupportedChannelError(ValueError):
    """Operation not defined for this channel type."""


# ---------------------------------------------------------------------------
# binary channel models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability p in [0, 1/2]."""
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"BSC crossover must lie in [0, 1/2], got {self.p}")


@dataclass(frozen=True)
class Bec:
    """Binary erasure channel with erasure probability eps."""
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"BEC erasure probability must lie in [0, 1], got {self.eps}")


@dataclass(frozen=True)
class BiAwgn:
    """Binary-input AWGN channel, inputs mapped to +-1, noise std sigma."""
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma <= BIAWGN_SIGMA_MAX:
            raise ValueError(f"BiAWGN sigma must lie in (0, {BIAWGN_SIGMA_MAX:g}], "
                             f"got {self.sigma}")


@dataclass(frozen=True)
class BiLaplace:
    """Binary-input additive Laplace channel with scale lam (variance 2 lam^2)."""
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"BiLaplace scale must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class BiRayleigh:
    """Binary-input Rayleigh fading channel, unit average energy, noise std sigma.

    The fading amplitude has density 2 a exp(-a^2) and is observed at the
    receiver as side information.
    """
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma <= BIRAYLEIGH_SIGMA_MAX:
            raise ValueError(f"BiRayleigh sigma must lie in (0, {BIRAYLEIGH_SIGMA_MAX:g}], "
                             f"got {self.sigma}")


@dataclass(frozen=True)
class Bnsc:
    """Binary non-symmetric channel: p01 = P(Y=1|X=0), p10 = P(Y=0|X=1).

    Requires p01 + p10 <= 1; otherwise relabel the outputs first.
    """
    p01: float
    p10: float

    def __post_init__(self):
        if not (0.0 <= self.p01 <= 1.0 and 0.0 <= self.p10 <= 1.0):
            raise ValueError("BNSC parameters must lie in [0, 1]")
        if self.p01 + self.p10 > 1.0 + PROB_TOL:
            raise ValueError("BNSC requires p01 + p10 <= 1 (relabel outputs)")


def _weighted_atoms(atoms) -> tuple:
    """Mixture (weight, atom) pairs, the weights checked and renormalized."""
    atoms = tuple((float(w), a) for w, a in atoms)
    if not atoms:
        raise ValueError("mixture needs at least one atom")
    total = sum(w for w, _ in atoms)
    if any(not w >= -PROB_TOL for w, _ in atoms) or not abs(total - 1.0) <= PROB_TOL:
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    return tuple((w / total, a) for w, a in atoms)


@dataclass(frozen=True)
class BscMixture:
    """Finite mixture of BSCs; the mixture label is receiver side information."""
    atoms: tuple  # of (weight, crossover p)

    def __post_init__(self):
        atoms = tuple((w, float(p)) for w, p in _weighted_atoms(self.atoms))
        if any(not 0.0 <= p <= 0.5 for _, p in atoms):
            raise ValueError("mixture crossovers must lie in [0, 1/2]")
        object.__setattr__(self, "atoms", atoms)


BinaryChannel = Bsc | Bec | BiAwgn | BiLaplace | BiRayleigh | Bnsc | BscMixture


@dataclass(frozen=True)
class NoisePair:
    """A (CB, SB) pair; either entry may be absent for one-dimensional bounds.

    When both are present they must satisfy SB <= CB <= sqrt(SB) within a
    1e-12 slack.
    """
    cb: float | None = None
    sb: float | None = None

    def __post_init__(self):
        if self.cb is None and self.sb is None:
            raise ValueError("NoisePair needs at least one coordinate")
        for name, v in (("cb", self.cb), ("sb", self.sb)):
            if v is not None and not -PROB_TOL <= v <= 1.0 + PROB_TOL:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.cb is not None and self.sb is not None:
            if self.sb > self.cb + PROB_TOL or self.cb * self.cb > self.sb + PROB_TOL:
                raise ValueError(
                    f"({self.cb}, {self.sb}) violates SB <= CB <= sqrt(SB)")


@dataclass(frozen=True)
class ReverseBnsc:
    """Reverse-channel view of a BNSC: output marginals and reverse crossovers."""
    r0: float
    r1: float
    r01: float
    r10: float


# ---------------------------------------------------------------------------
# m-ary symmetric channels
# ---------------------------------------------------------------------------

def _validated_prob_vector(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("probability vector must be 1-D with length >= 2")
    if not (p.min() >= -PROB_TOL and abs(p.sum() - 1.0) <= PROB_TOL):   # NaN fails
        raise ValueError("entries must be nonnegative and sum to 1 within 1e-12")
    p = np.clip(p, 0.0, None)
    return p / p.sum()   # renormalize once; downstream convolutions amplify drift


@dataclass(frozen=True)
class MscChannel:
    """m-ary symmetric channel specified by p with P(Y = x+i | X = x) = p_i."""
    p: np.ndarray

    def __post_init__(self):
        p = _validated_prob_vector(self.p)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def m(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class MscMixture:
    """Probabilistic combination of MSCs sharing one alphabet size."""
    atoms: tuple  # of (weight, MscChannel)

    def __post_init__(self):
        atoms = _weighted_atoms(self.atoms)
        if any(ch.m != atoms[0][1].m for _, ch in atoms):
            raise ValueError("all atoms must share the alphabet size")
        object.__setattr__(self, "atoms", atoms)

    @property
    def m(self) -> int:
        return self.atoms[0][1].m


@dataclass(frozen=True)
class CbVector:
    """Length-m vector of pairwise Bhattacharyya parameters CB(0 -> x).

    Stationarity forces the symmetry v[x] = v[m-x]; the constructor rejects
    vectors violating it beyond 1e-9.
    """
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("CB vector must be 1-D with length >= 2")
        if not (v.min() >= -PROB_TOL and v.max() < np.inf):     # NaN fails too
            raise ValueError("CB vector entries must be finite and nonnegative")
        mirrored = np.roll(v[::-1], 1)   # mirrored[x] = v[m - x mod m]
        if not np.max(np.abs(v - mirrored)) <= 1e-9:
            raise ValueError("CB vector must satisfy v[x] = v[m-x]")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @property
    def m(self) -> int:
        return self.v.size

    def max_off_zero(self) -> float:
        return float(self.v[1:].max())


# ---------------------------------------------------------------------------
# scalar noise measures
# ---------------------------------------------------------------------------

_AWGN_NODES = 0.25 * np.arange(-160.0, 161.0)     # the BiAWGN SB sum's trapezoid nodes


def cb_of(ch: BinaryChannel) -> float:
    """Bhattacharyya noise parameter under uniform input.

    Closed forms for every supported model; no quadrature is needed.
    """
    if isinstance(ch, Bsc):
        return 2.0 * math.sqrt(ch.p * (1.0 - ch.p))
    if isinstance(ch, Bec):
        return ch.eps
    if isinstance(ch, (BiAwgn, BiRayleigh)) and ch.sigma ** 2 == 0.0:
        return 0.0      # sigma^2 underflowed: the noise-free limit
    if isinstance(ch, BiLaplace) and 1.0 / ch.lam == math.inf:
        return 0.0      # 1/lam overflowed: the noise-free limit, not inf * 0
    if isinstance(ch, BiAwgn):
        return math.exp(-1.0 / (2.0 * ch.sigma ** 2))
    if isinstance(ch, BiLaplace):
        return (1.0 + ch.lam) / ch.lam * math.exp(-1.0 / ch.lam)
    if isinstance(ch, BiRayleigh):
        return 1.0 / (1.0 + 1.0 / (2.0 * ch.sigma ** 2))
    if isinstance(ch, Bnsc):
        return (math.sqrt(ch.p01 * (1.0 - ch.p10))
                + math.sqrt(ch.p10 * (1.0 - ch.p01)))
    if isinstance(ch, BscMixture):
        return sum(w * 2.0 * math.sqrt(p * (1.0 - p)) for w, p in ch.atoms)
    raise UnsupportedChannelError(f"cb_of: {type(ch).__name__}")


def sb_of(ch: BinaryChannel) -> float:
    """Soft bit value under uniform input.

    BiAWGN's SB is e^(-1/(2 sigma^2)) a / sqrt(2 pi) times the integral of
    e^(-a^2 t^2/2) sech(a t/sigma) dt, a = min(sigma, 1): one trapezoid sum,
    step 1/4 on [-40, 40], off by about e^(-pi^2 / step) = e^-39.5 (the
    integrand is analytic for |Im t| < pi/2) and within 7e-15 of 30-digit
    integrals for sigma in [0.05, 1e6].  Everything else is closed form.
    BiRayleigh's LLR given the fading power t ~ Exp(1) is N(ct, 2ct), c =
    2/sigma^2, so its density is e^(L/2 - r|L|)/(2cr), r = sqrt(1/c + 1/4).
    Against 2/(1 + e^L) it gives SB = sigma^2 beta(r + 1/2) / r, where
    beta(y) = sum_k (-1)^k/(y + k) = [psi((y + 1)/2) - psi(y/2)] / 2
    = 2F1(1, y; y + 1; -1) / y; the 2F1 form does not cancel at large sigma.
    """
    if isinstance(ch, Bsc):
        return 4.0 * ch.p * (1.0 - ch.p)
    if isinstance(ch, Bec):
        return ch.eps
    if isinstance(ch, (BiAwgn, BiRayleigh)) and ch.sigma ** 2 == 0.0:
        return 0.0      # sigma^2 underflowed: the noise-free limit
    if isinstance(ch, BiLaplace) and 1.0 / ch.lam == math.inf:
        return 0.0      # 1/lam overflowed: the noise-free limit, not inf * 0
    if isinstance(ch, BiAwgn):
        a, t = min(ch.sigma, 1.0), _AWGN_NODES
        val = float((np.exp(-0.5 * (a * t) ** 2) / np.cosh(a / ch.sigma * t)).sum())
        return math.exp(-1.0 / (2.0 * ch.sigma ** 2)) * a / math.sqrt(2.0 * math.pi) * 0.25 * val
    if isinstance(ch, BiLaplace):
        u = 1.0 / ch.lam
        e2 = math.exp(-2.0 * u)         # e^-u / cosh u without overflow at small lam
        return (2.0 * e2 / (1.0 + e2)
                + 2.0 * math.exp(-u) * math.atan(math.tanh(u / 2.0)))
    if isinstance(ch, BiRayleigh):
        s2 = ch.sigma ** 2
        r = math.sqrt(s2 / 2.0 + 0.25)
        from scipy.special import hyp2f1
        sb = float(hyp2f1(1.0, r + 0.5, r + 1.5, -1.0)) / (r + 0.5) * s2 / r
        return min(sb, cb_of(ch))       # rounding lifts sb past cb from sigma ~ 9e8
    if isinstance(ch, Bnsc):
        rev = reverse_form(ch)
        return (rev.r0 * 4.0 * rev.r01 * (1.0 - rev.r01)
                + rev.r1 * 4.0 * rev.r10 * (1.0 - rev.r10))
    if isinstance(ch, BscMixture):
        return sum(w * 4.0 * p * (1.0 - p) for w, p in ch.atoms)
    raise UnsupportedChannelError(f"sb_of: {type(ch).__name__}")


def pe_of(ch: BinaryChannel) -> float:
    """MAP bit error probability under uniform input, discrete outputs only.

    Ties are resolved by a fair coin, so a full erasure contributes 1/2.
    """
    if isinstance(ch, Bsc):
        return ch.p
    if isinstance(ch, Bec):
        return ch.eps / 2.0
    if isinstance(ch, Bnsc):
        return 0.5 * (min(1.0 - ch.p01, ch.p10) + min(ch.p01, 1.0 - ch.p10))
    if isinstance(ch, BscMixture):
        # the mixture label is side information, so errors average over atoms
        return sum(w * p for w, p in ch.atoms)
    raise UnsupportedChannelError(
        f"pe_of is defined for discrete-output channels only, got {type(ch).__name__}")


def noise_pair_of(ch: BinaryChannel) -> NoisePair:
    return NoisePair(cb=cb_of(ch), sb=sb_of(ch))


def reverse_form(ch: Bnsc) -> ReverseBnsc:
    """Reverse-channel view: P(Y) marginals and crossovers of Y -> X.

    Under a uniform input the BNSC behaves like two BSCs with crossovers
    r01, r10 mixed with weights R(0), R(1); in particular
    CB = R(0) CB(r01) + R(1) CB(r10).
    """
    p01, p10 = ch.p01, ch.p10
    r0 = (1.0 - p01 + p10) / 2.0
    r1 = (1.0 + p01 - p10) / 2.0
    r01 = p10 / (1.0 - p01 + p10) if r0 > 0.0 else 0.0
    r10 = p01 / (1.0 + p01 - p10) if r1 > 0.0 else 0.0
    return ReverseBnsc(r0=r0, r1=r1, r01=r01, r10=r10)


# ---------------------------------------------------------------------------
# MSC operations
# ---------------------------------------------------------------------------

def circ_conv(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Circular convolution (u (x) v)[x] = sum_z u[z] v[x - z mod m], direct O(m^2)."""
    return np.array([float(np.dot(u, np.roll(v[::-1], x + 1))) for x in range(u.size)])


def cb_vector_of(ch: MscChannel | MscMixture) -> CbVector:
    """CB(0 -> x) = sum_y sqrt(p_y p_{y+x}), the circular autocorrelation of
    sqrt(p); mixtures average atom vectors."""
    if isinstance(ch, MscMixture):
        acc = np.zeros(ch.m)
        for w, atom in ch.atoms:
            acc += w * cb_vector_of(atom).v
        return CbVector(acc)
    s = np.sqrt(ch.p)
    v = circ_conv(np.roll(s[::-1], 1), s)         # s[-z] (x) s
    return CbVector(np.minimum(v, 1.0))   # Cauchy-Schwarz caps entries at 1


def cutoff_rate(v: CbVector) -> float:
    """R0 = log2 m - log2 sum_x v[x], in bits."""
    return math.log2(v.m) - math.log2(float(v.v.sum()))


def msc_pe(ch: MscChannel | MscMixture) -> float:
    """MAP symbol error probability of an MSC (mixture): 1 - E[max_i p_i]."""
    if isinstance(ch, MscMixture):
        return sum(w * msc_pe(atom) for w, atom in ch.atoms)
    return 1.0 - float(ch.p.max())


def pairwise_pe(ch: MscChannel | MscMixture, x: int) -> float:
    """Pairwise MAP error for inputs restricted to {0, x}, x != 0."""
    if x % ch.m == 0:
        raise ValueError("pairwise_pe needs x != 0")
    if isinstance(ch, MscMixture):
        return sum(w * pairwise_pe(atom, x) for w, atom in ch.atoms)
    p = ch.p
    return 0.5 * float(np.minimum(p, np.roll(p, -x)).sum())


def x_erasure_vector(m: int, x: int) -> MscChannel:
    """The x-erasure MSC e_x: p_0 = p_x = 1/2, erasing only the 0-vs-x question."""
    p = np.zeros(m)
    p[0] = 0.5
    p[x % m] += 0.5
    return MscChannel(p)


def x_erasure_decompose(ch: MscChannel, x: int):
    """Split an MSC into (perfect, e_x) mixture followed by a common channel.

    Returns (weight, r, s) where weight = 2 p_{e,0<->x} and the original p is
    reproduced exactly by p_i = (1-weight) r_i + weight (s_i + s_{i-x}) / 2.
    r is None when weight = 1, s is None when weight = 0.
    """
    m = ch.m
    x = x % m
    if x == 0:
        raise ValueError("x_erasure_decompose needs x != 0")
    p = ch.p
    mins = np.minimum(p, np.roll(p, -x))
    weight = float(mins.sum())
    r = None
    s = None
    if weight < 1.0 - PROB_TOL:
        num = p - 0.5 * mins - 0.5 * np.roll(mins, x)
        r = MscChannel(np.clip(num, 0.0, None) / (1.0 - weight))
    if weight > PROB_TOL:
        s = MscChannel(mins / weight)
    return weight, r, s


def msc_decompose(cond: np.ndarray, transform) -> MscMixture:
    """Decompose a circularly symmetric channel into a mixture of MSCs.

    Parameters
    ----------
    cond : (m, n) array
        Conditional matrix P(Y = y | X = x) over a finite output alphabet.
    transform : length-n int array
        Output permutation T with T^m = identity realizing the symmetry
        P(Y = y | 0) = P(Y = T^x(y) | x).

    Every check reads one table, ``powers[x] = T^x`` for x = 0..m.  Each
    T-orbit of outputs becomes one MSC atom, in the order of its smallest
    output; an orbit of size d < m is spread uniformly over the m slots,
    which preserves the posterior law.  ``NotSymmetricError`` names the
    first x at which a row, or then an orbit's weight, departs from x = 0's.
    """
    cond = np.array(cond, dtype=float)
    m, n = cond.shape
    if n >= 2:
        cond = np.array([_validated_prob_vector(row) for row in cond])
    T = np.asarray(transform, dtype=int)
    if T.shape != (n,) or sorted(T.tolist()) != list(range(n)):
        raise ValueError("transform must be a permutation of the outputs")
    powers = np.empty((m + 1, n), dtype=int)
    powers[0] = np.arange(n)
    for x in range(m):
        powers[x + 1] = T[powers[x]]
    if not np.array_equal(powers[m], powers[0]):
        raise ValueError("transform must satisfy T^m = identity")

    inputs = np.arange(m)[:, None]
    delta = np.abs(cond[0] - cond[inputs, powers[:m]])
    bad = np.flatnonzero(delta.max(axis=1) > SYMMETRY_TOL)
    if bad.size:
        x = bad[0]
        raise NotSymmetricError(int(x), int(delta[x].argmax()), float(delta[x].max()))

    atoms = []
    for y0 in np.flatnonzero(powers[:m].min(axis=0) == powers[0]):   # orbit minima
        orbit = powers[:m, y0]
        d = int(np.argmax(powers[1:, y0] == y0)) + 1    # divides m since T^m = id
        # one weight per input; C order sums each row pairwise, as a 1-D sum does
        weights = np.ascontiguousarray(cond[inputs, powers[:m, orbit[:d]]]).sum(axis=1)
        off = np.flatnonzero(np.abs(weights - weights[0]) > SYMMETRY_TOL)
        if off.size:
            x = off[0]
            raise NotSymmetricError(int(x), int(y0), float(abs(weights[x] - weights[0])))
        if weights[0] > PROB_TOL:
            p = cond[0, orbit] * (d / m)
            atoms.append((float(weights[0]), MscChannel(p / p.sum())))
    return MscMixture(tuple(atoms))


def symmetrize(cond: np.ndarray) -> MscMixture:
    """Symmetrize an arbitrary Z_m-input channel and decompose it.

    Concatenates the channel with a uniform dither W on Z_m (the receiver
    sees the pair (W, Y) with the input shifted by W), which is circularly
    symmetric under T(w, y) = (w - 1, y), then applies ``msc_decompose``.
    Each row of ``cond`` is checked to be a probability vector first: every
    dithered row averages all of them, so a bad row need not show there.
    """
    cond = np.asarray(cond, dtype=float)
    m, n = cond.shape
    rows_ok = cond.min() >= -PROB_TOL and np.all(np.abs(cond.sum(axis=1) - 1.0) <= PROB_TOL)
    if not rows_ok:                                                  # NaN fails
        raise ValueError("each row must be nonnegative and sum to 1 within 1e-12")
    big = np.concatenate([np.roll(cond, -w, axis=0) for w in range(m)], axis=1) / m
    return msc_decompose(big, (np.arange(m * n) - n) % (m * n))


# ---------------------------------------------------------------------------
# channel spec strings
# ---------------------------------------------------------------------------
#
# Grammar (no whitespace):
#   spec     := "bsc:" FLOAT | "bec:" FLOAT | "biawgn:" FLOAT | "bilc:" FLOAT
#             | "rayleigh:" FLOAT | "bnsc:" FLOAT "," FLOAT
#             | "msc:" FLOAT ("," FLOAT)+
#             | "mix:" atom (";" atom)*
#   atom     := "(" FLOAT "," FLOAT ")"

def _numbers(parts, pos: int, names) -> list:
    """The numbers in ``parts``, comma-separated text that starts at ``pos``;
    ``names[i]`` names the i-th one in the error a bad number raises."""
    values = []
    for part, what in zip(parts, names):
        try:
            values.append(float(part))
        except ValueError:
            raise ChannelSpecError(f"expected a number for {what}, got {part!r}", pos) from None
        pos += len(part) + 1
    return values


_ONE_NUMBER_HEADS = {"bsc": (Bsc, "crossover"), "bec": (Bec, "erasure probability"),
                     "biawgn": (BiAwgn, "sigma"), "bilc": (BiLaplace, "scale"),
                     "rayleigh": (BiRayleigh, "sigma")}


def parse_channel_spec(spec: str):
    """Parse a channel spec string into a channel object.

    Raises ChannelSpecError with the offending position on malformed input
    and on parameters out of range.
    """
    if ":" not in spec:
        raise ChannelSpecError("missing ':' separator", len(spec))
    head, _, rest = spec.partition(":")
    body_pos, parts = len(head) + 1, rest.split(",")
    try:
        if head in _ONE_NUMBER_HEADS:
            build, what = _ONE_NUMBER_HEADS[head]
            return build(*_numbers([rest], body_pos, [what]))
        if head == "bnsc":
            if len(parts) != 2:
                raise ChannelSpecError("bnsc needs exactly two parameters", body_pos)
            return Bnsc(*_numbers(parts, body_pos, ["p01", "p10"]))
        if head == "msc":
            if len(parts) < 2:
                raise ChannelSpecError("msc needs at least two entries", body_pos)
            return MscChannel(np.array(_numbers(parts, body_pos, ["msc entry"] * len(parts))))
        if head == "mix":
            atoms, pos = [], body_pos
            for part in rest.split(";"):
                if not (part.startswith("(") and part.endswith(")")):
                    raise ChannelSpecError("mixture atom must look like (w,p)", pos)
                inner = part[1:-1].split(",")
                if len(inner) != 2:
                    raise ChannelSpecError("mixture atom needs (weight, crossover)", pos)
                atoms.append(_numbers(inner, pos + 1, ["weight", "crossover"]))
                pos += len(part) + 1
            return BscMixture(tuple(atoms))
    except ChannelSpecError:
        raise
    except ValueError as exc:
        raise ChannelSpecError(str(exc), body_pos)
    raise ChannelSpecError(f"unknown channel kind {head!r}", 0)


# ---------------------------------------------------------------------------
# parametric channel families (for threshold searches)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelFamily:
    """A one-parameter channel family whose noise increases with the parameter."""
    name: str
    param: str
    build: object = field(repr=False)   # callable parameter -> channel
    lo: float = 0.0
    hi: float = 1.0


CHANNEL_FAMILIES = {
    "bsc": ChannelFamily("bsc", "p", Bsc, 0.0, 0.5),
    "bec": ChannelFamily("bec", "eps", Bec, 0.0, 1.0),
    "biawgn": ChannelFamily("biawgn", "sigma", BiAwgn, 0.05, 3.0),
    "bilc": ChannelFamily("bilc", "lambda", BiLaplace, 0.05, 3.0),
    "rayleigh": ChannelFamily("rayleigh", "sigma", BiRayleigh, 0.05, 3.0),
    "zchan": ChannelFamily("zchan", "p10", lambda p10: Bnsc(0.0, p10), 0.0, 1.0),
}
