"""Even Picard group and Pi-Picard classification data for P^(n|m).

The even Picard group is Z (degree) times a continuous part that is nonzero
only on the projective superline: classes are represented by transition
functions in normal form

    W  =  c * w^k * exp(N),    N = sum over even masks S, |S| >= 2,
                                   of c_j^S psi^S / w^j,  1 <= j <= |S| - 1.

The multiplicative-to-additive transfer through super_log is exact: even
elements commute, so log of a product of units is the sum of logs, and the
additive coboundary lattice is spanned by pure monomials (w^b psi^S with
b >= 0 from the V chart, w^(-a-|S|) psi^S from the U chart), which makes the
normal-form reduction a per-monomial truncation.
"""

from __future__ import annotations

from .cech import TransitionSheaf, cech_cohomology, twist_sheaf
from .errors import DomainError, check_pnm
from .records import Record
from .superpoly import SuperPolynomial, mask_parity, pnm_transition, super_log


def continuous_dim_formula(n: int, m: int) -> int:
    if n == 1 and m >= 2:
        return 2 ** (m - 2) * (m - 2) + 1
    return 0


class PicardGroupData(Record):
    __slots__ = ("continuous_dim", "generators")

    # the degree: one Z factor on every P^(n|m)
    discrete_rank = 1

    def __init__(self, continuous_dim: int, generators: list):
        self.continuous_dim = continuous_dim
        self.generators = generators  # transition-function polynomials (V-chart)


class PiPicardData(Record):
    __slots__ = ("split_only", "nonsplit_parameter_dim")

    def __init__(self, split_only: bool, nonsplit_parameter_dim: int):
        self.split_only = split_only
        self.nonsplit_parameter_dim = nonsplit_parameter_dim


def _pole_band(mask: int) -> range:
    """Surviving pole orders for an even mask S: 1..|S|-1.

    V-chart coboundaries kill exponents >= 0, U-chart ones exponents
    <= -|S| (z^a theta^S maps to w^(-a-|S|) psi^S).
    """
    size = mask.bit_count()
    return range(1, size)


def _truncate_to_bands(n_log: SuperPolynomial) -> SuperPolynomial:
    """n_log modulo additive coboundaries: the terms whose pole order lies in
    their mask's band."""
    return SuperPolynomial(n_log.ctx, {
        (exps, mask): coeff
        for (exps, mask), coeff in n_log.terms.items()
        if -exps[0] in _pole_band(mask)
    })


def continuous_generators(m: int) -> list:
    """One representative transition function per free normal-form coefficient."""
    ctx = pnm_transition(1, m).ctx_b
    gens = []
    for mask in range(1, 1 << m):
        if mask_parity(mask) != 0:
            continue
        for j in _pole_band(mask):
            gens.append(ctx.one() + ctx.monomial(1, (-j,), mask))
    return gens


def even_picard(n: int, m: int) -> PicardGroupData:
    ctx = pnm_transition(n, m).ctx_b
    gens = [ctx.var(ctx.even[0])]
    if n == 1:
        gens += continuous_generators(m)
    return PicardGroupData(continuous_dim_formula(n, m), gens)


def normal_form(sheaf: TransitionSheaf):
    """Class label (k, c, N) of a transition function: W ~ c * w^k * exp(N).

    N is reduced modulo additive coboundaries: per even mask S only pole
    orders 1..|S|-1 survive.
    """
    ctx = sheaf.W.ctx
    k = sheaf.body_exponent
    unit = sheaf.W * ctx.monomial(1, (-k,), 0)
    c, n_log = super_log(unit)
    return k, c, _truncate_to_bands(n_log)


def normal_form_product(label_a, label_b):
    """Group law on class labels: degrees and log parts add, units multiply."""
    ka, ca, na = label_a
    kb, cb, nb = label_b
    return ka + kb, ca * cb, _truncate_to_bands(na + nb)


def verify_picard_dim_cech(m: int) -> bool:
    """Continuous dimension and odd-sector count recomputed through the Cech
    engine.

    H^1 of the even nilpotent sector of the structure sheaf (additive, via
    the exp/log linearization) against the closed form 2^(m-2)(m-2)+1, and
    the odd sector's H^1 against the non-split parameter count of
    ``pi_picard``, 2^(m-2)(m-2).  W = 1 couples no two masks and h^1(O_P1)
    = 0, so the two sectors' H^1 are the even and odd parts of one run's
    H^1(O).  W = 1 has no nilpotent term, so D is zero: this compares the
    E1 page's per-mask counts of O(-|s|) on P^1 with the closed forms.  D
    itself, on coupled masks, is checked against the windowed reference of
    the tests.
    """
    if not 2 <= m <= 6:
        raise DomainError("the Cech check needs 2 <= m <= 6")
    h1 = cech_cohomology(twist_sheaf(m, 0), want_generators=False).h1
    return (h1.even, h1.odd) == (continuous_dim_formula(1, m),
                                 pi_picard(1, m).nonsplit_parameter_dim)


def pi_picard(n: int, m: int) -> PiPicardData:
    """Split criterion and non-split parameter count for Pi-invertible sheaves.

    This is classification data of a pointed set, not a group: no
    composition law is reported.
    """
    check_pnm(n, m)
    if n == 1 and m >= 3:
        dim = 2 ** (m - 2) * (m - 2)
    else:
        dim = 0
    return PiPicardData(split_only=dim == 0, nonsplit_parameter_dim=dim)


def picard_report(n: int, m: int) -> dict:
    data = even_picard(n, m)
    pi = pi_picard(n, m)
    return {
        "schema": 1,
        "n": n,
        "m": m,
        "discrete_rank": data.discrete_rank,
        "continuous_dim": data.continuous_dim,
        "generators": [str(g) for g in data.generators],
        "pi": {
            "split_only": pi.split_only,
            "nonsplit_parameter_dim": pi.nonsplit_parameter_dim,
        },
    }
