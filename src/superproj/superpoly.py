"""Supercommutative Laurent polynomial algebra and super derivations.

A context fixes an ordered list of even variables (Laurent: negative
exponents allowed) and odd variables (square to zero, anticommute).  A
polynomial is a dict from monomial keys ``(exps, mask)`` to ``Scalar``
coefficients, where ``exps`` is the tuple of even exponents and ``mask`` is a
bitmask over the odd variables.  All signs follow the Koszul rule with odd
variables written in increasing index order.

One product loop, ``_mul_into``, accumulates Koszul-signed products into a
term dict, and ``_partial_terms`` returns the term dict of a partial
derivative.  Polynomial multiplication and ``partial`` wrap them, and a
``SuperDerivation`` acts on term dicts through them: ``apply`` sums
f_v * dp/dv into one dict and ``bracket`` one dict per coefficient, each
building its ``SuperPolynomial`` once at the end.

The two standard charts of P^(n|m) come from ``pnm_transition``.  Their
chart map sends each monomial to one monomial with sign +1, so it relabels
keys and never multiplies polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add

from .errors import ContextError, DomainError, ParityError, check_pnm
from .scalars import ONE, Scalar, power, signed_join

MonKey = tuple  # (exps: tuple[int, ...], mask: int)
_new = object.__new__


def mask_parity(mask: int) -> int:
    return mask.bit_count() & 1


def koszul_sign(a: int, b: int) -> int:
    """Sign of theta^a * theta^b -> theta^(a|b), or 0 on overlap.

    Counts the transpositions needed to merge two increasing index lists.
    """
    if a & b:
        return 0
    swaps = 0
    j = 0
    bb = b
    while bb:
        if bb & 1:
            swaps += (a >> (j + 1)).bit_count()
        bb >>= 1
        j += 1
    return -1 if swaps & 1 else 1


def _mul_into(out: dict, ta: dict, tb: dict, sign: int = 1) -> None:
    """Add sign * (ta * tb), Koszul-signed, into the term dict ``out``.

    The one product loop of the engine: ``SuperPolynomial.__mul__`` and the
    derivation action both accumulate through it.  ``out`` may be left
    holding zero coefficients; ``SuperPolynomial`` drops them.
    """
    for (ea, ma), ca in ta.items():
        for (eb, mb), cb in tb.items():
            s = koszul_sign(ma, mb)
            if s == 0:
                continue
            key = (tuple(map(add, ea, eb)), ma | mb)
            c = ca * cb
            if s != sign:
                c = -c
            prev = out.get(key)
            out[key] = c if prev is None else prev + c


def _partial_terms(terms: dict, kind: str, pos: int) -> dict:
    """Term dict of the partial derivative by the variable at (kind, pos).

    An odd derivative acts from the left, so it passes the odd variables
    below it with a sign each.  Either derivative maps distinct surviving
    keys to distinct keys, so no two terms meet.
    """
    out = {}
    if kind == "even":
        for (exps, mask), c in terms.items():
            e = exps[pos]
            if e:
                out[(exps[:pos] + (e - 1,) + exps[pos + 1:], mask)] = c * e
    else:
        bit = 1 << pos
        for (exps, mask), c in terms.items():
            if mask & bit:
                below = (mask & (bit - 1)).bit_count()
                out[(exps, mask ^ bit)] = -c if below & 1 else c
    return out


class Context:
    """An ordered set of even and odd variable names."""

    __slots__ = ("even", "odd", "_index")

    def __init__(self, even, odd):
        even, odd = tuple(even), tuple(odd)
        names = even + odd
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate variable names in {names}")
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)
        object.__setattr__(
            self, "_index",
            {name: ("even", i) for i, name in enumerate(even)}
            | {name: ("odd", i) for i, name in enumerate(odd)},
        )

    def __setattr__(self, name, value):
        raise AttributeError("Context is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Context)
            and self.even == other.even
            and self.odd == other.odd
        )

    def __hash__(self):
        return hash((self.even, self.odd))

    def __repr__(self):
        return f"Context(even={list(self.even)}, odd={list(self.odd)})"

    def lookup(self, name: str):
        """('even'|'odd', position) of a variable."""
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"unknown variable {name!r} in {self!r}") from None

    def zero_exps(self):
        return (0,) * len(self.even)

    def zero(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {})

    def scalar(self, c) -> "SuperPolynomial":
        c = Scalar.coerce(c)
        if c.is_zero():
            return self.zero()
        return SuperPolynomial(self, {(self.zero_exps(), 0): c})

    def one(self) -> "SuperPolynomial":
        return self.scalar(1)

    def var(self, name: str) -> "SuperPolynomial":
        kind, pos = self.lookup(name)
        if kind == "even":
            exps = [0] * len(self.even)
            exps[pos] = 1
            return SuperPolynomial(self, {(tuple(exps), 0): ONE})
        return SuperPolynomial(self, {(self.zero_exps(), 1 << pos): ONE})

    def monomial(self, coeff, exps=None, mask: int = 0) -> "SuperPolynomial":
        coeff = Scalar.coerce(coeff)
        exps = self.zero_exps() if exps is None else tuple(exps)
        if len(exps) != len(self.even):
            raise ContextError("exponent tuple length mismatch")
        if mask >> len(self.odd):
            raise ContextError("mask addresses a nonexistent odd variable")
        if coeff.is_zero():
            return self.zero()
        return SuperPolynomial(self, {(exps, mask): coeff})


class SuperPolynomial:
    """Element of the supercommutative Laurent algebra of a context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    @staticmethod
    def _term(ctx: Context, key: MonKey, c: Scalar) -> "SuperPolynomial":
        """The one-term polynomial c * key, for a c known to be nonzero: no
        dict copy and no zero filter."""
        p = _new(SuperPolynomial)
        p.ctx = ctx
        p.terms = {key: c}
        return p

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self):
        """0 (even), 1 (odd), or None if mixed or zero-ambiguous (zero -> 0)."""
        seen = {mask_parity(mask) for _, mask in self.terms}
        if not seen:
            return 0
        if len(seen) == 2:
            return None
        return seen.pop()

    def body(self) -> "SuperPolynomial":
        """The part with no odd variables."""
        return SuperPolynomial(
            self.ctx, {k: v for k, v in self.terms.items() if k[1] == 0}
        )

    def is_nilpotent(self) -> bool:
        return all(mask for _, mask in self.terms)

    def coefficient(self, exps, mask: int = 0) -> Scalar:
        return self.terms.get((tuple(exps), mask), Scalar(0))

    # -- ring operations -------------------------------------------------

    def _check_ctx(self, other: "SuperPolynomial"):
        if self.ctx != other.ctx:
            raise ContextError(f"context mismatch: {self.ctx!r} vs {other.ctx!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.scalar(other)
        self._check_ctx(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return SuperPolynomial(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial(self.ctx, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.coerce(other)
            return SuperPolynomial(self.ctx, {k: v * c for k, v in self.terms.items()})
        self._check_ctx(other)
        out = {}
        _mul_into(out, self.terms, other.terms)
        return SuperPolynomial(self.ctx, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * Scalar.coerce(other).inverse()
        return self * other.inverse()

    def __pow__(self, k: int):
        return power(self, k, self.ctx.one())

    def inverse(self) -> "SuperPolynomial":
        """Inverse of an even unit: single-term body times (1 + nilpotent)."""
        body = self.body().terms
        if len(body) != 1:
            raise DomainError("inverse requires a single-term body")
        if self.parity() != 0:
            raise ParityError("inverse requires an even element")
        (exps, _), c = next(iter(body.items()))
        t_inv = self.ctx.monomial(c.inverse(), tuple(-e for e in exps), 0)
        n = self * t_inv - 1  # nilpotent
        return _nilpotent_series(n, self.ctx.one(), lambda k: (-1) ** k) * t_inv

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ctx.scalar(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- calculus ---------------------------------------------------------

    def partial(self, name: str) -> "SuperPolynomial":
        """Partial derivative; odd derivatives act from the left."""
        kind, pos = self.ctx.lookup(name)
        return SuperPolynomial(self.ctx, _partial_terms(self.terms, kind, pos))

    # -- rendering ---------------------------------------------------------

    def _sorted_keys(self):
        def order(key):
            exps, mask = key
            return (sum(exps) + mask.bit_count(), exps, mask)

        return sorted(self.terms, key=order)

    def monomial_str(self, key) -> str:
        exps, mask = key
        parts = []
        for pos, e in enumerate(exps):
            if e == 1:
                parts.append(self.ctx.even[pos])
            elif e:
                parts.append(f"{self.ctx.even[pos]}^{e}")
        odd = self.ctx.odd
        while mask:
            low = mask & -mask
            parts.append(odd[low.bit_length() - 1])
            mask ^= low
        return "*".join(parts) if parts else "1"

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for key in self.terms if len(self.terms) == 1 else self._sorted_keys():
            c = self.terms[key]
            mono = self.monomial_str(key)
            ctext = str(c)
            if mono == "1":
                chunk = ctext
            elif ctext == "1":
                chunk = mono
            elif ctext == "-1":
                chunk = f"-{mono}"
            elif any(op in ctext[1:] for op in (" + ", " - ")):
                chunk = f"({ctext})*{mono}"
            else:
                chunk = f"{ctext}*{mono}"
            chunks.append(chunk)
        return signed_join(chunks)

    def __repr__(self):
        return f"SuperPolynomial({self})"


def _nilpotent_series(n: SuperPolynomial, out: SuperPolynomial, coeff) -> SuperPolynomial:
    """out + sum_(k >= 1) coeff(k) * n^k, summed until n^k = 0 (n nilpotent)."""
    power = n
    k = 1
    while not power.is_zero():
        out = out + power * coeff(k)
        power = power * n
        k += 1
    return out


def super_exp(p: SuperPolynomial) -> SuperPolynomial:
    """exp of an even nilpotent element (finite series)."""
    if p.parity() != 0:
        raise ParityError("super_exp requires an even element")
    if not p.is_nilpotent():
        raise DomainError("super_exp requires a nilpotent element")
    return _nilpotent_series(p, p.ctx.one(), lambda k: Fraction(1, factorial(k)))


def super_log(g: SuperPolynomial):
    """Inverse of super_exp on even units g = c*(1 + n), c a nonzero constant.

    Returns (c, N) with N the finite log series of the nilpotent part n, so
    that super_exp(N) * c == g exactly.
    """
    if g.parity() != 0:
        raise ParityError("super_log requires an even element")
    body = g.body().terms
    if len(body) != 1:
        raise DomainError("super_log requires an invertible element")
    (exps, _), c = next(iter(body.items()))
    if any(exps):
        raise DomainError("super_log requires a constant reduced part")
    n = g * c.inverse() - 1
    return c, _nilpotent_series(n, g.ctx.zero(), lambda k: Fraction((-1) ** (k + 1), k))


def _chart_map(p: SuperPolynomial, source: Context, target: Context) -> SuperPolynomial:
    """z^a t^S <-> w1^(-|a|-|S|) w2^a2..wn^an p^S, coefficient unchanged.

    z1 = 1/w1, zj = wj/w1 and ti = pi/w1 send each monomial to one monomial
    with sign +1 (w1 is even), and the map is its own inverse.
    """
    if p.ctx != source:
        raise ContextError(f"expected a polynomial on {source!r}, got {p.ctx!r}")
    return SuperPolynomial(target, {
        ((-sum(exps) - mask.bit_count(),) + exps[1:], mask): c
        for (exps, mask), c in p.terms.items()
    })


class ChartTransition:
    """Charts A (z1..zn, t1..tm) and B (w1..wn, p1..pm) of P^(n|m).

    z1 = 1/w1, zj = wj/w1, ti = pi/w1: ``to_b`` and ``to_a`` relabel
    monomials by ``_chart_map``.  The round trip is checked on every
    variable at construction.
    """

    def __init__(self, ctx_a: Context, ctx_b: Context):
        if not ctx_a.even or (len(ctx_a.even), len(ctx_a.odd)) != (
            len(ctx_b.even), len(ctx_b.odd)
        ):
            raise DomainError(f"charts of different shapes: {ctx_a!r}, {ctx_b!r}")
        self.ctx_a = ctx_a
        self.ctx_b = ctx_b
        for name in ctx_a.even + ctx_a.odd:
            if self.to_a(self.to_b(ctx_a.var(name))) != ctx_a.var(name):
                raise DomainError(f"chart map does not invert on {name!r}")

    def to_b(self, p: SuperPolynomial) -> SuperPolynomial:
        return _chart_map(p, self.ctx_a, self.ctx_b)

    def to_a(self, p: SuperPolynomial) -> SuperPolynomial:
        return _chart_map(p, self.ctx_b, self.ctx_a)


@lru_cache(maxsize=None)
def pnm_transition(n: int, m: int) -> ChartTransition:
    """Charts 0 and 1 of projective superspace P^(n|m), built once per (n, m).

    Chart A: (z1..zn, t1..tm); chart B: (w1..wn, p1..pm); z1 = 1/w1,
    zj = wj/w1, ti = pi/w1.  For n = 1 the even variables are the bare z and
    w.  The pair is shared by every caller in the process: read it, never
    mutate it.
    """
    check_pnm(n, m)
    suffixes = [""] if n == 1 else [str(j) for j in range(1, n + 1)]
    odd = range(1, m + 1)
    return ChartTransition(
        Context([f"z{j}" for j in suffixes], [f"t{i}" for i in odd]),
        Context([f"w{j}" for j in suffixes], [f"p{i}" for i in odd]),
    )


class SuperDerivation:
    """A graded derivation sum(f_v * d/dv), given by its coordinate images."""

    __slots__ = ("ctx", "parity", "coeffs")

    def __init__(self, ctx: Context, parity: int, coeffs: dict):
        if parity not in (0, 1):
            raise ParityError("derivation parity must be 0 or 1")
        clean = {}
        for name, poly in coeffs.items():
            kind, _ = ctx.lookup(name)
            if poly.ctx is not ctx and poly.ctx != ctx:
                raise ContextError(
                    f"coefficient of d/d{name} on {poly.ctx!r} in a derivation on {ctx!r}"
                )
            if poly.is_zero():
                continue
            want = parity if kind == "even" else parity ^ 1
            if poly.parity() != want:
                raise ParityError(
                    f"coefficient of d/d{name} must have parity {want}"
                )
            clean[name] = poly
        self.ctx = ctx
        self.parity = parity
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, name: str) -> SuperPolynomial:
        return self.coeffs.get(name, self.ctx.zero())

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        """sum_v f_v * dp/dv, accumulated into one term dict."""
        if p.ctx != self.ctx:
            raise ContextError(
                f"derivation on {self.ctx!r} applied to a polynomial on {p.ctx!r}"
            )
        return SuperPolynomial(self.ctx, self._apply_into({}, p.terms, 1))

    def _check_ctx(self, other: "SuperDerivation") -> None:
        if self.ctx != other.ctx:
            raise ContextError(
                f"derivation on {self.ctx!r} combined with one on {other.ctx!r}"
            )

    def _apply_into(self, out: dict, terms: dict, sign: int) -> dict:
        """Add sign * (this derivation applied to ``terms``) into ``out``."""
        lookup = self.ctx.lookup
        for name, f in self.coeffs.items():
            d = _partial_terms(terms, *lookup(name))
            if d:
                _mul_into(out, f.terms, d, sign)
        return out

    def __add__(self, other: "SuperDerivation"):
        self._check_ctx(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.parity != other.parity:
            raise ParityError("cannot add derivations of different parity")
        names = [n for n in self.ctx.even + self.ctx.odd
                 if n in self.coeffs or n in other.coeffs]
        return SuperDerivation(
            self.ctx, self.parity,
            {n: self.coefficient(n) + other.coefficient(n) for n in names},
        )

    def __neg__(self):
        return SuperDerivation(
            self.ctx, self.parity, {n: -f for n, f in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, c):
        c = Scalar.coerce(c)
        return SuperDerivation(
            self.ctx, self.parity, {n: f * c for n, f in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * Scalar.coerce(c).inverse()

    def __eq__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.parity == other.parity and self.coeffs == other.coeffs

    def __hash__(self):
        # without the parity: a zero derivation equals the zero of either
        # parity, and a nonzero one's coefficients fix its parity
        return hash((self.ctx, frozenset(self.coeffs.items())))

    def bracket(self, other: "SuperDerivation") -> "SuperDerivation":
        """Supercommutator [X, Y] = XY - (-1)^(|X||Y|) YX as a derivation."""
        self._check_ctx(other)
        # the coefficient of d/dv is X(g_v) - (-1)^(|X||Y|) Y(f_v)
        sign = 1 if self.parity and other.parity else -1
        coeffs = {}
        for name in self.ctx.even + self.ctx.odd:
            f, g = self.coeffs.get(name), other.coeffs.get(name)
            if f is None and g is None:
                continue
            terms = {}
            if g is not None:
                self._apply_into(terms, g.terms, 1)
            if f is not None:
                other._apply_into(terms, f.terms, sign)
            coeffs[name] = SuperPolynomial(self.ctx, terms)
        return SuperDerivation(self.ctx, (self.parity + other.parity) & 1, coeffs)

    def pushforward(self, transition: ChartTransition) -> "SuperDerivation":
        """Express a derivation on chart A in chart-B coordinates."""
        if self.ctx != transition.ctx_a:
            raise ContextError("derivation lives on the wrong chart")
        ctx_b = transition.ctx_b
        coeffs = {
            name: transition.to_b(self.apply(transition.to_a(ctx_b.var(name))))
            for name in ctx_b.even + ctx_b.odd
        }
        return SuperDerivation(ctx_b, self.parity, coeffs)

    def vectorize(self) -> dict:
        """Flatten to {(variable, exps, mask): Scalar} for exact linear algebra."""
        out = {}
        for name, f in self.coeffs.items():
            for (exps, mask), c in f.terms.items():
                out[(name, exps, mask)] = c
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        order = self.ctx.even + self.ctx.odd
        parts = []
        for name in order:
            f = self.coeffs.get(name)
            if f is None:
                continue
            ftext = str(f)
            if ftext == "1":
                parts.append(f"d/d{name}")
            elif len(f.terms) > 1 or ftext.startswith("-"):
                parts.append(f"({ftext})*d/d{name}")
            else:
                parts.append(f"{ftext}*d/d{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SuperDerivation({self})"
