"""Supercommutative Laurent polynomial algebra and super derivations.

A context fixes an ordered list of even variables (Laurent: negative
exponents allowed) and odd variables (square to zero, anticommute).  A
polynomial is a dict from monomial keys ``(exps, mask)`` to ``Scalar``
coefficients, where ``exps`` is the tuple of even exponents and ``mask`` is a
bitmask over the odd variables.  All signs follow the Koszul rule with odd
variables written in increasing index order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ContextError, DomainError, ParityError
from .scalars import ONE, Scalar

MonKey = tuple  # (exps: tuple[int, ...], mask: int)


def mask_parity(mask: int) -> int:
    return bin(mask).count("1") & 1


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
            swaps += bin(a >> (j + 1)).count("1")
        bb >>= 1
        j += 1
    return -1 if swaps & 1 else 1


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

    def mask_filter(self, pred) -> "SuperPolynomial":
        return SuperPolynomial(
            self.ctx, {k: v for k, v in self.terms.items() if pred(k[1])}
        )

    def body(self) -> "SuperPolynomial":
        """The part with no odd variables."""
        return self.mask_filter(lambda m: m == 0)

    def is_nilpotent(self) -> bool:
        return all(mask for _, mask in self.terms)

    def coefficient(self, exps, mask: int = 0) -> Scalar:
        return self.terms.get((tuple(exps), mask), Scalar(0))

    def even_exponent_range(self, name: str):
        """(min, max) exponent of an even variable over all terms, or None."""
        kind, pos = self.ctx.lookup(name)
        if kind != "even":
            raise ContextError(f"{name!r} is not an even variable")
        if not self.terms:
            return None
        vals = [exps[pos] for exps, _ in self.terms]
        return min(vals), max(vals)

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
        for (ea, ma), ca in self.terms.items():
            for (eb, mb), cb in other.terms.items():
                sign = koszul_sign(ma, mb)
                if sign == 0:
                    continue
                key = (tuple(x + y for x, y in zip(ea, eb)), ma | mb)
                c = ca * cb
                if sign < 0:
                    c = -c
                s = out.get(key)
                out[key] = c if s is None else s + c
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
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        out = {}
        if kind == "even":
            for (exps, mask), c in self.terms.items():
                e = exps[pos]
                if e == 0:
                    continue
                new = list(exps)
                new[pos] = e - 1
                key = (tuple(new), mask)
                val = c * Fraction(e)
                s = out.get(key)
                out[key] = val if s is None else s + val
        else:
            bit = 1 << pos
            for (exps, mask), c in self.terms.items():
                if not mask & bit:
                    continue
                below = bin(mask & (bit - 1)).count("1")
                val = -c if below & 1 else c
                key = (exps, mask & ~bit)
                s = out.get(key)
                out[key] = val if s is None else s + val
        return SuperPolynomial(self.ctx, out)

    def substitute(self, rules: dict, target: Context) -> "SuperPolynomial":
        """Algebra homomorphism sending each variable to its image polynomial.

        Every variable of the source context needs a rule.  Negative even
        exponents require the image to be a unit (single-term body).
        """
        for name in self.ctx.even + self.ctx.odd:
            if name not in rules:
                raise ContextError(f"no substitution rule for {name!r}")
        out = target.zero()
        cache = {}

        def image_power(name, e):
            key = (name, e)
            if key not in cache:
                cache[key] = rules[name] ** e
            return cache[key]

        for (exps, mask), c in self.terms.items():
            term = target.scalar(c)
            for pos, e in enumerate(exps):
                if e:
                    term = term * image_power(self.ctx.even[pos], e)
            for pos in range(len(self.ctx.odd)):
                if mask & (1 << pos):
                    term = term * rules[self.ctx.odd[pos]]
            out = out + term
        return out

    def eval_body(self, point: dict) -> Scalar:
        """Evaluate the body at a point given as {even name: rational or Scalar}."""
        total = Scalar(0)
        for (exps, mask), c in self.terms.items():
            if mask:
                continue
            val = c
            for pos, e in enumerate(exps):
                if e:
                    val = val * Scalar.coerce(point[self.ctx.even[pos]]) ** e
            total = total + val
        return total

    # -- rendering ---------------------------------------------------------

    def _sorted_keys(self):
        def order(key):
            exps, mask = key
            return (sum(exps) + bin(mask).count("1"), exps, mask)

        return sorted(self.terms, key=order)

    def monomial_str(self, key) -> str:
        exps, mask = key
        parts = []
        for pos, e in enumerate(exps):
            if e == 1:
                parts.append(self.ctx.even[pos])
            elif e:
                parts.append(f"{self.ctx.even[pos]}^{e}")
        for pos in range(len(self.ctx.odd)):
            if mask & (1 << pos):
                parts.append(self.ctx.odd[pos])
        return "*".join(parts) if parts else "1"

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for key in self._sorted_keys():
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
        text = chunks[0]
        for ch in chunks[1:]:
            text += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
        return text

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


class ChartTransition:
    """Two coordinate charts with mutually inverse substitution rules.

    ``a_in_b`` expresses each chart-A variable in chart-B coordinates and
    vice versa.  Consistency (round trips are the identity) is checked on
    every variable at construction.
    """

    def __init__(self, ctx_a: Context, ctx_b: Context, a_in_b: dict, b_in_a: dict):
        self.ctx_a = ctx_a
        self.ctx_b = ctx_b
        self.a_in_b = a_in_b
        self.b_in_a = b_in_a
        for name in ctx_a.even + ctx_a.odd:
            back = ctx_a.var(name).substitute(a_in_b, ctx_b).substitute(b_in_a, ctx_a)
            if back != ctx_a.var(name):
                raise DomainError(f"chart rules do not invert on {name!r}")

    def to_b(self, p: SuperPolynomial) -> SuperPolynomial:
        return p.substitute(self.a_in_b, self.ctx_b)

    def to_a(self, p: SuperPolynomial) -> SuperPolynomial:
        return p.substitute(self.b_in_a, self.ctx_a)


def p1m_transition(m: int) -> ChartTransition:
    """The two standard charts of the projective superline with m odd directions.

    Chart A: (z, t1..tm); chart B: (w, p1..pm); z = 1/w, ti = pi/w.
    """
    ctx_a = Context(("z",), tuple(f"t{i}" for i in range(1, m + 1)))
    ctx_b = Context(("w",), tuple(f"p{i}" for i in range(1, m + 1)))
    w_inv = ctx_b.monomial(1, (-1,), 0)
    z_inv = ctx_a.monomial(1, (-1,), 0)
    a_in_b = {"z": w_inv}
    b_in_a = {"w": z_inv}
    for i in range(1, m + 1):
        a_in_b[f"t{i}"] = ctx_b.var(f"p{i}") * w_inv
        b_in_a[f"p{i}"] = ctx_a.var(f"t{i}") * z_inv
    return ChartTransition(ctx_a, ctx_b, a_in_b, b_in_a)


def pnm_transition(n: int, m: int) -> ChartTransition:
    """Charts 0 and 1 of projective superspace with n even, m odd directions.

    Chart A: (z1..zn, t1..tm) with z1 = 1/w1, zj = wj/w1, ti = pi/w1.
    """
    ctx_a = Context(
        tuple(f"z{j}" for j in range(1, n + 1)),
        tuple(f"t{i}" for i in range(1, m + 1)),
    )
    ctx_b = Context(
        tuple(f"w{j}" for j in range(1, n + 1)),
        tuple(f"p{i}" for i in range(1, m + 1)),
    )
    w1_inv = ctx_b.var("w1").inverse()
    z1_inv = ctx_a.var("z1").inverse()
    a_in_b = {"z1": w1_inv}
    b_in_a = {"w1": z1_inv}
    for j in range(2, n + 1):
        a_in_b[f"z{j}"] = ctx_b.var(f"w{j}") * w1_inv
        b_in_a[f"w{j}"] = ctx_a.var(f"z{j}") * z1_inv
    for i in range(1, m + 1):
        a_in_b[f"t{i}"] = ctx_b.var(f"p{i}") * w1_inv
        b_in_a[f"p{i}"] = ctx_a.var(f"t{i}") * z1_inv
    return ChartTransition(ctx_a, ctx_b, a_in_b, b_in_a)


class SuperDerivation:
    """A graded derivation sum(f_v * d/dv), given by its coordinate images."""

    __slots__ = ("ctx", "parity", "coeffs")

    def __init__(self, ctx: Context, parity: int, coeffs: dict):
        if parity not in (0, 1):
            raise ParityError("derivation parity must be 0 or 1")
        clean = {}
        for name, poly in coeffs.items():
            kind, _ = ctx.lookup(name)
            if poly.ctx != ctx:
                raise ContextError("coefficient context mismatch")
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
        out = self.ctx.zero()
        for name, f in self.coeffs.items():
            out = out + f * p.partial(name)
        return out

    def __add__(self, other: "SuperDerivation"):
        if self.ctx != other.ctx:
            raise ContextError("derivation context mismatch")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.parity != other.parity:
            raise ParityError("cannot add derivations of different parity")
        names = set(self.coeffs) | set(other.coeffs)
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
        return hash((self.ctx, self.parity, frozenset(self.coeffs.items())))

    def bracket(self, other: "SuperDerivation") -> "SuperDerivation":
        """Supercommutator [X, Y] = XY - (-1)^(|X||Y|) YX as a derivation."""
        if self.ctx != other.ctx:
            raise ContextError("derivation context mismatch")
        sign = -1 if self.parity and other.parity else 1
        coeffs = {}
        for name in set(self.coeffs) | set(other.coeffs):
            a = self.apply(other.coefficient(name))
            b = other.apply(self.coefficient(name))
            coeffs[name] = a - b if sign > 0 else a + b
        return SuperDerivation(self.ctx, (self.parity + other.parity) & 1, coeffs)

    def pushforward(self, transition: ChartTransition) -> "SuperDerivation":
        """Express a derivation on chart A in chart-B coordinates."""
        if self.ctx != transition.ctx_a:
            raise ContextError("derivation lives on the wrong chart")
        ctx_b = transition.ctx_b
        coeffs = {}
        for name in ctx_b.even + ctx_b.odd:
            g = transition.b_in_a[name]
            coeffs[name] = transition.to_b(self.apply(g))
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
