"""Characteristic invariants of P^(n|m): Berezinian twist, super first Chern
class, the Calabi-Yau predicate, de Rham dimensions, and topological twist
bookkeeping for the N=2 structure on P^(1|2).

All quantities are closed-form integers; the Berezinian twist m - n - 1 is
derived both from the reduced space and from the Euler sequence, and the two
derivations give one formula.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, check_pnm
from .records import FrozenRecord, set_field


def berezinian_twist(n: int, m: int) -> int:
    """Twist of Ber(Omega^1), from either of two derivations.

    Projection onto the reduced space: the cotangent Berezinian is the
    determinant of the reduced cotangent sheaf, O(-n-1), divided by the
    determinant of the odd conormal bundle O(-1)^m, giving O((-n-1) - (-m)).
    Euler sequence: 0 -> O -> O(1) (x) C^(n+1|m) -> T -> 0 gives Ber(T) =
    O(1)^(n+1) over O(1)^m as a Berezinian, so Ber(T) has twist (n+1) - m
    and the dual Ber(Omega^1) has twist m - (n+1).
    """
    return m - n - 1


def super_c1(n: int, m: int) -> int:
    """Degree of the super first Chern class, the twist of Ber(T)."""
    return n + 1 - m


def is_calabi_yau(n: int, m: int) -> bool:
    """Trivial Berezinian sheaf, equivalently m = n + 1."""
    return berezinian_twist(n, m) == 0


def de_rham_dim(n: int, m: int, i: int, j: int) -> int:
    """Dimension of the (i; j) de Rham space: C(m, j) at even i <= 2n, else 0."""
    if i < 0 or j < 0:
        return 0
    if i % 2 == 0 and i <= 2 * n:
        return comb(m, j)
    return 0


class CharacteristicReport(FrozenRecord):
    __slots__ = ("berezinian_twist", "super_c1", "calabi_yau", "de_rham")

    def __init__(self, berezinian_twist: int, super_c1: int, calabi_yau: bool,
                 de_rham: dict):
        set_field(self, "berezinian_twist", berezinian_twist)
        set_field(self, "super_c1", super_c1)
        set_field(self, "calabi_yau", calabi_yau)
        set_field(self, "de_rham", de_rham)  # (i, j) -> dimension, nonzero entries only

    def de_rham_row_sum(self, i: int) -> int:
        return sum(d for (ii, _), d in self.de_rham.items() if ii == i)


def characteristic_report(n: int, m: int) -> CharacteristicReport:
    check_pnm(n, m)
    table = {}
    for i in range(0, 2 * n + 1, 2):
        for j in range(m + 1):
            d = de_rham_dim(n, m, i, j)
            if d:
                table[(i, j)] = d
    return CharacteristicReport(
        berezinian_twist=berezinian_twist(n, m),
        super_c1=super_c1(n, m),
        calabi_yau=is_calabi_yau(n, m),
        de_rham=table,
    )


def topological_twist(sign: str) -> tuple:
    """Degrees of the two odd summands after the +/- topological twist.

    Both choices yield Pi O + Pi O(-2) up to swapping the factors, so the
    two twisted structures are isomorphic.
    """
    if sign == "+":
        return (0, -2)
    if sign == "-":
        return (-2, 0)
    raise DomainError(f"twist sign must be '+' or '-', got {sign!r}")


def topological_twists_isomorphic() -> bool:
    return sorted(topological_twist("+")) == sorted(topological_twist("-"))


def characteristic_report_json(n: int, m: int) -> dict:
    rep = characteristic_report(n, m)
    return {
        "schema": 1,
        "n": n,
        "m": m,
        "berezinian_twist": rep.berezinian_twist,
        "super_c1": rep.super_c1,
        "calabi_yau": rep.calabi_yau,
        "de_rham": [
            {"i": i, "j": j, "dim": d} for (i, j), d in sorted(rep.de_rham.items())
        ],
        "topological_twists": {
            "+": list(topological_twist("+")),
            "-": list(topological_twist("-")),
            "isomorphic": topological_twists_isomorphic(),
        },
    }
