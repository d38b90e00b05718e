"""The N=2 frame condition by sampling, as a reference for the engine's.

``superlie.check_srs_pair`` reports the frame condition of a pair as one
exact body determinant per chart.  ``sampled_frame`` tests it the way the
engine did before: at each of the six ``FRAME_SAMPLES`` points of each chart
the coefficient bodies of ({D1, D2}, D1, D2) are evaluated and the 3x3
matrix is given a rank by one ``SparseElim``; a pole at the point counts as
no frame.  ``tests/test_superlie.py`` compares every sample verdict with the
determinants.
"""

from fractions import Fraction

from superproj.linalg import SparseElim
from superproj.scalars import Scalar
from superproj.superpoly import pnm_transition

FRAME_SAMPLES = (0, 1, -1, 2, Fraction(1, 2), -3)


def eval_body(poly, point: dict) -> Scalar:
    """Evaluate the body at a point given as {even name: rational or Scalar};
    a negative power of a zero coordinate raises ``ZeroDivisionError``."""
    total = Scalar(0)
    for (exps, mask), c in poly.terms.items():
        if mask:
            continue
        val = c
        for pos, e in enumerate(exps):
            if e:
                val = val * Scalar.coerce(point[poly.ctx.even[pos]]) ** e
        total = total + val
    return total


def _frame_rank(fields, even_name, odd_names, point) -> bool:
    elim = SparseElim()
    for d in fields:
        row = {}
        try:
            for k, name in enumerate([even_name] + list(odd_names)):
                val = eval_body(d.coefficient(name), point)
                if not val.is_zero():
                    row[k] = val
        except ZeroDivisionError:
            return False  # a pole at the sample point: no frame there
        elim.add(row)
    return elim.rank == 3


def sampled_frame(d1, d2) -> list:
    """(chart, point, ok) at every FRAME_SAMPLES point of the U chart, then
    of the V chart."""
    tr = pnm_transition(1, 2)
    u_fields = [d1.bracket(d2), d1, d2]
    v_fields = [x.pushforward(tr) for x in u_fields]
    return [("U", s, _frame_rank(u_fields, "z", ("t1", "t2"), {"z": s}))
            for s in FRAME_SAMPLES] + [
        ("V", s, _frame_rank(v_fields, "w", ("p1", "p2"), {"w": s}))
        for s in FRAME_SAMPLES
    ]
