"""The generator lists of ``superproj.cech.cech_cohomology`` built as they
were before the gluing ran on term dicts, kept as a reference.

Each section is built as a U-chart polynomial P, moved to the V chart with
``ChartTransition.to_b`` and multiplied by W as polynomials; its generator is
Q = W * (P o chart).  The h1 generators are listed on every mask, each
checked against the pivots of D.  The E1 page itself (the H0 classes, the
contraction and the elimination of D) is the engine's own, so a difference
between these lists and the engine's is one of construction alone.
"""

from superproj.errors import InvariantError
from superproj.linalg import SparseElim
from superproj.scalars import ONE, Scalar
from superproj.superpoly import SuperPolynomial, pnm_transition


def polynomial_generators(sheaf) -> tuple:
    """(generators_h0, generators_h1) of the sheaf, built through whole
    polynomials."""
    m, k = sheaf.m, sheaf.body_exponent
    image = SparseElim(track=True)
    lifts = []
    for s in range(1 << m):
        n = k - s.bit_count()
        for a in range(n + 1):
            polar, heap = {}, []
            sheaf._spread(polar, heap, s, n - a, ONE)
            lift = {((a,), s): ONE}
            image.add(sheaf._contract(polar, heap, lift), tag_key=len(lifts))
            lifts.append(lift)

    gens_h0, gens_h1 = [], []
    tr = pnm_transition(1, m)
    for combo in image.kernel:
        section = {}
        for j, lam in combo.items():
            lam = Scalar.coerce(lam)
            for key, v in lifts[j].items():
                term = v * lam
                old = section.get(key)
                section[key] = term if old is None else old + term
        P = SuperPolynomial(tr.ctx_a, section)
        Q = sheaf.W * tr.to_b(P)
        if any(e < 0 for (e,), _ in Q.terms):
            raise InvariantError(
                f"the section {P} does not glue: W * (P o chart) = {Q} "
                f"has polar terms"
            )
        gens_h0.append(Q)
    one_term, ctx_b = SuperPolynomial._term, sheaf.W.ctx
    for s in range(1 << m):
        gens_h1 += [one_term(ctx_b, ((e,), s), ONE)
                    for e in range(k - s.bit_count() + 1, 0)
                    if (e, s) not in image.pivots]
    return gens_h0, gens_h1
