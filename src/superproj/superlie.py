"""Finite-dimensional Lie superalgebras of vector fields on P^(1|2).

The global fields V/Xi and their SUSY-adapted 4|4 subalgebra U/Sigma, all
with integer coefficients; the conformal generators H..S2 as the fixed
Q(zeta_8)-combinations CONFORMAL_CHANGE of U/Sigma.  One route answers
every bracket question: basis brackets expressed in a span through one
eliminator.  osp(2|2) is read off the U/Sigma structure tensor, and the N=2
integrability conditions are the V-coordinates of the square of the general
odd field sum a_i Xi_i.  A candidate pair's frame condition is one exact
body determinant per chart.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .errors import DomainError, InvariantError
from .linalg import span_eliminator
from .records import Record
from .scalars import HALF, I, INV_SQRT2, ONE, Scalar
from .superpoly import Context, SuperDerivation, SuperPolynomial, pnm_transition


# The conformal generators in U/Sigma coordinates, the one statement of this
# change of basis: conformal_basis builds H..S2 from it, verify_osp22 reads it.
CONFORMAL_CHANGE = {
    "H": {"U1": ONE},
    "K": {"U3": ONE},
    "D": {"U2": HALF, "U4": HALF},
    "Y": {"U2": HALF, "U4": -HALF},
    "Q1": {"Sigma1": INV_SQRT2, "Sigma3": -(I * INV_SQRT2)},
    "Q2": {"Sigma3": INV_SQRT2, "Sigma1": -(I * INV_SQRT2)},
    "S1": {"Sigma2": -INV_SQRT2, "Sigma4": I * INV_SQRT2},
    "S2": {"Sigma4": -INV_SQRT2, "Sigma2": I * INV_SQRT2},
}


def standard_fields() -> dict:
    """The 8|8 global fields V/Xi on P^(1|2) in the U chart (z; t1, t2),
    plus the SUSY combinations U/Sigma; every coefficient is an integer."""
    ctx = pnm_transition(1, 2).ctx_a
    z, t1, t2 = ctx.var("z"), ctx.var("t1"), ctx.var("t2")
    one = ctx.one()

    def ev(coeffs):  # even field
        return SuperDerivation(ctx, 0, coeffs)

    def od(coeffs):  # odd field
        return SuperDerivation(ctx, 1, coeffs)

    fields = {
        "V1": ev({"z": one}),
        "V2": ev({"z": z}),
        "V3": ev({"z": z * z, "t1": z * t1, "t2": z * t2}),
        "V4": ev({"z": t1 * t2}),
        "V5": ev({"t1": t1}),
        "V6": ev({"t1": t2}),
        "V7": ev({"t2": t1}),
        "V8": ev({"t2": t2}),
        "Xi1": od({"z": t1}),
        "Xi2": od({"z": z * t1, "t2": t1 * t2}),
        "Xi3": od({"z": t2}),
        "Xi4": od({"z": z * t2, "t1": -(t1 * t2)}),
        "Xi5": od({"t1": one}),
        "Xi6": od({"t1": z}),
        "Xi7": od({"t2": one}),
        "Xi8": od({"t2": z}),
    }
    f = fields
    f["U1"] = f["V1"]
    f["U2"] = f["V2"] + f["V5"]
    f["U3"] = f["V3"]
    f["U4"] = f["V2"] + f["V8"]
    f["Sigma1"] = f["Xi1"] + f["Xi7"]
    f["Sigma2"] = f["Xi2"] + f["Xi8"]
    f["Sigma3"] = f["Xi3"] + f["Xi5"]
    f["Sigma4"] = f["Xi4"] + f["Xi6"]
    return fields


class SuperLieBasis(Record):
    __slots__ = ("names", "elements")

    def __init__(self, names: list, elements: dict):
        self.names = names
        self.elements = elements  # name -> SuperDerivation

    @property
    def parities(self) -> dict:
        return {name: self.elements[name].parity for name in self.names}


def u_sigma_basis() -> SuperLieBasis:
    f = standard_fields()
    names = ["U1", "U2", "U3", "U4", "Sigma1", "Sigma2", "Sigma3", "Sigma4"]
    return SuperLieBasis(names, {n: f[n] for n in names})


def v_xi_basis() -> SuperLieBasis:
    f = standard_fields()
    names = [f"V{i}" for i in range(1, 9)] + [f"Xi{i}" for i in range(1, 9)]
    return SuperLieBasis(names, {n: f[n] for n in names})


def conformal_basis() -> SuperLieBasis:
    """H..S2, built from the U/Sigma fields through CONFORMAL_CHANGE."""
    f = standard_fields()
    return SuperLieBasis(list(CONFORMAL_CHANGE), {
        name: reduce(add, (f[u] * c for u, c in combo.items()))
        for name, combo in CONFORMAL_CHANGE.items()
    })


class NonClosureError(DomainError):
    def __init__(self, pair, residual):
        super().__init__(
            f"bracket [{pair[0]}, {pair[1]}] falls outside the span; "
            f"residual {residual}"
        )
        self.pair = pair
        self.residual = residual


def structure_constants(basis: SuperLieBasis) -> dict:
    """Tensor {(a, b): {c: Scalar}} with [e_a, e_b] = sum_c c_ab^c e_c.

    Each unordered pair is bracketed once; super antisymmetry,
    [e_b, e_a] = -(-1)^(|a||b|) [e_a, e_b], fills the other half.
    """
    names, par = basis.names, basis.parities
    elim = span_eliminator([basis.elements[name].vectorize() for name in names])
    tensor = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if j < i:
                row = tensor[(b, a)]
                odd_pair = par[a] and par[b]
                tensor[(a, b)] = row if odd_pair else {k: -c for k, c in row.items()}
                continue
            br = basis.elements[a].bracket(basis.elements[b])
            combo = elim.express(br.vectorize())
            if combo is None:
                raise NonClosureError((a, b), br)
            tensor[(a, b)] = {names[k]: c for k, c in combo.items() if not c.is_zero()}
    return tensor


def _accumulate(out: dict, c, row: dict) -> None:
    """out += c * row, for combinations {name: Scalar}."""
    for k, v in row.items():
        out[k] = out[k] + c * v if k in out else c * v


def bracket_via_constants(tensor, combo_a: dict, combo_b: dict) -> dict:
    """Expand [sum a_i e_i, sum b_j e_j] through a structure tensor."""
    out = {}
    for i, ca in combo_a.items():
        for j, cb in combo_b.items():
            _accumulate(out, ca * cb, tensor[(i, j)])
    return {k: v for k, v in out.items() if not v.is_zero()}


# -- osp(2|2) verification ---------------------------------------------------

U_SIGMA_TABLE = {
    ("U1", "U2"): {"U1": 1},
    ("U1", "U3"): {"U2": 1, "U4": 1},
    ("U1", "U4"): {"U1": 1},
    ("U2", "U3"): {"U3": 1},
    ("U2", "U4"): {},
    ("U3", "U4"): {"U3": -1},
    ("Sigma1", "Sigma2"): {},
    ("Sigma1", "Sigma3"): {"U1": 2},
    ("Sigma1", "Sigma4"): {"U2": 2},
    ("Sigma2", "Sigma3"): {"U4": 2},
    ("Sigma2", "Sigma4"): {"U3": 2},
    ("Sigma3", "Sigma4"): {},
    ("U1", "Sigma1"): {},
    ("U1", "Sigma2"): {"Sigma1": 1},
    ("U1", "Sigma3"): {},
    ("U1", "Sigma4"): {"Sigma3": 1},
    ("U2", "Sigma1"): {},
    ("U2", "Sigma2"): {"Sigma2": 1},
    ("U2", "Sigma3"): {"Sigma3": -1},
    ("U2", "Sigma4"): {},
    ("U3", "Sigma1"): {"Sigma2": -1},
    ("U3", "Sigma2"): {},
    ("U3", "Sigma3"): {"Sigma4": -1},
    ("U3", "Sigma4"): {},
    ("U4", "Sigma1"): {"Sigma1": -1},
    ("U4", "Sigma2"): {},
    ("U4", "Sigma3"): {},
    ("U4", "Sigma4"): {"Sigma4": 1},
}


def _eps(i: int, j: int) -> int:
    return 1 if (i, j) == (1, 2) else -1 if (i, j) == (2, 1) else 0


def conformal_equations():
    """(label, left name pair, expected combo) for the unambiguous equations."""
    eqs = []
    m2i = Scalar(-2) * I
    p2i = Scalar(2) * I
    for i in (1, 2):
        for j in (1, 2):
            delta = ONE if i == j else Scalar(0)
            eqs.append((f"{{Q{i},Q{j}}}", (f"Q{i}", f"Q{j}"), {"H": m2i * delta}))
            eqs.append((f"{{S{i},S{j}}}", (f"S{i}", f"S{j}"), {"K": m2i * delta}))
            eqs.append((
                f"{{Q{i},S{j}}}",
                (f"Q{i}", f"S{j}"),
                {"D": p2i * delta, "Y": Scalar(-2 * _eps(i, j))},
            ))
    for i in (1, 2):
        eqs.append((f"[H,Q{i}]", ("H", f"Q{i}"), {}))
        eqs.append((f"[H,S{i}]", ("H", f"S{i}"), {f"Q{i}": Scalar(-1)}))
        eqs.append((f"[D,Q{i}]", ("D", f"Q{i}"), {f"Q{i}": -HALF}))
        eqs.append((f"[D,S{i}]", ("D", f"S{i}"), {f"S{i}": HALF}))
        j = 3 - i
        eqs.append((f"[Y,Q{i}]", ("Y", f"Q{i}"), {f"Q{j}": I * HALF * _eps(i, j)}))
        eqs.append((f"[Y,S{i}]", ("Y", f"S{i}"), {f"S{j}": I * HALF * _eps(i, j)}))
    for name in ("H", "D", "K"):
        eqs.append((f"[Y,{name}]", ("Y", name), {}))
    eqs.append(("[H,D]", ("H", "D"), {"H": ONE}))
    eqs.append(("[H,K]", ("H", "K"), {"D": Scalar(2)}))
    eqs.append(("[D,K]", ("D", "K"), {"K": ONE}))
    return eqs


class VerificationReport(Record):
    __slots__ = ("entries", "computed_only")

    def __init__(self):
        self.entries = []  # (label, ok)
        self.computed_only = []  # (label, value string)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.entries)


def _in_u_sigma(combo: dict) -> dict:
    """A combination of conformal generators in U/Sigma coordinates."""
    out = {}
    for name, c in combo.items():
        _accumulate(out, c, CONFORMAL_CHANGE[name])
    return {k: v for k, v in out.items() if not v.is_zero()}


def verify_osp22() -> VerificationReport:
    """Exact check of every unambiguous structure equation plus the U/Sigma table.

    Everything is read off the structure tensor of the eight U/Sigma fields,
    whose coefficients are integers (36 brackets).  The 28 table entries are
    compared with it directly.  The conformal generators are the fixed
    Q(zeta_8)-combinations CONFORMAL_CHANGE of those fields and the bracket
    is bilinear over constants, so each conformal equation expands both of
    its sides into U/Sigma coordinates through the tensor; the U/Sigma
    fields are independent, so equal coordinates are equal fields.  A
    U/Sigma bracket outside their span means the hand-written fields are
    wrong, an engine fault: ``InvariantError`` naming the pair.

    Two printed bracket lines conflict ("[H,Q_i] = 0" versus "[H,Q_i] = S_i"
    in one display); the likely-intended [K,Q_i] and [K,S_i] values are
    computed and reported in the conformal basis without being asserted.
    """
    try:
        tensor = structure_constants(u_sigma_basis())
    except NonClosureError as exc:
        raise InvariantError(f"the U/Sigma fields do not close: {exc}") from exc
    report = VerificationReport()
    for (a, b), combo in U_SIGMA_TABLE.items():
        expected = {k: Scalar.coerce(c) for k, c in combo.items() if c}
        report.entries.append((f"[{a},{b}]", tensor[(a, b)] == expected))
    change = CONFORMAL_CHANGE
    for label, (a, b), combo in conformal_equations():
        lhs = bracket_via_constants(tensor, change[a], change[b])
        report.entries.append((label, lhs == _in_u_sigma(combo)))
    names = list(change)
    elim = span_eliminator(list(change.values()))
    for i in (1, 2):
        for target in (f"Q{i}", f"S{i}"):
            br = bracket_via_constants(tensor, change["K"], change[target])
            combo = elim.express(br)
            rendered = " + ".join(
                f"({c})*{names[k]}" for k, c in sorted(combo.items())
            ) if combo else "0"
            report.computed_only.append((f"[K,{target}]", rendered))
    return report


# -- N=2 distributions --------------------------------------------------------

ALPHA_NAMES = tuple(f"a{i}" for i in range(1, 9))


def ansatz_context() -> Context:
    """The formal even parameters a1..a8 of the odd field sum a_i Xi_i."""
    return Context(ALPHA_NAMES, ())


def integrability_conditions() -> list:
    """Quadratic conditions on a1..a8 equivalent to D^2 = 0, for D the
    general odd global field sum a_i Xi_i.

    The a_i are even constants and [Xi_j, Xi_i] = [Xi_i, Xi_j], so D^2 =
    [D, D]/2 is the sum over i <= j of a_i a_j [Xi_i, Xi_j], halved for
    i = j.  The 36 brackets are expressed in the V basis through one
    eliminator; condition k is the V_k-coordinate of D^2 scaled to lead
    coefficient 1, and a zero coordinate (V4's) gives none.  A Xi-Xi bracket
    outside the V span means the hand-written fields are wrong, an engine
    fault: ``InvariantError`` naming the pair.
    """
    f = standard_fields()
    elim = span_eliminator([f[f"V{k}"].vectorize() for k in range(1, 9)])
    coords = [{} for _ in range(8)]  # V_k-coordinate: {monomial in a: coefficient}
    for i in range(8):
        for j in range(i, 8):
            a, b = f"Xi{i + 1}", f"Xi{j + 1}"
            combo = elim.express(f[a].bracket(f[b]).vectorize())
            if combo is None:
                raise InvariantError(f"bracket [{a}, {b}] falls outside the V span")
            exps = [0] * 8
            exps[i] += 1
            exps[j] += 1
            w = HALF if i == j else ONE
            for k, c in combo.items():
                coords[k][(tuple(exps), 0)] = c * w
    ctx = ansatz_context()
    out = []
    for terms in coords:
        if terms:
            scale = terms[min(terms)].inverse()
            out.append(SuperPolynomial(ctx, {m: c * scale for m, c in terms.items()}))
    return out


class SrsReport(Record):
    __slots__ = ("d1_square_zero", "d2_square_zero", "anticommutator",
                 "frame_det_u", "frame_det_v")

    def __init__(self, d1_square_zero: bool, d2_square_zero: bool,
                 anticommutator: SuperDerivation, frame_det_u: SuperPolynomial,
                 frame_det_v: SuperPolynomial):
        self.d1_square_zero = d1_square_zero
        self.d2_square_zero = d2_square_zero
        self.anticommutator = anticommutator
        self.frame_det_u = frame_det_u  # Laurent polynomial in z
        self.frame_det_v = frame_det_v  # Laurent polynomial in w


def _frame_det(fields, names) -> SuperPolynomial:
    """Cofactor determinant of the 3x3 matrix of coefficient bodies."""
    (a, b, c), (d, e, f), (g, h, i) = ([x.coefficient(n).body() for n in names]
                                       for x in fields)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def check_srs_pair(d1: SuperDerivation, d2: SuperDerivation) -> SrsReport:
    """Distribution checks for a candidate N=2 pair on P^(1|2).

    Verifies D1^2 = D2^2 = 0 (for odd D, [D, D] = 2 D^2), computes
    {D1, D2}, and the frame condition exactly: det_U and det_V are the
    cofactor determinants of the reduced 3x3 coefficient matrix of
    ({D1,D2}, D1, D2) against (d/dz, d/dt1, d/dt2) and, on the pushed-forward
    fields, against (d/dw, d/dp1, d/dp2).  Each is a Laurent polynomial, and
    the fields frame T at a point of a chart exactly where that chart's
    determinant is regular and nonzero.  For example D1 = -3(Xi3 + Xi5) + Xi4 + Xi6, D2 = Xi1 + Xi7
    has det_U = 2(z - 3)^2: the frame fails at z = 3 alone in the U chart.

    The reduced frame change from (d/dz, d/dt1, d/dt2) to (d/dw, d/dp1,
    d/dp2) is diag(-w^2, w, w), so det_V(w) = -w^4 det_U(1/w) for any U-chart
    fields; a pair whose det_V breaks this means the pushforward is wrong, an
    engine fault: ``InvariantError``.  For global sections a nonzero det_U
    is a polynomial of degree at most 4, and det_V vanishes at w = 0 to
    order 4 - deg det_U: the two have four zeros on P^1 counted with
    multiplicity, so no global pair frames T everywhere.  The standard pair puts all four
    at w = 0 (det_U = 2, det_V = -2w^4).  The frame is a condition on the
    distributions' local generators, not on these global sections; no
    criterion on local generators is checked yet.
    """
    tr = pnm_transition(1, 2)
    if d1.ctx != tr.ctx_a or d2.ctx != tr.ctx_a:
        raise DomainError("expected U-chart fields on P^(1|2)")
    anti = d1.bracket(d2)
    u_fields = [anti, d1, d2]
    det_u = _frame_det(u_fields, ("z", "t1", "t2"))
    det_v = _frame_det([x.pushforward(tr) for x in u_fields], ("w", "p1", "p2"))
    if det_v != tr.ctx_b.monomial(-1, (4,)) * tr.to_b(det_u):
        raise InvariantError(
            f"frame determinants disagree across charts: det_U = {det_u}, "
            f"det_V = {det_v}"
        )
    return SrsReport(
        d1_square_zero=d1.bracket(d1).is_zero(),
        d2_square_zero=d2.bracket(d2).is_zero(),
        anticommutator=anti,
        frame_det_u=det_u,
        frame_det_v=det_v,
    )
