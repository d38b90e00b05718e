"""Exact-arithmetic supergeometry of complex projective superspaces P^(n|m)."""

from .cech import (
    CechWindow,
    CohomologyResult,
    TransitionSheaf,
    cech_cohomology,
    oracle_check_line,
    standard_transition,
    twist_sheaf,
)
from .characteristic import (
    CharacteristicReport,
    characteristic_report,
    topological_twist,
)
from .cohomology import DimPair, bott_dim, cohomology_dims, decompose
from .errors import (
    ContextError,
    DomainError,
    InvariantError,
    ParityError,
    ParseError,
    SuperprojError,
)
from .golden import GoldenRecord, load_records, run_golden
from .parser import parse_superpoly
from .picard import (
    PicardGroupData,
    PiPicardData,
    even_picard,
    normal_form,
    normal_form_product,
    pi_picard,
)
from .scalars import Scalar
from .superlie import (
    SuperLieBasis,
    bracket_via_constants,
    check_srs_pair,
    conformal_basis,
    integrability_conditions,
    standard_fields,
    structure_constants,
    u_sigma_basis,
    v_xi_basis,
    verify_osp22,
)
from .superpoly import (
    ChartTransition,
    Context,
    SuperDerivation,
    SuperPolynomial,
    pnm_transition,
    super_exp,
    super_log,
)
from .tangent import (
    euler_tangent_dims,
    global_tangent_fields,
    super_gradient_rank,
    tangent_report_json,
)

__version__ = "0.1.0"
