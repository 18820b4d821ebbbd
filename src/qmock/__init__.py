"""qmock: exact q-series arithmetic and batch identity verification.

The engine works with truncated sparse Puiseux series in q over the
Gaussian rationals and provides theta products, Appell-Lerch sums,
Hecke-type double sums, the universal mock theta function, the named
third-order mock theta functions, an identity DSL, and a CLI verifier.
"""

from ._rational import RAT, rat
from .series import (
    GaussianRational,
    QMonomial,
    QSeries,
    mono,
    qpow,
    QSeriesError,
    ZeroSeries,
    PoleAtOne,
    BeyondPrecision,
    NonPositivePower,
    FractionalExponent,
    DivergentProduct,
    DegenerateZ,
    DegenerateX,
    DegenerateDenominator,
    DivisibilityViolation,
    InsufficientPrecision,
    LatticeTooLarge,
    PowerTooLarge,
)
from .theta import (
    J,
    Jbar,
    Jm,
    jacobi_theta,
    pochhammer_finite,
    pochhammer_infinite,
)
from .appell import (
    appell_m,
    g_abc,
    h_abc,
    msplit_rhs,
    theta_abc,
    theta_np,
    universal_g_eulerian,
)
from .hecke import f_abc
from .catalog import (
    CATALOG,
    CatalogEntry,
    nu3,
    phi3,
    phibar0,
    phibar1,
    psi3,
    psibar0,
    psibar1,
)
from .dsl import (
    IdentityRecord,
    VerificationReport,
    evaluate,
    parse,
    parse_corpus,
    to_text,
    verify_identity,
)

__version__ = "0.1.0"
