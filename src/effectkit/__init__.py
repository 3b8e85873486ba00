"""effectkit: a workbench for finite effect algebras given as partial
Cayley tables — axiom validation, order-theoretic analysis, homogeneity,
chain decomposition, statement oracles and exhaustive enumeration."""

from .core import (
    UNDEF,
    CheckedEffectAlgebra,
    EffectAlgebraTable,
    HomogeneityWitness,
    ValidationError,
    validate,
)
from .corpus import (
    ParseError,
    SpecError,
    boolean_diamond,
    chain,
    direct_product,
    from_spec,
    horizontal_sum,
    parse,
    serialize,
)
from .enumeration import (
    SizeError,
    SurveyRow,
    enumerate_all,
    survey,
    write_enumeration,
)
from .lemmas import (
    AnalysisReport,
    LemmaReport,
    analyze,
    homogeneity_witness,
    is_homogeneous,
    lemma_suite,
)
from .structure import (
    ChainDecomposition,
    DecomposeError,
    decompose,
    relabel,
)

__all__ = [
    "UNDEF",
    "AnalysisReport",
    "ChainDecomposition",
    "CheckedEffectAlgebra",
    "DecomposeError",
    "EffectAlgebraTable",
    "HomogeneityWitness",
    "LemmaReport",
    "ParseError",
    "SizeError",
    "SpecError",
    "SurveyRow",
    "ValidationError",
    "analyze",
    "boolean_diamond",
    "chain",
    "decompose",
    "direct_product",
    "enumerate_all",
    "from_spec",
    "homogeneity_witness",
    "horizontal_sum",
    "is_homogeneous",
    "lemma_suite",
    "parse",
    "relabel",
    "serialize",
    "survey",
    "validate",
    "write_enumeration",
]
