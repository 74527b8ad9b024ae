"""Crystals for quantum generalized Kac-Moody algebras.

Borcherds-Cartan data and exact weight arithmetic, the abstract-crystal
interface with its small concrete models, tensor products, string
realizations of B(infinity) and highest-weight crystals with audited
generation, closed-form membership predicates (rank 2 and Monster-type)
cross-checked against brute force, and a CLI tying it together.
"""

from .cartan import (
    NEG_INF,
    BorcherdsCartanDatum,
    DatumConditionError,
    DatumFormatError,
    DatumShapeError,
    NegInfinity,
    ValidationReport,
    Weight,
    is_neg_inf,
    load_datum_file,
    make_datum,
    save_datum_file,
    validate_cartan_data,
)
from .crystals import (
    Crystal,
    ElementaryCrystal,
    ElementaryElement,
    ShiftCrystal,
    ShiftElement,
    StringElement,
    TensorElement,
    UnitCrystal,
    UnitElement,
)
from .tensor import (
    TensorCrystal,
    verify_associativity,
)
from .graph import (
    CUT,
    CrystalGraph,
    GraphStructureError,
    bfs_component,
    canonical_form,
    graph_from_universe,
    graph_to_dot,
    graph_to_json,
    graphs_isomorphic,
    weight_multiplicities,
)
from .checks import (
    CheckReport,
    MorphismWitness,
    Violation,
    check_axioms,
    check_category_profile,
    check_morphism,
)
from .binfinity import (
    AuditError,
    IndexSequence,
    MonsterParams,
    StringCrystal,
    crystal_embedding,
    cyclic_sequence,
    explicit_sequence,
    highest_weight_crystal,
    highest_weight_projection,
    monster_block_sequence,
    monster_real_position,
    realize_binfinity,
    realize_highest_weight,
    sequence_from_spec,
    tensor_decomposition_embedding,
)
from .closed_form import (
    MonsterModel,
    OracleReport,
    Rank2Params,
    compare_predicate_with_bfs,
    iter_bounded_strings,
    monster_datum,
    rank2_datum,
    rank2_highest_weight_member,
    rank2_member,
)

__version__ = "0.1.0"
