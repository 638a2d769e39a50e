"""Exact finite combinatorics of predimension classes.

Tuple structures and clique structures, their predimension functions,
self-sufficiency, pregeometries, amalgamation, generic-stage growth, the
clique reduct, and the rank-preserving constructions between the two classes.
All arithmetic is exact integers.
"""

from .amalgam import free_amalgam, standard_amalgam
from .errors import DomainError, FormatError
from .generic import (Chain, GrowthSchedule, enumerate_extension_pairs,
                      enumerate_structures, genericity_check, grow,
                      load_chain, save_chain)
from .geometry import (BackAndForthResult, PartialPgIso, back_and_forth,
                       clique_to_nary, nary_to_clique, remove_pathologies,
                       verify_partial_pg_iso)
from .predimension import (StrongWitness, check_strong, clique_weight,
                           in_class, is_strong, min_predim_over, predim,
                           predim_rel, strong_hull)
from .pregeometry import (Pregeometry, closure, pg_isomorphic,
                          pregeometry_of, rank, same_pregeometry)
from .reduct import (ReductCertificate, clique_certificate, lift, reduct_of,
                     reduct_within, undefinability_pair, witness_hull)
from .reports import GadgetEntry, GadgetReport
from .structures import (CliqueStructure, ClassParams, Embedding,
                         NaryStructure, canonical_key, extend_clique,
                         induced, induced_clique, induced_nary,
                         isomorphic_over, iter_embeddings, relabel, validate,
                         validate_clique, validate_nary, verify_embedding)

# the names imported above, sorted; the submodules they come from are not exported
__all__ = [
    "BackAndForthResult", "Chain", "ClassParams", "CliqueStructure", "DomainError",
    "Embedding", "FormatError", "GadgetEntry", "GadgetReport", "GrowthSchedule",
    "NaryStructure", "PartialPgIso", "Pregeometry", "ReductCertificate",
    "StrongWitness", "back_and_forth", "canonical_key", "check_strong",
    "clique_certificate", "clique_to_nary", "clique_weight", "closure",
    "enumerate_extension_pairs", "enumerate_structures", "extend_clique",
    "free_amalgam", "genericity_check", "grow", "in_class", "induced",
    "induced_clique", "induced_nary", "is_strong", "isomorphic_over",
    "iter_embeddings", "lift", "load_chain", "min_predim_over", "nary_to_clique",
    "pg_isomorphic", "predim", "predim_rel", "pregeometry_of", "rank", "reduct_of",
    "reduct_within", "relabel", "remove_pathologies", "same_pregeometry",
    "save_chain", "standard_amalgam", "strong_hull", "undefinability_pair",
    "validate", "validate_clique", "validate_nary", "verify_embedding",
    "verify_partial_pg_iso", "witness_hull",
]
__version__ = "0.1.0"
