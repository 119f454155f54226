"""Structure theory of finite idempotent left non-degenerate solutions
of the set-theoretic Yang-Baxter equation: verification, decomposition,
monoid arithmetic, rewriting systems, and exhaustive classification."""

from .core import (InvalidSolutionError, RMap, Solution, SolutionFormatError,
                   VerificationReport, apply_r, canonical_form, check,
                   diagonal_image, dump_solution, iso_check, lambda_word,
                   load_rmap, promote, q_power, rmap_from_lambda,
                   solution_from_lambda, word_level)
from .fixtures import (ALL_FIXTURES, SOL_PROJ3, SOL_SWAP2, SOL_TRIV, SOL_Z2,
                       SOL_Z3INV)
from .invariants import (Descriptor, Discrepancy, FineqReport, check_fineq,
                         descriptor, phi_maps, reconstruct, semigroup,
                         structure, torsion, torsion_iso)
from .monoid import (GQElem, MElem, ONE, center_basis, component,
                     conjugation_action, gq_from, gq_identity, gq_inverse,
                     gq_mul, growth, is_cancellative, mul, normal_form,
                     sigma, torsion_elem)
from .groebner import (RewriteSystem, Rule, check_overlaps, constant_rules,
                       normal_word_count, reduce, solution_rules)
from .perms import exponent
from .search import (ClassificationRecord, EnumOptions, EnumResult,
                     by_diag_size, check_closed_forms, classify,
                     diagonal_strata, enumerate_solutions,
                     from_group_automorphism, from_permutation,
                     from_rees_example, is_latin, partition_number)

__version__ = "0.1.0"
