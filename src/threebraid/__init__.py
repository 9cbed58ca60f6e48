"""Unknotting number one for alternating 3-braid knots, decided exactly.

The pipeline: parse a braid word, build the Goeritz form of its closure,
and search for an integer matrix embedding the form plus a twist knot
block into the standard negative definite lattice under the shape,
change-making and determinant constraints.  A surviving matrix names a
crossing of the diagram, and changing that crossing is independently
confirmed to produce the unknot; an empty search certifies that the
unknotting number is not one.
"""

from .braid import (AltBraidWord, CrossingRef, RawBraidWord,
                    almost_alt_unknot_test, alt_canonical, change_crossing,
                    parse_braid_word, permutation_class,
                    reduce_almost_alternating, swap_generators,
                    unknotting_crossings)
from .embed import (CriterionWitness, EmbeddingMatrix, PipelineReport,
                    TheoremViolation, change_making_ok, criterion_search,
                    embed_form, extract_crossing_sigma2, normalize_sigma2,
                    normalize_sigma0_and_extract, u1_pipeline,
                    word_symmetry_obstruction)
from .expansions import (PartialEmbedding, generate_balanced,
                         no_orthogonal_completion,
                         orthogonal_marked_structure)
from .forms import (DTable, coker_map, d_table_halfint_unknot, d_table_sharp,
                    one_vector_coverage, twist_knot_form)
from .goeritz import (GoeritzForm, InvariantRecord, determinant,
                      goeritz_3braid, invariants, load_goeritz_json,
                      mirror_word, s_invariant_normal_form,
                      signature_normal_form)
from .linalg import is_negative_definite

__version__ = "0.1.0"
