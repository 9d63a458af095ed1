"""hexcube: 3-valent plane graphs with q-gonal and hexagonal faces.

Exhaustive isomorph-free generation, isometric hypercube embedding
(partial-cube recognition with certificates), pentagonal-inequality scans,
zone analysis and Goldberg-Coxeter subdivision of the cube, plus planar_code
interchange and a command-line front end.

Every name exported here is run by the command line, the reports or the
benchmark, or is the one definition of its concept.  Reference
implementations that exist only to check these (a brute-force enumerator,
an isomorphism search, zone predicates) live beside the tests.
"""

from .canonical import (
    CanonicalForm,
    automorphism_count,
    canonical_code,
    canonical_form,
    is_chiral,
)
from .embedding import (
    EmbeddingSearchOutcome,
    FiveGonalWitness,
    HypercubeEmbedding,
    InvariantError,
    NonBipartiteError,
    RecognitionFailure,
    RecognitionResult,
    ThetaClasses,
    five_gonal_scan,
    is_five_gonal,
    recognize_partial_cube,
    search_halfcube_embedding,
    search_scale_embedding,
    theta_classes,
    verify_scale_embedding,
)
from .generator import CheckpointError, GenerationResult, GenSpec, generate_q6
from .goldberg import goldberg_coxeter_cube
from .named import make_named, named_graph_names
from .planar_code import (
    PlanarCodeError,
    graph_to_planar_code,
    read_planar_code,
    to_dot,
    write_planar_code,
)
from .plane_graph import (
    Bipartition,
    MapError,
    PlaneGraph,
    all_pairs_distances,
    bipartition,
    dual,
    face_vector,
    is_q6,
    is_three_connected,
    is_three_valent,
    mirror,
    truncate,
)
from .reports import (
    FILTER_NAMES,
    CheckReport,
    TheoremReport,
    ZoneSurveyReport,
    check_graph,
    check_many,
    reproduce_zone_computation,
    verify_theorem,
)
from .zones import (
    OddFaceError,
    Zone,
    trace_zones,
    zone_clean,
    zone_report,
)

__version__ = "0.1.0"
