"""Constrained book embeddings of weighted outerplanar graphs.

A library and CLI that tests and constructs four schematic representations:
1-page book-embeddings constrained by the maximum or the sum of nested edge
weights, exact-area two-dimensional book-embeddings, and two-dimensional
book-embeddings under a unit resolution rule, plus an exhaustive small-case
oracle and an SVG renderer.
"""

from .embedding import (
    BookEmbedding,
    EmbeddingMetrics,
    Failure,
    MaxViolation,
    MinresViolation,
    OnePageViolation,
    SumViolation,
    is_one_page,
    metrics,
    validate_max,
    validate_minres_supporting,
    validate_one_page,
    validate_sum,
)
from .errors import (
    BookEmbedError,
    GraphFormatError,
    NotOnePageError,
    NotOuterplanarError,
    PreconditionError,
)
from .exact import INF, format_rational, parse_rational
from .graph import (
    BlockCutTree,
    WeightedGraph,
    build_bc_tree,
    connected_components,
    is_connected,
    parse_graph,
    serialize_graph,
)
from .maxdraw import embed_max, max_be_drawer, star_sort_demo
from .minres import embed_minres, minres_be_drawer, minres_be_drawer_anchor
from .oracle import OracleVerdict, enumerate_one_page, oracle_exists, random_outerplanar
from .outerplanar import outerplane_embedding
from .render import RenderSpec, render_arcs, render_rects
from .sumdraw import embed_sum, sum_be_drawer
from .twodim import (
    TwoDimEmbedding,
    check_twodim,
    minres_construct,
    twodim_biconnected,
    twodim_general,
)

__version__ = "0.1.0"
