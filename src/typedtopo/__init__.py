"""Typed topologies on finite sets.

Open sets carry types from a bounded distributive lattice; chains of types
restrict neighborhoods, closure, density, and connectedness; score tables
attach z-score semantics to points and pairs. The ``tts`` command line is
documented in `typedtopo.cli`.
"""

from .errors import TypedTopoError
from .lattice import (
    Context,
    Poset,
    TypeTerm,
    format_term,
    join,
    leq,
    meet,
    normalize,
    parse_type_expr,
)
from .space import (
    GeneratorSpec,
    TypedSpace,
    generate_topology,
    is_strictly_typed,
    load_space,
    realized_types,
    strictify,
    validate_type_mapping,
)
from .chains import TypeChain, chain_cover, parse_chain

__version__ = "0.1.0"

__all__ = [
    "Context",
    "GeneratorSpec",
    "Poset",
    "TypeChain",
    "TypeTerm",
    "TypedSpace",
    "TypedTopoError",
    "chain_cover",
    "format_term",
    "generate_topology",
    "is_strictly_typed",
    "join",
    "leq",
    "load_space",
    "meet",
    "normalize",
    "parse_chain",
    "parse_type_expr",
    "realized_types",
    "strictify",
    "validate_type_mapping",
    "__version__",
]
