"""Rack-aware regenerating erasure codes at the minimum-bandwidth point.

n nodes sit in racks of u; traffic inside a rack is free, traffic between
racks is the scarce resource. A stripe of B data symbols is spread over the
nodes so that

  * any k node columns recover the stripe exactly, and
  * a single failed node is rebuilt from dbar helper racks moving one
    symbol each across the rack boundary: exactly as many symbols as the
    node stored, which is the minimum possible.

The construction is polynomial: a structured message matrix times a
Vandermonde-style encoding matrix built on per-node evaluation points.
See ``layout`` for the geometry, ``encode``/``reconstruct``/``repair`` for
the three code paths, ``systematic`` for the uncoded-data form, ``cluster``
for the failure simulator and ``cli`` for the shard-file front end.
"""

from .cluster import Cluster, InsufficientSurvivorsError, OverheadReport, overhead_report
from .encode import encode, encoding_matrix
from .gf import BinaryField, Field, PrimeField, binary_field, prime_field
from .layout import (
    CodeMatrix,
    CodeParams,
    IntegrityError,
    MessageMatrix,
    NodeId,
    all_nodes,
    fill_message_matrix,
    make_params,
    unfill_message_matrix,
)
from .linalg import SingularMatrixError, solve_linear
from .reconstruct import Decoder, oracle_reconstruct, reconstruct
from .repair import BandwidthLedger, RepairModelError, Repairer, repair_node
from .systematic import (
    precoding_matrix,
    read_systematic_data,
    systematic_encode,
    systematic_layout,
    systematic_message_matrix,
    systematic_nodes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BandwidthLedger",
    "BinaryField",
    "Cluster",
    "CodeMatrix",
    "CodeParams",
    "Decoder",
    "Field",
    "InsufficientSurvivorsError",
    "IntegrityError",
    "MessageMatrix",
    "NodeId",
    "OverheadReport",
    "PrimeField",
    "RepairModelError",
    "Repairer",
    "SingularMatrixError",
    "all_nodes",
    "binary_field",
    "encode",
    "encoding_matrix",
    "fill_message_matrix",
    "make_params",
    "oracle_reconstruct",
    "overhead_report",
    "precoding_matrix",
    "prime_field",
    "read_systematic_data",
    "reconstruct",
    "repair_node",
    "solve_linear",
    "systematic_encode",
    "systematic_layout",
    "systematic_message_matrix",
    "systematic_nodes",
    "unfill_message_matrix",
]
