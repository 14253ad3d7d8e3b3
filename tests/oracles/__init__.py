"""Seed oracles: the pre-CoreGraph implementations, kept verbatim.

The differential tests and the S3-S5 speedup gates call these directly.
The set is closed: each oracle calls the oracle twins of the layers below
it, so a comparison always measures seed code.  ``src/`` never imports
from here.
"""

from .aggregation import partwise_aggregate_reference
from .algorithms import approximate_min_cut_reference, boruvka_mst_reference
from .gates import validate_gates_reference
from .shortcuts import (
    block_parameter_reference,
    congestion_capped_reference,
    measure_reference,
    oblivious_shortcut_reference,
    steiner_shortcut_reference,
)
