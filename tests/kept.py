"""A spy on the blocks of a side that each search keeps (`cardl.retrieval`, step 0),
recorded as the offsets into the side of the rows those blocks hold."""

import numpy as np

from cardl import retrieval


def side_offsets(side, keep):
    """The offsets into `side` of the rows its blocks `keep` hold, the last block's
    remainder included, or None where the search screens the whole side."""
    if keep is None:
        return None
    block_of = np.minimum(np.arange(len(side.rows)) // retrieval.BOUND_BLOCK_ROWS, len(side.blocks.centres) - 1)
    return np.flatnonzero(np.isin(block_of, keep))


def spy_kept_blocks(kept: list):
    """A stand-in for `retrieval._kept_blocks` that appends to `kept` the side offsets of
    the blocks each search keeps, or None, in the order the searches run."""
    real_kept_blocks = retrieval._kept_blocks

    def kept_blocks(side, *args):
        keep = real_kept_blocks(side, *args)
        kept.append(side_offsets(side, keep))
        return keep

    return kept_blocks
