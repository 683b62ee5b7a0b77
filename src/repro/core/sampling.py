"""Column loading with row sampling (§3.1.3, §4.4).

CDW vendors charge per byte scanned, so WarpGate profiles columns from
small row samples instead of full scans. Sampling is ``LIMIT n``: the
cheapest scan a warehouse can do (it stops early), and what the paper's
sample sizes refer to. ``sample=None`` loads the full column (the
no-sampling baseline of Fig. 4/Table 2).
"""
from __future__ import annotations

from repro.corpus.tablegen import Warehouse, quote_ident


def load_column(
    warehouse: Warehouse, col_id: str, *, sample: int | None = None
) -> list:
    """Pull one column's (possibly sampled) values out of the warehouse.

    Raises ``KeyError`` for a col_id the warehouse does not hold.
    """
    table, col = warehouse.column_map[col_id]
    df = warehouse.table_df(table.table_id).select(quote_ident(col.name))
    if sample is not None:
        df = df.limit(sample)
    return [r[0] for r in df.collect()]
