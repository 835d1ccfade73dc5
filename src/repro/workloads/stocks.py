"""NASDAQ-like stock-exchange workload generator.

The paper's trace: one month of NASDAQ records, 274 M exchange records
over 6,649 stock symbols; each record carries symbol, trading type
(buy/sell), price, and timestamp.  We match the symbol cardinality
exactly and give symbols a Zipf popularity (trading volume is famously
heavy-tailed); prices follow per-symbol geometric random walks so the
matching operator sees realistic bid/ask crossings.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Serialized record size (symbol + side + price + qty + timestamp).
ORDER_RECORD_BYTES = 64
#: Symbol cardinality from Table 2.
N_SYMBOLS = 6_649


class StockOrderGenerator:
    """Stream of buy/sell orders."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_symbols: int = N_SYMBOLS,
        zipf_s: float = 1.2,
        price_volatility: float = 0.002,
    ):
        if n_symbols < 1:
            raise ValueError(f"need at least one symbol, got {n_symbols}")
        if zipf_s <= 1.0:
            raise ValueError(f"Zipf exponent must be > 1, got {zipf_s}")
        self.rng = rng
        self.n_symbols = n_symbols
        self.price_volatility = price_volatility
        ranks = np.arange(1, n_symbols + 1, dtype=np.float64)
        weights = ranks**-zipf_s
        self._popularity = weights / weights.sum()
        self._prices = rng.uniform(5.0, 500.0, size=n_symbols)
        self._next_order_id = 0

    def next_record(self) -> Dict:
        self._next_order_id += 1
        symbol = int(self.rng.choice(self.n_symbols, p=self._popularity))
        # Geometric random walk keeps prices positive and realistic.
        self._prices[symbol] *= float(
            np.exp(self.rng.normal(0.0, self.price_volatility))
        )
        side = "buy" if self.rng.random() < 0.5 else "sell"
        price = self._prices[symbol]
        # Buyers bid slightly under/over the walk price; sellers ask around it.
        offset = float(self.rng.normal(0.0, price * 0.001))
        return {
            "order_id": self._next_order_id,
            "symbol": symbol,
            "side": side,
            "price": round(price + offset, 2),
            "quantity": int(self.rng.integers(1, 1_000)),
            "valid": bool(self.rng.random() > 0.02),  # 2% violate trade rules
        }
