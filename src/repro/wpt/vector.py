"""Vectorized charger pricing — the tariff table behind the array engine.

The array-native CCSGA engine (:mod:`repro.game.arraycore`) evaluates
every (device, coalition) candidate move of a scan at once, which needs
session prices for a whole *vector* of hypothetical total demands spread
across heterogeneous chargers.  :class:`ChargerPriceTable` packs the
per-charger tariff parameters into flat arrays once and answers such
queries with a handful of numpy ops.

**Bit-identity contract.**  Every price this table produces must be
bitwise equal to the scalar path
(``instance.charging_price_for_demand`` →
:meth:`repro.wpt.charger.Charger.price_for_stored` →
:meth:`repro.wpt.pricing._TariffBase.session_price`).  Power-law and
linear tariffs take a closed-form fast path (``base + unit *
np.power(E, exponent)`` — numpy's pow, the same implementation the
scalar path routes through, with linear tariffs folded in as exponent
1.0 since ``np.power(E, 1.0)`` is bitwise ``E``); any other tariff is
evaluated per charger through its ``session_price_vector`` /
``session_price`` methods, which replicate the scalar arithmetic
exactly.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..numeric import EXACT_ZERO
from .charger import Charger
from .pricing import LinearTariff, PowerLawTariff

__all__ = ["ChargerPriceTable"]


class ChargerPriceTable:
    """Flat per-charger tariff parameters for vectorized session pricing."""

    def __init__(self, chargers: Sequence[Charger]):
        self.chargers = tuple(chargers)
        m = len(self.chargers)
        self._efficiency = np.array([c.efficiency for c in self.chargers], dtype=float)
        self._base = np.zeros(m, dtype=float)
        self._unit = np.zeros(m, dtype=float)
        self._exponent = np.ones(m, dtype=float)
        self._closed_form = np.zeros(m, dtype=bool)
        for j, charger in enumerate(self.chargers):
            tariff = charger.tariff
            if type(tariff) is PowerLawTariff:
                self._base[j] = tariff.base
                self._unit[j] = tariff.unit
                self._exponent[j] = tariff.exponent
                self._closed_form[j] = True
            elif type(tariff) is LinearTariff:
                self._base[j] = tariff.base
                self._unit[j] = tariff.unit
                self._closed_form[j] = True
        self._generic = [int(j) for j in np.flatnonzero(~self._closed_form)]

    def _closed_form_prices(
        self, emitted: np.ndarray, chargers: Union[int, slice, np.ndarray]
    ) -> np.ndarray:
        """``base + unit * emitted ** exponent`` at *chargers* (index, array or slice)."""
        return self._base[chargers] + self._unit[chargers] * np.power(
            emitted, self._exponent[chargers]
        )

    def singleton_row(self, demand: float) -> np.ndarray:
        """``(m,)`` prices of one device storing *demand* alone at each charger.

        Equal to ``prices(np.full(m, demand), np.arange(m))``, but with no
        per-element gathers: it prices every admission quote, where a
        fixed overhead of a few microseconds per call is the cost that
        shows.
        """
        if demand < 0:
            raise ValueError(f"demands must be nonnegative, got {demand}")
        emitted = demand / self._efficiency
        row = self._closed_form_prices(emitted, slice(None))
        for j in self._generic:
            row[j] = self._prices_one_charger(j, emitted[j : j + 1])[0]
        if demand == EXACT_ZERO:
            row[:] = 0.0
        return row

    def prices(self, totals: np.ndarray, chargers_idx: np.ndarray) -> np.ndarray:
        """Session prices for summed stored demands at per-element chargers.

        ``prices(t, c)[k]`` equals
        ``instance.charging_price_for_demand(float(t[k]), int(c[k]))``
        bitwise, including the exact-zero free-session guard.
        """
        totals = np.asarray(totals, dtype=float)
        chargers_idx = np.asarray(chargers_idx, dtype=np.int64)
        if np.any(totals < 0):
            raise ValueError("demands must be nonnegative")
        emitted = totals / self._efficiency[chargers_idx]
        fast = self._closed_form[chargers_idx]
        if fast.all():
            out = self._closed_form_prices(emitted, chargers_idx)
        else:
            out = np.empty_like(totals)
            if fast.any():
                out[fast] = self._closed_form_prices(emitted[fast], chargers_idx[fast])
            for j in np.unique(chargers_idx[~fast]):
                mask = chargers_idx == int(j)
                out[mask] = self._prices_one_charger(int(j), emitted[mask])
        zero = totals == EXACT_ZERO
        if zero.any():
            out[zero] = 0.0
        return out

    def _prices_one_charger(self, charger: int, emitted: np.ndarray) -> np.ndarray:
        """Generic-tariff fallback: one charger, a vector of emitted energies."""
        tariff = self.chargers[charger].tariff
        vector = getattr(tariff, "session_price_vector", None)
        if vector is not None:
            return np.asarray(vector(emitted), dtype=float)
        return np.array([tariff.session_price(float(e)) for e in emitted], dtype=float)

    def singleton_price_matrix(self, demands: np.ndarray) -> np.ndarray:
        """``(n, m)`` singleton prices: device *i* charging alone at charger *j*.

        Column ``j`` is bitwise equal to evaluating
        ``chargers[j].price_for_stored(d)`` per device.
        """
        demands = np.asarray(demands, dtype=float)
        if np.any(demands < 0):
            raise ValueError("demands must be nonnegative")
        out = np.empty((demands.shape[0], len(self.chargers)), dtype=float)
        for j, charger in enumerate(self.chargers):
            emitted = demands / charger.efficiency
            if self._closed_form[j]:
                col = self._closed_form_prices(emitted, j)
                zero = emitted == EXACT_ZERO
                if zero.any():
                    col = np.where(zero, 0.0, col)
            else:
                col = self._prices_one_charger(j, emitted)
            out[:, j] = col
        return out
