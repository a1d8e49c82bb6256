"""REP006 fixture: snapshot/restore gaps that only show once same-module
base classes are followed — a field born in a base ``__init__``, and a
subclass pair that replaces (instead of extending) its base's pair."""


class EngineBase:
    def __init__(self):
        self._steps = 0
        self._tally = 0  # assigned in the base, captured by no snapshot


class LeakyEngine(EngineBase):
    def __init__(self, table):
        super().__init__()
        self._table = table  # repro: allow[REP006]
        self._cursor = 0

    def snapshot(self):
        return (self._steps, self._cursor)

    def restore(self, state):
        self._steps, self._cursor = state


class RoundTripBase:
    def __init__(self):
        self._clock = 0

    def snapshot(self):
        return {"clock": self._clock}

    def restore(self, state):
        self._clock = state["clock"]


class ExtendingEngine(RoundTripBase):
    """Clean: extends the base pair through super(), so both fields flow."""

    def __init__(self):
        super().__init__()
        self._cursor = 0

    def snapshot(self):
        state = super().snapshot()
        state["cursor"] = self._cursor
        return state

    def restore(self, state):
        super().restore(state)
        self._cursor = state["cursor"]


class ReplacingEngine(RoundTripBase):
    """Replaces the base pair without super(): the base's _clock is lost."""

    def snapshot(self):
        return {}

    def restore(self, state):
        del state
