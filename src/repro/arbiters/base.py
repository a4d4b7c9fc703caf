"""The arbiter interface."""

from repro.bus.transaction import Grant
from repro.sim.snapshot import Snapshottable


class Arbiter(Snapshottable):
    """Decides which pending master owns the bus next.

    The bus calls :meth:`arbitrate` once per cycle while it is free,
    passing the per-master pending word counts (0 = no request).  The
    arbiter returns a :class:`~repro.bus.transaction.Grant` or ``None``
    for an idle cycle.  Arbiters with internal clocked state (the TDMA
    timing wheel, a token) advance that state per call, which the bus
    guarantees happens exactly once per free cycle.

    Arbiters carry the checkpoint protocol (see
    :mod:`repro.sim.snapshot`): clocked state is declared in
    ``state_attrs``/``state_children`` so the owning bus can include the
    arbiter in a simulation checkpoint.
    """

    name = "abstract"

    #: Whether idle arbitration rounds (no pending request anywhere) can
    #: be replayed arithmetically by :meth:`skip_idle` instead of one
    #: :meth:`arbitrate` call per cycle.  Arbiters setting this to True
    #: promise that ``skip_idle(k)`` leaves them in exactly the state
    #: ``k`` consecutive idle ``arbitrate`` calls would; the bus's fast
    #: path (see :meth:`repro.bus.bus.SharedBus.next_activity`) refuses
    #: to skip over arbiters that keep the default False.
    supports_idle_skip = False

    def __init__(self, num_masters, max_words=None):
        if num_masters < 1:
            raise ValueError("need at least one master")
        self.num_masters = num_masters
        # One immutable grant per master, handed out by index: arbiters
        # whose grant depends only on the winner allocate none per round.
        self._grants = tuple(
            Grant(master, max_words) for master in range(num_masters)
        )

    def arbitrate(self, cycle, pending):
        raise NotImplementedError

    def skip_idle(self, cycles):
        """Fast-forward through ``cycles`` idle arbitration rounds.

        Default no-op, correct for arbiters whose idle rounds leave no
        trace; arbiters with clocked idle state (a rotating TDMA wheel,
        a hopping token) override it."""

    def reset(self):
        """Return clocked arbiter state to power-on; default no-op."""

    def _check_pending(self, pending):
        if len(pending) != self.num_masters:
            raise ValueError(
                "pending vector has {} entries for {} masters".format(
                    len(pending), self.num_masters
                )
            )

    def __repr__(self):
        return "{}(num_masters={})".format(type(self).__name__, self.num_masters)
