"""Seeded random streams.

Every stochastic element of a simulation (traffic generators, the
software reference lottery) owns a :class:`RandomStream` derived from the
simulation seed plus a purpose string, so adding a new consumer of
randomness never perturbs existing ones.
"""

import _random
import zlib
from operator import index as _index


def derive_seed(root_seed, purpose):
    """Derive a child seed from ``root_seed`` and a ``purpose`` string.

    Uses CRC32 of the purpose mixed into the root seed, which is cheap,
    stable across Python versions (unlike ``hash``), and collision-safe
    enough for the handful of named streams a simulation creates.
    """
    tag = zlib.crc32(purpose.encode("utf-8"))
    return (root_seed * 0x9E3779B1 + tag) & 0xFFFFFFFF


_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state):
    """One SplitMix64 step: ``(next_state, output)`` for a 64-bit state.

    The finalizer (Steele, Lea & Flood, OOPSLA'14) fully avalanches its
    input, so consecutive states produce statistically independent
    outputs — the property adjacent sweep seeds (``seed``, ``seed+1``)
    conspicuously lack when fed straight into a generator.
    """
    state = (state + _SPLITMIX64_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def child_seed(root_seed, *path):
    """A decorrelated 64-bit child seed for one point of a sweep.

    ``path`` names the point: any mix of ints and strings, e.g.
    ``child_seed(1, "lottery-static", "T3")`` or
    ``child_seed(root, "replicate", index)``.  Each element is folded
    through a SplitMix64 step, so two points whose paths differ anywhere
    (or adjacent root seeds) get unrelated streams — unlike the ad-hoc
    ``seed + index`` arithmetic this replaces, which hands neighbouring
    points nearly identical generator states.

    :func:`derive_seed` remains the compatibility path for the named
    per-component streams inside one simulation; ``child_seed`` is for
    *between-point* independence in sweeps, replications and campaigns.
    """
    state = int(root_seed) & _MASK64
    for element in path:
        if isinstance(element, str):
            element = zlib.crc32(element.encode("utf-8"))
        elif isinstance(element, bool) or not isinstance(element, int):
            raise TypeError(
                "child_seed path elements must be ints or strings, got "
                "{!r}".format(element)
            )
        state, output = splitmix64(state ^ (int(element) & _MASK64))
        state ^= output
    _, output = splitmix64(state)
    return output


#: ``random.Random.VERSION``, the first item of its ``getstate()`` tuple.
_STATE_VERSION = 3


class RandomStream:
    """An independently seeded Mersenne Twister stream.

    The generator is CPython's C engine, ``_random.Random``, held
    directly: the draws and ``state_dict()["random"]`` are exactly those
    of ``random.Random(seed)``, without that Python subclass's instance
    ``__dict__`` slowing every method lookup.  ``seed`` must be an int
    (the engine would seed anything else through ``hash()``, salted per
    process for strings).  A stream pickles and deep-copies by value.
    """

    def __init__(self, seed, purpose=""):
        if not isinstance(seed, int):
            raise TypeError(
                "RandomStream seed must be an int, got {!r}".format(seed)
            )
        self.seed = derive_seed(seed, purpose) if purpose else seed
        self.purpose = purpose
        self._rng = _random.Random(self.seed)

    def reset(self):
        """Rewind the stream to its initial state."""
        self._rng = _random.Random(self.seed)

    def state_dict(self):
        """Snapshot the stream (identity plus generator position).

        ``"random"`` is a ``random.Random.getstate()`` tuple:
        ``(3, internal_state, None)``.
        """
        return {
            "seed": self.seed,
            "purpose": self.purpose,
            "random": (_STATE_VERSION, self._rng.getstate(), None),
        }

    def load_state_dict(self, state):
        """Restore a snapshot, resuming the stream mid-sequence.

        ``state["random"]`` may be any version-3 ``random.Random``
        state; its Gaussian cache is unused, since a stream draws no
        ``gauss``.  Other versions raise ``ValueError``.
        """
        version, internal, _ = state["random"]
        if version != _STATE_VERSION:
            raise ValueError(
                "state with version {!r} passed to RandomStream of version "
                "{}".format(version, _STATE_VERSION)
            )
        self._rng.setstate(internal)
        self.seed = state["seed"]
        self.purpose = state["purpose"]

    def __getstate__(self):
        # The C engine itself neither pickles nor deep-copies.
        return self.state_dict()

    def __setstate__(self, state):
        self._rng = _random.Random(state["seed"])
        self.load_state_dict(state)

    def randint(self, low, high):
        """Uniform integer in ``[low, high]`` inclusive (ints only).

        Draws exactly what ``random.Random.randint`` draws: CPython's
        ``_randbelow_with_getrandbits`` rejection loop, run inline to
        skip the ``randint`` -> ``randrange`` -> ``_randbelow`` calls.
        An empty range raises ``ValueError`` before any draw.
        """
        n = high - low + 1
        if n <= 0:
            raise ValueError(
                "empty range for randint({}, {})".format(low, high)
            )
        rng = self._rng
        # n's width, not (n - 1)'s, as CPython does: the draw count must
        # match random.Random's (n == 1 still draws).
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return low + r

    def randrange(self, upper):
        """Uniform integer in ``[0, upper)``.

        Draws exactly what ``random.Random.randrange(upper)`` draws, by
        the same inline rejection loop as :meth:`randint`.  A non-integer
        ``upper`` raises ``TypeError`` and an empty range ``ValueError``,
        both before any draw.
        """
        upper = _index(upper)
        if upper <= 0:
            raise ValueError("empty range for randrange({})".format(upper))
        rng = self._rng
        k = upper.bit_length()
        r = rng.getrandbits(k)
        while r >= upper:
            r = rng.getrandbits(k)
        return r

    def random(self):
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def geometric(self, p):
        """Geometric variate: number of Bernoulli(p) trials to first success.

        Returns an integer >= 1.  ``p`` must lie in (0, 1].  ``p == 1.0``
        draws nothing; otherwise this is ``failures(p) + 1``.
        """
        if p == 1.0:
            return 1
        return self.failures(p) + 1

    def failures(self, p):
        """Failed Bernoulli(``p``) trials before the first success.

        Draws exactly one uniform per trial, the success included, so
        the stream ends where a per-trial ``random() < p`` loop would
        and ``p == 1.0`` still draws once.  ``p`` must lie in (0, 1].
        The loop is unrolled by four and calls ``rng.random()`` as a
        method: on the C engine that lookup costs less than calling a
        bound ``rng.random`` held in a local (measured on CPython 3.11,
        x86-64: about 26 ns per trial against 34-39 ns).
        """
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1], got {}".format(p))
        rng = self._rng
        count = 0
        while True:
            if rng.random() < p:
                return count
            if rng.random() < p:
                return count + 1
            if rng.random() < p:
                return count + 2
            if rng.random() < p:
                return count + 3
            count += 4

    def __repr__(self):
        return "RandomStream(seed={}, purpose={!r})".format(self.seed, self.purpose)
