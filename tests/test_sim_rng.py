"""Tests for seeded random streams."""

import copy
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStream, derive_seed

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: Success probabilities: the sparse Poisson rate, certainty, and any
#: value in between (bounded below so a run stays short).
PROBABILITIES = st.one_of(
    st.just(1e-4), st.just(1.0), st.floats(min_value=1e-4, max_value=1.0)
)


def test_same_seed_same_sequence():
    a = RandomStream(42, "x")
    b = RandomStream(42, "x")
    assert [a.randint(0, 100) for _ in range(10)] == [
        b.randint(0, 100) for _ in range(10)
    ]


def test_different_purposes_diverge():
    a = RandomStream(42, "traffic")
    b = RandomStream(42, "lottery")
    assert [a.randint(0, 10 ** 6) for _ in range(5)] != [
        b.randint(0, 10 ** 6) for _ in range(5)
    ]


def test_reset_rewinds():
    stream = RandomStream(7, "x")
    first = [stream.random() for _ in range(5)]
    stream.reset()
    assert [stream.random() for _ in range(5)] == first


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_randrange_bounds():
    stream = RandomStream(3)
    values = [stream.randrange(5) for _ in range(200)]
    assert set(values) <= set(range(5))
    assert len(set(values)) == 5


def test_geometric_mean_and_support():
    stream = RandomStream(5, "g")
    samples = [stream.geometric(0.25) for _ in range(4000)]
    assert min(samples) >= 1
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(4.0, rel=0.1)


def test_geometric_p_one_is_always_one():
    stream = RandomStream(5)
    assert all(stream.geometric(1.0) == 1 for _ in range(10))


def test_geometric_rejects_bad_p():
    stream = RandomStream(5)
    with pytest.raises(ValueError):
        stream.geometric(0.0)
    with pytest.raises(ValueError):
        stream.geometric(1.5)


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, math.nan])
def test_failures_rejects_bad_p_without_drawing(p):
    # p <= 0 (or NaN) would otherwise loop forever.
    stream = RandomStream(5)
    before = stream.state_dict()
    with pytest.raises(ValueError):
        stream.failures(p)
    assert stream.state_dict() == before


def _reference_failures(rng, p):
    # The definition: one uniform per Bernoulli trial, success included.
    count = 0
    while rng.random() >= p:
        count += 1
    return count


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, p=PROBABILITIES)
@example(seed=0, p=1e-4)
@example(seed=0, p=1.0)
def test_failures_matches_a_per_trial_loop_draw_for_draw(seed, p):
    stream = RandomStream(seed, "bernoulli")
    reference = random.Random(stream.seed)
    runs = [stream.failures(p) for _ in range(3)]
    assert runs == [_reference_failures(reference, p) for _ in range(3)]
    assert stream.state_dict()["random"] == reference.getstate()


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, p=PROBABILITIES.filter(lambda p: p < 1.0))
@example(seed=0, p=1e-4)
def test_geometric_is_failures_plus_one_with_identical_state(seed, p):
    geometric = RandomStream(seed, "g")
    failures = RandomStream(seed, "g")
    for _ in range(3):
        assert geometric.geometric(p) == failures.failures(p) + 1
    assert geometric.state_dict() == failures.state_dict()


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_geometric_of_one_draws_nothing(seed):
    stream = RandomStream(seed, "g")
    before = stream.state_dict()
    assert stream.geometric(1.0) == 1
    assert stream.state_dict() == before


#: randint widths (high - low + 1): 1, powers of two and their
#: neighbours (where the rejection loop's acceptance rate jumps), and
#: widths above 2**32, which getrandbits serves from several words.
WIDTHS = st.one_of(
    st.just(1),
    st.integers(min_value=0, max_value=70).flatmap(
        lambda k: st.sampled_from(
            [w for w in (2**k - 1, 2**k, 2**k + 1) if w >= 1]
        )
    ),
    st.integers(min_value=2, max_value=2**80),
)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, low=st.integers(min_value=-(2**40), max_value=2**40),
       width=WIDTHS)
@example(seed=0, low=1, width=16)
@example(seed=0, low=0, width=1)
@example(seed=0, low=0, width=2**32)
@example(seed=0, low=0, width=2**32 + 1)
def test_randint_matches_random_randint_draw_for_draw(seed, low, width):
    stream = RandomStream(seed)
    reference = random.Random(seed)
    high = low + width - 1
    draws = [stream.randint(low, high) for _ in range(5)]
    assert draws == [reference.randint(low, high) for _ in range(5)]
    assert all(low <= value <= high for value in draws)
    assert stream.state_dict()["random"] == reference.getstate()


def test_randint_empty_range_raises_without_drawing():
    stream = RandomStream(5)
    before = stream.state_dict()
    with pytest.raises(ValueError):
        stream.randint(5, 4)
    assert stream.state_dict() == before


#: Seeds the engine sees unchanged (no purpose): 0, negatives (seeded
#: by absolute value, as random.Random seeds them) and ints wider than
#: one 32-bit key word.
ENGINE_SEEDS = st.integers(min_value=-(2**70), max_value=2**70)
#: One stream operation and its arguments.  ``failures`` rates stay at
#: or above 1e-3 so a run of them stays short.
OPERATIONS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("randint"),
              st.integers(min_value=-(2**40), max_value=2**40), WIDTHS),
    st.tuples(st.just("randrange"), WIDTHS),
    st.tuples(st.just("failures"),
              st.one_of(st.just(1.0), st.floats(min_value=1e-3,
                                                max_value=1.0))),
    st.tuples(st.just("geometric"),
              st.one_of(st.just(1.0), st.floats(min_value=1e-3,
                                                max_value=1.0))),
)


def _stream_step(stream, operation):
    name, *args = operation
    if name == "randint":
        low, width = args
        return stream.randint(low, low + width - 1)
    return getattr(stream, name)(*args)


def _reference_step(rng, operation):
    """What ``random.Random`` draws for one stream operation."""
    name, *args = operation
    if name == "random":
        return rng.random()
    if name == "randint":
        low, width = args
        return rng.randint(low, low + width - 1)
    if name == "randrange":
        return rng.randrange(args[0])
    if name == "failures":
        return _reference_failures(rng, args[0])
    if args[0] == 1.0:  # geometric(1.0) is 1 and draws nothing
        return 1
    return _reference_failures(rng, args[0]) + 1


@settings(max_examples=150, deadline=None)
@given(seed=ENGINE_SEEDS, operations=st.lists(OPERATIONS, max_size=12))
@example(seed=0, operations=[("random",), ("randrange", 1),
                             ("failures", 1.0), ("geometric", 0.5)])
@example(seed=-1, operations=[("randint", -3, 7), ("randrange", 2**33),
                              ("geometric", 1.0), ("random",)])
def test_interleaved_draws_match_random_random_draw_for_draw(seed,
                                                             operations):
    stream = RandomStream(seed)
    reference = random.Random(seed)
    assert stream.state_dict()["random"] == reference.getstate()
    for operation in operations:
        assert _stream_step(stream, operation) == _reference_step(
            reference, operation
        ), operation
        assert stream.state_dict()["random"] == reference.getstate()


def test_state_dict_random_is_a_version_3_getstate_tuple():
    version, internal, gauss_next = RandomStream(5).state_dict()["random"]
    assert (version, gauss_next) == (3, None)
    assert isinstance(internal, tuple) and len(internal) == 625


def test_load_state_dict_accepts_a_random_getstate_tuple():
    reference = random.Random(99)
    for _ in range(7):
        reference.random()
    stream = RandomStream(1, "x")
    stream.load_state_dict(
        {"seed": 99, "purpose": "", "random": reference.getstate()}
    )
    assert (stream.seed, stream.purpose) == (99, "")
    assert [stream.random() for _ in range(5)] == [
        reference.random() for _ in range(5)
    ]
    assert stream.state_dict()["random"] == reference.getstate()


@pytest.mark.parametrize("version", [1, 2, 4, None])
def test_load_state_dict_rejects_other_versions_unchanged(version):
    stream = RandomStream(5, "x")
    stream.random()
    before = stream.state_dict()
    _, internal, gauss_next = random.Random(6).getstate()
    with pytest.raises(ValueError):
        stream.load_state_dict(
            {"seed": 6, "purpose": "y", "random": (version, internal,
                                                   gauss_next)}
        )
    assert stream.state_dict() == before


@pytest.mark.parametrize(
    "clone",
    [pytest.param(lambda stream, protocol=protocol: pickle.loads(
        pickle.dumps(stream, protocol=protocol)),
        id="pickle{}".format(protocol))
     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    + [pytest.param(copy.deepcopy, id="deepcopy"),
       pytest.param(copy.copy, id="copy")],
)
def test_mid_stream_copy_continues_the_same_sequence(clone):
    stream = RandomStream(11, "x")
    for _ in range(3):
        stream.failures(0.1)
    copied = clone(stream)
    assert copied.state_dict() == stream.state_dict()
    assert [copied.randint(0, 99) for _ in range(20)] == [
        stream.randint(0, 99) for _ in range(20)
    ]
    # By value: drawing from one leaves the other where it was.
    copied.random()
    assert copied.state_dict() != stream.state_dict()
    copied.reset()
    stream.reset()
    assert copied.state_dict() == stream.state_dict()


@pytest.mark.parametrize("seed", ["7", 7.0, 7.5, None, b"7"])
def test_non_int_seed_raises_type_error(seed):
    with pytest.raises(TypeError):
        RandomStream(seed)
    with pytest.raises(TypeError):
        RandomStream(seed, "x")


def test_randrange_rejects_empty_and_non_int_ranges_without_drawing():
    stream = RandomStream(5)
    before = stream.state_dict()
    for upper in (0, -3):
        with pytest.raises(ValueError):
            stream.randrange(upper)
    with pytest.raises(TypeError):
        stream.randrange(5.0)
    assert stream.state_dict() == before


def test_splitmix64_reference_sequence():
    from repro.sim.rng import splitmix64

    # Reference outputs for seed 0 (Steele, Lea & Flood; also Vigna's
    # public-domain C implementation).
    state = 0
    outputs = []
    for _ in range(3):
        state, output = splitmix64(state)
        outputs.append(output)
    assert outputs == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_child_seed_stable_and_distinct():
    from repro.sim.rng import child_seed

    assert child_seed(1, "a") == child_seed(1, "a")
    assert child_seed(1, "a") != child_seed(1, "b")
    assert child_seed(1, "a") != child_seed(2, "a")
    assert child_seed(1, "a", 0) != child_seed(1, "a", 1)
    assert child_seed(1, "a", "b") != child_seed(1, "b", "a")


def test_child_seed_decorrelates_adjacent_roots():
    from repro.sim.rng import child_seed

    # Adjacent root seeds must not produce adjacent children (the whole
    # point of the avalanche step): children differ in many bits.
    a = child_seed(1, "sweep")
    b = child_seed(2, "sweep")
    assert bin(a ^ b).count("1") > 16


def test_child_seed_rejects_non_int_non_str_path():
    from repro.sim.rng import child_seed

    with pytest.raises(TypeError):
        child_seed(1, 1.5)
    with pytest.raises(TypeError):
        child_seed(1, True)
