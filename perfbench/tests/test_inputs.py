import pytest

from inputs import HOT_PER_TEN, Inputs, take


@pytest.fixture(scope="module")
def base():
    from repro import e10000_model
    from repro.spec import model_to_spec

    return model_to_spec(e10000_model())


def sequence(seed, base):
    inputs = Inputs(seed, base)
    return {
        "hot": inputs.hot_specs(),
        "solve": take(inputs.solve_requests(), 30),
        "sweep": take(inputs.sweep_requests(), 5),
        "jobs": take(inputs.job_requests(), 5),
        "probe": take(inputs.gaps("probe", 0.02), 20),
        "status": take(inputs.gaps("status", 0.02), 20),
    }


def test_same_seed_gives_the_same_requests(base):
    assert sequence(7, base) == sequence(7, base)


def test_different_seed_gives_different_requests(base):
    first, second = sequence(7, base), sequence(8, base)
    for stream in first:
        assert first[stream] != second[stream], stream


def test_solve_mix_is_exactly_seventy_percent_hot(base):
    requests = take(Inputs(3, base).solve_requests(), 100)
    for block in range(10):
        hot = [r for r in requests[10 * block:10 * block + 10] if r["hot"] is not None]
        assert len(hot) == HOT_PER_TEN


def test_streams_are_independent(base):
    inputs = Inputs(5, base)
    take(inputs.sweep_requests(), 3)
    assert take(inputs.job_requests(), 2) == take(Inputs(5, base).job_requests(), 2)
