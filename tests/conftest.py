import pytest

from twobridge import enumerate_knots, solve_many

# Two-bridge census ground truth: crossing number -> (knot count, {j: count
# of knots whose symmetric bound exceeds the crossing number by j}).
EXPECTED_TABLE = {
    3: (1, {0: 1}),
    4: (1, {0: 1}),
    5: (2, {0: 2}),
    6: (3, {0: 2, 1: 1}),
    7: (7, {0: 7}),
    8: (12, {0: 7, 1: 5}),
    9: (24, {0: 17, 1: 7}),
    10: (45, {0: 17, 1: 25, 2: 3}),
    11: (91, {0: 44, 1: 36, 2: 11}),
    12: (176, {0: 49, 1: 98, 2: 26, 3: 3}),
    13: (352, {0: 109, 1: 152, 2: 89, 3: 2}),
    14: (693, {0: 128, 1: 351, 2: 177, 3: 37}),
    15: (1387, {0: 275, 1: 545, 2: 499, 3: 66, 4: 2}),
    16: (2752, {0: 349, 1: 1160, 2: 899, 3: 334, 4: 10}),
}


@pytest.fixture(scope="session")
def solved_le_10():
    """Solver results for every knot with crossing number 3..10."""
    knots = [k for c in range(3, 11) for k in enumerate_knots(c)]
    return solve_many(knots)


@pytest.fixture(scope="session")
def solved_le_12():
    """Solver results for every knot with crossing number 3..12."""
    knots = [k for c in range(3, 13) for k in enumerate_knots(c)]
    return solve_many(knots)
