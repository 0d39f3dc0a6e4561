"""Pinned end-to-end outputs of ASTI's cross-round pool carry.

The carried pool's representation is a performance detail: the seed lists
and the per-round fresh/carried sample counts of these runs were recorded
with the original-id rebuild and must not move by a single draw.  Also
pins :func:`repro.utils.arrays.sorted_unique` against ``np.unique``.
"""

import numpy as np
import pytest

from repro import ASTI, IndependentCascade, LinearThreshold
from repro.graph import generators, weighting
from repro.runtime.context import ExecutionContext
from repro.utils.arrays import sorted_unique

MODELS = {"IC": IndependentCascade(), "LT": LinearThreshold()}

#: (model, batch size, seed) -> (seeds, samples_generated, samples_carried)
PINNED = {
    ("IC", 1, 0): (
        [4, 0, 3, 1, 9, 12, 26, 7, 20, 66, 45, 33, 15, 64, 61, 17, 70, 104, 16, 68, 11],
        [3136, 0, 4187, 0, 794, 0, 558, 3320, 0, 609, 2584, 1626, 2453, 2720, 2494, 1312, 1280, 1248, 616, 592, 568],
        [0, 2461, 1957, 5631, 2214, 2732, 2418, 2568, 2543, 2303, 264, 1190, 331, 0, 194, 0, 0, 0, 0, 0, 0],
    ),
    ("IC", 1, 1): (
        [0, 4, 1, 3, 12, 7, 9, 26, 66, 45, 20, 64, 17, 61, 125, 79, 15, 58, 104, 70, 40],
        [3136, 0, 4110, 0, 1634, 483, 338, 2353, 2880, 0, 684, 2784, 2449, 2688, 1328, 1177, 1296, 1280, 1248, 1232, 592],
        [0, 2399, 2034, 5292, 1374, 2493, 2606, 591, 0, 2554, 2164, 0, 303, 0, 0, 135, 0, 0, 0, 0, 0],
    ),
    ("IC", 1, 2): (
        [0, 4, 1, 9, 12, 7, 66, 20, 45, 64, 33, 15, 70, 28, 125, 61, 38, 2, 68, 50, 52, 91, 5],
        [3136, 0, 3040, 477, 238, 2691, 490, 2656, 0, 641, 2317, 2308, 0, 2489, 1998, 2536, 2656, 1077, 1280, 1248, 616, 592, 260],
        [0, 2682, 0, 2531, 2738, 253, 2422, 224, 2582, 2207, 499, 476, 2489, 263, 722, 152, 0, 235, 0, 0, 0, 0, 0],
    ),
    ("IC", 4, 0): (
        [4, 0, 1, 12, 9, 26, 66, 7, 20, 45, 64, 33, 15, 104, 40, 22, 78, 70, 58, 125, 79, 17],
        [1416, 1352, 1296, 1264, 600, 404],
        [0, 0, 0, 0, 0, 0],
    ),
    ("IC", 4, 1): (
        [0, 4, 1, 3, 12, 7, 9, 66, 20, 26, 45, 17, 64, 2, 6, 67, 5, 78, 125, 58, 15, 61],
        [1416, 1360, 1233, 628, 600, 404],
        [0, 0, 95, 0, 0, 0],
    ),
    ("IC", 4, 2): (
        [0, 4, 3, 1, 9, 12, 7, 20, 66, 33, 45, 64, 125, 39, 109, 61, 68, 15, 58, 11, 70, 120, 135],
        [1416, 1352, 1080, 1272, 612, 496],
        [0, 0, 232, 0, 0, 0],
    ),
    ("LT", 1, 0): (
        [0, 4, 1, 12, 7, 9, 26, 66, 45, 33, 17, 64, 70, 15, 79, 61, 125, 16, 58, 68, 38, 104, 40, 120, 78, 8],
        [3136, 750, 3702, 0, 743, 344, 517, 2339, 3273, 127, 201, 3082, 0, 463, 2516, 0, 2720, 2469, 2656, 1087, 1296, 1280, 1248, 1232, 592, 568],
        [0, 2354, 2378, 5389, 2265, 2632, 2427, 573, 2551, 2753, 2647, 2614, 2590, 2353, 268, 2506, 0, 219, 0, 225, 0, 0, 0, 0, 0, 0],
    ),
    ("LT", 1, 1): (
        [0, 4, 1, 3, 7, 12, 26, 66, 45, 20, 33, 125, 17, 64, 58, 6, 70, 15, 104],
        [3136, 0, 3960, 0, 0, 2388, 554, 2179, 307, 2470, 2816, 0, 2245, 2502, 2656, 1077, 1280, 1248, 592],
        [0, 2638, 2248, 5442, 4233, 620, 2390, 765, 2605, 410, 0, 2506, 539, 250, 0, 235, 0, 0, 0],
    ),
    ("LT", 1, 2): (
        [0, 4, 1, 3, 7, 12, 9, 26, 66, 20, 45, 125, 33, 17, 58, 2],
        [3136, 0, 1051, 3394, 0, 2944, 0, 2848, 2784, 0, 1328, 1296, 1280, 592, 568, 260],
        [0, 2595, 2021, 2686, 2836, 0, 2334, 0, 0, 2373, 0, 0, 0, 0, 0, 0],
    ),
    ("LT", 4, 0): (
        [4, 0, 1, 3, 26, 12, 9, 7, 66, 45, 22, 118, 33, 17, 125, 82, 68, 61, 64, 28, 15, 6, 79, 36, 5],
        [1416, 675, 1320, 1280, 1256, 592, 260],
        [0, 693, 0, 0, 0, 0, 0],
    ),
    ("LT", 4, 1): (
        [0, 4, 3, 1, 7, 12, 26, 70, 66, 45, 33, 17, 20, 64, 15, 78, 125, 58, 16, 52, 6, 146],
        [1416, 655, 1320, 1280, 592, 404],
        [0, 713, 0, 0, 0, 0],
    ),
    ("LT", 4, 2): (
        [4, 0, 3, 1, 7, 12, 26, 9, 20, 66, 45, 33, 125, 6, 5, 25],
        [1416, 1352, 636, 576],
        [0, 0, 0, 0],
    ),
}


@pytest.fixture(scope="module")
def damped_graph():
    topology = generators.preferential_attachment(150, 2, seed=42, directed=False)
    return weighting.scaled_cascade(topology, 0.3)


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: "-".join(map(str, key)))
def test_asti_carry_is_bit_identical(damped_graph, key):
    model, batch_size, seed = key
    seeds, generated, carried = PINNED[key]
    result = ASTI(
        MODELS[model],
        epsilon=0.5,
        batch_size=batch_size,
        context=ExecutionContext(reuse_pool=True),
    ).run(damped_graph, eta=50, seed=seed)
    assert [int(v) for v in result.seeds] == seeds
    assert [r.samples_generated for r in result.rounds] == generated
    assert [r.samples_carried for r in result.rounds] == carried


@pytest.mark.parametrize(
    "values",
    [
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(9, 3, dtype=np.int64),
        np.array([2**62 + 1, 2**62 - 1, 2**62 + 1, 2**62, -(2**62)], dtype=np.int64),
        np.array([5, 1, 5, 0, 1, 9], dtype=np.int32),
        np.random.default_rng(0).integers(0, 50, size=500),
    ],
    ids=["empty", "one", "all-duplicates", "near-2**62", "int32", "random"],
)
def test_sorted_unique_matches_np_unique(values):
    expected = np.unique(values)
    got = sorted_unique(values)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
