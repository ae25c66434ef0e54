"""Orbits of the code indices (bit w set when word mask w is a codeword)
under neuron permutations, for tests that check every small code up to
relabelling."""

from itertools import permutations

from neurocode._space import code_from_index
from neurocode.codes import permute_mask
from neurocode.verify import EXHAUSTIVE_MAX_NEURONS, _in_range


def orbits(n: int):
    """Yield (smallest index, size) for each orbit of the code indices
    1..2^(2^n)-1 under neuron permutations, in ascending index order; the
    sizes sum to 2^(2^n)-1. A permutation sends an index to the sum of
    1 << (image of w) over its w. The seen array takes one byte per code
    index: 64 KB at n=4, 4 GB at n=5."""
    _in_range(1, EXHAUSTIVE_MAX_NEURONS, n=n)
    words = range(1 << n)
    images = [[1 << permute_mask(w, perm) for w in words]
              for perm in permutations(range(1, n + 1))]
    seen = bytearray(1 << (1 << n))
    for idx in range(1, len(seen)):
        if not seen[idx]:
            members = [w for w in words if idx >> w & 1]
            orbit = {sum(image[w] for w in members) for image in images}
            for j in orbit:
                seen[j] = 1
            yield idx, len(orbit)


def small_codes():
    """Every code on n <= 3 and the smallest code of each orbit at n = 4:
    4256 codes."""
    codes = [code_from_index(n, idx) for n in (1, 2, 3) for idx in range(1, 1 << (1 << n))]
    return codes + [code_from_index(4, idx) for idx, _ in orbits(4)]
