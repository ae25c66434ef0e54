"""The code-index space on n neurons: bit w of a code index is set when word
mask w is a codeword, and bit idx of a column over the indices is that code.
Exhaustive checks at small n run on these, with no Code built. A column is
a set, and a difference of columns is written x ^ (x & y), because ~ on a
2^(2^n)-bit int is several times slower than &."""

from __future__ import annotations

from .codes import Code, subset_bitsets

# Cap of `columns`: a column is 8 KB at n=4 and 512 MB at n=5.
COLUMNS_MAX_NEURONS = 4


def code_from_index(n: int, idx: int) -> Code:
    return Code.from_masks(n, [w for w in range(1 << n) if idx >> w & 1])


def comparable(n: int) -> list[int]:
    """Per word mask w on n neurons, the bitset of the other word masks
    comparable to w, that is, strictly inside or strictly around it. Masking
    entry w with a code index gives the neighbours of w in the code's
    containment graph. The masks around w are w | s for the submasks s of
    its complement, and w | s is w + s, so their bitset is that of those
    submasks shifted left by w."""
    sub, full = subset_bitsets(n), (1 << n) - 1
    return [(sub[w] | sub[full ^ w] << w) ^ 1 << w for w in range(1 << n)]


def chordless_cycles(n: int, comparable: list[int]):
    """Yield once each code index on n neurons with a connected 2-regular
    containment graph on at least 4 words.

    A CCG is the induced subgraph of the comparability graph on the code's
    words, so these codes are that graph's chordless cycles of 4 or more
    words. From each word v0, as the cycle's smallest, the search grows
    induced paths v0, v1, ..., vk on words above v0: a word w adjacent to vk
    and to none of v1..v(k-1) extends the path when it is not adjacent to
    v0, and closes it when it is, k >= 2 and w > v1. A closed path is such a
    cycle, since only consecutive words and v0 with w are adjacent. Such a
    cycle, read from v0 towards the smaller v1 of its two neighbours, is
    closed: each prefix is an induced path that the next word extends. Read
    the other way, it ends below v1. So each cycle is yielded once. A path
    is dropped when no word that may close it is left, since a longer path
    only loses words."""
    words = (1 << (1 << n)) - 1
    for v0 in range(1 << n):
        above = words ^ ((2 << v0) - 1)
        ends = comparable[v0] & above
        # path index, its last word, the words not on it and adjacent to no
        # interior word, and the words that may close it: v0's neighbours
        # above v1 and not adjacent to v1, which is interior once k >= 2
        stack, rest = [], ends
        while rest:
            first = rest & -rest
            rest ^= first
            v1 = first.bit_length() - 1
            stack.append((1 << v0 | first, v1, above ^ first, rest & ~comparable[v1]))
        while stack:
            idx, last, free, close = stack.pop()
            nbrs = comparable[last] & free
            shut = nbrs & close
            while shut:
                bit = shut & -shut
                shut ^= bit
                yield idx | bit
            free &= ~comparable[last]
            if free & close:
                grow = nbrs & ~ends
                while grow:
                    bit = grow & -grow
                    grow ^= bit
                    stack.append((idx | bit, bit.bit_length() - 1, free, close))


def violations(violation, comparable: list[int], indices) -> tuple[int, int | None]:
    """(count, smallest or None) of the code `indices` on which
    `violation(idx, comparable)` holds."""
    hits = [idx for idx in indices if violation(idx, comparable)]
    return len(hits), min(hits, default=None)


def columns(n: int) -> tuple[list[int], list[int], list[int]]:
    """(has, around, inside): per word mask, bitsets over the code indices
    on n neurons. has[w] holds the codes with codeword w; around[u]
    (inside[u]) ORs it over the w around (inside) u, giving the codes in
    whose complex u is a face (with a codeword inside u)."""
    if not 1 <= n <= COLUMNS_MAX_NEURONS:
        raise ValueError(f"n must be in 1..{COLUMNS_MAX_NEURONS}, got {n}")
    words = 1 << n
    half = 1 << (words - 1)
    has = [((1 << half) - 1) << half]  # the top word: the upper half of the indices
    for w in range(words - 2, -1, -1):
        # adding 2^w to idx carries into bit w + 1 exactly when bit w is set,
        # so bit idx of has[w + 1] >> 2^w is bit w + 1 of idx xor bit w
        has.insert(0, has[0] ^ has[0] >> (1 << w))
    around, inside = has[:], has[:]
    for i in range(n):
        for u in range(words):
            if not u >> i & 1:
                around[u] |= around[u | 1 << i]
                inside[u | 1 << i] |= inside[u]
    return has, around, inside
