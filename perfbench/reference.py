"""A fixed task that measures how fast this host runs at the moment.

    python3 perfbench/reference.py

run.py runs it as a fresh process after every group and divides each
operation's wall time by the reference runs next to it (see run.py,
`REFERENCE_S`). It uses none of coverforge, so a change to the program
does not move it. It mixes the kinds of work the program does:
interpreter start and numpy import, np.unique and searchsorted on encoded
int64 states, a Python loop over tuples and a dict, and products of small
permutation objects. It prints one checksum, which run.py checks.
"""

import numpy as np

STATES = 150_000
LOOP = 200_000
PRODUCTS = 40_000


class Perm:
    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        self.images = images

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(tuple(other.images[i] for i in self.images))


def main() -> int:
    rng = np.random.default_rng(12345)
    states = rng.integers(0, 1 << 40, size=STATES)
    checksum = 0
    for _ in range(2):
        unique = np.unique(states)
        checksum += int(np.searchsorted(unique, states[::97]).sum() % 1_000_003)
        states = (states * 1_103_515_245 + 12_345) & ((1 << 40) - 1)

    counts: dict[tuple[int, int], int] = {}
    for i in range(LOOP):
        key = (i % 1009, i % 997)
        counts[key] = counts.get(key, 0) + i
    checksum += len(counts) + counts[0, 0] % 1_000_003

    # the affine maps i -> a*i + b of Z/7, as permutations
    maps = [Perm(tuple((a * i + b) % 7 for i in range(7))) for a in range(1, 7) for b in range(7)]
    product, seen = Perm(tuple(range(7))), set()
    for i in range(PRODUCTS):
        product = product * maps[i % len(maps)]
        seen.add(product.images)
    checksum += len(seen)
    print(checksum)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
