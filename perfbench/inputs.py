"""Seeded input generator.

Runs in the orchestrating process, never in the timed one, and uses only the
benchmark's own reference code (``oracle``), so the inputs for a seed do not
depend on the version of gridperms being measured.  Inputs are written as
JSON lines, one pass per line; a pass is the list of ops the timed process
runs before it next checks the clock.
"""
from __future__ import annotations

import json
import random

import oracle
import spec


def member(m: oracle.Matrix, signs, n: int, rng: random.Random) -> list[int]:
    """The permutation of a random word's encode image."""
    return oracle.encode(m, *signs, rng.choices(m.letters, k=n))[0]


def plant(base: list[int], pattern, rng: random.Random) -> list[int]:
    """A permutation of length len(base) + len(pattern) that holds pattern at
    random positions and values and base, order-isomorphically, everywhere
    else.  It contains both, so it is a non-member whenever pattern is."""
    n = len(base) + len(pattern)
    positions = set(rng.sample(range(n), len(pattern)))
    values = sorted(rng.sample(range(1, n + 1), len(pattern)))
    taken = set(values)
    rest = [v for v in range(1, n + 1) if v not in taken]
    planted, kept = iter(pattern), iter(base)
    return [
        values[next(planted) - 1] if i in positions else rest[next(kept) - 1]
        for i in range(n)
    ]


def membership_passes(seed: int, passes: int):
    rng = random.Random(seed)
    setups = []
    for name, lengths in spec.MEMBERSHIP_LENGTHS.items():
        m = oracle.Matrix(spec.MATRICES[name])
        # Chosen by the benchmark's own brute force over every division
        # pair, never by the gridding search under test.
        patterns = oracle.non_members(m, spec.PLANTED_LENGTH)
        setups += [(name, m, oracle.signs(m), n, patterns) for n in lengths]
    for _ in range(passes):
        ops = []
        for name, m, signs, n, patterns in setups:
            ops.append({"matrix": name, "n": n, "kind": "member",
                        "entries": member(m, signs, n, rng)})
            base = member(m, signs, n - spec.PLANTED_LENGTH, rng)
            ops.append({"matrix": name, "n": n, "kind": "nonmember",
                        "entries": plant(base, rng.choice(patterns), rng)})
        rng.shuffle(ops)
        yield ops


def sweep_passes(seed: int, passes: int):
    rng = random.Random(seed)
    for _ in range(passes):
        ops = [{"matrix": name, "n_max": n_max} for name, n_max in spec.SWEEPS]
        rng.shuffle(ops)
        yield ops


def codec_passes(seed: int, passes: int):
    rng = random.Random(seed)
    # letters are written as indices into the sorted alphabet, one digit each
    digits = {name: "0123456789"[: len(oracle.Matrix(spec.MATRICES[name]).letters)]
              for name in spec.WORKLOAD_MATRICES["codec"]}
    for _ in range(passes):
        ops = []
        for name, alphabet in digits.items():
            for n in spec.CODEC_LENGTHS:
                word = "".join(rng.choices(alphabet, k=n))
                ops.append({"matrix": name, "word": word, "delete": rng.randrange(n)})
        rng.shuffle(ops)
        yield ops


GENERATORS = {"membership": membership_passes, "sweep": sweep_passes, "codec": codec_passes}


def write(workload: str, seed: int, path) -> None:
    """Write the seed's passes for a workload to path, one JSON line each."""
    with open(path, "w", encoding="utf-8") as out:
        for ops in GENERATORS[workload](seed, spec.POOL_PASSES[workload]):
            out.write(json.dumps(ops, separators=(",", ":")) + "\n")
