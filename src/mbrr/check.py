"""The checker behind ``mbrr selftest``: after the field tables, it runs
``check_code`` on every code that ``admissible_geometries(SELFTEST_MAX_N)``
yields, each against the paper's claims on random stripes."""

from __future__ import annotations

import random
from typing import Iterator

from .encode import encode_slabs
from .gf import binary_field, tables_consistent
from .layout import CodeParams, make_params, unfill_message_matrix
from .reconstruct import Decoder, oracle_reconstruct
from .repair import Repairer
from .systematic import (
    read_slabs, systematic_encode_slabs, systematic_message_matrix, systematic_nodes, systematic_slabs,
)

__all__ = ["CHECK_LANES", "SELFTEST_MAX_N", "admissible_geometries", "check_code", "selftest_suites"]

SELFTEST_MAX_N = 16
CHECK_LANES = 8


def admissible_geometries(max_n: int) -> Iterator[tuple]:
    """Every (n, k, u, dbar) with n <= max_n that ``make_params`` accepts:
    u >= 2 divides n, u <= k < n and k // u <= dbar <= n // u - 1."""
    for n in range(2, max_n + 1):
        for u in range(2, n + 1):
            if n % u == 0:
                for k in range(u, n):
                    for dbar in range(k // u, n // u):
                        yield n, k, u, dbar


def check_code(p: CodeParams, rng: random.Random) -> str | None:
    """None if the code ``p`` keeps the paper's claims on CHECK_LANES random
    stripes, else the first claim it breaks: the closed forms of alpha, beta
    and B; decodes from the k lowest, the k highest and k random ids; every
    node's repair from dbar*beta cross-rack symbols a stripe; the systematic
    encode map and read; and stripe 0 against the elimination oracles."""
    kbar = p.k // p.u
    want = (p.dbar, 1, p.k * p.dbar - kbar * (kbar - 1) // 2)
    if (p.alpha, p.beta, p.B) != want:
        return f"(alpha, beta, B) = {(p.alpha, p.beta, p.B)}, want {want}"
    kernel, cross = p.kernel, p.dbar * p.beta * CHECK_LANES
    stripes = [[rng.randrange(p.field.q) for _ in range(p.B)] for _ in range(CHECK_LANES)]
    data = [kernel.pack(symbols) for symbols in zip(*stripes)]
    columns = encode_slabs(p, data)
    nodes = list(columns)
    for ids in (nodes[: p.k], nodes[-p.k :], rng.sample(nodes, p.k)):
        if Decoder(p, ids).decode_slabs(columns) != data:
            return f"decode from nodes {sorted(map(tuple, ids))} gave wrong data"
    # Stripe 0 (lane 0 of each slab) of the random subset, by elimination.
    observed = {node: kernel.unpack(b"".join(columns[node]))[::CHECK_LANES] for node in ids}
    if unfill_message_matrix(oracle_reconstruct(p, observed)) != stripes[0]:
        return f"elimination from nodes {sorted(map(tuple, ids))} gave wrong data"
    for failed in nodes:
        column, _, ledger = Repairer(p, failed).repair_slabs(columns)
        if column != columns[failed]:
            return f"repair of node {tuple(failed)} not bit-exact"
        if ledger.cross_rack_symbols != cross:
            return f"repair of node {tuple(failed)}: {ledger.cross_rack_symbols} cross-rack symbols"
    slots = systematic_slabs(p, data)
    oracle = unfill_message_matrix(systematic_message_matrix(p, stripes[0]))
    if kernel.unpack(b"".join(slots))[::CHECK_LANES] != oracle:
        return "systematic slots disagree with the elimination oracle"
    stored = encode_slabs(p, slots)
    if systematic_encode_slabs(p, data) != stored:
        return "systematic encode map disagrees with encoding the systematic slots"
    for ids in (systematic_nodes(p), nodes[-p.k :]):
        if read_slabs(p, {node: stored[node] for node in ids}, True) != data:
            return f"systematic read from nodes {sorted(map(tuple, ids))} gave wrong data"
    return None


def _suite_field_tables() -> str | None:
    for m in range(1, 17):
        f = binary_field(m)
        if not tables_consistent(f.exp, f.log, f.q):
            return f"GF(2^{m}) tables inconsistent"
    f = binary_field(8)
    exp = list(f.exp)
    exp[37] ^= 1
    if tables_consistent(exp, f.log, f.q):
        return "corrupted exp table not detected"
    log = list(f.log)
    log[200] = (log[200] + 1) % (f.q - 1)
    if tables_consistent(f.exp, log, f.q):
        return "corrupted log table not detected"
    return None


def _suite_codes() -> str | None:
    """The first code with n <= SELFTEST_MAX_N that ``check_code`` fails, and why."""
    rng = random.Random(SELFTEST_MAX_N)
    for geometry in admissible_geometries(SELFTEST_MAX_N):
        p = make_params(*geometry)
        try:
            why = check_code(p, rng)
        except Exception as exc:
            why = f"{type(exc).__name__}: {exc}"
        if why is not None:
            return f"{p}: {why}"
    return None


def selftest_suites() -> list:
    """(name, suite) pairs; a suite returns None, or why it failed."""
    count = sum(1 for _ in admissible_geometries(SELFTEST_MAX_N))
    return [
        ("field tables", _suite_field_tables),
        (f"every admissible code with n <= {SELFTEST_MAX_N} ({count} geometries)", _suite_codes),
    ]
