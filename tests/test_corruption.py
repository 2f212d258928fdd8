"""The corruption matrix: one corrupt shard against one file command.

Each cell expects the command either to refuse with exit 2 and a message
that names the corrupt shard, or to give the right bytes. The exception is
a decode from exactly k shards: no shard is left over to tell which one is
bad, so those cells expect the right bytes or exit 2, not a named shard. A
cell that gives wrong bytes with exit 0 today is a strict xfail whose
reason names the ROADMAP item that will close it, so the change that
closes it must flip the mark.
"""

import dataclasses
import random
import re
import shutil
import struct
from itertools import accumulate

import pytest

from mbrr.cli import main
from mbrr.layout import all_nodes
from mbrr.shardfile import _HEADER, HEADER_SIZE, ShardHeader, file_params, shard_filename

SILENT = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="v1 payloads carry no checksum (ROADMAP item 6), and no scrub "
    "locates a corrupt shard before it is read or repaired from (ROADMAP item 10)",
)


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize(
    "victim, command",
    [
        # A systematic shard: the read takes its data cells as they are.
        pytest.param("shard_e0_g0", "decode", marks=SILENT, id="systematic-shard-decode"),
        # A parity shard in a helper rack of node (0, 0): the repair sends a
        # wrong helper symbol and writes a wrong shard_e0_g0.
        pytest.param("shard_e3_g0", "repair", marks=SILENT, id="helper-shard-repair"),
    ],
)
def test_one_flipped_payload_bit(tmp_path, capsys, victim, command):
    """A 3,000-byte file encoded ``--systematic`` at (12,7,3,3), with the
    first payload bit of ``victim`` flipped; a repair rebuilds node (0, 0)."""
    data = random.Random(14).randbytes(3000)
    src, shard_dir = tmp_path / "input.bin", tmp_path / "shards"
    src.write_bytes(data)
    assert run_cli(capsys, "encode", src, 12, 7, 3, 3, "--systematic", "--out", shard_dir)[0] == 0
    lost = shard_dir / "shard_e0_g0.mbrr"
    want = lost.read_bytes()
    corrupt = shard_dir / f"{victim}.mbrr"
    blob = bytearray(corrupt.read_bytes())
    blob[HEADER_SIZE] ^= 1
    corrupt.write_bytes(bytes(blob))

    if command == "decode":
        out = tmp_path / "out.bin"
        rc, err = run_cli(capsys, "decode", shard_dir, "--out", out)
        right = rc == 0 and out.read_bytes() == data
    else:
        lost.unlink()
        rc, err = run_cli(capsys, "repair", shard_dir, 0, 0)
        right = rc == 0 and lost.read_bytes() == want
    assert right or (rc == 2 and victim in err)


# The k lowest nodes but (0, 0) at two geometries, at each read shard in
# turn. At (12,7,3,3) every flip breaks the one mirrored pair of M1's square
# block that the degraded read compares; at (15,9,5,2) kbar = 1 leaves no
# pair to compare, so the read cannot see the flip.
DEGRADED_CELLS = [
    *(pytest.param((12, 7, 3, 3), i, id=f"12-7-3-3-read{i}") for i in range(7)),
    *(pytest.param((15, 9, 5, 2), i, marks=SILENT, id=f"15-9-5-2-read{i}") for i in range(9)),
]


@pytest.mark.parametrize("geometry, victim", DEGRADED_CELLS)
def test_one_flipped_bit_in_a_degraded_systematic_read(tmp_path, capsys, geometry, victim):
    """A 3,000-byte file encoded ``--systematic``, decoded from exactly k
    shards without ``shard_e0_g0``, the first payload bit of read shard
    ``victim`` flipped: the right bytes or exit 2."""
    data = random.Random(32).randbytes(3000)
    src, shard_dir, out = tmp_path / "input.bin", tmp_path / "shards", tmp_path / "out.bin"
    src.write_bytes(data)
    assert run_cli(capsys, "encode", src, *geometry, "--systematic", "--out", shard_dir)[0] == 0
    k = geometry[1]
    read = [shard_dir / shard_filename(*node) for node in list(all_nodes(file_params(*geometry)))[1 : k + 1]]
    blob = bytearray(read[victim].read_bytes())
    blob[HEADER_SIZE] ^= 1
    read[victim].write_bytes(bytes(blob))

    rc, err = run_cli(capsys, "decode", *read, "--out", out)
    assert (rc == 0 and out.read_bytes() == data) or (rc == 2 and "error:" in err)


# Each of _HEADER's 14 fields, in order, to the offset of its last, lowest byte.
_ENDS = accumulate(struct.calcsize(">" + code) for code in re.findall(r"\d*\D", _HEADER.format[1:]))
_NAMES = ("magic", "version", *(field.name for field in dataclasses.fields(ShardHeader)))
LOW_BYTES = {name: end - 1 for name, end in zip(_NAMES, _ENDS, strict=True)}
# The first shard admitted, whose header every other one is compared with,
# and one admitted after it.
HEADER_VICTIMS = ("shard_e0_g0", "shard_e2_g1")


@pytest.fixture(scope="module")
def plain_set(tmp_path_factory):
    """The shard directory of a 3,000-byte file encoded at (12,7,3,3), once
    for every header and size cell."""
    root = tmp_path_factory.mktemp("plain")
    (root / "input.bin").write_bytes(random.Random(34).randbytes(3000))
    assert main([str(a) for a in ("encode", root / "input.bin", 12, 7, 3, 3, "--out", root / "shards")]) == 0
    return root / "shards"


def _decode_names(tmp_path, capsys, plain_set, victim, corrupt):
    """``mbrr decode DIR`` on a copy of the plain set with ``corrupt``
    applied to the bytes of ``victim``: exit 2, naming its path."""
    shard_dir, out = tmp_path / "shards", tmp_path / "out.bin"
    shutil.copytree(plain_set, shard_dir)
    path = shard_dir / f"{victim}.mbrr"
    path.write_bytes(corrupt(bytearray(path.read_bytes())))
    rc, err = run_cli(capsys, "decode", shard_dir, "--out", out)
    assert rc == 2 and str(path) in err, err
    assert not out.exists()


@pytest.mark.parametrize("victim", HEADER_VICTIMS)
@pytest.mark.parametrize("field", LOW_BYTES)
def test_one_flipped_header_bit(tmp_path, capsys, plain_set, field, victim):
    """The low bit of one header field flipped in ``victim``: a bad magic,
    version or payload length is named by ``open_shard``, any other field by
    ``_admit``, as a mismatch with the first shard (naming both shards) or
    as a duplicate node."""

    def flip(blob):
        blob[LOW_BYTES[field]] ^= 1
        return bytes(blob)

    _decode_names(tmp_path, capsys, plain_set, victim, flip)


@pytest.mark.parametrize("victim", HEADER_VICTIMS)
@pytest.mark.parametrize("change", [-1, 1], ids=["cut", "extended"])
def test_one_symbol_cut_or_added(tmp_path, capsys, plain_set, victim, change):
    """A GF(2^8) shard one symbol short or long of its header's payload length."""
    _decode_names(tmp_path, capsys, plain_set, victim, lambda blob: bytes(blob[:change] if change < 0 else blob + b"\0"))
