"""The corruption matrix: one corrupt shard against one file command.

Each cell expects the command either to refuse with exit 2 and a message
that names the corrupt shard, or to give the right bytes. A cell that gives
wrong bytes with exit 0 today is a strict xfail whose reason names the
ROADMAP item that will close it, so the change that closes it must flip the
mark.
"""

import random

import pytest

from mbrr.cli import main
from mbrr.shardfile import HEADER_SIZE

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
