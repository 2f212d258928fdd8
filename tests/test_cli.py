import dataclasses
import hashlib
import os
import random
import re
import struct
import sys
from collections.abc import Mapping

import pytest

import mbrr.cli
import mbrr.shardfile
import mbrr.systematic
from mbrr.check import check_code
from mbrr.cli import _build_parser, main
from mbrr.shardfile import (
    HEADER_SIZE,
    ShardHeader,
    bytes_to_symbols,
    decode_shards,
    encode_file,
    file_params,
    read_shard,
    shard_filename,
    symbols_to_bytes,
    write_payload,
    write_shard,
)
from mbrr.encode import encode
from mbrr.gf import binary_field
from mbrr.layout import IntegrityError, NodeId, fill_message_matrix, make_params
from mbrr.reconstruct import Decoder
from mbrr.repair import Repairer
from mbrr.slab import SlabKernel
from mbrr.systematic import read_nodes, systematic_encode

from support import count_kernel_builds


def sample_header(**overrides):
    fields = dict(
        m=8,
        primitive_poly=0x11D,
        n=12,
        k=7,
        u=3,
        dbar=3,
        systematic=False,
        e=1,
        g=2,
        stripe_count=10,
        payload_length=30,
        original_length=199,
    )
    fields.update(overrides)
    return ShardHeader(**fields)


# ---------------------------------------------------------------- format


def test_header_round_trip():
    h = sample_header()
    blob = h.pack()
    assert len(blob) == HEADER_SIZE == 48
    assert ShardHeader.unpack(blob) == h
    assert ShardHeader.unpack(blob + b"extra payload") == h


def test_header_rejects_garbage():
    with pytest.raises(ValueError, match="magic"):
        ShardHeader.unpack(b"NOPE" + bytes(44))
    with pytest.raises(ValueError, match="version"):
        blob = bytearray(sample_header().pack())
        blob[5] = 9
        ShardHeader.unpack(bytes(blob))
    with pytest.raises(ValueError, match="truncated"):
        ShardHeader.unpack(sample_header().pack()[:20])
    # The systematic flag is a byte that this format only ever sets to 0 or 1.
    blob = bytearray(sample_header().pack())
    assert blob[19] == 0
    for flag in (2, 255):
        blob[19] = flag
        with pytest.raises(ValueError, match="systematic flag"):
            ShardHeader.unpack(bytes(blob))
    blob[19] = 1
    assert ShardHeader.unpack(bytes(blob)) == sample_header(systematic=True)


def test_header_matches_ignores_node_identity():
    a = sample_header(e=0, g=0)
    b = sample_header(e=3, g=1)
    assert a.matches(b)
    assert not a.matches(sample_header(k=8))
    assert not a.matches(sample_header(systematic=True))


def test_symbol_framing_round_trip():
    assert SlabKernel(binary_field(8)).width == 1
    assert SlabKernel(binary_field(16)).width == 2
    data = bytes(range(256)) * 3
    assert symbols_to_bytes(bytes_to_symbols(data, 8), 8) == data
    syms16 = bytes_to_symbols(data, 16)
    assert len(syms16) == len(data) // 2
    assert syms16[0] == 0x0001  # big-endian pairs
    assert symbols_to_bytes(syms16, 16) == data
    # odd length pads one zero byte
    odd = b"\x07\x08\x09"
    assert bytes_to_symbols(odd, 16) == [0x0708, 0x0900]
    with pytest.raises(ValueError):
        bytes_to_symbols(data, 12)


def test_shard_file_round_trip(tmp_path):
    h = sample_header(stripe_count=2, payload_length=6, original_length=5)
    path = str(tmp_path / shard_filename(h.e, h.g))
    write_shard(path, h, [1, 2, 3, 250, 0, 9])
    got_h, got_syms = read_shard(path)
    assert got_h == h
    assert got_syms == [1, 2, 3, 250, 0, 9]
    assert not os.path.exists(path + ".tmp")


def test_write_shard_validates_payload_length(tmp_path):
    h = sample_header(stripe_count=2, payload_length=6)
    with pytest.raises(ValueError, match="payload"):
        write_shard(str(tmp_path / "x.mbrr"), h, [1, 2, 3])


def test_read_shard_validates_consistency(tmp_path):
    h = sample_header(stripe_count=2, payload_length=6, original_length=5)
    path = str(tmp_path / "x.mbrr")
    write_shard(path, h, [1, 2, 3, 4, 5, 6])
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-1])  # truncate payload
    with pytest.raises(ValueError, match="payload"):
        read_shard(path)


# ---------------------------------------------------------------- params


def test_file_params_picks_byte_field():
    assert file_params(12, 7, 3, 3).field.q == 256
    assert file_params(12, 7, 3, 3, 16).field.q == 65536
    # 5 divides 255, so m=8 still covers 5-node racks
    assert file_params(15, 8, 5, 2).field.q == 256
    with pytest.raises(ValueError, match="framable"):
        file_params(14, 8, 7, 1)  # 7 divides neither 255 nor 65535
    with pytest.raises(ValueError, match="m in"):
        file_params(12, 7, 3, 3, 4)
    # A geometry error is make_params's own, not blamed on the field.
    with pytest.raises(ValueError, match="dbar=1 is below the admissible minimum kbar=2") as exc:
        file_params(12, 7, 3, 1)
    assert "framable" not in str(exc.value)
    with pytest.raises(ValueError, match="does not divide n=13"):
        file_params(13, 7, 3, 3)
    # 300 nodes need more than 256 points.
    assert file_params(300, 7, 3, 3).field.q == 65536


# ---------------------------------------------------------------- encode


def test_encode_decode_round_trip_memory():
    rng = random.Random(500)
    p8 = file_params(12, 7, 3, 3)
    p16 = file_params(12, 7, 3, 3, 16)
    for p in (p8, p16):
        width = SlabKernel(p.field).width
        stripe_bytes = p.B * width
        for size in (1, 2, stripe_bytes - 1, stripe_bytes, stripe_bytes + 1, 4096):
            data = rng.randbytes(size)
            for systematic in (False, True):
                headers, shards = encode_file(data, p, systematic=systematic)
                assert headers[0].original_length == size
                loaded = {
                    NodeId(h.e, h.g): (h, syms)
                    for h, syms in zip(headers, shards)
                }
                assert decode_shards(loaded) == data
                # any k columns suffice, not just all n
                picks = dict(sorted(loaded.items())[-p.k :])
                assert decode_shards(picks) == data


def test_encode_file_refuses_empty():
    with pytest.raises(ValueError, match="empty"):
        encode_file(b"", file_params(12, 7, 3, 3))


def test_decode_shards_validates():
    p = file_params(12, 7, 3, 3)
    headers, shards = encode_file(b"hello world", p)
    loaded = {NodeId(h.e, h.g): (h, syms) for h, syms in zip(headers, shards)}
    few = dict(list(loaded.items())[: p.k - 1])
    with pytest.raises(ValueError, match="k=7"):
        decode_shards(few)
    with pytest.raises(ValueError, match="no shards"):
        decode_shards({})

    # A systematic read checks each header it reads: a payload filed under
    # another node, or a header from another file, is refused, not decoded
    # into wrong bytes.
    data = random.Random(160).randbytes(200)
    headers, shards = encode_file(data, p, systematic=True)
    loaded = {NodeId(h.e, h.g): (h, syms) for h, syms in zip(headers, shards)}
    assert decode_shards(loaded) == data
    a, b = NodeId(0, 0), NodeId(0, 1)
    swapped = {**loaded, a: loaded[b], b: loaded[a]}
    with pytest.raises(ValueError, match=r"node \(0, 0\): header is for node \(0, 1\)"):
        decode_shards(swapped)
    h, syms = loaded[b]
    foreign = {**loaded, b: (sample_header(**{**vars(h), "original_length": 199}), syms)}
    with pytest.raises(ValueError, match=r"node \(0, 1\): header disagrees"):
        decode_shards(foreign)
    # Every payload cut by its last stripe, each header's payload_length
    # lowered to match: the headers still claim 10 stripes, so the read is
    # refused, not returned 20 bytes short.
    cut = p.alpha * SlabKernel(p.field).width
    short = {
        node: (sample_header(**{**vars(hd), "payload_length": hd.payload_length - cut}), pl[:-cut])
        for node, (hd, pl) in loaded.items()
    }
    with pytest.raises(ValueError, match="payload length 27 does not match 10 stripes"):
        decode_shards(short)

    # Entries the read does not use are checked as well: node (3,2) holding
    # another file's shard (a 5,000-byte file, not 3,000) or a short payload,
    # or node (3,1)'s header renamed to (0,0), is refused, as ``mbrr decode``
    # refuses it.
    rng = random.Random(181)
    headers, shards = encode_file(rng.randbytes(3000), p)
    loaded = {NodeId(h.e, h.g): (h, syms) for h, syms in zip(headers, shards)}
    assert not {NodeId(3, 1), NodeId(3, 2)} & set(read_nodes(p, loaded))
    headers, shards = encode_file(rng.randbytes(5000), p)
    other = {NodeId(h.e, h.g): (h, syms) for h, syms in zip(headers, shards)}
    foreign = {**loaded, NodeId(3, 2): other[NodeId(3, 2)]}
    with pytest.raises(ValueError, match=r"node \(3, 2\): header disagrees"):
        decode_shards(foreign)
    h, syms = loaded[NodeId(3, 1)]
    renamed = {**loaded, NodeId(3, 1): (dataclasses.replace(h, e=0, g=0), syms)}
    with pytest.raises(ValueError, match=r"node \(3, 1\): header is for node \(0, 0\)"):
        decode_shards(renamed)
    h, syms = loaded[NodeId(3, 2)]
    with pytest.raises(ValueError, match=r"node \(3, 2\): payload is 447 bytes, header says 450"):
        decode_shards({**loaded, NodeId(3, 2): (h, syms[:-3])})


# ---------------------------------------------------------------- commands


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cmd_params_reports_geometry(capsys):
    rc, out, err = run_cli(capsys, "params", 12, 7, 3, 3)
    assert rc == 0
    assert "alpha 3" in out and "B 20" in out
    assert "GF(2^8)" in out
    rc, out, err = run_cli(capsys, "params", 50, 44, 5, 9)
    assert rc == 0
    assert "1.2228" in out
    rc, out, err = run_cli(capsys, "params", 12, 7, 3, 1)
    assert rc == 2
    assert "dbar" in err


def test_main_builds_its_parser_once(capsys):
    """``main`` reuses one parser: after a usage error (argparse's
    SystemExit(2)) and after an option, a call prints what it printed first."""
    first = run_cli(capsys, "params", 12, 7, 3, 3)
    with pytest.raises(SystemExit) as exc:
        main(["params", "12", "7"])
    assert exc.value.code == 2
    assert "usage: mbrr params" in capsys.readouterr().err
    assert "GF(2^16)" in run_cli(capsys, "params", 12, 7, 3, 3, "--field-m", 16)[1]
    assert run_cli(capsys, "params", 12, 7, 3, 3) == first
    assert _build_parser() is _build_parser()


def test_cmd_encode_decode_repair_cycle(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(501).randbytes(3000))
    shard_dir = tmp_path / "shards"
    rc, out, _ = run_cli(
        capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir
    )
    assert rc == 0
    names = sorted(os.listdir(shard_dir))
    assert len(names) == 12
    assert shard_filename(0, 0) in names

    # decode from an explicit 7-subset of shard files
    subset = [shard_dir / n for n in names[3:10]]
    dst = tmp_path / "restored.bin"
    rc, out, _ = run_cli(capsys, "decode", *subset, "--out", dst)
    assert rc == 0
    assert dst.read_bytes() == src.read_bytes()

    # erase one shard, regenerate it, compare hashes
    victim = shard_dir / shard_filename(2, 1)
    want = hashlib.sha256(victim.read_bytes()).hexdigest()
    victim.unlink()
    rc, out, _ = run_cli(capsys, "repair", shard_dir, 2, 1)
    assert rc == 0
    assert "cross_rack_symbols" in out
    got = hashlib.sha256(victim.read_bytes()).hexdigest()
    assert got == want


def test_cmd_decode_accepts_directory(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"some file contents went here")
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    dst = tmp_path / "restored.bin"
    rc, _, _ = run_cli(capsys, "decode", shard_dir, "--out", dst)
    assert rc == 0
    assert dst.read_bytes() == src.read_bytes()
    assert not os.path.exists(f"{dst}.tmp")


class _PartialWriter:
    """A binary file whose ``writelines`` writes one byte, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def writelines(self, chunks):
        self._fh.write(chunks[0][:1])
        raise OSError(28, "No space left on device")


def _fail_writes(monkeypatch, where):
    """Make every file write of ``mbrr.shardfile`` fail in ``writelines`` or
    in the rename (``os.replace``)."""
    if where == "replace":

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        return

    def partial_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _PartialWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(mbrr.shardfile, "open", partial_open, raising=False)


@pytest.mark.parametrize("where", ["writelines", "replace"])
def test_failed_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch, where):
    """A write that fails exits 2 and leaves neither the target nor its
    ``.tmp`` file: for ``mbrr decode``, for ``mbrr encode`` (each shard goes
    through ``write_payload``) and for ``write_payload`` itself."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(504).randbytes(3000))
    shard_dir = tmp_path / "shards"
    assert run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)[0] == 0
    shards = sorted(os.listdir(shard_dir))
    _fail_writes(monkeypatch, where)

    rc, _, err = run_cli(capsys, "decode", shard_dir, "--out", tmp_path / "restored.bin")
    assert (rc, err) == (2, "error: [Errno 28] No space left on device\n")
    rc, _, err = run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", tmp_path / "more")
    assert (rc, err) == (2, "error: [Errno 28] No space left on device\n")
    with pytest.raises(OSError, match="No space left"):
        write_payload(str(tmp_path / "x.mbrr"), sample_header(payload_length=3), b"abc")
    assert sorted(os.listdir(tmp_path)) == ["input.bin", "more", "shards"]
    assert os.listdir(tmp_path / "more") == []
    assert sorted(os.listdir(shard_dir)) == shards


def test_decode_onto_a_directory_leaves_no_temp_file(tmp_path, capsys):
    """The rename onto an existing directory fails; the decoded bytes
    written to its ``.tmp`` file go with it."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(505).randbytes(3000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    target = tmp_path / "existing"
    target.mkdir()
    rc, _, err = run_cli(capsys, "decode", shard_dir, "--out", target)
    assert rc == 2 and "existing" in err
    assert sorted(os.listdir(tmp_path)) == ["existing", "input.bin", "shards"]
    assert os.listdir(target) == []


def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    """An ``--out`` of the wrong kind, or a file whose directory is missing,
    exits 2 with a message that names it, before any shard is opened or any
    map runs, and creates nothing."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(506).randbytes(3000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    a_dir, a_file, nowhere = tmp_path / "a_dir", tmp_path / "a_file", tmp_path / "no" / "out.bin"
    a_dir.mkdir()
    a_file.write_bytes(b"keep")

    def work(*args, **kwargs):
        raise AssertionError("the command worked before it checked --out")

    for owner, name in (
        (mbrr.cli, "encode_file"),
        (mbrr.shardfile, "open_shard"),
        (mbrr.systematic, "read_slabs"),
        (mbrr.shardfile, "read_slabs"),
        (Repairer, "repair_slabs"),
    ):
        monkeypatch.setattr(owner, name, work)
    cases = [
        (("decode", shard_dir, "--out", a_dir), f"output file {a_dir} is an existing directory"),
        (("decode", shard_dir, "--out", nowhere), f"output file {nowhere}: its directory does not exist"),
        (("encode", src, 12, 7, 3, 3, "--out", a_file), f"output directory {a_file} is an existing file"),
        (("repair", shard_dir, 1, 1, "--out", a_file), f"output directory {a_file} is an existing file"),
    ]
    for argv, want in cases:
        assert run_cli(capsys, *argv) == (2, "", f"error: {want}\n")
    assert sorted(os.listdir(tmp_path)) == ["a_dir", "a_file", "input.bin", "shards"]
    assert os.listdir(a_dir) == [] and a_file.read_bytes() == b"keep"


def test_decode_onto_an_input_shard_is_refused(tmp_path, capsys, monkeypatch):
    """An ``--out`` that is one of the shards the decode reads, given by its
    path, through its directory or through a symlink, and spelled either
    way, exits 2 naming that shard before any shard is opened; the shard
    keeps its bytes."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(507).randbytes(3000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    shard = shard_dir / "shard_e0_g0.mbrr"
    before = shard.read_bytes()

    def work(*args, **kwargs):
        raise AssertionError("a shard was opened before --out was checked")

    monkeypatch.setattr(mbrr.shardfile, "open_shard", work)
    detour = shard_dir / ".." / "shards" / shard.name
    link = tmp_path / "link"
    link.symlink_to(shard)
    cases = [
        (shard_dir, shard, shard),
        (shard_dir, detour, shard),
        (shard, detour, shard),
        (detour, shard, detour),
        (link, shard, link),
    ]
    for given, out, named in cases:
        rc, stdout, err = run_cli(capsys, "decode", given, "--out", out)
        assert (rc, stdout, err) == (2, "", f"error: output file {out} is the input shard {named}\n")
    assert shard.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["input.bin", "link", "shards"]


def test_encode_refuses_a_directory_with_another_encodes_shards(tmp_path, capsys, monkeypatch):
    """Encoding at (12,7,3,3) into a directory that holds (15,7,3,3) shards
    would leave ``shard_e4_g*`` behind, which decode then refuses; so it
    exits 2 naming a stale shard, before the input is read, and every old
    shard keeps its bytes. The same or a larger n may encode there again."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(529).randbytes(3000))
    wide, narrow = tmp_path / "wide", tmp_path / "narrow"
    assert run_cli(capsys, "encode", src, 15, 7, 3, 3, "--out", wide)[0] == 0
    assert run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", narrow)[0] == 0
    before = {path.name: path.read_bytes() for path in wide.iterdir()}
    assert len(before) == 15

    def work(*args, **kwargs):
        raise AssertionError("the encode read its input before it checked --out")

    with monkeypatch.context() as patched:
        patched.setattr(mbrr.cli, "encode_file", work)
        want = f"output directory {wide} holds {wide / 'shard_e4_g0.mbrr'}, a shard this encode does not write"
        assert run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", wide) == (2, "", f"error: {want}\n")
    assert {path.name: path.read_bytes() for path in wide.iterdir()} == before
    for out in (wide, narrow):
        assert run_cli(capsys, "encode", src, 15, 7, 3, 3, "--out", out)[0] == 0
    assert {path.name: path.read_bytes() for path in narrow.iterdir()} == before
    rc, _, err = run_cli(capsys, "decode", narrow, "--out", tmp_path / "out.bin")
    assert (rc, err) == (0, "") and (tmp_path / "out.bin").read_bytes() == src.read_bytes()


def _refuse_work(monkeypatch):
    """Make the first step past the output checks of encode (``encode_file``)
    and of decode (``open_shard``) fail the test."""

    def work(*args, **kwargs):
        raise AssertionError("the command read its input before it checked --out")

    monkeypatch.setattr(mbrr.cli, "encode_file", work)
    monkeypatch.setattr(mbrr.shardfile, "open_shard", work)


def test_decode_refuses_a_temp_path_that_is_an_input_shard(tmp_path, capsys, monkeypatch):
    """A shard renamed to ``out.bin.tmp`` and decoded ``--out out.bin`` is
    where the atomic write would put its temp file: decode exits 2 naming
    it, before it opens any shard, and the shard keeps its bytes. A temp
    file left by a killed run is refused the same way."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(530).randbytes(3000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    out, tmp = tmp_path / "out.bin", tmp_path / "out.bin.tmp"
    (shard_dir / "shard_e0_g0.mbrr").rename(tmp)
    before = tmp.read_bytes()
    others = sorted(shard_dir.iterdir())[:6]
    _refuse_work(monkeypatch)
    want = f"error: output file {out}: its temp file {tmp} already exists\n"
    assert run_cli(capsys, "decode", tmp, *others, "--out", out) == (2, "", want)
    assert tmp.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["input.bin", "out.bin.tmp", "shards"]


def test_encode_refuses_a_temp_path_that_is_its_input(tmp_path, capsys, monkeypatch):
    """Encoding ``DIR/shard_e0_g0.mbrr.tmp`` into DIR would write shard (0,0)
    through that temp path: encode exits 2 naming it, before it reads its
    input, and the input keeps its bytes."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(531).randbytes(3000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    shard = shard_dir / "shard_e0_g0.mbrr"
    tmp = shard_dir / "shard_e0_g0.mbrr.tmp"
    tmp.write_bytes(shard.read_bytes())
    before = {path.name: path.read_bytes() for path in shard_dir.iterdir()}
    _refuse_work(monkeypatch)
    want = f"error: output file {shard}: its temp file {tmp} already exists\n"
    assert run_cli(capsys, "encode", tmp, 12, 7, 3, 3, "--out", shard_dir) == (2, "", want)
    assert {path.name: path.read_bytes() for path in shard_dir.iterdir()} == before


def test_encode_refuses_its_own_input_shard(tmp_path, capsys, monkeypatch):
    """Encoding a shard into the directory it is in, by its path, through its
    directory or through a symlink, would replace it with the shard of the
    same name: encode exits 2 naming that shard, before it reads its input,
    and every shard keeps its bytes."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(532).randbytes(3000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    shard = shard_dir / "shard_e1_g2.mbrr"
    link = tmp_path / "link"
    link.symlink_to(shard)
    before = {path.name: path.read_bytes() for path in shard_dir.iterdir()}
    _refuse_work(monkeypatch)
    detour = os.path.join(shard_dir, "..", "shards")
    for given, out in [(shard, shard_dir), (link, shard_dir), (shard, detour)]:
        want = f"error: input file {given} is the output shard {os.path.join(out, shard.name)}\n"
        assert run_cli(capsys, "encode", given, 12, 7, 3, 3, "--out", out) == (2, "", want)
    assert {path.name: path.read_bytes() for path in shard_dir.iterdir()} == before


def test_write_payload_keeps_an_existing_temp_file(tmp_path):
    """The atomic writer creates its temp file exclusively: a file already at
    ``PATH.tmp`` is refused with its name and kept, and PATH is not made."""
    path, tmp = tmp_path / "x.mbrr", tmp_path / "x.mbrr.tmp"
    tmp.write_bytes(b"kept")
    with pytest.raises(FileExistsError, match=re.escape(str(tmp))):
        write_payload(str(path), sample_header(payload_length=3), b"abc")
    assert tmp.read_bytes() == b"kept" and not path.exists()


def test_repair_refuses_a_left_over_temp_file(tmp_path, capsys):
    """A repair whose shard's temp file is already in the output directory,
    as a killed run leaves it, exits 2 naming it and keeps it."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(533).randbytes(3000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    shard = shard_dir / "shard_e1_g1.mbrr"
    shard.rename(shard_dir / "shard_e1_g1.mbrr.tmp")
    want = f"error: output file {shard}: its temp file {shard}.tmp already exists\n"
    assert run_cli(capsys, "repair", shard_dir, 1, 1) == (2, "", want)
    assert (shard_dir / "shard_e1_g1.mbrr.tmp").exists() and not shard.exists()


@pytest.mark.parametrize(
    "systematic, lost, want",
    [
        (False, None, list(range(7))),  # the 7 lowest ids
        (True, None, list(range(7))),  # the 7 systematic nodes
        (True, (0, 1), [0, *range(2, 8)]),  # lowest ids, (0, 1) encoded
        (False, (0, 0), list(range(1, 8))),
    ],
)
def test_cmd_decode_loads_only_payloads_it_reads(tmp_path, capsys, monkeypatch, systematic, lost, want):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(507).randbytes(1500))
    shard_dir = tmp_path / "shards"
    flags = ["--systematic"] if systematic else []
    run_cli(capsys, "encode", src, 12, 7, 3, 3, *flags, "--out", shard_dir)
    if lost is not None:
        (shard_dir / shard_filename(*lost)).unlink()
    opened, read = [], []
    real = mbrr.shardfile.open_shard

    class Counting:
        """A shard handle past its header; records the shards whose payload is read."""

        def __init__(self, path, fh):
            self.path, self.fh = path, fh

        def read(self, *size):
            read.append(os.path.basename(self.path))
            return self.fh.read(*size)

        def close(self):
            self.fh.close()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.close()

    def counting(path):
        opened.append(os.path.basename(path))
        header, fh = real(path)
        return header, Counting(path, fh)

    monkeypatch.setattr(mbrr.shardfile, "open_shard", counting)
    dst = tmp_path / "restored.bin"
    rc, out, _ = run_cli(capsys, "decode", shard_dir, "--out", dst)
    assert rc == 0 and dst.read_bytes() == src.read_bytes()
    nodes = [(e, g) for e in range(4) for g in range(3)]
    assert sorted(read) == sorted(shard_filename(*nodes[i]) for i in want)
    # Each shard is opened once: the header pass's handle serves the payload.
    assert sorted(opened) == sorted(os.listdir(shard_dir))
    assert f"from {12 - (lost is not None)} shards" in out


@pytest.mark.parametrize("failed", [(1, 0), (2, 2)])
def test_cmd_repair_opens_each_shard_once(tmp_path, capsys, monkeypatch, failed):
    """The probe shard whose header gives the code also serves its payload."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(508).randbytes(1500))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    want = (shard_dir / shard_filename(*failed)).read_bytes()
    (shard_dir / shard_filename(*failed)).unlink()
    opened = []
    real = mbrr.shardfile.open_shard

    def counting(path):
        opened.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(mbrr.shardfile, "open_shard", counting)
    rc, _, _ = run_cli(capsys, "repair", shard_dir, *failed)
    assert rc == 0 and (shard_dir / shard_filename(*failed)).read_bytes() == want
    # dbar = 3 helper racks of u = 3 nodes, and the u - 1 = 2 rack mates.
    e, g = failed
    helpers = [r for r in range(4) if r != e]
    needed = [(r, j) for r in helpers for j in range(3)] + [(e, j) for j in range(3) if j != g]
    assert sorted(opened) == sorted(shard_filename(*node) for node in needed)


def test_cmd_decode_checks_unused_shards(tmp_path, capsys):
    """A shard the read does not use still has its header and size checked."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(508).randbytes(1500))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    unused = shard_dir / shard_filename(3, 2)
    unused.write_bytes(unused.read_bytes()[:-1])
    rc, _, err = run_cli(capsys, "decode", shard_dir, "--out", tmp_path / "out.bin")
    assert rc == 2 and "payload is" in err
    unused.write_bytes(b"MBRX" + bytes(60))
    rc, _, err = run_cli(capsys, "decode", shard_dir, "--out", tmp_path / "out.bin")
    assert rc == 2 and "magic" in err


@pytest.mark.parametrize("node", [(9, 2), (0, 7)])
def test_decode_refuses_a_header_off_its_rack_grid(tmp_path, capsys, node):
    """A copy of a shard whose header names a node outside its own 4 x 3
    grid is refused by name, admitted first or last, by ``mbrr decode`` and
    by ``decode_shards``; it is neither ignored nor left to the decoder."""
    data = random.Random(531).randbytes(1500)
    src, shard_dir, dst = tmp_path / "input.bin", tmp_path / "shards", tmp_path / "out.bin"
    src.write_bytes(data)
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    blob = (shard_dir / shard_filename(0, 0)).read_bytes()
    header = dataclasses.replace(ShardHeader.unpack(blob), e=node[0], g=node[1])
    copy = tmp_path / "copy.mbrr"
    copy.write_bytes(header.pack() + blob[HEADER_SIZE:])
    want = f"header names node {node}, outside the rack grid of n=12, u=3"
    for given in ((copy, shard_dir), (shard_dir, copy)):
        assert run_cli(capsys, "decode", *given, "--out", dst) == (2, "", f"error: {copy}: {want}\n")
    assert not dst.exists()

    headers, payloads = encode_file(data, file_params(12, 7, 3, 3))
    loaded = {NodeId(h.e, h.g): (h, pl) for h, pl in zip(headers, payloads)}
    off = {NodeId(*node): (header, payloads[0])}
    for shards in ({**off, **loaded}, {**loaded, **off}):
        with pytest.raises(ValueError, match=re.escape(f"node {node}: {want}")):
            decode_shards(shards)


@pytest.mark.parametrize("lost", [None, (0, 1)])
def test_cmd_decode_compares_each_header_once(tmp_path, capsys, monkeypatch, lost):
    """A directory decode compares every shard's header with one other, the
    first shard's, and builds the params once."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(509).randbytes(1500))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--systematic", "--out", shard_dir)
    if lost is not None:
        (shard_dir / shard_filename(*lost)).unlink()
    compared, built = [], []
    matches, make_params = ShardHeader.matches, mbrr.shardfile.make_params

    def counting_matches(self, other):
        compared.append(((self.e, self.g), (other.e, other.g)))
        return matches(self, other)

    def counting_make_params(*args, **kwargs):
        built.append(args)
        return make_params(*args, **kwargs)

    monkeypatch.setattr(ShardHeader, "matches", counting_matches)
    monkeypatch.setattr(mbrr.shardfile, "make_params", counting_make_params)
    dst = tmp_path / "restored.bin"
    rc, _, _ = run_cli(capsys, "decode", shard_dir, "--out", dst)
    assert rc == 0 and dst.read_bytes() == src.read_bytes()
    shards = len(os.listdir(shard_dir))
    assert len(compared) == shards - 1
    assert len(set(compared)) == shards - 1 and len({other for _, other in compared}) == 1
    assert built == [(12, 7, 3, 3)]


def test_each_command_builds_one_kernel(tmp_path, capsys, monkeypatch):
    """A command's params own its one slab kernel: the systematic encode's
    precoding and map builds, the decoder, the encode of unread systematic
    nodes and the repair all run on it."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(510).randbytes(1500))
    shard_dir = tmp_path / "shards"
    built = count_kernel_builds(monkeypatch)

    def kernels(*argv):
        built.clear()
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 0, err
        return built

    gf8 = [binary_field(8)]
    assert kernels("encode", src, 12, 7, 3, 3, "--systematic", "--out", shard_dir) == gf8
    assert kernels("decode", shard_dir, "--out", tmp_path / "healthy.bin") == gf8
    (shard_dir / shard_filename(0, 1)).unlink()
    assert kernels("decode", shard_dir, "--out", tmp_path / "degraded.bin") == gf8
    assert kernels("repair", shard_dir, 0, 1) == gf8
    for name in ("healthy.bin", "degraded.bin"):
        assert (tmp_path / name).read_bytes() == src.read_bytes()


def test_cmd_encode_systematic_places_raw_bytes(tmp_path, capsys):
    from mbrr.systematic import systematic_layout

    src = tmp_path / "input.bin"
    payload = random.Random(502).randbytes(2000)
    src.write_bytes(payload)
    shard_dir = tmp_path / "shards"
    rc, _, _ = run_cli(
        capsys, "encode", src, 12, 7, 3, 3, "--systematic", "--out", shard_dir
    )
    assert rc == 0
    p = file_params(12, 7, 3, 3)
    lay = systematic_layout(p)
    shards = {}
    for name in os.listdir(shard_dir):
        h, syms = read_shard(str(shard_dir / name))
        shards[NodeId(h.e, h.g)] = syms
        assert h.systematic
    out = []
    for s in range(h.stripe_count):
        for i, node in lay.data_positions:
            out.append(shards[node][s * p.alpha + i])
    assert bytes(out)[: len(payload)] == payload


def test_cmd_repair_rejects_bad_helpers(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"x" * 100)
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    (shard_dir / shard_filename(0, 0)).unlink()
    rc, _, err = run_cli(
        capsys, "repair", shard_dir, 0, 0, "--helpers", "1,2"
    )
    assert rc == 2 and "dbar" in err
    for bad in ("woof", "1,,2", "1,2,3,"):
        rc, _, err = run_cli(capsys, "repair", shard_dir, 0, 0, "--helpers", bad)
        assert rc == 2 and "comma-separated" in err


@pytest.mark.parametrize("claimed", [1_262_144, 1, 0])
def test_cmd_decode_rejects_length_disagreeing_with_stripes(tmp_path, capsys, claimed):
    """A header whose original length needs another stripe count is refused."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(505).randbytes(5000))  # 250 stripes of 20
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    for name in os.listdir(shard_dir):
        blob = bytearray((shard_dir / name).read_bytes())
        blob[40:48] = struct.pack(">Q", claimed)  # original_length
        (shard_dir / name).write_bytes(bytes(blob))
    dst = tmp_path / "restored.bin"
    rc, _, err = run_cli(capsys, "decode", shard_dir, "--out", dst)
    assert rc == 2
    assert "original length" in err
    assert not dst.exists()
    (shard_dir / shard_filename(1, 1)).unlink()
    rc, _, err = run_cli(capsys, "repair", shard_dir, 1, 1)
    assert rc == 2 and "original length" in err


def test_cmd_decode_rejects_zero_length_file(tmp_path, capsys):
    """Shards that claim an empty file are refused, not decoded to nothing."""
    paths = []
    for e, g in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]:
        h = sample_header(e=e, g=g, stripe_count=0, payload_length=0, original_length=0)
        paths.append(tmp_path / shard_filename(e, g))
        write_shard(str(paths[-1]), h, [])
    rc, _, err = run_cli(capsys, "decode", *paths, "--out", tmp_path / "out.bin")
    assert rc == 2 and "original length" in err


def encode_five_racks(tmp_path, capsys, field_m=8):
    """(15,7,3,3): five racks, so a repair of rack 0 leaves rack 4 idle."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(506).randbytes(3000))  # 3000 / (20 * m/8) stripes
    shard_dir = tmp_path / "shards"
    rc, _, _ = run_cli(
        capsys, "encode", src, 15, 7, 3, 3, "--field-m", field_m, "--out", shard_dir
    )
    assert rc == 0
    return shard_dir


def test_cmd_repair_opens_only_needed_shards(tmp_path, capsys):
    shard_dir = encode_five_racks(tmp_path, capsys)
    victim = shard_dir / shard_filename(0, 0)
    want = victim.read_bytes()
    victim.unlink()
    # Rack 4 is no helper of rack 0 (default helpers 1, 2, 3).
    (shard_dir / shard_filename(4, 0)).write_bytes(b"not a shard at all")
    (shard_dir / shard_filename(4, 1)).unlink()
    rc, _, err = run_cli(capsys, "repair", shard_dir, 0, 0)
    assert rc == 0, err
    assert victim.read_bytes() == want


@pytest.mark.parametrize("lost", [(2, 1), (0, 1), (0, 2)])
def test_cmd_repair_names_missing_shard(tmp_path, capsys, lost):
    """A missing helper-rack node or in-rack survivor is named in the error."""
    shard_dir = encode_five_racks(tmp_path, capsys)
    (shard_dir / shard_filename(0, 0)).unlink()
    (shard_dir / shard_filename(*lost)).unlink()
    rc, _, err = run_cli(capsys, "repair", shard_dir, 0, 0)
    assert rc == 2
    assert f"node {lost}" in err


@pytest.mark.parametrize("make", [False, True])
def test_cmd_repair_names_a_directory_without_shards(tmp_path, capsys, make):
    """A missing directory, or one with no .mbrr file, is named as such,
    as ``mbrr decode`` names it, not as a missing rack mate."""
    shard_dir = tmp_path / "shards"
    if make:
        shard_dir.mkdir()
        (shard_dir / "notes.txt").write_text("no shards here")
    rc, _, err = run_cli(capsys, "repair", shard_dir, 0, 0)
    assert rc == 2
    assert err == f"error: {shard_dir}: no .mbrr shard files\n"


def test_cmd_repair_checks_shard_identity(tmp_path, capsys):
    """The header, not the file name, says which node a shard holds; a shard
    of a node the repair does not read, or of another file, is refused and
    no shard is written."""
    shard_dir = encode_five_racks(tmp_path, capsys)
    victim = shard_dir / shard_filename(0, 0)
    want = victim.read_bytes()
    victim.unlink()
    a, b = shard_dir / shard_filename(1, 0), shard_dir / shard_filename(1, 1)
    blob_a, blob_b = a.read_bytes(), b.read_bytes()
    a.write_bytes(blob_b)
    b.write_bytes(blob_a)
    rc, _, err = run_cli(capsys, "repair", shard_dir, 0, 0)
    assert rc == 0, err
    assert victim.read_bytes() == want

    victim.unlink()
    a.write_bytes((shard_dir / shard_filename(4, 0)).read_bytes())
    rc, _, err = run_cli(capsys, "repair", shard_dir, 0, 0)
    assert rc == 2 and "do not hold the nodes their names give" in err
    assert not victim.exists()
    a.write_bytes(blob_a)
    b.write_bytes(blob_b)

    other = tmp_path / "other.bin"
    other.write_bytes(random.Random(509).randbytes(2000))
    run_cli(capsys, "encode", other, 15, 7, 3, 3, "--out", tmp_path / "other")
    mate = shard_filename(0, 1)
    (shard_dir / mate).write_bytes((tmp_path / "other" / mate).read_bytes())
    rc, _, err = run_cli(capsys, "repair", shard_dir, 0, 0)
    assert rc == 2 and "disagrees" in err
    assert not victim.exists()


@pytest.mark.parametrize("failed", [(5, 0), (6, 1), (0, 3), (2, 7)])
def test_cmd_repair_names_node_outside_grid(tmp_path, capsys, failed):
    """A node outside the 5 x 3 grid is named as such, with or without a
    shard file at its would-be rack mate's name."""
    shard_dir = encode_five_racks(tmp_path, capsys)
    rc, _, err = run_cli(capsys, "repair", shard_dir, *failed)
    assert rc == 2
    assert f"node {failed} outside the 5 x 3 rack grid" in err
    assert "missing" not in err


@pytest.mark.parametrize("failed", [("-1", "0"), ("0", "-1"), ("1", "x"), ("+1", "0")])
def test_cmd_repair_refuses_non_index_node(tmp_path, capsys, failed):
    shard_dir = encode_five_racks(tmp_path, capsys)
    rc, _, err = run_cli(capsys, "repair", shard_dir, *failed)
    assert rc == 2
    bad = next(text for text in failed if not text.isdecimal())
    assert f"{bad!r} is not a non-negative integer" in err
    assert not os.path.exists(shard_dir / "shard_e-1_g0.mbrr")


@pytest.mark.parametrize("field_m, want_stripes", [(8, 150), (16, 75)])
def test_cmd_repair_ledger_counts_moved_symbols(tmp_path, capsys, field_m, want_stripes):
    shard_dir = encode_five_racks(tmp_path, capsys, field_m)
    (shard_dir / shard_filename(0, 0)).unlink()
    rc, out, _ = run_cli(capsys, "repair", shard_dir, 0, 0, "--helpers", "2,3,4")
    assert rc == 0
    stripes = int(re.search(r"^stripes (\d+)$", out, re.M).group(1))
    assert stripes == want_stripes
    cross = int(re.search(r"^cross_rack_symbols (\d+)", out, re.M).group(1))
    assert cross == 3 * stripes  # dbar * stripe_count
    intra = int(re.search(r"^intra_rack_symbols (\d+)$", out, re.M).group(1))
    assert intra == 2 * 3 * stripes  # (u-1) * alpha * stripe_count
    per_helper = re.findall(r"^  helper rack (\d+): (\d+) symbols$", out, re.M)
    assert per_helper == [(str(e), str(stripes)) for e in (2, 3, 4)]


def test_cmd_decode_rejects_mixed_headers(tmp_path, capsys):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(b"first file")
    b.write_bytes(b"second file, different length!")
    run_cli(capsys, "encode", a, 12, 7, 3, 3, "--out", tmp_path / "sa")
    run_cli(capsys, "encode", b, 12, 7, 3, 3, "--out", tmp_path / "sb")
    mixed = [tmp_path / "sa" / shard_filename(0, 0)] + [
        tmp_path / "sb" / shard_filename(e, g)
        for e, g in [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]
    ]
    rc, _, err = run_cli(capsys, "decode", *mixed, "--out", tmp_path / "out.bin")
    assert rc == 2
    assert "disagrees" in err


def test_cmd_decode_names_corrupt_stripe_briefly(tmp_path, capsys):
    """One flipped payload byte is refused with a short message naming its
    stripe, not with the whole disagreeing slabs."""
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(510).randbytes(100_000))
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    shard = shard_dir / shard_filename(1, 0)
    blob = bytearray(shard.read_bytes())
    blob[HEADER_SIZE + 5000] ^= 0x01  # symbol 5,000: row 2 of stripe 1,666
    shard.write_bytes(bytes(blob))
    lowest = [shard_dir / shard_filename(e, g) for e, g in
              [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]]
    rc, _, err = run_cli(capsys, "decode", *lowest, "--out", tmp_path / "out.bin")
    assert rc == 2
    assert len(err.encode()) < 200 and "stripe 1666" in err


def test_duplicate_shard_is_refused_naming_both(tmp_path, capsys):
    """A second shard for node (0, 0) is named with the first one: a copy
    in another directory, the same path given twice, and in
    ``decode_shards`` a mapping that lists the node twice."""
    data = random.Random(532).randbytes(1500)
    src, shard_dir, dst = tmp_path / "input.bin", tmp_path / "shards", tmp_path / "out.bin"
    src.write_bytes(data)
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    first = shard_dir / shard_filename(0, 0)
    copy = tmp_path / "copies" / shard_filename(0, 0)
    copy.parent.mkdir()
    copy.write_bytes(first.read_bytes())
    for given, second in (((shard_dir, copy), copy), ((first, first, shard_dir), first)):
        want = f"error: {second}: duplicate shard for node (0, 0), first given as {first}\n"
        assert run_cli(capsys, "decode", *given, "--out", dst) == (2, "", want)
    assert not dst.exists()

    class Listed(Mapping):
        """(node, shard) pairs seen as a mapping, duplicates kept."""

        def __init__(self, pairs):
            self.pairs = pairs

        def __getitem__(self, node):
            return next(shard for key, shard in self.pairs if key == node)

        def __iter__(self):
            return (key for key, _ in self.pairs)

        def __len__(self):
            return len(self.pairs)

    headers, payloads = encode_file(data, file_params(12, 7, 3, 3))
    pairs = [(NodeId(h.e, h.g), (h, pl)) for h, pl in zip(headers, payloads)]
    want = "node (0, 0): duplicate shard for node (0, 0), first given as node (0, 0)"
    with pytest.raises(ValueError, match=re.escape(want)):
        decode_shards(Listed(pairs + pairs[:1]))


def test_cmd_decode_rejects_duplicate_nodes(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"duplicate shard test")
    shard_dir = tmp_path / "shards"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", shard_dir)
    twice = [shard_dir / shard_filename(0, 0)] * 2 + [
        shard_dir / shard_filename(e, g)
        for e, g in [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    ]
    rc, _, err = run_cli(capsys, "decode", *twice, "--out", tmp_path / "o.bin")
    assert rc == 2 and "duplicate" in err


def test_shards_are_bit_reproducible(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(503).randbytes(997))
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", d1)
    run_cli(capsys, "encode", src, 12, 7, 3, 3, "--out", d2)
    for name in os.listdir(d1):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# SHA-256 over every shard's file name then its bytes, names sorted. These
# pin shard format v1 byte for byte: any change to the encoder, the
# systematic transform or the framing shows up here.
GOLDEN_SHARD_DIGESTS = [
    (
        5000,
        ["12", "7", "3", "3"],
        "6ea4bc4186daddd5784b1f88a4f71d01944b38d46b273d1b72ad8142a4e5b266",
    ),
    (
        5000,
        ["12", "7", "3", "3", "--systematic"],
        "c0c0f94fad8347947f89bb3650964a83a70ccfbedf94d14c57a1d6fca63abdbb",
    ),
    (
        3000,
        ["50", "44", "5", "8", "--field-m", "16", "--systematic"],
        "a3a93a036b15cb76205f9b935dcee2a5fbf8d49fad4f94040cd33bbe5c17ef4e",
    ),
]


@pytest.mark.parametrize(
    "size, geometry, digest",
    GOLDEN_SHARD_DIGESTS,
    ids=["plain-gf8", "systematic-gf8", "systematic-gf16"],
)
def test_shards_match_golden_digest(tmp_path, capsys, size, geometry, digest):
    src = tmp_path / "input.bin"
    src.write_bytes(random.Random(2103).randbytes(size))
    out = tmp_path / "shards"
    rc, _, _ = run_cli(capsys, "encode", src, *geometry, "--out", out)
    assert rc == 0
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        h.update((out / name).read_bytes())
    assert h.hexdigest() == digest


def test_empty_input_is_an_error(tmp_path, capsys):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    rc, _, err = run_cli(capsys, "encode", src, 12, 7, 3, 3)
    assert rc == 2
    assert "empty" in err


# ---------------------------------------------------------------- simulate


def test_simulate_is_deterministic(tmp_path, capsys):
    script = tmp_path / "scenario.txt"
    script.write_text(
        "params 12 7 3 3\n"
        "seed 9\n"
        "store 2\n"
        "fail 0 1\n"
        "repair 0 1\n"
        "read\n"
    )
    rc1, out1, _ = run_cli(capsys, "simulate", script)
    rc2, out2, _ = run_cli(capsys, "simulate", script)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "repair node=(0,1) helpers=1,2,3 cross_rack=6 per_stripe=3" in out1
    assert "read stripes=2 verified ok" in out1


def test_simulate_reports_insufficient_survivors(tmp_path, capsys):
    script = tmp_path / "overload.txt"
    script.write_text(
        "params 12 7 3 3\n"
        "seed 1\n"
        "store 1\n"
        + "".join(f"fail {e} {g}\n" for e, g in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
        + "read\n"
    )
    rc, out, _ = run_cli(capsys, "simulate", script)
    assert rc == 0
    assert "read error" in out
    assert "k=7" in out


def test_simulate_systematic_round_trip(tmp_path, capsys):
    script = tmp_path / "syst.txt"
    script.write_text(
        "params 12 7 3 3\n"
        "systematic on\n"
        "seed 3\n"
        "store 2\n"
        "fail 0 2\n"
        "read\n"
        "repair 0 2\n"
        "read\n"
    )
    rc, out, _ = run_cli(capsys, "simulate", script)
    assert rc == 0
    assert out.count("verified ok") == 2


def test_simulate_parse_errors(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("store 1\n")
    rc, _, err = run_cli(capsys, "simulate", script)
    assert rc == 2 and "params must come first" in err
    script.write_text("params 12 7 3 3\nstore 1\nwobble\n")
    rc, _, err = run_cli(capsys, "simulate", script)
    assert rc == 2 and "unknown statement" in err
    # An unknown statement is named as such before params and before store.
    for text in ("bogus 1\nparams 12 7 3 3\n", "params 12 7 3 3\nbogus 1\nstore 1\n"):
        script.write_text(text)
        rc, _, err = run_cli(capsys, "simulate", script)
        assert rc == 2 and "unknown statement 'bogus'" in err, err


@pytest.mark.parametrize(
    "statement, why",
    [
        ("seed", "seed takes N"),
        ("seed 1 2", "seed takes N"),
        ("store", "store takes N"),
        ("store -3", "'-3' is not a non-negative integer"),
        ("store x", "'x' is not a non-negative integer"),
        ("store 1 2", "store takes N"),
        ("fail 1", "fail takes E G"),
        ("fail 1 x", "'x' is not a non-negative integer"),
        ("fail 1 1 1", "fail takes E G"),
        ("repair 1", "repair takes E G [E1,E2,...]"),
        ("repair 1 1 0,x", "'x' is not a non-negative integer"),
        ("repair 1 1 0,2,3 4", "repair takes E G [E1,E2,...]"),
        ("read now", "read takes no arguments"),
        ("systematic", "systematic takes on|off"),
        ("params 12 7 3", "params takes n k u dbar [m]"),
        ("params 12 7 3 x", "'x' is not a non-negative integer"),
        ("params 12 7 3 3 4", "shard files support m in (8, 16), not m=4"),
        ("params 12 7 3 1", "dbar=1 is below the admissible minimum kbar=2"),
    ],
)
def test_simulate_rejects_malformed_statements(tmp_path, capsys, statement, why):
    script = tmp_path / "bad.txt"
    script.write_text(f"params 12 7 3 3\nstore 1\n\n{statement}  # comment\nread\n")
    rc, out, err = run_cli(capsys, "simulate", script)
    assert rc == 2
    assert f"script line 4: {why} ({statement!r})" in err
    assert "read" not in out


def test_simulate_names_the_line_of_any_statement_error(tmp_path, capsys, monkeypatch):
    """A ValueError raised while a statement runs, not only while it is
    parsed, stops the script with an error naming its line."""
    from mbrr.cluster import Cluster

    def corrupt(self, survivors=None):
        raise IntegrityError("stripe 3: ...")

    monkeypatch.setattr(Cluster, "read_data", corrupt)
    script = tmp_path / "corrupt.txt"
    script.write_text("params 12 7 3 3\nstore 4\nread\n")
    rc, out, err = run_cli(capsys, "simulate", script)
    assert rc == 2
    assert err == "error: script line 3: stripe 3: ... ('read')\n"
    assert out.endswith("store stripes=4 symbols=80\n")


SCENARIO_OUTPUT = {
    "degraded_helpers.txt": """\
params n=15 k=7 u=3 dbar=3 alpha=3 B=20 field=GF(2^8)
seed 5
store stripes=3 symbols=60
read stripes=3 verified ok
fail node=(2,0)
fail node=(0,0)
repair node=(0,0) helpers=1,3,4 cross_rack=9 per_stripe=3 intra_rack=18 ok
read stripes=3 verified ok
fail node=(4,1)
fail node=(1,2)
repair node=(1,2) error: only 2 fully healthy helper racks available, need dbar=3
read stripes=3 verified ok
""",
    "gf16_systematic.txt": """\
params n=12 k=7 u=3 dbar=3 alpha=3 B=20 field=GF(2^16)
systematic on
seed 16
store stripes=4 symbols=80
fail node=(1,0)
read stripes=4 verified ok
repair node=(1,0) helpers=0,2,3 cross_rack=12 per_stripe=3 intra_rack=24 ok
read stripes=4 verified ok
""",
    "overload.txt": """\
params n=12 k=7 u=3 dbar=3 alpha=3 B=20 field=GF(2^8)
seed 7
store stripes=2 symbols=40
fail node=(0,0)
fail node=(0,1)
fail node=(1,0)
fail node=(1,1)
fail node=(2,0)
read stripes=2 verified ok
fail node=(2,1)
read error: 6 healthy nodes of n=12; need at least k=7
""",
    "reference_repair.txt": """\
params n=12 k=7 u=3 dbar=3 alpha=3 B=20 field=GF(2^8)
seed 42
store stripes=3 symbols=60
read stripes=3 verified ok
fail node=(1,1)
repair node=(1,1) helpers=0,2,3 cross_rack=9 per_stripe=3 intra_rack=18 ok
read stripes=3 verified ok
fail node=(0,2)
repair node=(0,2) helpers=1,2,3 cross_rack=9 per_stripe=3 intra_rack=18 ok
read stripes=3 verified ok
""",
    "systematic_repair.txt": """\
params n=12 k=7 u=3 dbar=3 alpha=3 B=20 field=GF(2^8)
systematic on
seed 11
store stripes=3 symbols=60
read stripes=3 verified ok
fail node=(0,2)
read stripes=3 verified ok
repair node=(0,2) helpers=1,2,3 cross_rack=9 per_stripe=3 intra_rack=18 ok
read stripes=3 verified ok
fail node=(2,0)
repair node=(2,0) helpers=0,1,3 cross_rack=9 per_stripe=3 intra_rack=18 ok
read stripes=3 verified ok
""",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_OUTPUT))
def test_shipped_scenarios_match_golden_output(capsys, name):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rc, out, err = run_cli(capsys, "simulate", os.path.join(root, "scenarios", name))
    assert (rc, err) == (0, "")
    assert out == SCENARIO_OUTPUT[name]


def test_scenarios_run_no_per_stripe_encoder(capsys, monkeypatch):
    """``mbrr simulate`` stores through ``Cluster.store_data``'s slab maps:
    with the per-stripe encoders made to raise wherever a module binds
    them, every shipped scenario still prints its golden output."""
    per_stripe = {encode, systematic_encode, fill_message_matrix}

    def refuse(*args, **kwargs):
        raise AssertionError("a per-stripe encoder ran")

    for module_name, module in list(sys.modules.items()):
        if module_name == "mbrr" or module_name.startswith("mbrr."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in per_stripe:
                    monkeypatch.setattr(module, attr, refuse)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in sorted(SCENARIO_OUTPUT):
        rc, out, err = run_cli(capsys, "simulate", os.path.join(root, "scenarios", name))
        assert (rc, err, out) == (0, "", SCENARIO_OUTPUT[name])


# ---------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 0
    assert "2/2 suites passed" in out
    assert "FAIL" not in out
    for name in ("field tables", "every admissible code with n <= 16 (309 geometries)"):
        assert f"PASS {name} (" in out


def _flip_one_byte(column, ledger):
    return [bytes([column[0][0] ^ 1]) + column[0][1:], *column[1:]], ledger


def _one_more_cross_rack_symbol(column, ledger):
    return column, dataclasses.replace(ledger, cross_rack_symbols=ledger.cross_rack_symbols + 1)


@pytest.mark.parametrize(
    "corrupt, why",
    [
        (_flip_one_byte, "repair of node (0, 0) not bit-exact"),
        (_one_more_cross_rack_symbol, "repair of node (0, 0): 9 cross-rack symbols"),
    ],
)
def test_selftest_names_the_geometry_and_node_of_a_failure(capsys, monkeypatch, corrupt, why):
    repair_slabs = Repairer.repair_slabs

    def corrupted(self, columns):
        column, sent, ledger = repair_slabs(self, columns)
        column, ledger = corrupt(column, ledger)
        return column, sent, ledger

    monkeypatch.setattr(Repairer, "repair_slabs", corrupted)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 1
    assert "PASS field tables (" in out
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail.startswith("FAIL every admissible code with n <= 16 (309 geometries) (")
    assert fail.endswith(f"(n=4, k=2, u=2, dbar=1) over GF(5): {why}")
    assert "selftest: 1/2 suites passed" in out


def test_selftest_reports_an_exception_as_a_failure(capsys, monkeypatch):
    def refuse(self, columns):
        raise IntegrityError("stripe 3 is inconsistent")

    monkeypatch.setattr(Decoder, "decode_slabs", refuse)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 1
    assert "(n=4, k=2, u=2, dbar=1) over GF(5): IntegrityError: stripe 3 is inconsistent" in out


def test_check_code_passes_a_code_outside_the_selftest_sweep():
    p = make_params(20, 11, 4, 4)
    assert (p.n, p.field.q) == (20, 29)
    assert check_code(p, random.Random(20)) is None
    wrong = dataclasses.replace(p, B=p.B + 1)
    assert check_code(wrong, random.Random(20)) == "(alpha, beta, B) = (4, 1, 44), want (4, 1, 43)"


def test_check_code_names_a_broken_systematic_encode_map(monkeypatch):
    """One wrong entry in the map that ``mbrr encode --systematic`` runs is
    named, though the systematic slots and read stay right."""
    built = mbrr.systematic.systematic_encode_map

    def corrupt(p):
        cells, matrix = built(p)
        matrix = [list(row) for row in matrix]
        matrix[0][0] ^= 1
        return cells, matrix

    monkeypatch.setattr(mbrr.systematic, "systematic_encode_map", corrupt)
    p = make_params(12, 7, 3, 3)
    why = check_code(p, random.Random(28))
    assert why == "systematic encode map disagrees with encoding the systematic slots"
