"""Binary checkpoint and dataset formats.

Everything is little-endian. A checkpoint starts with an 8-byte magic tag
and a u32 format version, followed by tagged sections (4-byte tag, u64
payload length, payload). Each section stores its own shape header as u32
fields, then flat float32 arrays in the declared order:

  "ENC " encoder:    num_layers, model_dim, num_heads, ffn_dim, max_frames,
                     input_dim (u32 each), seed (u64); then input projection
                     weight and bias, then per block the 16 arrays in
                     BlockParams.FIELD_ORDER.
  "TCH " teacher:    num_classes, model_dim; weight, bias.
  "BRN " branches:   num_layers, num_classes, model_dim; weights, biases.
  "DSH " downstream: num_layers, num_labels, model_dim; layer weights,
                     probe weight, probe bias.

Datasets use the same framing with their own magic. Both formats
round-trip bit-exactly and reject foreign magic, version mismatches, and
truncation with the byte offset of the failure. A checkpoint array holding
NaN or inf is refused by section and array name: a NaN probe bias would
otherwise serve class 0 to every sample without a word. `load_checkpoint`
and `load_dataset` put the file's name in front of every such error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .branches import BranchSet
from .data import FrameDataset
from .encoder import BlockParams, Encoder, EncoderConfig, init_encoder
from .errors import FormatError
from .probe import DownstreamHead
from .teacher import TeacherHead

__all__ = [
    "Checkpoint",
    "CHECKPOINT_MAGIC",
    "DATASET_MAGIC",
    "FORMAT_VERSION",
    "checkpoint_to_bytes",
    "checkpoint_from_bytes",
    "save_checkpoint",
    "load_checkpoint",
    "dataset_to_bytes",
    "dataset_from_bytes",
    "save_dataset",
    "load_dataset",
]

CHECKPOINT_MAGIC = b"EXITCKP1"
DATASET_MAGIC = b"EXITDAT1"
FORMAT_VERSION = 1

_F32 = np.dtype("<f4")
_I32 = np.dtype("<i4")

SECTION_ENCODER = b"ENC "
SECTION_TEACHER = b"TCH "
SECTION_BRANCHES = b"BRN "
SECTION_DOWNSTREAM = b"DSH "


@dataclass(frozen=True)
class Checkpoint:
    """Everything the pipeline persists between stages."""

    encoder: Encoder
    teacher: TeacherHead | None = None
    branches: BranchSet | None = None
    downstream: DownstreamHead | None = None


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def raw(self, b: bytes):
        self.parts.append(b)

    def u32(self, *values: int):
        self.parts.append(struct.pack(f"<{len(values)}I", *values))

    def u64(self, *values: int):
        self.parts.append(struct.pack(f"<{len(values)}Q", *values))

    def array(self, arr: np.ndarray, dtype=_F32):
        self.parts.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes, base_offset: int = 0, section: str = ""):
        self.data = data
        self.pos = 0
        self.base = base_offset
        self.section = section

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def exhausted(self) -> bool:
        return self.pos >= len(self.data)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated stream: wanted {n} bytes, {len(self.data) - self.pos} left",
                offset=self.offset,
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, count: int = 1):
        values = struct.unpack(f"<{count}I", self.take(4 * count))
        return values[0] if count == 1 else values

    def u64(self, count: int = 1):
        values = struct.unpack(f"<{count}Q", self.take(8 * count))
        return values[0] if count == 1 else values

    def array(self, shape: tuple[int, ...], dtype=_F32) -> np.ndarray:
        count = int(np.prod(shape)) if shape else 1
        buf = self.take(count * dtype.itemsize)
        return np.frombuffer(buf, dtype=dtype).reshape(shape).copy()

    def param(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A float32 parameter array of this section, refused by name if not finite."""
        start = self.offset
        arr = self.array(shape)
        if not np.isfinite(arr).all():
            raise FormatError(
                f"section {self.section!r} array {name!r} holds a non-finite value",
                offset=start,
            )
        return arr


def _write_header(w: _Writer, magic: bytes):
    w.raw(magic)
    w.u32(FORMAT_VERSION)


def _read_header(r: _Reader, magic: bytes, what: str):
    start = r.offset
    got = r.take(len(magic))
    if got != magic:
        raise FormatError(
            f"not a {what} stream: expected magic {magic!r}, found {got!r}", offset=start
        )
    version_at = r.offset
    version = r.u32()
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unsupported {what} format version {version}, expected {FORMAT_VERSION}",
            offset=version_at,
        )


def _encoder_payload(enc: Encoder) -> bytes:
    w = _Writer()
    cfg = enc.config
    w.u32(cfg.num_layers, cfg.model_dim, cfg.num_heads, cfg.ffn_dim, cfg.max_frames, cfg.input_dim)
    w.u64(cfg.seed)
    for arr in enc.parameter_arrays():
        w.array(arr)
    return w.getvalue()


def _read_encoder(r: _Reader) -> Encoder:
    num_layers, model_dim, num_heads, ffn_dim, max_frames, input_dim = r.u32(6)
    seed = r.u64()
    cfg = EncoderConfig(
        num_layers=num_layers,
        model_dim=model_dim,
        num_heads=num_heads,
        ffn_dim=ffn_dim,
        max_frames=max_frames,
        input_dim=input_dim,
        seed=seed,
    )
    template = init_encoder(cfg)
    input_weight = r.param("input_weight", template.input_weight.shape)
    input_bias = r.param("input_bias", template.input_bias.shape)
    blocks = []
    for i, block in enumerate(template.blocks):
        fields = {
            name: r.param(f"blocks[{i}].{name}", getattr(block, name).shape)
            for name in BlockParams.FIELD_ORDER
        }
        blocks.append(BlockParams(**fields))
    return Encoder(
        config=cfg,
        input_weight=input_weight,
        input_bias=input_bias,
        blocks=tuple(blocks),
        positional=template.positional,
    )


def _teacher_payload(head: TeacherHead) -> bytes:
    w = _Writer()
    w.u32(head.num_classes, head.model_dim)
    w.array(head.weight)
    w.array(head.bias)
    return w.getvalue()


def _read_teacher(r: _Reader) -> TeacherHead:
    num_classes, model_dim = r.u32(2)
    return TeacherHead(
        weight=r.param("weight", (num_classes, model_dim)),
        bias=r.param("bias", (num_classes,)),
    )


def _branches_payload(branches: BranchSet) -> bytes:
    w = _Writer()
    w.u32(branches.num_layers, branches.num_classes, branches.model_dim)
    w.array(branches.weights)
    w.array(branches.biases)
    return w.getvalue()


def _read_branches(r: _Reader) -> BranchSet:
    num_layers, num_classes, model_dim = r.u32(3)
    return BranchSet(
        weights=r.param("weights", (num_layers, num_classes, model_dim)),
        biases=r.param("biases", (num_layers, num_classes)),
    )


def _downstream_payload(head: DownstreamHead) -> bytes:
    w = _Writer()
    w.u32(head.num_layers, head.num_labels, head.model_dim)
    w.array(head.layer_weights)
    w.array(head.probe_weight)
    w.array(head.probe_bias)
    return w.getvalue()


def _read_downstream(r: _Reader) -> DownstreamHead:
    num_layers, num_labels, model_dim = r.u32(3)
    return DownstreamHead(
        layer_weights=r.param("layer_weights", (num_layers,)),
        probe_weight=r.param("probe_weight", (num_labels, model_dim)),
        probe_bias=r.param("probe_bias", (num_labels,)),
    )


def checkpoint_to_bytes(ck: Checkpoint) -> bytes:
    w = _Writer()
    _write_header(w, CHECKPOINT_MAGIC)
    sections = [(SECTION_ENCODER, _encoder_payload(ck.encoder))]
    if ck.teacher is not None:
        sections.append((SECTION_TEACHER, _teacher_payload(ck.teacher)))
    if ck.branches is not None:
        sections.append((SECTION_BRANCHES, _branches_payload(ck.branches)))
    if ck.downstream is not None:
        sections.append((SECTION_DOWNSTREAM, _downstream_payload(ck.downstream)))
    for tag, payload in sections:
        w.raw(tag)
        w.u64(len(payload))
        w.raw(payload)
    return w.getvalue()


_SECTION_READERS = {
    SECTION_ENCODER: ("encoder", _read_encoder),
    SECTION_TEACHER: ("teacher", _read_teacher),
    SECTION_BRANCHES: ("branches", _read_branches),
    SECTION_DOWNSTREAM: ("downstream", _read_downstream),
}


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    r = _Reader(data)
    _read_header(r, CHECKPOINT_MAGIC, "checkpoint")
    parts: dict[str, object] = {}
    while not r.exhausted():
        tag_at = r.offset
        tag = r.take(4)
        if tag not in _SECTION_READERS:
            raise FormatError(f"unknown checkpoint section tag {tag!r}", offset=tag_at)
        name, reader = _SECTION_READERS[tag]
        if name in parts:
            raise FormatError(f"duplicate checkpoint section {name!r}", offset=tag_at)
        length_at = r.offset
        length = r.u64()
        payload = r.take(length)
        section = _Reader(payload, base_offset=r.offset - length, section=name)
        parts[name] = reader(section)
        if not section.exhausted():
            raise FormatError(
                f"section {name!r} has {len(payload) - section.pos} trailing bytes "
                f"(declared length {length})",
                offset=length_at,
            )
    if "encoder" not in parts:
        raise FormatError("checkpoint has no encoder section", offset=len(data))
    return Checkpoint(
        encoder=parts["encoder"],
        teacher=parts.get("teacher"),
        branches=parts.get("branches"),
        downstream=parts.get("downstream"),
    )


def save_checkpoint(ck: Checkpoint, path: str | Path) -> None:
    Path(path).write_bytes(checkpoint_to_bytes(ck))


def _load_named(path: str | Path, from_bytes):
    """`from_bytes` of the file's contents, with the file's name put in front of a FormatError."""
    path = Path(path)
    try:
        return from_bytes(path.read_bytes())
    except FormatError as err:
        named = FormatError(f"{path.name}: {err}")
        named.offset = err.offset
        raise named from err


def load_checkpoint(path: str | Path) -> Checkpoint:
    """The checkpoint in `path`; every FormatError starts with the file's name."""
    return _load_named(path, checkpoint_from_bytes)


def dataset_to_bytes(data: FrameDataset) -> bytes:
    w = _Writer()
    _write_header(w, DATASET_MAGIC)
    w.u32(data.num_sequences, data.frames, data.input_dim, data.num_classes)
    w.u32(1 if data.tags is not None else 0)
    w.array(data.inputs)
    w.array(data.labels, dtype=_I32)
    if data.tags is not None:
        for tag in data.tags:
            raw = tag.encode("utf-8")
            w.u32(len(raw))
            w.raw(raw)
    return w.getvalue()


def dataset_from_bytes(data: bytes) -> FrameDataset:
    r = _Reader(data)
    _read_header(r, DATASET_MAGIC, "dataset")
    n, frames, input_dim, num_classes, has_tags = r.u32(5)
    inputs = r.array((n, frames, input_dim))
    labels = r.array((n, frames), dtype=_I32)
    tags = None
    if has_tags:
        tags = tuple(r.take(r.u32()).decode("utf-8") for _ in range(n))
    if not r.exhausted():
        raise FormatError(
            f"dataset stream has {len(data) - r.pos} trailing bytes", offset=r.offset
        )
    return FrameDataset(inputs=inputs, labels=labels, num_classes=num_classes, tags=tags)


def save_dataset(data: FrameDataset, path: str | Path) -> None:
    Path(path).write_bytes(dataset_to_bytes(data))


def load_dataset(path: str | Path) -> FrameDataset:
    """The dataset in `path`; every FormatError starts with the file's name."""
    return _load_named(path, dataset_from_bytes)
