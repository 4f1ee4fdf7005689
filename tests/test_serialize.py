from __future__ import annotations

import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from adaexit import encoder
from adaexit.branches import BranchSet, train_branches
from adaexit.encoder import BlockParams, EncoderConfig, init_encoder
from adaexit.errors import FormatError
from adaexit.probe import DownstreamHead, init_downstream_head
from adaexit.serialize import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    dataset_from_bytes,
    dataset_to_bytes,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from adaexit.teacher import TeacherHead, train_teacher


@pytest.fixture(scope="module")
def full_checkpoint(small_encoder, small_dataset):
    teacher = train_teacher(small_encoder, small_dataset, lr=0.3, steps=40, seed=5).head
    branches = train_branches(
        small_encoder, teacher, small_dataset, lr=0.05, batch_size=8, steps=30, seed=6
    ).branches
    head = init_downstream_head(
        small_encoder.config.num_layers, small_dataset.num_classes,
        small_encoder.config.model_dim, seed=7,
    )
    return Checkpoint(
        encoder=small_encoder, teacher=teacher, branches=branches, downstream=head
    )


def _assert_checkpoints_equal(a: Checkpoint, b: Checkpoint):
    assert a.encoder.config == b.encoder.config
    for x, y in zip(a.encoder.parameter_arrays(), b.encoder.parameter_arrays()):
        assert np.array_equal(x, y)
    assert np.array_equal(a.teacher.weight, b.teacher.weight)
    assert np.array_equal(a.teacher.bias, b.teacher.bias)
    assert np.array_equal(a.branches.weights, b.branches.weights)
    assert np.array_equal(a.branches.biases, b.branches.biases)
    assert np.array_equal(a.downstream.layer_weights, b.downstream.layer_weights)
    assert np.array_equal(a.downstream.probe_weight, b.downstream.probe_weight)
    assert np.array_equal(a.downstream.probe_bias, b.downstream.probe_bias)


class TestCheckpointRoundTrip:
    def test_full_round_trip_bit_exact(self, full_checkpoint):
        restored = checkpoint_from_bytes(checkpoint_to_bytes(full_checkpoint))
        _assert_checkpoints_equal(full_checkpoint, restored)

    def test_encoder_only(self, small_encoder):
        ck = checkpoint_from_bytes(checkpoint_to_bytes(Checkpoint(encoder=small_encoder)))
        assert ck.teacher is None and ck.branches is None and ck.downstream is None

    def test_file_round_trip(self, full_checkpoint, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(full_checkpoint, path)
        _assert_checkpoints_equal(full_checkpoint, load_checkpoint(path))

    def test_serialization_is_deterministic(self, full_checkpoint):
        assert checkpoint_to_bytes(full_checkpoint) == checkpoint_to_bytes(full_checkpoint)


# A block's arrays in checkpoint order, as the module docstring lays them out.
BLOCK_ARRAYS = (
    "attn_norm_gain", "attn_norm_bias", "q_weight", "q_bias", "k_weight", "k_bias",
    "v_weight", "v_bias", "out_weight", "out_bias", "ffn_norm_gain", "ffn_norm_bias",
    "ffn_in_weight", "ffn_in_bias", "ffn_out_weight", "ffn_out_bias",
)


class TestCheckpointLayout:
    def test_bytes_equal_a_stream_packed_by_hand(self):
        # Every dimension differs and every array is random, so a reordered
        # header field, array or section changes the bytes.
        layers, dim, heads, ffn, frames, inputs, seed = 2, 4, 2, 6, 3, 5, 11
        classes, labels = 7, 9
        rng = np.random.default_rng(0)

        def f32(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        cfg = EncoderConfig(layers, dim, heads, ffn, frames, inputs, seed)
        template = init_encoder(cfg)
        blocks = tuple(
            BlockParams(**{name: f32(*getattr(b, name).shape) for name in BLOCK_ARRAYS})
            for b in template.blocks
        )
        enc = replace(template, input_weight=f32(dim, inputs), input_bias=f32(dim), blocks=blocks)
        ck = Checkpoint(
            encoder=enc,
            teacher=TeacherHead(weight=f32(classes, dim), bias=f32(classes)),
            branches=BranchSet(weights=f32(layers, classes, dim), biases=f32(layers, classes)),
            downstream=DownstreamHead(
                layer_weights=f32(layers), probe_weight=f32(labels, dim), probe_bias=f32(labels)
            ),
        )

        def section(tag, header, *arrays):
            payload = header + b"".join(a.astype("<f4").tobytes() for a in arrays)
            return tag + struct.pack("<Q", len(payload)) + payload

        block_arrays = [getattr(b, name) for b in blocks for name in BLOCK_ARRAYS]
        expected = b"".join([
            b"EXITCKP1", struct.pack("<I", 1),
            section(b"ENC ", struct.pack("<6IQ", layers, dim, heads, ffn, frames, inputs, seed),
                    enc.input_weight, enc.input_bias, *block_arrays),
            section(b"TCH ", struct.pack("<2I", classes, dim), ck.teacher.weight, ck.teacher.bias),
            section(b"BRN ", struct.pack("<3I", layers, classes, dim),
                    ck.branches.weights, ck.branches.biases),
            section(b"DSH ", struct.pack("<3I", layers, labels, dim), ck.downstream.layer_weights,
                    ck.downstream.probe_weight, ck.downstream.probe_bias),
        ])
        assert checkpoint_to_bytes(ck) == expected
        _assert_checkpoints_equal(ck, checkpoint_from_bytes(expected))


class TestCheckpointErrors:
    def test_truncated_stream(self, full_checkpoint):
        data = checkpoint_to_bytes(full_checkpoint)
        with pytest.raises(FormatError) as err:
            checkpoint_from_bytes(data[: len(data) // 2])
        assert err.value.offset is not None

    def test_foreign_magic_names_expected_tag(self, full_checkpoint):
        data = b"WRONGMAG" + checkpoint_to_bytes(full_checkpoint)[8:]
        with pytest.raises(FormatError, match="EXITCKP1"):
            checkpoint_from_bytes(data)

    def test_version_mismatch_rejected(self, full_checkpoint):
        data = bytearray(checkpoint_to_bytes(full_checkpoint))
        data[8:12] = (99).to_bytes(4, "little")
        with pytest.raises(FormatError, match="version"):
            checkpoint_from_bytes(bytes(data))

    def test_unknown_section_tag(self, small_encoder):
        data = checkpoint_to_bytes(Checkpoint(encoder=small_encoder))
        extra = b"XXXX" + (0).to_bytes(8, "little")
        with pytest.raises(FormatError, match="unknown"):
            checkpoint_from_bytes(data + extra)

    def test_error_carries_offset(self):
        with pytest.raises(FormatError) as err:
            checkpoint_from_bytes(CHECKPOINT_MAGIC[:4])
        assert err.value.offset == 0
        assert "offset" in str(err.value)

    def test_missing_encoder_section(self):
        data = CHECKPOINT_MAGIC + (1).to_bytes(4, "little")
        with pytest.raises(FormatError, match="no encoder"):
            checkpoint_from_bytes(data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "section, array, pick",
        [
            ("encoder", "input_weight", lambda ck: ck.encoder.input_weight),
            ("encoder", "blocks[2].ffn_out_bias", lambda ck: ck.encoder.blocks[2].ffn_out_bias),
            ("teacher", "weight", lambda ck: ck.teacher.weight),
            ("branches", "biases", lambda ck: ck.branches.biases),
            ("downstream", "layer_weights", lambda ck: ck.downstream.layer_weights),
            ("downstream", "probe_bias", lambda ck: ck.downstream.probe_bias),
        ],
    )
    def test_non_finite_array_rejected_by_name(self, full_checkpoint, section, array, pick, value):
        ck = checkpoint_from_bytes(checkpoint_to_bytes(full_checkpoint))  # a private copy
        target = pick(ck)
        target.flat[target.size // 2] = value
        data = checkpoint_to_bytes(ck)
        with pytest.raises(FormatError, match=rf"^section '{section}' array '{re.escape(array)}' "
                           r"holds a non-finite value \(at byte offset \d+\)$") as err:
            checkpoint_from_bytes(data)
        # The offset is where the array's bytes start.
        width = target.dtype.itemsize
        start = err.value.offset
        assert data[start : start + target.size * width] == target.astype("<f4").tobytes()

    def test_load_draws_no_random_number(self, full_checkpoint, monkeypatch):
        data = checkpoint_to_bytes(full_checkpoint)

        def refuse(seed):
            raise AssertionError(f"a checkpoint load drew from seed {seed}")

        monkeypatch.setattr(encoder, "new_rng", refuse)
        _assert_checkpoints_equal(full_checkpoint, checkpoint_from_bytes(data))

    def test_invalid_encoder_header_named_by_file(self, small_encoder, tmp_path):
        data = bytearray(checkpoint_to_bytes(Checkpoint(encoder=small_encoder)))
        # The header's u32s follow magic, version, tag and length; num_heads is the third.
        header_at = 8 + 4 + 4 + 8
        data[header_at + 4 : header_at + 12] = struct.pack("<2I", 8, 3)
        path = tmp_path / "ck.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"^ck\.bin: section 'encoder' header: model_dim 8 "
                           r"not divisible by num_heads 3 \(at byte offset 24\)$") as err:
            load_checkpoint(path)
        assert err.value.offset == header_at

    def test_load_names_the_file(self, full_checkpoint, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(checkpoint_to_bytes(full_checkpoint)[:100])
        with pytest.raises(FormatError, match=r"^ck\.bin: truncated stream") as err:
            load_checkpoint(path)
        assert err.value.offset is not None


class TestDatasetBytes:
    def test_round_trip(self, small_dataset):
        restored = dataset_from_bytes(dataset_to_bytes(small_dataset))
        assert np.array_equal(restored.inputs, small_dataset.inputs)
        assert np.array_equal(restored.labels, small_dataset.labels)
        assert restored.num_classes == small_dataset.num_classes
        assert restored.tags == small_dataset.tags

    def test_tags_preserved(self, small_dataset):
        from dataclasses import replace

        tagged = replace(
            small_dataset, tags=tuple(f"tag{i}" for i in range(small_dataset.num_sequences))
        )
        restored = dataset_from_bytes(dataset_to_bytes(tagged))
        assert restored.tags == tagged.tags

    def test_foreign_magic(self, small_dataset):
        data = b"NOTADATA" + dataset_to_bytes(small_dataset)[8:]
        with pytest.raises(FormatError, match="EXITDAT1"):
            dataset_from_bytes(data)

    def test_labels_out_of_range_named_by_file(self, small_dataset, tmp_path):
        data = bytearray(dataset_to_bytes(small_dataset))
        # num_classes is the header's fourth u32, after magic and version.
        header_at = 8 + 4
        data[header_at + 12 : header_at + 16] = struct.pack("<I", 1)
        path = tmp_path / "data.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"^data\.bin: invalid dataset: labels out of range "
                           r"for num_classes \(at byte offset 12\)$") as err:
            load_dataset(path)
        assert err.value.offset == header_at

    def test_trailing_garbage(self, small_dataset):
        with pytest.raises(FormatError, match="trailing"):
            dataset_from_bytes(dataset_to_bytes(small_dataset) + b"\x00")
