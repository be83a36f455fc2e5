"""Row-parallel untracked backbone passes (tensor.split_rows).

An untracked forward splits its batch rows over worker threads; every row is
computed by the same per-sample operations, so the result must be byte-equal
to a serial pass. Tracked passes, and batches too small for two parts, never
reach the pool.
"""

import multiprocessing
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebq import tensor as T
from rebq.backbone import BackboneConfig, EmbeddedBatch, MultimodalBackbone, unified_positions
from rebq.tensor import Tensor

from conftest import TINY

MIN = T.PARALLEL_MIN_ROWS


def frozen_backbone(cfg: BackboneConfig, seed: int = 0) -> MultimodalBackbone:
    bb = MultimodalBackbone(cfg, np.random.default_rng(seed))
    bb.freeze()
    return bb


BACKBONES = {"tiny": frozen_backbone(TINY), "default": frozen_backbone(BackboneConfig())}


def unified_input(bb: MultimodalBackbone, rows: int, seed: int) -> list[Tensor]:
    c = bb.config
    rng = np.random.default_rng(seed)
    emb = EmbeddedBatch(
        text=Tensor(rng.standard_normal((rows, c.max_text_len, c.embed_dim), dtype=np.float32)),
        visual=Tensor(rng.standard_normal((rows, c.num_patches, c.embed_dim),
                                          dtype=np.float32)))
    return bb.unified_segments(emb)


def prompt_block(bb: MultimodalBackbone, rows: int, n_p: int, seed: int,
                 trainable: bool = False) -> Tensor:
    c = bb.config
    data = np.random.default_rng(seed).standard_normal(
        (rows, c.num_layers, 2, n_p, c.embed_dim), dtype=np.float32)
    return Tensor(data, trainable=trainable)


@pytest.fixture
def parts():
    """Sets tensor.row_parts for one test and restores the core count after it."""
    yield T.set_row_parts
    T.set_row_parts(None)


class PoolSpy:
    """Counts the splits that reach the worker pool."""

    def __init__(self, monkeypatch):
        self.calls = 0
        workers = T._workers

        def spy():
            self.calls += 1
            return workers()

        monkeypatch.setattr(T, "_workers", spy)


def tape_records(out: Tensor) -> int:
    seen, stack = set(), [out._node]
    while stack:
        node = stack.pop()
        if not isinstance(node, T._Node) or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.inputs)
    return len(seen)


class TestSplitForward:
    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from(["tiny", "default"]),
           rows=st.one_of(st.integers(1, 4), st.integers(2 * MIN - 3, 2 * MIN + 3),
                          st.integers(3 * MIN - 2, 3 * MIN + 2)),
           workers=st.integers(2, 3),
           prefix=st.sampled_from([None, 0, 3]),
           positions=st.sampled_from(["all", "joint", "unified"]),
           seed=st.integers(0, 2 ** 16))
    def test_split_equals_serial(self, size, rows, workers, prefix, positions, seed):
        bb = BACKBONES[size]
        segments = unified_input(bb, rows, seed)
        block = None if prefix is None else prompt_block(bb, rows, prefix, seed + 1)
        pos = unified_positions(bb.config)
        rows_read = {"all": None, "joint": [0],
                     "unified": [pos["text_cls"], pos["visual_cls"], pos["joint"]]}[positions]
        try:
            T.set_row_parts(1)
            with T.no_grad():
                serial = bb.forward(segments, block, rows_read).data
            T.set_row_parts(workers)
            with T.no_grad():
                split = bb.forward(segments, block, rows_read).data
        finally:
            T.set_row_parts(None)
        assert split.shape == serial.shape
        assert split.tobytes() == serial.tobytes()

    def test_grad_enabled_untracked_pass_splits(self, parts, monkeypatch):
        """A frozen backbone with constant inputs records nothing, so it splits
        even with grad recording on."""
        bb = BACKBONES["tiny"]
        spy = PoolSpy(monkeypatch)
        parts(2)
        out = bb.forward(unified_input(bb, 2 * MIN, 1), positions=[0])
        assert spy.calls == 1
        assert out._node is None

    def test_tracked_pass_never_splits(self, parts, monkeypatch):
        bb = BACKBONES["tiny"]
        segments = unified_input(bb, 3 * MIN, 2)
        block = prompt_block(bb, 3 * MIN, 2, 3, trainable=True)
        parts(1)
        serial = bb.forward(segments, block, positions=[0])
        spy = PoolSpy(monkeypatch)
        parts(3)
        tracked = bb.forward(segments, block, positions=[0])
        assert spy.calls == 0
        assert tape_records(tracked) == tape_records(serial)
        assert tracked.data.tobytes() == serial.data.tobytes()

    def test_small_batch_never_reaches_pool(self, parts, monkeypatch):
        bb = BACKBONES["tiny"]
        spy = PoolSpy(monkeypatch)
        parts(2)
        with T.no_grad():
            bb.forward(unified_input(bb, 2 * MIN - 1, 4), positions=[0])
            assert spy.calls == 0
            bb.forward(unified_input(bb, 2 * MIN, 4), positions=[0])
        assert spy.calls == 1

    def test_parts_are_contiguous_and_ordered(self, parts):
        parts(3)
        spans = T.split_rows(lambda lo, hi: (lo, hi), 3 * MIN + 2)
        assert spans[0][0] == 0 and spans[-1][1] == 3 * MIN + 2
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert min(hi - lo for lo, hi in spans) >= MIN

    def test_set_row_parts_rejects_zero(self):
        with pytest.raises(ValueError, match="parts"):
            T.set_row_parts(0)


def _forward_in_child(bb, segments, expected):
    with T.no_grad():
        out = bb.forward(segments, positions=[0]).data
    sys.exit(0 if out.tobytes() == expected.tobytes() else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_completes_split_forward(parts, monkeypatch):
    """A child forked after the parent used the pool gets a pool of its own."""
    bb = BACKBONES["tiny"]
    segments = unified_input(bb, 2 * MIN, 5)
    spy = PoolSpy(monkeypatch)
    parts(2)
    with T.no_grad():
        expected = bb.forward(segments, positions=[0]).data
    assert spy.calls == 1
    child = multiprocessing.get_context("fork").Process(
        target=_forward_in_child, args=(bb, segments, expected))
    child.start()
    child.join(timeout=30)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive, "the forked child's split forward did not finish"
    assert child.exitcode == 0
