"""Row-parallel backbone passes (tensor.split_rows, tensor.split_pass).

A pass through the frozen backbone splits its batch rows over worker
threads, untracked or tracked through its prompt prefix alone. Every row is
computed by the same per-sample operations, forward and backward, so the
output and the prefix's gradient must be byte-equal to a serial pass. A
split tracked pass is one tape record whose backward walks each part's own
sub-tape on the part's thread; the functions a traced run wraps stay on the
calling thread. Passes tracked through backbone parameters, and batches too
small for two parts, never reach the pool. Parts run under the caller's
context, so numpy's error state holds in each.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebq import prompt
from rebq import tensor as T
from rebq.backbone import BackboneConfig, MultimodalBackbone, unified_positions
from rebq.bench import SynthConfig, synth_generate
from rebq.pipeline import ModelConfig, build_variant, train_task
from rebq.tensor import Tensor

from conftest import TINY, TINY_SYNTH

MIN = T.PARALLEL_MIN_ROWS


def frozen_backbone(cfg: BackboneConfig, synth: SynthConfig, seed: int = 0
                    ) -> MultimodalBackbone:
    bb = MultimodalBackbone(cfg, synth, np.random.default_rng(seed))
    bb.freeze()
    return bb


BACKBONES = {"tiny": frozen_backbone(TINY, TINY_SYNTH),
             "default": frozen_backbone(BackboneConfig(), SynthConfig())}


def unified_input(bb: MultimodalBackbone, rows: int, seed: int) -> Tensor:
    """A random constant sequence of the unified layout's length."""
    sizes = bb.input_sizes()
    length = 3 + sizes["max_text_len"] + sizes["num_patches"]
    return Tensor(np.random.default_rng(seed).standard_normal(
        (rows, length, bb.config.embed_dim), dtype=np.float32))


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


def read_rows(bb: MultimodalBackbone, positions: str):
    pos = unified_positions(bb)
    return {"all": None, "joint": [0],
            "unified": [pos["text_cls"], pos["visual_cls"], pos["joint"]]}[positions]


def pass_bytes(bb: MultimodalBackbone, x: Tensor, block: np.ndarray | None, positions,
               tracked: bool, parts: int) -> tuple[bytes, bytes | None]:
    """Output bytes of one forward at parts row parts and, when the block is
    tracked, the bytes of the block's gradient of sum(output * coefficients)."""
    T.set_row_parts(parts)
    try:
        if not tracked:
            with T.no_grad():
                return bb.forward(x, None if block is None else Tensor(block),
                                  positions).data.tobytes(), None
        leaf = Tensor(block, trainable=True)
        out = bb.forward(x, T.scale(leaf, 1.0), positions)
        coeff = np.random.default_rng(out.shape[1]).standard_normal(out.shape, dtype=np.float32)
        T.backward(T.tsum(T.mul(out, Tensor(coeff))))
        return out.data.tobytes(), leaf.grad.tobytes()
    finally:
        T.set_row_parts(None)


class TestSplitForward:
    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from(["tiny", "default"]),
           rows=st.one_of(st.integers(1, 4), st.integers(2 * MIN - 3, 2 * MIN + 3),
                          st.integers(3 * MIN - 2, 3 * MIN + 2)),
           workers=st.integers(2, 3),
           prefix=st.sampled_from([None, 0, 3]),
           tracked=st.booleans(),
           positions=st.sampled_from(["all", "joint", "unified"]),
           seed=st.integers(0, 2 ** 16))
    def test_split_equals_serial(self, size, rows, workers, prefix, tracked, positions, seed):
        bb = BACKBONES[size]
        x = unified_input(bb, rows, seed)
        block = None if prefix is None else prompt_block(bb, rows, prefix, seed + 1).data
        tracked = tracked and block is not None
        rows_read = read_rows(bb, positions)
        serial = pass_bytes(bb, x, block, rows_read, tracked, 1)
        assert pass_bytes(bb, x, block, rows_read, tracked, workers) == serial

    @pytest.mark.parametrize("size", ["tiny", "default"])
    @pytest.mark.parametrize("positions", ["all", "joint", "unified"])
    @pytest.mark.parametrize("n_p", [0, 3])
    def test_prefix_tracked_split_equals_serial(self, size, positions, n_p):
        """Output and prefix gradient keep their bytes at 1, 2 and 3 parts."""
        bb = BACKBONES[size]
        x = unified_input(bb, 3 * MIN + 1, 7)
        block = prompt_block(bb, 3 * MIN + 1, n_p, 8).data
        rows_read = read_rows(bb, positions)
        serial = pass_bytes(bb, x, block, rows_read, True, 1)
        assert serial[1] is not None
        for parts in (2, 3):
            assert pass_bytes(bb, x, block, rows_read, True, parts) == serial

    def test_grad_enabled_untracked_pass_splits(self, parts, monkeypatch):
        """A frozen backbone with constant inputs records nothing, so it splits
        even with grad recording on."""
        bb = BACKBONES["tiny"]
        spy = PoolSpy(monkeypatch)
        parts(2)
        out = bb.forward(unified_input(bb, 2 * MIN, 1), positions=[0])
        assert spy.calls == 1
        assert out._node is None

    def test_prefix_tracked_pass_splits_into_one_record(self, parts, monkeypatch):
        bb = BACKBONES["tiny"]
        x = unified_input(bb, 3 * MIN, 2)
        block = prompt_block(bb, 3 * MIN, 2, 3, trainable=True)
        parts(1)
        serial = bb.forward(x, block, positions=[0])
        spy = PoolSpy(monkeypatch)
        parts(3)
        tracked = bb.forward(x, block, positions=[0])
        assert spy.calls == 1
        assert tape_records(serial) > 1 and tape_records(tracked) == 1
        assert tracked._node.inputs == (block,)
        assert tracked.data.tobytes() == serial.data.tobytes()

    def test_pass_tracked_through_backbone_parameters_never_splits(self, parts, monkeypatch):
        """Pretraining's passes record through the backbone's own parameters."""
        bb = MultimodalBackbone(TINY, TINY_SYNTH, np.random.default_rng(0))
        x = unified_input(bb, 3 * MIN, 2)
        spy = PoolSpy(monkeypatch)
        parts(3)
        out = bb.forward(x, prompt_block(bb, 3 * MIN, 2, 3, trainable=True), positions=[0])
        T.backward(T.tsum(out))
        assert spy.calls == 0
        assert bb.params["l0.qkv_w"].grad is not None

    def test_second_backward_through_split_pass_refused(self, parts):
        bb = BACKBONES["tiny"]
        block = prompt_block(bb, 2 * MIN, 2, 3, trainable=True)
        parts(2)
        out = bb.forward(unified_input(bb, 2 * MIN, 4), block, positions=[0])
        T.backward(T.tsum(out))
        first = block.grad.copy()
        with pytest.raises(RuntimeError, match="released by an earlier backward"):
            T.backward(T.tsum(T.scale(out, 2.0)))
        assert block.grad.tobytes() == first.tobytes()

    @pytest.mark.parametrize("stage", ["forward", "backward"])
    @pytest.mark.parametrize("failing", [0, 2])
    def test_failing_part_raises_after_every_part_finished(self, parts, stage, failing):
        """Part 0 runs on the calling thread and part 2 on a worker; the
        other parts take longer than the failing one."""
        parts(3)
        n = 3 * MIN
        finished = []

        def step(lo: int):
            if lo == failing * n // 3:
                raise ValueError(f"part at row {lo} failed")
            time.sleep(0.05)
            finished.append(lo)

        def fn(lo, hi, rows):
            if stage == "forward":
                step(lo)
            out = T.scale(rows, 1.0)
            inner = out._node.backward
            out._node.backward = lambda g: (step(lo), inner(g))[1]
            return out

        prefix = Tensor(np.ones((n, 2), dtype=np.float32), trainable=True)
        with pytest.raises(ValueError, match="failed"):
            T.backward(T.tsum(T.split_pass(fn, n, prefix)))
        assert sorted(finished) == [lo for lo in (0, n // 3, 2 * n // 3)
                                    if lo != failing * n // 3]

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

    def test_parts_run_under_the_callers_numpy_error_state(self, parts):
        parts(3)
        with np.errstate(over="raise", invalid="ignore"):
            states = T.split_rows(lambda lo, hi: np.geterr(), 3 * MIN)
        assert len(states) == 3
        assert all(s["over"] == "raise" and s["invalid"] == "ignore" for s in states)

    def test_set_row_parts_rejects_zero(self):
        with pytest.raises(ValueError, match="parts"):
            T.set_row_parts(0)


def _forward_in_child(bb, x, expected):
    with T.no_grad():
        out = bb.forward(x, positions=[0]).data
    sys.exit(0 if out.tobytes() == expected.tobytes() else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_completes_split_forward(parts, monkeypatch):
    """A child forked after the parent used the pool gets a pool of its own."""
    bb = BACKBONES["tiny"]
    x = unified_input(bb, 2 * MIN, 5)
    spy = PoolSpy(monkeypatch)
    parts(2)
    with T.no_grad():
        expected = bb.forward(x, positions=[0]).data
    assert spy.calls == 1
    child = multiprocessing.get_context("fork").Process(
        target=_forward_in_child, args=(bb, x, expected))
    child.start()
    child.join(timeout=30)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive, "the forked child's split forward did not finish"
    assert child.exitcode == 0


def tracked_grads(bb: MultimodalBackbone, x: np.ndarray, block: np.ndarray,
                  coeff: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of sum(coeff * output) at the input rows and the prompt rows
    of one tracked forward."""
    xt, pt = Tensor(x, trainable=True), Tensor(block, trainable=True)
    out = bb.forward(xt, pt, positions)
    T.tsum(T.mul(out, Tensor(coeff))).backward()
    return xt.grad, pt.grad


class TestRowSeparableBackward:
    """A tracked pass's backward runs per-sample products and row-wise norms
    and softmaxes, so the gradients a row gets do not depend on the other
    rows of its pass: rows [A; B] in one pass or in two give the same bytes."""

    @settings(max_examples=20, deadline=None)
    @given(size=st.sampled_from(["tiny", "default"]),
           rows_a=st.integers(1, 5), rows_b=st.integers(1, 5),
           prompted=st.sampled_from(["none", "all"]),
           positions=st.sampled_from([None, [0]]),
           n_p=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def test_joint_pass_equals_separate_passes(self, size, rows_a, rows_b, prompted,
                                               positions, n_p, seed):
        bb = BACKBONES[size]
        rows = rows_a + rows_b
        x = unified_input(bb, rows, seed).data
        block = prompt_block(bb, rows, n_p, seed + 1).data
        if prompted == "none":
            block = block[:, :0]
        width = x.shape[1] if positions is None else len(positions)
        coeff = np.random.default_rng(seed + 2).standard_normal(
            (rows, width, bb.config.embed_dim), dtype=np.float32)
        joint = tracked_grads(bb, x, block, coeff, positions)
        parts = [tracked_grads(bb, x[sl], block[sl], coeff[sl], positions)
                 for sl in (slice(0, rows_a), slice(rows_a, rows))]
        assert joint[0].tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        if prompted == "none":
            assert joint[1] is None and all(p[1] is None for p in parts)
        else:
            assert joint[1].tobytes() == np.concatenate([p[1] for p in parts]).tobytes()


def test_traced_functions_stay_on_the_calling_thread(tiny_backbone, monkeypatch):
    """A traced run wraps backward, forward and select_prompt in spans kept on
    one stack; in a training step whose passes split, each is still called
    from the calling thread alone, as often as with one part."""
    _, samples = synth_generate(4, 2 * MIN // 4, TINY_SYNTH, seed=5)
    calls: list[tuple[str, int]] = []
    for owner, name in ((T, "backward"), (MultimodalBackbone, "forward"),
                        (prompt, "select_prompt")):
        def wrapper(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append((_name, threading.get_ident()))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    spy = PoolSpy(monkeypatch)
    mcfg = ModelConfig(num_classes=4, pool_size=6, memory_pool_size=6, prompt_len=3)
    counted = {}
    try:
        for parts in (1, 2):
            T.set_row_parts(parts)
            calls.clear()
            model = build_variant("canonical", tiny_backbone, mcfg, seed=42)
            train_task(model, samples, 1, len(samples), 1e-4, seed=3)
            assert {ident for _, ident in calls} == {threading.get_ident()}
            counted[parts] = sorted(name for name, _ in calls)
    finally:
        T.set_row_parts(None)
    assert spy.calls > 0
    assert counted[2] == counted[1]
