"""Golden outputs: fixed-seed runs must reproduce their recorded bytes.

Every variant preset runs single- and multi-label with 0 and 2 prompted
layers on the TINY backbone, 24 configs in all. Each run's report.json
(minus timing and output_dir), matrix.csv, trajectory.csv, steps.csv and
trained parameter bytes are hashed with SHA-256 and compared with
tests/golden.json, so a change that moves any result bit fails here and
names the configs and artifacts it moved.

float32 GEMM rounding depends on the OpenBLAS kernel, so the file records
the BLAS core and CPU model it was made on, and the test fails on another
machine rather than compare bits it cannot reproduce.

After a declared numerics change, re-record from the repository root:

    PYTHONPATH=src python tests/test_golden.py

which prints each artifact that was added, removed or moved against the
file it overwrites and the configs it did so in, and commit the diff of
tests/golden.json.
"""

import ctypes
import dataclasses
import hashlib
import json
import platform
import tempfile
from pathlib import Path

from rebq import tensor as T
from rebq.pipeline import VARIANT_PRESETS
from rebq.runner import RunConfig, emit_report, run_experiment

from conftest import TINY, TINY_SYNTH, make_tiny_backbone, parameter_bytes

GOLDEN = Path(__file__).parent / "golden.json"

BASE = RunConfig(backbone=TINY, synth=TINY_SYNTH, num_classes=4, samples_per_class=30,
                 num_sessions=2, eta=60.0, pool_size=16, memory_pool_size=16, prompt_len=2,
                 epochs=1, batch_size=4, lr=3e-3, eval_batch_size=16)

CONFIGS = {
    f"{variant}-{'multi' if multi else 'single'}-layers{layers}": dataclasses.replace(
        BASE, variant=variant, prompted_layers=layers,
        synth=dataclasses.replace(TINY_SYNTH, multi_label=multi))
    for variant in sorted(VARIANT_PRESETS) for multi in (False, True) for layers in (0, 2)
}


def machine() -> dict:
    """The BLAS core and CPU model the hashes hold on."""
    corename = T._openblas_function("get_corename")
    if corename is not None:
        corename.restype = ctypes.c_char_p
        corename = corename().decode()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"blas_core": corename, "cpu_model": cpu}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_hashes(cfg: RunConfig, backbone, out: Path) -> dict[str, str]:
    report, artifacts = run_experiment(cfg, backbone=backbone)
    emit_report(report, out, artifacts)
    stable = json.loads((out / "report.json").read_text())
    del stable["timing"], stable["config"]["output_dir"]
    hashes = {"report.json": sha256(json.dumps(stable, sort_keys=True).encode())}
    for name in ("matrix.csv", "trajectory.csv", "steps.csv"):
        hashes[name] = sha256((out / name).read_bytes())
    hashes["parameters"] = sha256(parameter_bytes(artifacts.model))
    return hashes


def all_hashes(backbone, root: Path) -> dict[str, dict[str, str]]:
    return {tag: run_hashes(cfg, backbone, root / tag) for tag, cfg in CONFIGS.items()}


def differences(old: dict, new: dict) -> list[str]:
    """One line per artifact and kind of change between two {config: {artifact:
    hash}} tables, naming the configs it touches: an artifact new has and old
    lacks is added, one old has and new lacks removed, and one whose hash
    differs moved."""
    tags = sorted(set(old) | set(new))
    touched: dict[tuple[str, str], list[str]] = {}
    for tag in tags:
        was, now = old.get(tag, {}), new.get(tag, {})
        for name in sorted(set(was) | set(now)):
            if name not in was:
                touched.setdefault((name, "added"), []).append(tag)
            elif name not in now:
                touched.setdefault((name, "removed"), []).append(tag)
            elif was[name] != now[name]:
                touched.setdefault((name, "moved"), []).append(tag)
    return [f"{name} {change} in " + (f"all {len(tags)} configs" if len(where) == len(tags)
                                      else f"{len(where)}: " + ", ".join(where))
            for (name, change), where in sorted(touched.items())]


def test_outputs_match_golden(tiny_backbone, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = machine()
    recorded = {k: golden[k] for k in here}
    assert recorded == here, (f"tests/golden.json was recorded on {recorded}, this machine "
                              f"is {here}; its bits cannot be compared here")
    changed = differences(golden["hashes"], all_hashes(tiny_backbone, tmp_path))
    assert not changed, "outputs differ from tests/golden.json:\n" + "\n".join(changed)


def test_differences_name_each_change_and_its_configs():
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "1", "y": "2"}}
    new = {"a": {"x": "1", "z": "3"}, "b": {"x": "9", "z": "3"}}
    assert differences(old, new) == ["x moved in 1: b", "y removed in all 2 configs",
                                     "z added in all 2 configs"]
    assert differences(old, old) == []
    assert differences(old, {"a": old["a"]}) == ["x removed in 1: b", "y removed in 1: b"]


def record():
    old = json.loads(GOLDEN.read_text())["hashes"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        hashes = all_hashes(make_tiny_backbone(), Path(tmp))
    GOLDEN.write_text(json.dumps({**machine(), "hashes": hashes}, indent=1, sort_keys=True)
                      + "\n")
    for line in differences(old, hashes) or ["no artifact changed"]:
        print(line)
    print(f"recorded {len(hashes)} configs -> {GOLDEN}")


if __name__ == "__main__":
    record()
