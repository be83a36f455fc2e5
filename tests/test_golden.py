"""Golden outputs: fixed-seed runs must reproduce their recorded bytes.

Every variant preset runs single- and multi-label with 0 and 2 prompted
layers on the TINY backbone, 24 configs in all. Each run's report.json
(minus timing and output_dir), matrix.csv, trajectory.csv, queries.json
and trained parameter bytes are hashed with SHA-256 and compared with
tests/golden.json, so a change that moves any result bit fails here and
names the configs and artifacts it moved.

float32 GEMM rounding depends on the OpenBLAS kernel, so the file records
the BLAS core and CPU model it was made on, and the test fails on another
machine rather than compare bits it cannot reproduce.

After a declared numerics change, re-record from the repository root:

    PYTHONPATH=src python tests/test_golden.py

and commit the diff of tests/golden.json, which shows the moved configs.
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
                 epochs=1, batch_size=4, lr=3e-3, eval_batch_size=16, export_queries=True)

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
    for name in ("matrix.csv", "trajectory.csv", "queries.json"):
        hashes[name] = sha256((out / name).read_bytes())
    hashes["parameters"] = sha256(parameter_bytes(artifacts.model))
    return hashes


def all_hashes(backbone, root: Path) -> dict[str, dict[str, str]]:
    return {tag: run_hashes(cfg, backbone, root / tag) for tag, cfg in CONFIGS.items()}


def test_outputs_match_golden(tiny_backbone, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = machine()
    recorded = {k: golden[k] for k in here}
    assert recorded == here, (f"tests/golden.json was recorded on {recorded}, this machine "
                              f"is {here}; its bits cannot be compared here")
    hashes = all_hashes(tiny_backbone, tmp_path)
    assert set(hashes) == set(golden["hashes"]), "the config list differs from golden.json"
    moved = [f"{tag}: {name}" for tag, arts in hashes.items()
             for name, digest in arts.items() if golden["hashes"][tag].get(name) != digest]
    assert not moved, "outputs moved from tests/golden.json:\n" + "\n".join(moved)


def record():
    with tempfile.TemporaryDirectory() as tmp:
        hashes = all_hashes(make_tiny_backbone(), Path(tmp))
    GOLDEN.write_text(json.dumps({**machine(), "hashes": hashes}, indent=1, sort_keys=True)
                      + "\n")
    print(f"recorded {len(hashes)} configs -> {GOLDEN}")


if __name__ == "__main__":
    record()
