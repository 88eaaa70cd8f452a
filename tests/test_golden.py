"""Checkpoint digests and per-step accuracies of tiny runs in every wiring
and variant.

A refactor that keeps the arithmetic must keep every checkpoint byte and
every evaluation.  Each case trains a 3-task synthetic stream (8 classes as
4 + 2 + 2) and compares the sha256 of its checkpoint with the digest
recorded when the case was added, at a buffer that holds every sample
(2000) and at one that binds (10).  It also compares the accuracy after
each task with a recorded table: evaluation reads logits formed from the
store's token features, which the digests do not cover.  Both depend on
numpy's floating-point kernels, so on another numpy version the test
skips.
"""

import hashlib

import numpy as np
import pytest

from densecil import cli
from densecil import continual as C
from densecil import expansion as E

NUMPY = "2.4.6"
"""The numpy version the digests were recorded with."""

WIRINGS = {
    "dne": {},
    "dne_cta_mhsa": {"cta_mhsa": True},
    "dne_share_v_s": {"share_v": "s"},
    "dne_share_qk_f": {"share_q": "f", "share_k": "f"},
    "dne_cta_layers_10": {"cta_layers": "10"},
    "dne_fc1_off": {"cta_fc1": False},
    "dne_fc2_off": {"cta_fc2": False},
    "ia": {"strategy": "ia"},
    **{f"sta_{v}": {"strategy": "sta", "sta_variant": v} for v in E.STA_VARIANTS},
}

DIGESTS = {
    ('dne', 2000): "49c17a4c5cded0a4baced77678586fa2b82590c0419a97f72e76358fff9898fa",
    ('dne', 10): "fd0e87bb82d6d50f9182f871977208867c9efdfbaf0b360d6d855baffee1cbd5",
    ('dne_cta_mhsa', 2000): "1a98acb94dc5a58d01aa0837a41dc10c597e7e4073cdfd05eaefc973a617c522",
    ('dne_cta_mhsa', 10): "4542fb2acae0927ec4cbae62fff34b4f20e0c9d0ecde7516ddcd9a997658b580",
    ('dne_share_v_s', 2000): "53c298ac15a7a05e17309f7573c500f12a373f970d78789b9bf57a85a7c1e3f9",
    ('dne_share_v_s', 10): "1eda12dcbc0298f2079010c5f4cc523523c244f825a48d7a00b509d633d1faed",
    ('dne_share_qk_f', 2000): "531dd0f1896781507d3bf655ff75287ff37eb4fc5ce519de71d5e08f5552aca3",
    ('dne_share_qk_f', 10): "f62ac0520c10bc081a93d1c08c1b2dca5359d26ac5b6850e4dc2d96353d759dd",
    ('dne_cta_layers_10', 2000): "3e0d936a2524e48be09c680f58757abc3a2ebaae6fb0ad32f0c2ad3fb6c1bbe0",
    ('dne_cta_layers_10', 10): "e01272dfc0b0a27b580fcf1da107d2be5aaa766fb0bb5ad1cbd8d52cf135c400",
    ('dne_fc1_off', 2000): "cbc05945d85a2940aa730e60f471ef39d9211fb44ffd502a87faf90adad4fa41",
    ('dne_fc1_off', 10): "903084eefd4f9e87d76e0c3f02799ba3ed9161c5e362466affa90a20e223a036",
    ('dne_fc2_off', 2000): "8e1a5d63a6e6de99aac21a2bac7ea900e10f5c9fae2af610006a46b1272e7119",
    ('dne_fc2_off', 10): "f7c27d509e3b5bffe0ab4b0054ba8599a5a628bc09be14e214e3865926192dac",
    ('ia', 2000): "3c6f0e29d2e4f7bf9c9d4ff71c39385f720e49981ff81ad6e0e5553c2f663b02",
    ('ia', 10): "9d29e0433fa914b6a189e2c189ccdbbb3e6fb5fad7b198590b4dbe2359752d9a",
    ('sta_none', 2000): "c269bb4fbcb4de0bba05f8ab525ce0fcb8c2b696e9a56e7d3181f278352df2e9",
    ('sta_none', 10): "1e4a6c0317cf825434688af1059a4c271e4f959c1ddf993f696162efc031a091",
    ('sta_spdh', 2000): "87a6dc7db2c54cb50ab3470b91dd06ce74e2386276b11b53801c4a0595fdde8e",
    ('sta_spdh', 10): "9bb91bb7dd8f23268bb1b592b8c229a384482e00d4f9d2494b676330b2585955",
    ('sta_dpdh', 2000): "2be37b4fa346b015f42311f6e0db7691a6c0228122971e11e1271b2b44f00d00",
    ('sta_dpdh', 10): "5e84ed0861280e92eca94e18b28527d83f01e0fe69b1d8cb4b64433d5d404f29",
    ('sta_both', 2000): "c783d0efbfb15109049eb2ae6a66c6576429a20dd8e3562db8687546d3e11bb6",
    ('sta_both', 10): "01237073bfb584f21493b44961e1f433e749a201d12a5f74b9d9dfc6ae30a7e3",
}


ACCURACIES = {
    ('dne', 2000): (25.0, 16.666666666666668, 12.5),
    ('dne', 10): (25.0, 16.666666666666668, 12.5),
    ('dne_cta_mhsa', 2000): (50.0, 16.666666666666668, 18.75),
    ('dne_cta_mhsa', 10): (50.0, 16.666666666666668, 18.75),
    ('dne_share_v_s', 2000): (25.0, 16.666666666666668, 12.5),
    ('dne_share_v_s', 10): (25.0, 16.666666666666668, 12.5),
    ('dne_share_qk_f', 2000): (25.0, 16.666666666666668, 12.5),
    ('dne_share_qk_f', 10): (25.0, 16.666666666666668, 12.5),
    ('dne_cta_layers_10', 2000): (37.5, 25.0, 12.5),
    ('dne_cta_layers_10', 10): (37.5, 16.666666666666668, 12.5),
    ('dne_fc1_off', 2000): (37.5, 41.666666666666664, 18.75),
    ('dne_fc1_off', 10): (37.5, 41.666666666666664, 12.5),
    ('dne_fc2_off', 2000): (50.0, 25.0, 37.5),
    ('dne_fc2_off', 10): (62.5, 16.666666666666668, 12.5),
    ('ia', 2000): (75.0, 50.0, 37.5),
    ('ia', 10): (50.0, 16.666666666666668, 25.0),
    ('sta_none', 2000): (25.0, 16.666666666666668, 12.5),
    ('sta_none', 10): (25.0, 16.666666666666668, 12.5),
    ('sta_spdh', 2000): (25.0, 16.666666666666668, 12.5),
    ('sta_spdh', 10): (25.0, 16.666666666666668, 12.5),
    ('sta_dpdh', 2000): (37.5, 25.0, 18.75),
    ('sta_dpdh', 10): (25.0, 16.666666666666668, 18.75),
    ('sta_both', 2000): (50.0, 33.333333333333336, 25.0),
    ('sta_both', 10): (50.0, 16.666666666666668, 18.75),
}
"""Each case's accuracy after each task, recorded with the store that still
kept the classifier slices."""


def _run(settings: dict, buffer: int) -> tuple[str, tuple[float, ...]]:
    cfg = cli.RunConfig(classes=8, per_class=4, eval_per_class=2, epochs=1, tune_epochs=1,
                        buffer=buffer, seed=3, **settings)
    cfg.validate()
    model, record = C.run_stream(cfg.model_config(), cli.build_stream(cfg), cfg.train_config(),
                                 cfg.seed, buffer_capacity=cfg.buffer)
    return hashlib.sha256(E.checkpoint_bytes(model)).hexdigest(), tuple(record.accuracies)


@pytest.mark.parametrize("buffer", [2000, 10])
@pytest.mark.parametrize("wiring", list(WIRINGS))
def test_tiny_run_checkpoint_is_byte_identical(wiring, buffer):
    if np.__version__ != NUMPY:
        pytest.skip(f"digests recorded with numpy {NUMPY}, running {np.__version__}")
    digest, accuracies = _run(WIRINGS[wiring], buffer)
    assert digest == DIGESTS[wiring, buffer]
    assert accuracies == ACCURACIES[wiring, buffer]
