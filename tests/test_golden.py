"""Golden digests: byte pins on the stream contract.

Every entry of ``RUN_DIGESTS`` is the SHA-256 of one run's ``counts`` and
``infection_time`` (little-endian int64), drawn by the documented contract:
graph from ``derive_graph_rng(master_seed, i)``, then seeds and dynamics
from ``derive_run_rng(master_seed, i)``.  ``FILE_DIGESTS`` pin whole CLI
outputs.  A digest may only change together with a documented change of
the draw order; a speed-up must leave every one of them as it is.

``reference_watts_strogatz`` is the scalar, one-draw-per-edge rewiring
loop; the production builder must give the same graph and leave the
stream in the same state.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import platform

import numpy as np
import pytest

from diffusim import dynamics, graph
from diffusim.cli import main
from diffusim.dynamics import GLOBAL, GROUP, SCHEMES, fixed
from diffusim.experiment import derive_graph_rng, derive_run_rng
from diffusim.graph import Graph, GraphSpec, build_graph

MASTER_SEED = 2024
RUN_INDEX = 3

# Every digest was recorded and checked under these versions only; NEP 19 does
# not promise that a numpy Generator stream stays the same across versions.
RECORDED_UNDER = "numpy 2.4.6, Python 3.11.7"


def moved(what: str) -> str:
    return (f"{what} moved; the digests were recorded under {RECORDED_UNDER}, "
            f"this is numpy {np.__version__}, Python {platform.python_version()}")


MODELS = {"fixed": fixed(0.3), "group": GROUP, "global": GLOBAL}


def _edge_list_text() -> str:
    n = 30
    arcs = sorted({(v, (3 * v + 1) % n) for v in range(n)}
                  | {(v, (v + 5) % n) for v in range(n)})
    return "\n".join([str(n)] + [f"{v} {u}" for v, u in arcs]) + "\n"


def _spec(generator: str, tmp_path) -> GraphSpec:
    if generator == "file":
        path = tmp_path / "golden.edges"
        path.write_text(_edge_list_text(), encoding="utf-8")
        return GraphSpec("file", path=str(path))
    return {
        "watts_strogatz": GraphSpec("watts_strogatz", n=60, k=6, beta=0.2),
        "barabasi_albert": GraphSpec("barabasi_albert", n=60, m_attach=2),
        "complete": GraphSpec("complete", n=25),
        "directed_cycle": GraphSpec("directed_cycle", n=40),
    }[generator]


def run_digest(spec: GraphSpec, model, scheme: str, seed_count: int = 1) -> str:
    graph_rng = derive_graph_rng(MASTER_SEED, RUN_INDEX) if spec.is_random else None
    g = build_graph(spec, graph_rng)
    rng = derive_run_rng(MASTER_SEED, RUN_INDEX)
    seeds = dynamics.seed_random(g, seed_count, rng)
    traj = dynamics.run(model, g, seeds, scheme, 200 * g.n, rng)
    h = hashlib.sha256()
    h.update(traj.counts.astype("<i8").tobytes())
    h.update(traj.infection_time.astype("<i8").tobytes())
    return h.hexdigest()


RUN_DIGESTS = {
    ('barabasi_albert', 'fixed', 'async_single_node', 1):
        "751f835643239a01a87bd9dfd93ebc26a47163612fa07cd0359c347ae661034e",
    ('barabasi_albert', 'fixed', 'synchronous', 1):
        "b120bb7e0bdc30e3c3362ccf3068055119d65f828ac9911025e6869aa08c4212",
    ('barabasi_albert', 'global', 'async_single_node', 1):
        "5f31573548ea6f51512b72e39c7faa50fa8d5f2e38d91b195801f7c05faf6885",
    ('barabasi_albert', 'global', 'synchronous', 1):
        "cdc8febaa0900c97c974574d1d2239e2efe85442a2a00ccbc8ae8969d186e661",
    ('barabasi_albert', 'group', 'async_single_node', 1):
        "47a02f3779d45b6290c278cff0f2a8a668f80958704cb64f7484f1434a485bed",
    ('barabasi_albert', 'group', 'async_single_node', 4):
        "93b58df450c72e0112b21083bd3a2e83f60adfd05c61fa385f1cd329adf83454",
    ('barabasi_albert', 'group', 'synchronous', 1):
        "855bd981a3407c66b8002d7f5ab0af02add078413d0b531afe845baafad290b8",
    ('complete', 'fixed', 'async_single_node', 1):
        "ca70c03e92c08e79552959ff23f2254780d012ab511ef1f8f66bde762784466f",
    ('complete', 'fixed', 'synchronous', 1):
        "3c62b420c1592e5860267aba9bfeb8a4693fc6a0dec5bbe7bf65791e827f9cfb",
    ('complete', 'global', 'async_single_node', 1):
        "3f6f645805390eeab46f3966a341f381d19a3e0d3691fbccdff36202c42f47c9",
    ('complete', 'global', 'synchronous', 1):
        "e677353fe5ce66becbbb91decea338483a11763b72ca47bb04d71d15c1b14dff",
    ('complete', 'group', 'async_single_node', 1):
        "3f6f645805390eeab46f3966a341f381d19a3e0d3691fbccdff36202c42f47c9",
    ('complete', 'group', 'synchronous', 1):
        "32aaf0f3123fcf7c33ad2fd07d0f1b61bf646cea45ed54a1248e15bf886cd109",
    ('directed_cycle', 'fixed', 'async_single_node', 1):
        "9328c726cd231c9191e915455f0d9214df7b0189089e5cd34ad74e4b70789111",
    ('directed_cycle', 'fixed', 'synchronous', 1):
        "6738a32b52ab02713d3b10b3469abbeb7a33dae46e48a928980140e6ed3efab7",
    ('directed_cycle', 'global', 'async_single_node', 1):
        "890119f70db5c88acca5ab0a4dabfcb85c8cf37b6fc0f39fcf16045f768a49a5",
    ('directed_cycle', 'global', 'synchronous', 1):
        "1afd34c6b4c12dcc897edff9f51e1358de363522632a0ebcf86c1af3c8f5860d",
    ('directed_cycle', 'group', 'async_single_node', 1):
        "b225c3efb36aa6481693c607e2922dc2c3d82b8bee7cbdd1ffe1187734ae33d2",
    ('directed_cycle', 'group', 'synchronous', 1):
        "f51f65246aeeec0a1f2021e7e046be7508b39d22c61cdf7e4f9c8d99c81242a8",
    ('file', 'fixed', 'async_single_node', 1):
        "65b7ba15a6ff6a6d06d193e43f466b81f89a8e5d393771692f8d30c92ba23247",
    ('file', 'fixed', 'synchronous', 1):
        "99164d18c8189c31fb77aa0e89800d3f4b414c72db57bb5969828fb503fd4324",
    ('file', 'global', 'async_single_node', 1):
        "e52551de1bb544b720652afe956b25f583d6c8328cd436389de1944802d20b55",
    ('file', 'global', 'synchronous', 1):
        "2b1d9d9fb9d2d5865434161cfaa491ca5f4748adff84059136e8c4601b38ad00",
    ('file', 'group', 'async_single_node', 1):
        "44087ca965d7d0cf5cfd1c94809ea4470d45c9fb656fe9a146b7d14f55dda95b",
    ('file', 'group', 'synchronous', 1):
        "67fc8983ea3cc6fe95eae2ccf4f982881a971c32b50286b3662aa83ade32be9d",
    ('watts_strogatz', 'fixed', 'async_single_node', 1):
        "a07743f22df74fb7ccf3d156fe93af848d7f8679e7d8ac5accdfae8cccbb26b8",
    ('watts_strogatz', 'fixed', 'synchronous', 1):
        "9a8031ac2fe629212ad73814d6da199e163ba7ae328f219a39be4057895b08a1",
    ('watts_strogatz', 'fixed', 'synchronous', 5):
        "0082791642e0f288b7be35c12102c7df0254a92cdcbf1e2c8ab5ad7a90fc9af6",
    ('watts_strogatz', 'global', 'async_single_node', 1):
        "5f31573548ea6f51512b72e39c7faa50fa8d5f2e38d91b195801f7c05faf6885",
    ('watts_strogatz', 'global', 'synchronous', 1):
        "cdc8febaa0900c97c974574d1d2239e2efe85442a2a00ccbc8ae8969d186e661",
    ('watts_strogatz', 'group', 'async_single_node', 1):
        "6a5bb2907672b67659c52820bfd02cfbc9eb6beac6b20270875bb4b336a28850",
    ('watts_strogatz', 'group', 'synchronous', 1):
        "3bff7d5302352c8fb946a1d569b65f4d1a3d39a66908385879d0132ec5637a73",
}
FILE_DIGESTS = {
    "curve.csv": "d071d003ee4354c462f9459ae9e9aa458462a624600b3287f0d99844e63b9a82",
    "fit.csv": "9a0717add53a5da72df5fdc9d9b009128c7a8042a3df7403e2985a573ab274f8",
    "sweep_summary.csv": "c7da4bc8ee34002ab2293cd86474367db1da8e891d47861ffaebf48aed7ccaa4",
}


@pytest.mark.parametrize("generator,model,scheme,seed_count", sorted(RUN_DIGESTS))
def test_run_digest(generator, model, scheme, seed_count, tmp_path):
    spec = _spec(generator, tmp_path)
    digest = run_digest(spec, MODELS[model], scheme, seed_count)
    assert digest == RUN_DIGESTS[(generator, model, scheme, seed_count)]


def test_table_covers_every_generator_model_and_scheme():
    covered = {key[:3] for key in RUN_DIGESTS}
    assert covered == set(itertools.product(graph.GENERATORS, MODELS, SCHEMES))
    assert any(key[3] > 1 for key in RUN_DIGESTS)


# -- CLI outputs -----------------------------------------------------------------


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASE = {"model": "group", "master_seed": 77, "runs": 6, "scheme": "async_single_node",
        "graph": {"type": "watts_strogatz", "n": 50, "k": 4, "beta": 0.1}}


def _curve_csv(tmp_path):
    config = _write_json(tmp_path / "c.json", BASE)
    assert main(["report", "--config", config, "--out", str(tmp_path / "o")]) == 0
    return tmp_path / "o" / "curve.csv"


def _fit_csv(tmp_path):
    reference = _write_json(tmp_path / "ref.json",
                            dict(BASE, model="fixed", transmission_prob=0.5,
                                 seed_count=3, runs=4))
    t = np.arange(120)
    values = 1.0 / (1.0 + np.exp(-(t - 60) / 8.0))
    series = tmp_path / "series.csv"
    series.write_text("value\n" + "\n".join(repr(float(v)) for v in values) + "\n",
                      encoding="utf-8")
    assert main(["fit", "--series", str(series), "--config", reference,
                 "--out", str(tmp_path / "o")]) == 0
    return tmp_path / "o" / "fit.csv"


def _sweep_csv(tmp_path):
    doc = {"base": dict(BASE, scheme="synchronous", runs=3),
           "axes": {"graph.beta": [0.0, 0.3], "model": ["group", "global"],
                    "runs": [2, 3]}}
    config = _write_json(tmp_path / "s.json", doc)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 0
    return tmp_path / "o" / "sweep_summary.csv"


OUTPUTS = {"curve.csv": _curve_csv, "fit.csv": _fit_csv,
           "sweep_summary.csv": _sweep_csv}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_file_digest(name, tmp_path):
    path = OUTPUTS[name](tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FILE_DIGESTS[name], \
        moved(name)


# -- Watts-Strogatz draw order -----------------------------------------------------


def reference_watts_strogatz(n: int, k: int, beta: float,
                             rng: np.random.Generator) -> Graph:
    """One ``random()`` per lattice edge (j-major, then i); a hit draws
    ``integers(n)`` until the new endpoint is neither i nor a present edge,
    at most n tries, else the edge stays."""
    def canon(a, b):
        return (a, b) if a < b else (b, a)

    edges = set()
    for j in range(1, k // 2 + 1):
        for i in range(n):
            edges.add(canon(i, (i + j) % n))
    if beta > 0.0:
        for j in range(1, k // 2 + 1):
            for i in range(n):
                if rng.random() >= beta:
                    continue
                old = canon(i, (i + j) % n)
                for _ in range(n):
                    w = int(rng.integers(n))
                    if w == i:
                        continue
                    new = canon(i, w)
                    if new in edges:
                        continue
                    edges.remove(old)
                    edges.add(new)
                    break
    arcs = [arc for a, b in sorted(edges) for arc in ((a, b), (b, a))]
    return Graph(n, arcs)


WS_PARAMS = [(3, 2, 1.0), (4, 2, 0.5), (5, 4, 1.0), (7, 6, 1.0), (8, 6, 0.9),
             (12, 10, 0.5), (20, 4, 0.0), (20, 4, 1.0), (30, 6, 0.02),
             (50, 4, 0.1), (64, 8, 0.3), (100, 10, 0.7), (200, 6, 0.05),
             # dense: every attempt collides, and more words are drawn mid-attempt
             (24, 22, 1.0),
             # a hit per edge with frequent collisions runs past the first block
             (100, 20, 1.0)]


@pytest.mark.parametrize("n,k,beta", WS_PARAMS)
def test_watts_strogatz_matches_scalar_reference(n, k, beta):
    for seed in range(40):
        fast = np.random.default_rng(seed)
        slow = np.random.default_rng(seed)
        if seed % 2:  # enter with the cached 32-bit half of integers() set
            assert fast.integers(7) == slow.integers(7)
        g = graph.watts_strogatz(n, k, beta, fast)
        assert g == reference_watts_strogatz(n, k, beta, slow)
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.integers(n) == slow.integers(n)
        assert fast.random() == slow.random()


@pytest.mark.parametrize("cached", [False, True])
def test_raw_bounded_step_matches_integers(cached):
    """At n = 3 * 2**30 Lemire's step rejects a quarter of its 32-bit reads;
    n = 2**32 takes each read as it is, and n = 1 draws nothing."""
    for n in (3 * 2 ** 30, 1, 2, 2 ** 32):
        fast, slow = np.random.default_rng(17), np.random.default_rng(17)
        if cached:  # enter with the cached 32-bit half set
            assert fast.integers(7) == slow.integers(7)
        before = fast.bit_generator.state
        draws = graph._RawDraws(fast)
        assert [draws.integers(n) for _ in range(500)] == \
            [int(slow.integers(n)) for _ in range(500)]
        draws.close()
        assert fast.bit_generator.state == slow.bit_generator.state
        if n == 1:
            assert fast.bit_generator.state == before
        assert fast.random() == slow.random()


def test_raw_bounded_step_rejects_a_bound_above_2_32():
    """numpy reads whole 64-bit words there, not 32-bit halves, so the
    reader refuses, drawing nothing."""
    rng = np.random.default_rng(17)
    before = rng.bit_generator.state
    draws = graph._RawDraws(rng)
    with pytest.raises(ValueError, match=r"integers\(4294967297\): the bound is above"):
        draws.integers(2 ** 32 + 1)
    draws.close()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("k", [1, 4096, 1001])
def test_random_doubles_are_the_top_53_bits_of_raw_words(k, cached):
    """The kernels draw their doubles with ``Generator.random``; this pins
    it to PCG64's word stream, in value and in full generator state."""
    rng, raw = np.random.default_rng(29), np.random.default_rng(29)
    if cached:  # enter with the cached 32-bit half set
        assert rng.integers(7) == raw.integers(7)
    words = raw.bit_generator.random_raw(k)
    assert np.array_equal(rng.random(k), (words >> 11) * 2.0 ** -53)
    assert rng.bit_generator.state == raw.bit_generator.state


def test_watts_strogatz_needs_pcg64():
    """So do barabasi_albert and seed_random, whose integers are read alike."""
    builds = (lambda rng: graph.watts_strogatz(20, 4, 0.1, rng),
              lambda rng: graph.barabasi_albert(20, 2, rng),
              lambda rng: dynamics.seed_random(graph.directed_cycle(5), 1, rng))
    for bits in (np.random.MT19937(3), np.random.PCG64DXSM(3)):
        for build in builds:
            with pytest.raises(ValueError, match="PCG64 bit generator"):
                build(np.random.Generator(bits))
