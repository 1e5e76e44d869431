"""Golden runs: the engine's outputs are pinned bit for bit.

Each case hashes three parts of a run: the event log (every field of every
record, by repr, so a change of value or of scalar type shows), the
per-node rebase history, and the sample grid with the logical values on
it. The digests were recorded before the event loop moved to in-place
protocol state, columnar event order and precomputed hardware times, and
any later change to the hot path must reproduce them exactly.

The files `gradsync run` writes for each preset are pinned the same way;
those digests were recorded while the run still held dense n x samples
matrices, before the report and the CSV writer derived their values from
the rebase history.
"""

import hashlib

import numpy as np
import pytest

from gradsync.cli import main
from gradsync.config import build_wait_chain_scenario
from gradsync.engine import run
from gradsync.presets import preset


EVENT_FIELDS = ("send_time", "receive_time", "src", "dst", "payload", "started_receiver", "jump")


def _arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def digests(trace) -> dict:
    log = hashlib.sha256()
    for ev in trace.events:
        log.update(repr(tuple(getattr(ev, f) for f in EVENT_FIELDS)).encode())
        log.update(b"\n")
    return {
        "events": log.hexdigest(),
        "history": _arrays_digest(
            *(a for h in trace.history for a in (h.times, h.values, h.factors))
        ),
        "logical": _arrays_digest(trace.sample_times, trace.logical),
    }


def _case(name: str):
    if name.startswith("wait_chain_d16_"):
        variant = name.removeprefix("wait_chain_d16_")
        return build_wait_chain_scenario(16, 0.1, 1.0, 1.0, variant=variant)
    return preset(name)


GOLDEN = {
    "drifting_chain": {
        "events": "eb906902af509bfcef47e3c431c93a265bcd6e19c2f07474dada427d8cdb1bdf",
        "history": "f7893d5644261481cafd1b7b54240e3b1b345de20dd0ac99be4a9b897d3ec921",
        "logical": "bc9f0e5275e4c170d9c984ef63943eb41695704d5099249dd293c48958771bc9",
    },
    "random_geometric": {
        "events": "16d50c249b72eb2ca1770b99a5c7e422be770ffd31d15b763098d6be9e6d10eb",
        "history": "7b8722f543b9df1068830bc0aa17290c3e8a6d09d5396df4b68813e5593d9a28",
        "logical": "855238b12fe3b30cb0bc4edb6efa41514699c262c7d7812919f20cfdd1ad726c",
    },
    "startup_chain": {
        "events": "07f2d05071957f93f37f36b8b9f40a9d8acad058a7413b66b133f9fdfea98e34",
        "history": "16888cef977b4e1b25a0ce022fb283d74fa44d54c6a56242726ab1c037c58191",
        "logical": "1ec49f137b38b55596a03ef97289c8ba444c656e35996c229ead378857eb230a",
    },
    "two_node": {
        "events": "1fbccd73e59d4dfe90ca5f6e01ab8a2b6d174f14a8ae4b45b2b34324e43ee240",
        "history": "2223650b9388e769ecf0685037fa5345dc7020f5631cedc032759d3bffe555f3",
        "logical": "8d7eea5fe5322c2d77bffe71314325f35d3d344d7e3a288ad2943227f9fc7b87",
    },
    "wait_chain": {
        "events": "6832cb1bc94e85acdb9182a3fd2ac9377a7359cbe1ec44401731dcc1b0040840",
        "history": "9f1465e84f03af88f24127ce8f82780972ed453df1608dd0eadf38f5693acdc8",
        "logical": "22f196c2e409554ce7121ed1e5970bc13945f5af02d0879aa1b94554c5d3de3d",
    },
    "wait_chain_d16_gradient": {
        "events": "cb77168c33c664ac90e82de17637d0a62e6976ed62267e69a951028ec46a9756",
        "history": "35f5ad1d2dcc6adf5b4b0663ab7bfc6d657bd402fc74d74c911e9ba8763cbecd",
        "logical": "6694bb792a41c59b74516a3df43aab5fa3b7fec703decfad1c029c6c6a17983c",
    },
    "wait_chain_d16_large_c": {
        "events": "c9375141e1892be72e1ef612d3fe3af5f1115ce93ac14f141a57b5ed58ba1458",
        "history": "4860eeec626697ba63a74f2b4aa55f6fa7dc95ba2cb4b5b662fbb1525315a19a",
        "logical": "803d5e2b69b30925983bd55b7fed08fe55a349d7e44088658c890339dad6f583",
    },
    "wait_chain_d16_no_slowdown": {
        "events": "3b6a8c3c8926eca6972bffc0943a8f94011d934209b7b65103b177ce6c74cef8",
        "history": "09eb1ad79ee34d9853833bc04a87a66202734bb18d94ebc281d5c43a43d2ce7f",
        "logical": "b75cc75ffd97d9f1ec974332f3d79650bb6f2146f91bebeda3ed0e1c649ed75a",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_matches_golden_digests(name):
    assert digests(run(_case(name))) == GOLDEN[name]


OUTPUT_GOLDEN = {
    "drifting_chain": {
        "trace.csv": "f731647a99d4c65b8dbeef4afc0e851deae22fe88db6c17bc06aed60920a5df8",
        "summary.json": "b4d3237b45a61067a143633e0256f383ad76e48cc16b8f0f34d5d2306a4ebe47",
    },
    "random_geometric": {
        "trace.csv": "a0b23d39488365501e257393181d293c62b2eaa4f697b8aeb1fb06859a51c70e",
        "summary.json": "a8b6da32a210834f1569469e82ff2048b89934b53dfc59656869cc7affbd836a",
    },
    "startup_chain": {
        "trace.csv": "2bf9c1c09a433858b8aaaf0c9849f3205e8d2182d19398e02377b2dd86f981c0",
        "summary.json": "4a0890059377540beace3679bbf273c2dfbce0cefa3ae1df2f000ae70cc1e254",
    },
    "two_node": {
        "trace.csv": "25077d9f94c58362b8f365d00f6122d221fc30d961ace62a9ccf6f4f654e25c7",
        "summary.json": "727ba1bd137dbbc8d5fa6abf59ca9db27763b10485c7cd71e40edc3a6eb00732",
    },
    "wait_chain": {
        "trace.csv": "0943cb4fa1e6097631909355d1c185a80d07474e65758dfa50eb239a69d3f5cd",
        "summary.json": "ac0bb0f5680314b181b703aaebb26d4666fdef4d9f10b00a397e0fae7361d131",
    },
}


@pytest.mark.parametrize("name", sorted(OUTPUT_GOLDEN))
def test_run_outputs_match_golden_digests(name, tmp_path):
    assert main(["run", "--preset", name, "--out", str(tmp_path)]) == 0
    assert {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in OUTPUT_GOLDEN[name]
    } == OUTPUT_GOLDEN[name]
