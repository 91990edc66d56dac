"""E4 / §2: serialization dominates sparse-model serving.

Paper: "As much as 70% of the processing time for these model-serving
applications is spent deserializing and loading the sparse personalized
models into main memory at request time." and §3.1: the invariant-
pointer object encoding "alleviat[es] 100% of the loading overhead...
leaving only data transfer costs, which are fundamental."

Two measurements:

* **real CPU time** — the best of five ``time.perf_counter`` samples of
  the actual marshalling walk (TLV decode of a sparse partition)
  against the byte-level object image path (a flat image parse);
* **simulated serving pipeline** — the share of RPC-path serving time
  spent in deserialize+load, and its elimination on the object path.
"""

import random
import time

import pytest

from repro.core import CostModel
from repro.net import Network
from repro.rpc import decode, encode, encoded_size
from repro.sim import Simulator
from repro.workloads import ModelPartition
from repro.workloads.inference import serving_compute_us

from conftest import print_table

ENTRIES = 20_000


@pytest.fixture(scope="module")
def partition():
    return ModelPartition.generate(random.Random(7), 0, ENTRIES)


@pytest.fixture(scope="module")
def wire(partition):
    return encode(partition.to_value())


@pytest.fixture(scope="module")
def image(partition):
    return partition.pack()


@pytest.fixture(scope="module")
def link():
    """The path across one default link, as the network answers it."""
    net = Network(Simulator())
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b")
    return net.path("a", "b")


class TestRealMarshallingCost:
    """Each path once: the walk and the image reproduce what they carry."""

    def test_rpc_serialize(self, partition, wire):
        assert encoded_size(partition.to_value()) == len(wire)

    def test_rpc_deserialize(self, partition, wire):
        assert ModelPartition.from_value(decode(wire)) == partition

    def test_object_image_copy_out(self, partition, image):
        assert partition.pack() == image

    def test_object_image_copy_in(self, partition, image):
        """The receiver-side 'byte-level copy': in the real system this
        is a memcpy; :class:`TestRealCostAsymmetry` times the image parse
        that stands in for it against the TLV walk."""
        assert len(bytes(image)) == partition.packed_size


class TestSimulatedServingPipeline:
    def test_processing_share_table(self):
        model = CostModel()
        rows = []
        for nbytes in (100_000, 1_000_000, 10_000_000, 100_000_000):
            deserialize = model.deserialize_time_us(nbytes)
            compute = serving_compute_us(nbytes, model)
            share = deserialize / (deserialize + compute)
            copy = model.byte_copy_time_us(nbytes)
            rows.append([nbytes, deserialize, compute, 100 * share, copy])
        print_table(
            "RPC model-serving: deserialize+load share of processing time",
            ["model_bytes", "deser_us", "other_us", "deser_share_%",
             "objcopy_us"],
            rows,
        )
        for row in rows:
            assert row[3] == pytest.approx(70.0, abs=2.0)

    def test_object_path_eliminates_loading(self, link):
        model = CostModel()
        nbytes = 10_000_000
        rpc = model.rpc_transfer(nbytes, link)
        obj = model.object_transfer(nbytes, link)
        # Same fundamental transfer cost...
        assert obj.transfer_us == rpc.transfer_us
        # ...but the marshalling walk is gone (>95% of it).
        rpc_walk = rpc.serialize_us + rpc.deserialize_us
        obj_walk = obj.serialize_us + obj.deserialize_us
        assert obj_walk < 0.05 * rpc_walk

    def test_transfer_costs_remain_fundamental(self, link):
        obj = CostModel().object_transfer(10_000_000, link)
        assert obj.transfer_us > 0.85 * obj.total_us


class TestRealCostAsymmetry:
    def test_image_roundtrip_beats_tlv_roundtrip(self, wire, image):
        """End-to-end real-time comparison of the two encodings: the best
        of five samples each, so one descheduled sample cannot decide it."""

        def best_of_5(fn, arg):
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                fn(arg)
                samples.append(time.perf_counter() - start)
            return min(samples)

        tlv_s = best_of_5(lambda w: ModelPartition.from_value(decode(w)), wire)
        image_s = best_of_5(ModelPartition.unpack, image)
        assert image_s < tlv_s
