"""Persistent worker pool: lifecycle, determinism, teardown, chaos.

Workers start once and live across epoch seals, batches travel through
a shared slab ring (zero-copy numpy views on the worker side), each
slab is dealt to one worker's shard, and the only merge is the
per-epoch seal — yet the sealed state must stay **byte-identical** to
a serial sketch that ingested the whole stream, whatever the worker
count and wherever the batch edges fall.  On worker death the
:class:`PoolBackend` wrapper must fail over to serial direct-feed
without losing the epoch, and no process may outlive ``close()``.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import FCMSketch
from repro.engine import PersistentShardPool, PoolBackend
from repro.errors import SketchCompatibilityError, WorkerPoolError
from repro.sketches import CUSketch
from repro.telemetry import MetricsRegistry
from repro.traffic import zipf_trace

SRC = str(pathlib.Path(__file__).parent.parent / "src")

MEMORY = 16 * 1024


def fcm_factory():
    return FCMSketch.with_memory(MEMORY, seed=3)


def serial_state(keys):
    sketch = fcm_factory()
    sketch.ingest(keys)
    return sketch.to_state()


@pytest.fixture(scope="module")
def keys():
    return zipf_trace(40_000, alpha=1.2, seed=9).keys


def publish_in_batches(pool, keys, batch):
    for start in range(0, keys.shape[0], batch):
        pool.publish(keys[start:start + batch])


def run_script(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=env)


# ----------------------------------------------------------------------
# determinism: dealing slabs splits the stream at batch edges, so the
# seal must equal serial ingest at every worker count and batch size
# ----------------------------------------------------------------------

class TestPoolDeterminism:
    @pytest.mark.parametrize("batch", [1024, 4096, 65536])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_seal_matches_serial(self, keys, workers, batch):
        with PersistentShardPool(fcm_factory, num_shards=workers) as pool:
            publish_in_batches(pool, keys, batch)
            assert pool.seal().to_state() == serial_state(keys)

    def test_four_workers_match_serial_on_1m_trace(self):
        trace_keys = zipf_trace(1_000_000, alpha=1.2, seed=1).keys
        with PersistentShardPool(fcm_factory, num_shards=4) as pool:
            publish_in_batches(pool, trace_keys, 65536)
            assert pool.seal().to_state() == serial_state(trace_keys)
            assert pool.published_packets == 1_000_000

    def test_stats_and_telemetry(self, keys):
        registry = MetricsRegistry()
        with PersistentShardPool(fcm_factory, num_shards=2,
                                 telemetry=registry) as pool:
            publish_in_batches(pool, keys, 8192)
            pool.seal()
            assert pool.published_batches == -(-keys.shape[0] // 8192)
            assert pool.describe()["seals"] == 1
        assert registry.gauge("pool.published_packets").value \
            == keys.shape[0]
        assert registry.counter("pool.seals").value == 1
        # close() reports the workers as gone, and is idempotent.
        assert registry.gauge("pool.workers").value == 0.0
        pool.close()
        assert pool.worker_pids() == []


# ----------------------------------------------------------------------
# lifecycle: persistent workers across epoch seals
# ----------------------------------------------------------------------

class TestPoolLifecycle:
    def test_three_epoch_rotations_byte_identical_same_workers(self, keys):
        """One pool, three sealed epochs: every seal byte-identical to
        serial, with the *same* worker processes throughout (the whole
        point of persistence — no per-epoch spawn)."""
        epochs = np.array_split(keys, 3)
        with PersistentShardPool(fcm_factory, num_shards=2) as pool:
            pids = None
            for index, epoch_keys in enumerate(epochs):
                for start in range(0, epoch_keys.shape[0], 4096):
                    pool.publish(epoch_keys[start:start + 4096])
                if pids is None:
                    pids = pool.worker_pids()
                    assert len(pids) == 2
                merged = pool.seal(epoch=index)
                assert merged.to_state() == serial_state(epoch_keys)
                assert pool.worker_pids() == pids
            assert pool.seals == 3

    def test_seal_resets_shard_state_between_epochs(self, keys):
        with PersistentShardPool(fcm_factory, num_shards=2) as pool:
            pool.publish(keys)
            first = pool.seal(epoch=0)
            pool.publish(keys)
            second = pool.seal(epoch=1)
        # Equal states, not accumulated ones: epoch 1 saw only its own
        # packets.
        assert first.to_state() == second.to_state()

    def test_seal_before_any_publish_returns_fresh_sketch(self):
        pool = PersistentShardPool(fcm_factory, num_shards=2)
        try:
            assert pool.publish(np.array([], dtype=np.uint64)) == 0
            assert pool.seal().to_state() == fcm_factory().to_state()
            assert not pool.started
        finally:
            pool.close()

    def test_slab_ring_wraps_and_reuses(self, keys):
        """More batches than slabs forces ring reuse under the
        ack-gate; determinism must survive the wrap."""
        with PersistentShardPool(fcm_factory, num_shards=2,
                                 slab_packets=2048,
                                 num_slabs=2) as pool:
            pool.publish(keys)  # 40k keys -> 20 slab-sized chunks
            assert pool.published_batches > pool.num_slabs
            merged = pool.seal()
            assert merged.to_state() == serial_state(keys)

    def test_snapshot_is_consistent_mid_epoch(self, keys):
        half = keys.shape[0] // 2
        with PersistentShardPool(fcm_factory, num_shards=2) as pool:
            pool.publish(keys[:half])
            snap = pool.snapshot()
            assert snap.to_state() == serial_state(keys[:half])
            # The snapshot barrier must not reset shard state.
            pool.publish(keys[half:])
            assert pool.seal().to_state() == serial_state(keys)


# ----------------------------------------------------------------------
# teardown: nothing outlives close()
# ----------------------------------------------------------------------

class TestPoolTeardown:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_no_process_outlives_close(self):
        """After closing the ingest pool, a pool-backed EpochManager and
        a two-worker EM estimator, the interpreter has no child process
        left: not a worker, not a resource tracker."""
        script = (
            "import os\n"
            "import numpy as np\n"
            "from repro.core import FCMSketch\n"
            "from repro.core.em import EMConfig, EMEstimator\n"
            "from repro.core.virtual import convert_sketch\n"
            "from repro.engine import PersistentShardPool\n"
            "from repro.runtime import EpochConfig, EpochManager\n"
            "def factory():\n"
            "    return FCMSketch.with_memory(16 * 1024, seed=3)\n"
            "keys = np.arange(60000, dtype=np.uint64) % 997\n"
            "pool = PersistentShardPool(factory, num_shards=2)\n"
            "pool.publish(keys)\n"
            "sketch = pool.seal()\n"
            "pool.close()\n"
            "manager = EpochManager(factory, backend='pool:2',\n"
            "    config=EpochConfig(epoch_packets=20000))\n"
            "for start in range(0, keys.size, 16384):\n"
            "    manager.feed(keys[start:start + 16384])\n"
            "manager.close()\n"
            "estimator = EMEstimator(convert_sketch(sketch),\n"
            "                        EMConfig(workers=2))\n"
            "estimator.run(iterations=2)\n"
            "estimator.close()\n"
            "me = str(os.getpid())\n"
            "children = []\n"
            "for pid in filter(str.isdigit, os.listdir('/proc')):\n"
            "    try:\n"
            "        stat = open(f'/proc/{pid}/stat').read()\n"
            "        cmdline = open(f'/proc/{pid}/cmdline').read()\n"
            "    except OSError:\n"
            "        continue\n"
            "    if stat.rsplit(')', 1)[1].split()[1] == me:\n"
            "        children.append(cmdline.replace('\\0', ' '))\n"
            "print('children:', children)\n"
        )
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr
        assert "children: []" in proc.stdout, proc.stdout

    def test_publish_after_close_raises(self, keys):
        pool = PersistentShardPool(fcm_factory, num_shards=2)
        pool.close()
        with pytest.raises(WorkerPoolError):
            pool.publish(keys[:64])

    def test_no_resource_tracker_noise_at_interpreter_exit(self):
        """A full publish/seal/close cycle in a pristine interpreter
        must leave no resource_tracker complaints on stderr (leaked or
        double-unregistered segments both warn loudly there)."""
        script = (
            "import numpy as np\n"
            "from repro.core import FCMSketch\n"
            "from repro.engine import PersistentShardPool\n"
            "def factory():\n"
            "    return FCMSketch.with_memory(16 * 1024, seed=3)\n"
            "pool = PersistentShardPool(factory, num_shards=2)\n"
            "pool.publish(np.arange(20000, dtype=np.uint64) % 997)\n"
            "pool.seal()\n"
            "pool.close()\n"
            "print('OK')\n"
        )
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# protocol enforcement
# ----------------------------------------------------------------------

class TestPoolValidation:
    def test_unmergeable_factory_rejected_up_front(self):
        with pytest.raises(SketchCompatibilityError):
            PersistentShardPool(lambda: CUSketch(MEMORY, seed=3))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            PersistentShardPool(fcm_factory, num_shards=0)
        with pytest.raises(ValueError):
            PersistentShardPool(fcm_factory, slab_packets=0)
        with pytest.raises(ValueError):
            PersistentShardPool(fcm_factory, num_slabs=0)


# ----------------------------------------------------------------------
# chaos: worker death mid-epoch
# ----------------------------------------------------------------------

@pytest.mark.chaos
class TestPoolChaos:
    def test_worker_kill_fails_over_without_losing_the_epoch(self, keys):
        """SIGKILL one worker mid-epoch: the PoolBackend must detect
        the death, replay the retained batches into a serial inline
        backend, and seal an epoch byte-identical to serial ingest."""
        backend = PoolBackend(fcm_factory, num_shards=2)
        try:
            first, second = np.array_split(keys, 2)
            for start in range(0, first.shape[0], 4096):
                backend.ingest_batch(first[start:start + 4096])
            victim = backend.pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            for start in range(0, second.shape[0], 4096):
                backend.ingest_batch(second[start:start + 4096])
            blob = backend.seal(0)
            assert blob == serial_state(keys)
            assert backend.failed_over is True
            info = backend.describe()
            assert info["failed_over"] is True
            assert "failover_reason" in info
        finally:
            backend.close()

    def test_failed_over_backend_keeps_sealing_serially(self, keys):
        backend = PoolBackend(fcm_factory, num_shards=2)
        try:
            backend.ingest_batch(keys[:4096])
            os.kill(backend.pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.2)
            backend.ingest_batch(keys[4096:8192])
            assert backend.seal(0) == serial_state(keys[:8192])
            # The next epoch stays on the serial path and stays exact.
            backend.ingest_batch(keys[8192:12288])
            assert backend.seal(1) == serial_state(keys[8192:12288])
        finally:
            backend.close()
