"""Tests for the content-addressed shared result store."""

import json
import os

import pytest

from repro.core.metrics import get_metrics, reset_metrics
from repro.runtime.store import (
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    cell_store_key,
    result_digest,
)
from repro.uarch.config import table1_config


RESULT = {"ipc": 1.25, "workload": "li", "config": "lvp"}
#: A workload's content digests, input -> sha256 hex.
CONTENT = {"ref": "a" * 64, "train": "b" * 64}


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_metrics()
    yield
    reset_metrics()


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_cell_store_key_is_stable_across_machine_encodings():
    machine = table1_config()
    from dataclasses import asdict

    key_obj = cell_store_key("li/lvp/selective", machine, 1500, 0.5, 1.0, CONTENT)
    key_dict = cell_store_key("li/lvp/selective", asdict(machine), 1500, 0.5, 1.0, CONTENT)
    assert key_obj == key_dict
    assert len(key_obj) == 64  # sha256 hex


def test_cell_store_key_varies_with_every_identity_field():
    machine = table1_config()
    base = cell_store_key("li/lvp/selective", machine, 1500, 0.5, 1.0, CONTENT)
    assert cell_store_key("go/lvp/selective", machine, 1500, 0.5, 1.0, CONTENT) != base
    assert cell_store_key("li/lvp/selective", machine, 2000, 0.5, 1.0, CONTENT) != base
    assert cell_store_key("li/lvp/selective", machine, 1500, 0.6, 1.0, CONTENT) != base
    assert cell_store_key("li/lvp/selective", machine, 1500, 0.5, 2.0, CONTENT) != base
    changed = {**CONTENT, "train": "c" * 64}
    assert cell_store_key("li/lvp/selective", machine, 1500, 0.5, 1.0, changed) != base


def test_result_digest_is_order_insensitive():
    assert result_digest({"a": 1, "b": 2}) == result_digest({"b": 2, "a": 1})
    assert result_digest({"a": 1}) != result_digest({"a": 2})


# ----------------------------------------------------------------------
# Round trip and sharding
# ----------------------------------------------------------------------
def test_put_get_roundtrip(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    key = cell_store_key("li/lvp/selective", table1_config(), 1500, 0.5, 1.0, CONTENT)
    path = store.put(key, RESULT, cell_id="li/lvp/selective")
    assert os.path.exists(path)
    assert key in store
    assert store.get(key) == RESULT
    entry = json.loads(open(path).read())
    assert entry["schema"] == STORE_SCHEMA
    assert entry["cell"] == "li/lvp/selective"
    assert entry["digest"] == result_digest(RESULT)


def test_store_layout_is_two_level_sharded(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    key = "ab" + "0" * 62
    assert store.path_for(key) == os.path.join(store.root, "ab", f"{key}.json")
    store.put(key, RESULT)
    assert store.keys() == [key]
    assert len(store) == 1


def test_get_miss_counts_metric(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.get("ff" + "0" * 62) is None
    assert get_metrics().get("store.misses") == 1


# ----------------------------------------------------------------------
# Corruption: every defect is a miss, and the bad entry is discarded
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "corruptor",
    [
        lambda entry: "{ not json",
        lambda entry: json.dumps({**entry, "digest": "0" * 64}),
        lambda entry: json.dumps({**entry, "schema": "other/9"}),
        lambda entry: json.dumps({**entry, "key": "f" * 64}),
        lambda entry: json.dumps({**entry, "result": None}),
    ],
    ids=["bad-json", "digest-mismatch", "wrong-schema", "wrong-key", "no-result"],
)
def test_corrupt_entry_is_miss_and_unlinked(tmp_path, corruptor):
    store = ResultStore(str(tmp_path / "store"))
    key = cell_store_key("li/lvp/selective", table1_config(), 1500, 0.5, 1.0, CONTENT)
    path = store.put(key, RESULT)
    entry = json.loads(open(path).read())
    with open(path, "w") as handle:
        handle.write(corruptor(entry))

    assert store.get(key) is None
    assert get_metrics().get("store.corrupt") == 1
    assert not os.path.exists(path)  # slot repaired for the next writer
    # A fresh put heals the slot.
    store.put(key, RESULT)
    assert store.get(key) == RESULT


def test_last_writer_wins(tmp_path):
    store_a = ResultStore(str(tmp_path / "store"))
    store_b = ResultStore(str(tmp_path / "store"))
    key = "cd" + "0" * 62
    store_a.put(key, {"ipc": 1.0})
    store_b.put(key, {"ipc": 2.0})
    assert store_a.get(key) == {"ipc": 2.0}


def test_store_root_must_be_a_directory(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises((StoreError, OSError)):
        ResultStore(str(blocker))
