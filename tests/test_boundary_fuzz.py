"""Fuzzed run inputs: a cluster file with one spoiled node, or a config file
(flat or JSON) with one spoiled key or one value out of its key's range, is
a ConfigError.  A cluster error starts with `cluster file <path>: ` and,
once the node's id is checked, names the node; a config error names the
key, and a swept value's error its value too.  `epcsched run` on either
exits 2 and leaves no output directory and no staging directory behind."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epcsched.cli import main
from epcsched.engine import ConfigError
from epcsched.experiment import _FIELDS, load_cluster, load_config
from epcsched.report import STAGING_SUFFIX

TRACE = ("job_id,submit_s,duration_s,assigned_mem_frac,max_mem_frac\n"
         "j1,0,30,0.2,0.15\nj2,2,40,0.1,0.1\n")
PAGE = 4096
SIZE_KEYS = ("std_capacity", "epc_total", "epc_usable")
NODE_KEYS = ("node_id", *SIZE_KEYS)

# Values that are no size at all; a list of sizes is one to a sweep.
_NOT_SIZE_ITEMS = (st.sampled_from(["lots", "12XB", "", "MiB", "1e3", "-5MiB",
                                    "8 GiB extra", -1, float("inf"),
                                    float("nan")])
                   | st.none() | st.booleans()
                   | st.dictionaries(st.sampled_from(["GiB", "MiB"]),
                                     st.integers(0, 9), max_size=1))
NOT_SIZES = _NOT_SIZE_ITEMS | st.lists(st.integers(0, 9), max_size=2)
_IDS = st.text(alphabet="ab-1 '", min_size=1, max_size=4)
_UNKNOWN = st.from_regex(r"[a-zA-Z_]{1,12}", fullmatch=True)


class _Raw(str):
    """A node given as its JSON text."""


def _render(objects: list) -> str:
    """JSON text of a list of objects given as lists of (key, value) pairs,
    so that a key may repeat, or as `_Raw` text."""
    items = [obj if isinstance(obj, _Raw) else
             "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                             for k, v in obj) + "}"
             for obj in objects]
    return "[" + ", ".join(items) + "]"


@st.composite
def _node(draw, node_id: str) -> list:
    pairs = [("node_id", node_id),
             ("std_capacity", draw(st.sampled_from([8 << 30, "64GiB", "8GiB",
                                                    "1.5GiB"])))]
    if draw(st.booleans()):
        usable_pages = draw(st.integers(1, 32_768))
        total = usable_pages * PAGE + draw(st.integers(0, 10 * PAGE))
        pairs += [("epc_total", draw(st.sampled_from([total, f"{total}B"]))),
                  ("epc_usable", usable_pages * PAGE)]
    return pairs


@st.composite
def _spoiled_cluster(draw):
    """(nodes, spoil, the node id the error names or None, a text the
    error holds or None) for a cluster with one spoiled node."""
    ids = draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    nodes = [draw(_node(node_id)) for node_id in ids]
    i = draw(st.integers(0, len(nodes) - 1))
    node = nodes[i]
    spoil = draw(st.sampled_from([
        "not_a_size", "zero_size", "off_page", "usable_above_total",
        "unknown_key", "bad_id", "duplicate_id", "missing_id",
        "missing_capacity", "not_an_object", "repeated_key"]))
    named, key = ids[i], None
    if spoil == "not_a_size":
        key = draw(st.sampled_from(SIZE_KEYS))
        node[:] = [(k, v) for k, v in node if k != key]
        node.append((key, draw(NOT_SIZES)))
    elif spoil == "zero_size":
        key = draw(st.sampled_from(SIZE_KEYS))
        node[:] = [(k, v) for k, v in node if k != key] + [(key, 0)]
        key = key if key == "std_capacity" else None
    elif spoil == "off_page":
        pages = draw(st.integers(0, 1_000))
        node[:] = [(k, v) for k, v in node if not k.startswith("epc_")]
        node += [("epc_total", 4096 * PAGE),
                 ("epc_usable", pages * PAGE + draw(st.integers(1, PAGE - 1)))]
    elif spoil == "usable_above_total":
        node[:] = [(k, v) for k, v in node if not k.startswith("epc_")]
        node += [("epc_total", "1MiB"), ("epc_usable", "2MiB")]
    elif spoil == "unknown_key":
        key = draw(_UNKNOWN.filter(lambda k: k not in NODE_KEYS))
        node.insert(draw(st.integers(0, len(node))), (key, "128MiB"))
    elif spoil == "bad_id":
        node[0] = ("node_id", draw(st.sampled_from(
            [None, "", 7, 0.5, True, ["a"], {"id": "a"}])))
        named, key = None, "node_id"
    elif spoil == "duplicate_id":
        twin = draw(_node(ids[i]))
        nodes.insert(i + 1, twin)
        named, key = None, "duplicate node_id"
    elif spoil == "missing_id":
        del node[0]
        named, key = None, "node_id"
    elif spoil == "missing_capacity":
        del node[1]
        key = "std_capacity"
    elif spoil == "not_an_object":
        nodes[i] = _Raw(json.dumps(draw(st.sampled_from(
            [[], ["node_id", "a"], "sgx-1", 7, None]))))
        named = None
    else:  # repeated_key
        key, value = draw(st.sampled_from(node))
        node.insert(draw(st.integers(0, len(node))), (key, value))
        named = None
    return nodes, spoil, named, key


def _good_config() -> dict:
    return {"trace": "TRACE", "output_dir": "OUT", "policy": "spread",
            "sgx_fraction": 0.5, "std_multiplier": "32GiB",
            "sgx_multiplier": "93.5MiB", "epc_usable_sweep": ["32MiB", "64MiB"],
            "sgx_fraction_sweep": [0.0, 0.5], "rng_seed": 7,
            "scheduler_period_ms": 5000, "window_ms": 25000,
            "enforce_limits": True, "malicious_n": "auto"}


# Config keys by the coercer that reads them: a value of the wrong type, in
# the flat format (text) and in JSON.
_BAD_TEXT = {
    "int": st.sampled_from(["2.5", "x", "true", "1e400", "0x10"]),
    "float": st.sampled_from(["x", "true", "1.5.2", "--1"]),
    "bool": st.sampled_from(["maybe", "2", "nope", "t"]),
    "size": st.sampled_from(["lots", "12XB", "MiB", "-5MiB", "1e3"]),
}
_BAD_JSON = {
    "int": st.sampled_from([2.5, True, None, "x", [1, 2], {"a": 1}]),
    "float": st.sampled_from([True, None, "x", {"a": 1}]),
    "bool": st.sampled_from([None, 2, "maybe", 0.5, ["true"]]),
    "size": _NOT_SIZE_ITEMS,
    "str": st.sampled_from([None, 7, True, ["t.csv"], {"a": "b"}]),
}
_KINDS = {
    "sampling_stride": "int", "rng_seed": "int", "malicious_n": "int",
    "malicious_declared_pages": "int", "scheduler_period_ms": "int",
    "probe_period_ms": "int", "window_ms": "int", "workers": "int",
    "slice_start_s": "float", "slice_end_s": "float", "sgx_fraction": "float",
    "malicious_use_fraction": "float", "sgx_fraction_sweep": "float",
    "enforce_limits": "bool", "include_startup_delays": "bool",
    "apply_usable_fraction": "bool", "check_invariants": "bool",
    "std_multiplier": "size", "sgx_multiplier": "size",
    "epc_usable_sweep": "size", "trace": "str", "trace_format": "str",
    "cluster": "str", "policy": "str", "output_dir": "str",
}


def _flat_value(value) -> str:
    if isinstance(value, list):
        return ", ".join(_flat_value(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def _render_config(pairs: list, flat: bool) -> str:
    if flat:
        return "".join(f"{k} = {_flat_value(v)}\n" for k, v in pairs)
    return ("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in pairs) + "}")


@st.composite
def _spoiled_config(draw):
    """(pairs, flat?, the key the error names, the lines it names)."""
    flat = draw(st.booleans())
    pairs = list(_good_config().items())
    spoil = draw(st.sampled_from(["wrong_type", "unknown_key", "repeated_key",
                                  "missing_trace"]))
    lines = ()
    if spoil == "wrong_type":
        key = draw(st.sampled_from(sorted(_KINDS)))
        kind = _KINDS[key]
        if flat and kind == "str":  # flat text is always a string
            key = draw(st.sampled_from(["policy", "trace_format"]))
            value = draw(st.sampled_from(["firstfit", "excel", "x"]))
        else:
            value = draw((_BAD_TEXT if flat else _BAD_JSON)[kind])
        pairs = [(k, v) for k, v in pairs if k != key]
        pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
    elif spoil == "unknown_key":
        key = draw(_UNKNOWN.filter(lambda k: k not in _FIELDS))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, "1"))
    elif spoil == "repeated_key":
        first = draw(st.integers(0, len(pairs) - 1))
        key, value = pairs[first]
        second = draw(st.integers(first + 1, len(pairs)))
        pairs.insert(second, (key, value))
        lines = (first + 1, second + 1)
    else:
        pairs = [(k, v) for k, v in pairs if k != "trace"]
        key = "trace"
    return pairs, flat, key, lines


def _run_writes_nothing(root: Path, config: Path) -> None:
    assert main(["run", "--config", str(config)]) == 2
    assert not (root / "out").exists()
    assert not list(root.rglob("*" + STAGING_SUFFIX))


@settings(max_examples=150, deadline=None)
@given(_spoiled_cluster())
def test_spoiled_cluster_node_is_a_config_error_naming_file_and_node(case):
    nodes, spoil, named, key = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cluster = root / "cluster.json"
        cluster.write_text(_render(nodes), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_cluster(cluster)
        message = str(info.value)
        prefix = f"cluster file {cluster}: "
        assert message.startswith(prefix), (spoil, message)
        if named is not None:
            assert message.startswith(f"{prefix}node {named!r}: "), (
                spoil, message)
        else:
            assert not message.startswith(f"{prefix}node "), (spoil, message)
        if key is not None:
            assert key in message, (spoil, message)
        (root / "trace.csv").write_text(TRACE)
        config = root / "experiment.cfg"
        config.write_text(f"trace = {root / 'trace.csv'}\n"
                          f"cluster = {cluster}\noutput_dir = {root / 'out'}\n")
        _run_writes_nothing(root, config)


@settings(max_examples=150, deadline=None)
@given(_spoiled_config())
def test_spoiled_config_key_is_a_config_error_naming_the_key(case):
    pairs, flat, key, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "trace.csv").write_text(TRACE)
        paths = {"TRACE": str(root / "trace.csv"), "OUT": str(root / "out")}
        pairs = [(k, paths.get(v, v) if isinstance(v, str) else v)
                 for k, v in pairs]
        config = root / ("experiment.cfg" if flat else "experiment.json")
        config.write_text(_render_config(pairs, flat), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(config)
        message = str(info.value)
        assert re.search(rf"\b{re.escape(key)}\b", message), message
        if flat:
            for line in lines:
                assert f"line {line}" in message, message
        _run_writes_nothing(root, config)


def test_every_config_key_has_a_kind():
    assert _KINDS.keys() == _FIELDS.keys()


@pytest.mark.parametrize("flat", [True, False])
def test_the_good_config_and_cluster_load(tmp_path, flat):
    pairs = list(_good_config().items())
    config = tmp_path / "experiment.cfg"
    config.write_text(_render_config(pairs, flat), encoding="utf-8")
    assert load_config(config).policy == "spread"
    cluster = tmp_path / "cluster.json"
    cluster.write_text(_render([[("node_id", "a"), ("std_capacity", "8GiB"),
                                 ("epc_total", "128MiB"),
                                 ("epc_usable", "93.5MiB")]]))
    (spec,) = load_cluster(cluster)
    assert spec.epc.usable_pages == 23_936


@pytest.mark.parametrize("key", SIZE_KEYS)
@pytest.mark.parametrize("value", ["lots", None, "12XB"])
def test_bad_size_names_file_node_and_key(tmp_path, key, value):
    cluster = tmp_path / "cluster.json"
    node = {"node_id": "enc", "std_capacity": "8GiB", "epc_total": "128MiB",
            "epc_usable": "93.5MiB", key: value}
    cluster.write_text(json.dumps([{"node_id": "a", "std_capacity": "8GiB"},
                                   node]))
    with pytest.raises(ConfigError,
                       match=f"^cluster file {re.escape(str(cluster))}: "
                             f"node 'enc': {key}: "):
        load_cluster(cluster)


# One value out of range for each numeric config key, with the keys it needs
# beside it; a swept size is tried as an off-page, a zero and a scaled-to-zero
# size.
_OUT_OF_RANGE = [
    ("sampling_stride", 0, {}), ("rng_seed", -1, {}),
    ("malicious_n", -1, {}), ("malicious_declared_pages", 0, {}),
    ("malicious_use_fraction", 1.5, {}), ("scheduler_period_ms", 0, {}),
    ("probe_period_ms", 0, {}), ("window_ms", 0, {}), ("workers", 0, {}),
    ("slice_start_s", -1.0, {}), ("slice_end_s", 0.0, {}),
    ("sgx_fraction", 1.5, {}), ("sgx_fraction_sweep", [0.5, 1.5], {}),
    ("std_multiplier", 0, {}), ("sgx_multiplier", 0, {}),
    ("epc_usable_sweep", [4097], {}), ("epc_usable_sweep", [0], {}),
    ("epc_usable_sweep", [4096], {"apply_usable_fraction": True}),
]


def test_every_numeric_config_key_has_an_out_of_range_value():
    assert {key for key, _, _ in _OUT_OF_RANGE} == {
        key for key, kind in _KINDS.items() if kind in ("int", "float", "size")}


@pytest.mark.parametrize("flat", [True, False])
@pytest.mark.parametrize("key, value, beside", _OUT_OF_RANGE)
def test_out_of_range_value_is_a_config_error_naming_the_key(
        tmp_path, flat, key, value, beside):
    (tmp_path / "trace.csv").write_text(TRACE)
    paths = {"TRACE": str(tmp_path / "trace.csv"), "OUT": str(tmp_path / "out")}
    pairs = [(k, paths.get(v, v) if isinstance(v, str) else v)
             for k, v in {**_good_config(), **beside, key: value}.items()]
    config = tmp_path / ("experiment.cfg" if flat else "experiment.json")
    config.write_text(_render_config(pairs, flat), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(config)
    message = str(info.value)
    assert re.search(rf"\b{key}\b", message), message
    if key.endswith("_sweep"):
        assert message.startswith(f"{key} {value[-1]}: "), message
    _run_writes_nothing(tmp_path, config)
