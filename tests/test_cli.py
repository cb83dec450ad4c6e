import ast
import dataclasses
import json
import math
import tempfile
import typing
from pathlib import Path

import pytest
from conftest import TINY_GRID_N
from hypothesis import given, settings
from hypothesis import strategies as st

import wasnloc
from wasnloc.cli import ConfigError, dataset_config_from_obj, main, train_configs_from_obj
from wasnloc.dataset import DatasetConfig, _config_to_json, generate_dataset, load_manifest
from wasnloc.relnet import RelNetConfig
from wasnloc.training import TrainConfig
from wasnloc.typedjson import build


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_defaults_from_empty_object(self):
        config = dataset_config_from_obj({})
        assert config.train == 15_000 and config.val == 5_000 and config.test == 10_000
        assert config.train_mic_counts == (5, 7)
        assert config.test_mic_counts == (4, 5, 6, 7)
        assert config.snr_db == 30.0

    def test_unknown_key_reports_pointer(self):
        with pytest.raises(ConfigError, match="/tarin"):
            dataset_config_from_obj({"tarin": 10})

    def test_nested_unknown_key_pointer(self):
        with pytest.raises(ConfigError, match="/scene/t66_range"):
            dataset_config_from_obj({"scene": {"t66_range": [0.3, 0.6]}})

    def test_bad_range_reports_scene_pointer(self):
        with pytest.raises(ConfigError, match="/scene"):
            dataset_config_from_obj({"scene": {"t60_range": [0.6, 0.3]}})

    @pytest.mark.parametrize(
        "obj", [{"grid_n": -3}, {"grid_n": 0}, {"max_order": -1}, {"duration_s": -1}, {"train": -2}, {"workers": 0}]
    )
    def test_out_of_range_dataset_value_reported_at_root(self, obj):
        (field,) = obj
        with pytest.raises(ConfigError, match=f"^/: DatasetConfig.{field} must be "):
            dataset_config_from_obj(obj)

    def test_sample_rate_is_unknown_key(self):
        # every method works at the fixed DEFAULT_FS, so a dataset names no rate
        with pytest.raises(ConfigError, match="^/fs: unknown key"):
            dataset_config_from_obj({"fs": 16000})

    def test_empty_val_split_is_legal(self):
        assert dataset_config_from_obj({"train": 1, "val": 0, "test": 2}) == DatasetConfig(train=1, val=0, test=2)

    def test_out_of_range_network_grid_reported_at_root(self):
        with pytest.raises(ConfigError, match="^/: RelNetConfig.grid_n must be >= 2, got -3"):
            train_configs_from_obj({"grid_n": -3})

    def test_inf_snr_sentinel(self):
        assert dataset_config_from_obj({"snr_db": "inf"}).snr_db == float("inf")

    # json.loads reads these literals as non-finite floats
    def test_nan_snr_refused(self):
        # once gave all-NaN channels
        with pytest.raises(ConfigError, match="^/snr_db: expected a finite number, got nan"):
            dataset_config_from_obj(json.loads('{"snr_db": NaN}'))

    def test_negative_infinite_snr_refused(self):
        # once a bare ZeroDivisionError in add_noise
        with pytest.raises(ConfigError, match="^/snr_db: expected a finite number, got -inf"):
            dataset_config_from_obj(json.loads('{"snr_db": -Infinity}'))

    def test_infinite_duration_refused(self):
        # once a bare OverflowError when the sample count was rounded
        with pytest.raises(ConfigError, match="^/duration_s: expected a finite number, got inf"):
            dataset_config_from_obj(json.loads('{"duration_s": Infinity}'))

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_dataset_config_refuses_nan_and_negative_infinite_snr(self, snr_db):
        with pytest.raises(ValueError, match="^DatasetConfig.snr_db must be a number or inf"):
            DatasetConfig(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [4000, -4000, -3230])
    def test_snr_beyond_float_power_range_reported_at_root(self, snr_db):
        # once a bare OverflowError (4000) or ZeroDivisionError (-4000) in
        # add_noise; -3230 gives a subnormal ratio, and add_noise wrote inf
        with pytest.raises(ConfigError, match="^/: DatasetConfig.snr_db must give a power ratio within"):
            dataset_config_from_obj({"snr_db": snr_db})

    @pytest.mark.parametrize("snr_db", [3000, -3000])
    def test_extreme_snr_within_float_power_range_accepted(self, snr_db):
        assert dataset_config_from_obj({"snr_db": snr_db}).snr_db == snr_db

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan])
    def test_dataset_config_refuses_non_finite_duration(self, duration_s):
        # inf was once a bare OverflowError in generate_example
        with pytest.raises(ValueError, match="^DatasetConfig.duration_s must be "):
            DatasetConfig(duration_s=duration_s)

    @pytest.mark.parametrize("key", ["fft_size", "n_central"])
    @pytest.mark.parametrize("parse", [dataset_config_from_obj, train_configs_from_obj])
    def test_fixed_feature_size_is_unknown_key(self, parse, key):
        with pytest.raises(ConfigError, match=f"^/{key}: unknown key"):
            parse({key: 1024})

    @pytest.mark.parametrize(
        "config",
        # duration_s=2 goes out as the JSON integer 2, which a float field takes
        [DatasetConfig(), DatasetConfig(snr_db=math.inf, max_order=0, duration_s=2)],
        ids=["default", "anechoic"],
    )
    def test_manifest_config_parses_back(self, config):
        echoed = json.loads(json.dumps(_config_to_json(config)))
        assert dataset_config_from_obj(echoed) == config

    @settings(max_examples=25, deadline=None)
    @given(
        snr_db=st.floats(-100.0, 100.0) | st.just(math.inf),
        mic_counts=st.lists(st.lists(st.integers(2, 8), min_size=1, max_size=4).map(tuple), min_size=3, max_size=3),
        grid_n=st.integers(2, 40),
        max_order=st.none() | st.integers(0, 20),
        workers=st.integers(1, 4),
    )
    def test_written_manifest_config_reads_back(self, snr_db, mic_counts, grid_n, max_order, workers):
        train_m, val_m, test_m = mic_counts
        config = DatasetConfig(
            train=0, val=0, test=0, train_mic_counts=train_m, val_mic_counts=val_m, test_mic_counts=test_m,
            snr_db=snr_db, grid_n=grid_n, max_order=max_order, workers=workers,
        )
        with tempfile.TemporaryDirectory() as out:
            generate_dataset(config, out)
            manifest = load_manifest(out)
        assert dataset_config_from_obj(manifest["config"]) == dataclasses.replace(config, workers=1)

    def test_train_config_round_trip(self):
        net, trn = train_configs_from_obj(
            {
                "feature_kind": "gcc",
                "grid_n": 10,
                "lr": 1e-3,
                "batch_size": 16,
                "max_epochs": 7,
                "patience": 2,
                "seed": 5,
                "f_layer_sizes": [64, 100],
                "g_layer_sizes": [32, 100],
            }
        )
        assert net.feature_kind == "gcc"
        assert net.grid_n == 10
        assert net.f_layer_sizes == (64, 100)
        assert trn.lr == 1e-3 and trn.max_epochs == 7 and trn.seed == 5

    @pytest.mark.parametrize(
        "obj, pointer",
        [({"precompute_features": True}, "/precompute_features"), ({"scene": {"max_attempts": 200}}, "/scene/max_attempts")],
    )
    def test_removed_option_is_unknown_key(self, obj, pointer):
        with pytest.raises(ConfigError, match=f"^{pointer}: unknown key"):
            dataset_config_from_obj(obj)

    def test_train_config_bad_kind(self):
        with pytest.raises(ConfigError, match="/feature_kind"):
            train_configs_from_obj({"feature_kind": "mel"})

    @pytest.mark.parametrize(
        "parse, obj, pointer",
        [
            (train_configs_from_obj, {"grid_n": "x"}, "/grid_n"),
            (train_configs_from_obj, {"batch_size": 512.5}, "/batch_size"),
            (train_configs_from_obj, {"f_layer_sizes": 5}, "/f_layer_sizes"),
            (train_configs_from_obj, {"lr": "fast"}, "/lr"),
            (dataset_config_from_obj, {"train": "many"}, "/train"),
            (dataset_config_from_obj, {"scene": {"mic_counts": "57"}}, "/scene/mic_counts"),
            (dataset_config_from_obj, {"duration_s": "long"}, "/duration_s"),
            (dataset_config_from_obj, {"duration_s": 10**400}, "/duration_s"),
            (dataset_config_from_obj, {"scene": {"min_separation": "x"}}, "/scene/min_separation"),
            (dataset_config_from_obj, {"precompute_features": "no"}, "/precompute_features"),
            (dataset_config_from_obj, {"scene": {"t60_range": ["0.3", 0.6]}}, "/scene/t60_range/0"),
            (dataset_config_from_obj, {"max_order": "3"}, "/max_order"),
            (dataset_config_from_obj, {"max_order": 2.5}, "/max_order"),
            (dataset_config_from_obj, {"max_order": -1}, "/"),  # a DatasetConfig rule
            (dataset_config_from_obj, {"source": {"corpus_dir": 5}}, "/source/corpus_dir"),
        ],
        ids=[
            "grid_n",
            "batch_size",
            "f_layer_sizes",
            "lr",
            "train",
            "mic_counts",
            "duration_s",
            "duration_s_overflow",
            "min_separation",
            "precompute_features",
            "t60_range",
            "max_order_str",
            "max_order_fraction",
            "max_order_negative",
            "corpus_dir",
        ],
    )
    def test_ill_typed_value_reports_pointer(self, parse, obj, pointer):
        with pytest.raises(ConfigError, match=f"^{pointer}: "):
            parse(obj)


# Any JSON value, nested a little; json.loads also reads NaN and Infinity.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


def _well_typed(tp, value) -> bool:
    """Whether a JSON value has the type tp by the documented rules; a
    dataclass takes any object here, its fields are cases of their own."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return isinstance(value, dict)
    if type(None) in args:
        return value is None or _well_typed(next(a for a in args if a is not type(None)), value)
    if origin is typing.Literal:
        return any(type(value) is type(a) and value == a for a in args)
    if origin is tuple:
        items = [args[0]] * len(value) if args[-1] is Ellipsis and isinstance(value, list) else list(args)
        return isinstance(value, list) and len(items) == len(value) and all(map(_well_typed, items, value))
    if tp is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is tp


def _entry_pointer(tp, value) -> str:
    """Where under its field an ill-typed value is reported: at the first
    ill-typed entry of a list of the tuple type's length, else at the field
    itself ("")."""
    if type(None) in typing.get_args(tp):
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        items = [args[0]] * len(value) if args[-1] is Ellipsis else list(args)
        if len(items) == len(value):
            return next(f"/{k}" for k, (t, v) in enumerate(zip(items, value)) if not _well_typed(t, v))
    return ""


def _field_cases(cls, path=()):
    """(path, type) of every field of cls and of the dataclasses it nests."""
    for name, tp in typing.get_type_hints(cls).items():
        yield path + (name,), tp
        if dataclasses.is_dataclass(tp):
            yield from _field_cases(tp, path + (name,))


FIELD_CASES = [
    pytest.param(parse, path, tp, id=f"{cls.__name__}/{'/'.join(path)}")
    for parse, cls in (
        (dataset_config_from_obj, DatasetConfig),
        (train_configs_from_obj, RelNetConfig),
        (train_configs_from_obj, TrainConfig),
    )
    for path, tp in _field_cases(cls)
]


class TestWalkerProperties:
    @pytest.mark.parametrize("parse, path, tp", FIELD_CASES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ill_typed_field_reports_its_pointer(self, parse, path, tp, data):
        # "inf" is how snr_db spells no noise
        bad = data.draw(JSON_VALUES.filter(lambda v: v != "inf" and not _well_typed(tp, v)))
        value = bad
        for key in reversed(path):
            value = {key: value}
        with pytest.raises(ConfigError) as info:
            parse(value)
        assert str(info.value).startswith("/" + "/".join(path) + _entry_pointer(tp, bad) + ": ")

    def test_defaults_round_trip_through_json(self):
        echoed = json.loads(json.dumps(dataclasses.asdict(DatasetConfig())))
        assert dataset_config_from_obj(echoed) == DatasetConfig()
        obj = {**dataclasses.asdict(RelNetConfig()), **dataclasses.asdict(TrainConfig())}
        assert train_configs_from_obj(json.loads(json.dumps(obj))) == (RelNetConfig(), TrainConfig())
        # null for an optional field is its default
        assert train_configs_from_obj({"f_layer_sizes": None, "g_layer_sizes": None})[0] == RelNetConfig()

    def test_field_type_without_json_rule_raises_type_error(self):
        @dataclasses.dataclass
        class Table:
            rows: dict = dataclasses.field(default_factory=dict)

        with pytest.raises(TypeError, match="^/rows: "):
            build(Table, {"rows": {}}, [])

    def test_sample_rate_has_one_owner(self):
        """No function in src/ takes a rate, and only rir.py spells the
        16 kHz rate out: every other module reads rir.DEFAULT_FS."""
        src = Path(wasnloc.__file__).parent
        offenders = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.arg) and node.arg == "fs":
                    offenders.append(f"{path.name}:{node.lineno}: parameter fs")
                elif isinstance(node, ast.Constant) and node.value == 16000 and path.name != "rir.py":
                    offenders.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
        assert offenders == []

    def test_typedjson_is_the_only_json_decoder(self):
        src = Path(wasnloc.__file__).parent
        decoders = sorted(p.name for p in src.glob("*.py") if "json.loads" in p.read_text())
        assert decoders == ["typedjson.py"]

    def test_no_unused_imports(self):
        """Every name a module in src/ or tests/ imports is used in it; the
        package's __init__.py imports only to re-export."""
        src = Path(wasnloc.__file__).parent
        unused = []
        for path in sorted(src.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                unused += [f"{path.name}:{node.lineno}: {name}" for name in names if name not in used]
        assert unused == []


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Dataset + trained checkpoint produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cliws")
    data_dir = root / "data"
    sim_cfg = {
        "train": 6,
        "val": 3,
        "test": 4,
        "train_mic_counts": [4, 5],
        "val_mic_counts": [4, 5],
        "test_mic_counts": [3, 4, 5],
        "master_seed": 11,
        "duration_s": 0.6,
        "grid_n": TINY_GRID_N,
    }
    (root / "sim.json").write_text(json.dumps(sim_cfg))
    code = main(["simulate", "--config", str(root / "sim.json"), "--out", str(data_dir)])
    assert code == 0

    n_out = TINY_GRID_N**2
    train_cfg = {
        "feature_kind": "slf",
        "grid_n": TINY_GRID_N,
        "f_layer_sizes": [32, n_out],
        "g_layer_sizes": [32, n_out],
        "max_epochs": 3,
        "batch_size": 4,
        "seed": 0,
    }
    (root / "train.json").write_text(json.dumps(train_cfg))
    ckpt = root / "model.ckpt"
    code = main(
        ["train", "--config", str(root / "train.json"), "--data", str(data_dir), "--out", str(ckpt)]
    )
    assert code == 0
    return root, data_dir, ckpt


class TestCliCommands:
    def test_simulate_output(self, cli_workspace, capsys):
        root, data_dir, _ = cli_workspace
        assert (data_dir / "manifest.json").exists()
        assert (data_dir / "train" / "00000" / "ch_00.wav").exists()

    def test_train_wrote_history(self, cli_workspace):
        root, _, ckpt = cli_workspace
        history = ckpt.with_suffix(".history.csv")
        assert history.exists()
        lines = history.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4  # 3 epochs

    def test_eval_classical_writes_csv(self, cli_workspace, capsys):
        root, data_dir, _ = cli_workspace
        out_csv = root / "slf.csv"
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--method",
            "slf",
            "--data",
            str(data_dir),
            "--grid-n",
            str(TINY_GRID_N),
            "--out",
            str(out_csv),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "slf"
        assert out_csv.read_text().startswith("method,M,n_examples")

    def test_eval_gnn_with_checkpoint(self, cli_workspace, capsys):
        root, data_dir, ckpt = cli_workspace
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--method",
            "gnn-slf",
            "--data",
            str(data_dir),
            "--checkpoint",
            str(ckpt),
        )
        assert code == 0
        payload = json.loads(out)
        manifest = json.loads((data_dir / "manifest.json").read_text())
        present = {e["m"] for e in manifest["splits"]["test"]["examples"]}
        assert {row["M"] for row in payload["rows"]} == present

    def test_eval_gnn_missing_checkpoint_fails(self, cli_workspace, capsys):
        _, data_dir, _ = cli_workspace
        code, _, err = run_cli(capsys, "eval", "--method", "gnn-slf", "--data", str(data_dir))
        assert code == 1
        assert "checkpoint" in json.loads(err)["message"]

    def test_localize_classical_with_heatmaps(self, cli_workspace, capsys):
        root, data_dir, _ = cli_workspace
        example = data_dir / "test" / "00000"
        heatmap_csv = root / "h.csv"
        code, out, _ = run_cli(
            capsys,
            "localize",
            "--method",
            "slf",
            "--in",
            str(example),
            "--grid-n",
            str(TINY_GRID_N),
            "--emit-heatmap",
            str(heatmap_csv),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "slf" and payload["grid_n"] == TINY_GRID_N
        assert len(payload["estimate_xy"]) == 2
        assert heatmap_csv.exists()

        heatmap_pgm = root / "h.pgm"
        code, out, _ = run_cli(
            capsys,
            "localize",
            "--method",
            "tdoa",
            "--in",
            str(example),
            "--grid-n",
            str(TINY_GRID_N),
            "--emit-heatmap",
            str(heatmap_pgm),
        )
        assert code == 0
        assert heatmap_pgm.read_bytes().startswith(b"P5\n")

    def test_localize_gnn(self, cli_workspace, capsys):
        _, data_dir, ckpt = cli_workspace
        example = data_dir / "test" / "00001"
        code, out, _ = run_cli(
            capsys,
            "localize",
            "--method",
            "gnn-slf",
            "--in",
            str(example),
            "--checkpoint",
            str(ckpt),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["grid_n"] == TINY_GRID_N

    @pytest.mark.parametrize(
        "method, copies, message",
        [
            ("gnn-gcc", 1, "feature kind 'slf' does not match method 'gnn-gcc'"),
            ("gnn-slf", 2, "one checkpoint, got 2"),
        ],
        ids=["wrong_kind", "two_checkpoints"],
    )
    def test_localize_refuses_wrong_or_extra_checkpoint(self, cli_workspace, capsys, method, copies, message):
        _, data_dir, ckpt = cli_workspace
        example = str(data_dir / "test" / "00001")
        flags = ["--checkpoint", str(ckpt)] * copies
        code, out, err = run_cli(capsys, "localize", "--method", method, "--in", example, *flags)
        assert (code, out) == (1, "")
        assert message in json.loads(err)["message"]

    @pytest.mark.parametrize("given", ["count", "dir"])
    def test_eval_heatmap_options_go_together(self, cli_workspace, capsys, given):
        root, data_dir, _ = cli_workspace
        heatmap_dir = root / f"heatmaps_{given}"
        flags = ["--heatmaps", "2"] if given == "count" else ["--heatmap-dir", str(heatmap_dir)]
        code, out, err = run_cli(capsys, "eval", "--method", "slf", "--data", str(data_dir), *flags)
        assert (code, out) == (1, "")
        assert "heatmaps need a count >= 1 and a directory" in json.loads(err)["message"]
        assert not heatmap_dir.exists()

    def test_render_heatmap(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        src = root / "h.csv"
        out_pgm = root / "rendered.pgm"
        code, _, _ = run_cli(capsys, "render-heatmap", "--in", str(src), "--out", str(out_pgm))
        assert code == 0
        assert out_pgm.read_bytes().startswith(b"P5\n")

    def test_unknown_subcommand_exit_code(self, capsys):
        code = main(["frobnicate"])
        assert code == 2

    def test_unknown_method_exit_code(self, capsys):
        code = main(["eval", "--method", "music", "--data", "/nonexistent"])
        assert code == 2

    def test_bad_config_structured_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scene": {"t60_range": [0.9, 0.1]}}))
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(bad), "--out", str(tmp_path / "d")
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "/scene" in payload["message"]

    @pytest.mark.parametrize("command", [["simulate"], ["train", "--data", "unused"]], ids=["simulate", "train"])
    def test_non_object_config_with_seed_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, *command, "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out"))
        assert code == 1
        assert json.loads(err) == {"error": "ConfigError", "message": "/: must be a JSON object"}

    def test_snr_beyond_float_power_range_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": 1, "val": 0, "test": 0, "snr_db": 4000}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and payload["message"].startswith("/: DatasetConfig.snr_db ")

    def test_huge_integer_literal_is_config_error(self, tmp_path, capsys):
        # beyond the 4300-digit limit json.loads raises a plain ValueError
        cfg = tmp_path / "big.json"
        cfg.write_text('{"train": 1' + "0" * 5000 + "}")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and payload["message"].startswith("/: ")

    def test_seed_override_changes_dataset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": 1, "val": 1, "test": 1, "duration_s": 0.6}))
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--seed", "123", "--out", str(tmp_path / "d")
        )
        assert code == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["splits"]["train"]["examples"][0]["seed"] == 123
