import csv
import hashlib
import io
import json

import numpy as np
import pytest

from ncss import adversary, cli, gf, pipeline, storage
from ncss.errors import ConfigError
from ncss.planner import SecurityProfile


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def stored_root(tmp_path):
    payload = np.random.default_rng(11).bytes(1024)
    infile = tmp_path / "input.bin"
    infile.write_bytes(payload)
    root = tmp_path / "demo"
    code = cli.main([
        "store", "--in", str(infile), "--root", str(root),
        "--d", "2", "--k", "8", "--mode", "strict", "--n", "4",
        "--pu", "1e-6", "--breach", "0.5,0.25",
    ])
    assert code == 0
    return payload, infile, root


class TestStoreFetch:
    def test_roundtrip_byte_identical(self, tmp_path, stored_root, capsys):
        payload, _, root = stored_root
        outfile = tmp_path / "recovered.bin"
        code, out, _ = run(
            capsys, "fetch", "--root", str(root), "--out", str(outfile)
        )
        assert code == 0
        assert outfile.read_bytes() == payload

    def test_fetch_by_manifest_path_alone(self, tmp_path, stored_root, capsys):
        payload, _, root = stored_root
        outfile = tmp_path / "again.bin"
        code, _, _ = run(
            capsys, "fetch", "--manifest", str(root / "manifest.json"),
            "--out", str(outfile),
        )
        assert code == 0
        assert outfile.read_bytes() == payload

    def test_store_defaults_n_to_auto(self, tmp_path, capsys):
        infile = tmp_path / "a.bin"
        infile.write_bytes(bytes(512))
        code, out, _ = run(
            capsys, "store", "--in", str(infile), "--root", str(tmp_path / "av"),
            "--d", "2", "--k", "8", "--mode", "strict",
            "--pu", "1e-6", "--breach", "0.5,0.25",
        )
        assert code == 0
        assert json.loads(out)["n"] >= 2

    def test_store_writes_layout_and_summary(self, stored_root, capsys):
        _, infile, root = stored_root
        assert (root / "manifest.json").exists()
        assert (root / "cloud_0" / "shard_000.bin").exists()
        assert (root / "cloud_1" / "shard_000.bin").exists()
        assert (root / "local" / "share.bin").exists()

    def test_cli_matches_library_byte_for_byte(self, tmp_path, stored_root):
        payload, _, cli_root = stored_root
        lib_root = storage.DirectoryRoot(tmp_path / "lib", clouds=2)
        pipeline.store_digits(
            pipeline.bytes_to_digits(payload, 2),
            lib_root,
            gf.FieldSpec(k=8, d=2),
            n=4,
            profile=SecurityProfile(breach=(0.5, 0.25), pu=1e-6),
        )
        for rel in ["cloud_0/shard_000.bin", "cloud_1/shard_000.bin", "local/share.bin"]:
            assert (cli_root / rel).read_bytes() == (
                tmp_path / "lib" / rel
            ).read_bytes()
        assert json.loads((cli_root / "manifest.json").read_text()) == json.loads(
            (tmp_path / "lib" / "manifest.json").read_text()
        )

    def test_auto_matrix_size(self, tmp_path, capsys):
        infile = tmp_path / "x.bin"
        infile.write_bytes(bytes(2048))
        code, out, _ = run(
            capsys, "store", "--in", str(infile), "--root", str(tmp_path / "auto"),
            "--d", "2", "--k", "8", "--mode", "strict", "--n", "auto",
            "--pu", "1e-6", "--breach", "0.5,0.5,0.5",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] >= 2

    def test_plan_dry_run_leaves_no_files(self, tmp_path, capsys):
        infile = tmp_path / "y.bin"
        infile.write_bytes(bytes(64))
        code, out, _ = run(
            capsys, "plan", "--in", str(infile),
            "--d", "2", "--k", "3", "--mode", "strict", "--n", "3",
            "--pu", "0.015625", "--breach", "0.5,0.25",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["width"] == 3
        # 64 bytes -> 512 bits -> 171 elements of width 3, one pad digit
        assert summary["total_digits"] == 513
        assert summary["pad_count"] == 1
        assert not (tmp_path / "cloud_0").exists()

    def test_fetch_of_invalid_utf8_manifest_exits_3(self, tmp_path, stored_root, capsys):
        _, _, root = stored_root
        manifest = root / "manifest.json"
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
        code, out, err = run(
            capsys, "fetch", "--root", str(root), "--out", str(tmp_path / "out.bin")
        )
        assert code == 3 and out == ""
        assert err.startswith("pipeline error:") and "not UTF-8" in err
        assert not (tmp_path / "out.bin").exists()


class TestUtilityCommands:
    def test_decode(self, capsys):
        code, out, _ = run(
            capsys, "decode", "--k", "3", "--d", "2",
            "--points", "1,2,3", "--elements", "7,3,1",
        )
        assert code == 0
        assert json.loads(out)["decoded"] == [1, 3, 5]

    def test_classify(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--k", "3", "--d", "2", "--alpha", "3",
            "--widths", "1,1,1", "--elements", "2,3,5", "--assignment", "0,2|1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["strict"] is False
        assert report["alpha_bound_satisfied"] is True

    def test_optimize_prints_solution(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--m", "1024", "--d", "2", "--k", "8",
            "--p", "3", "--breach", "0.5", "--pu", "1e-6",
        )
        assert code == 0
        assert out.strip() == "n=2 l=1 f=96"

    def test_optimize_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--m", "1024", "--d", "2", "--k", "8",
            "--p", "3", "--breach", "0.5", "--pu", "1e-6",
            "--sweep", "512,1024,4096",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3

    def test_optimize_infeasible_exit_code(self, capsys):
        code, _, err = run(
            capsys, "optimize", "--m", "16", "--d", "2", "--k", "8",
            "--p", "3", "--breach", "0.5", "--pu", "1e-30",
        )
        assert code == 4
        assert "infeasible" in err

    def test_attack(self, stored_root, capsys):
        _, _, root = stored_root
        # cloud 1 holds almost the whole stream, so the residual guess is
        # tractable; cloud 0 holds a sliver and the simulation refuses it
        code, out, _ = run(
            capsys, "attack", "--root", str(root), "--cloud", "1",
            "--trials", "2000", "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["observed"] + report["unknown"] == report["total_digits"]
        assert 0 <= report["empirical_guess_rate"] <= 1
        assert report["guess_probability"] <= report["pu"]
        code, _, err = run(
            capsys, "attack", "--root", str(root), "--cloud", "0",
            "--trials", "2000",
        )
        assert code == 2
        assert "unknown digits" in err

    @pytest.mark.parametrize("flags", [
        ("--cloud", "7"),  # the dataset has clouds 0 and 1
        ("--cloud", "2"),
        ("--cloud", "-1"),
        ("--cloud", "x"),
        ("--cloud", "1", "--seed", "-1"),
    ], ids=["cloud-7", "cloud-p", "cloud-negative", "cloud-word", "seed-negative"])
    def test_attack_bad_target_or_seed_exits_2(self, stored_root, capsys, flags):
        _, _, root = stored_root
        code, out, err = run(
            capsys, "attack", "--root", str(root), "--trials", "10", *flags
        )
        assert code == 2
        assert out == ""
        assert err.startswith("invalid configuration:")
        assert "Traceback" not in err

    def test_audit_single_and_grid(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--k", "2", "--n", "3", "--w", "1", "--t", "2"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["perfect"] == "True"
        code, out, _ = run(capsys, "audit", "--k", "2", "--n", "3", "--grid")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 * 4  # w in 1..3, t in 0..3

    def test_audit_grid_k4_n5_csv_pinned(self, capsys):
        # SHA-256 of the 30-row CSV as the row-by-row enumeration printed it
        code, out, _ = run(capsys, "audit", "--k", "4", "--n", "5", "--grid")
        assert code == 0
        assert len(out.splitlines()) == 1 + 5 * 6
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d83c9f7f4ab5eb4507d98e1ccf9755fb79f690aed36dfa0f2a6d321b0fac4b02"
        )

    def test_audit_without_points_exits_2(self, capsys):
        code, out, err = run(capsys, "audit", "--k", "4", "--n", "0", "--grid")
        assert code == 2
        assert out == ""
        assert err.startswith("invalid configuration:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", ["-1", "0"])
    def test_bench_pipeline_non_positive_bytes_exits_2(self, capsys, payload):
        code, out, err = run(
            capsys, "bench", "--suite", "pipeline", "--k", "8", "--n", "4",
            "--bytes", payload, "--reps", "5",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("invalid configuration: file_bytes must be >= 1")
        assert len(err.splitlines()) == 1

    def test_simulate_guess_refuses_trials_above_the_bound(self, stored_root, monkeypatch):
        """MAX_TRIALS + 1 trials are refused before any guess is drawn."""
        root = storage.DirectoryRoot(stored_root[2])
        sc = adversary.scenario_from_storage(pipeline.load_manifest(root), root, 1)
        assert adversary.simulate_guess(sc, 10) >= 0
        monkeypatch.setattr(adversary, "_draws", None)  # a draw would fail untyped
        with pytest.raises(ConfigError, match="trials must be <= "):
            adversary.simulate_guess(sc, adversary.MAX_TRIALS + 1)

    @pytest.mark.parametrize("over", [1, 10_000_000_000_000])
    def test_attack_trials_above_the_bound_exits_2(
        self, stored_root, capsys, monkeypatch, over
    ):
        _, _, root = stored_root
        monkeypatch.setattr(adversary, "_draws", None)  # a draw would fail untyped
        code, out, err = run(
            capsys, "attack", "--root", str(root), "--cloud", "1",
            "--trials", str(adversary.MAX_TRIALS + over),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid configuration: trials must be <= {adversary.MAX_TRIALS}")
        assert len(err.splitlines()) == 1

    def test_bench_mul_csv(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--suite", "mul", "--k", "3",
            "--mul-count", "1000000", "--reps", "5",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["scenario"] == "mul"


class TestConfigHandling:
    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "m": 1024, "d": 2, "k": 8, "p": 3, "breach": "0.5", "pu": 1e-6,
        }))
        code, out, _ = run(capsys, "optimize", "--config", str(cfg))
        assert code == 0
        assert out.strip() == "n=2 l=1 f=96"
        # a flag overrides the config file value
        code, out, _ = run(
            capsys, "optimize", "--config", str(cfg), "--m", "2048"
        )
        assert code == 0
        assert out.strip() != "n=2 l=1 f=96"

    @pytest.mark.parametrize("command,config", [
        ("attack", {"seed": "x"}),
        ("store", {"k": "8x"}),
        ("store", {"pu": "abc"}),
        ("store", {"breach": "0.5,x"}),
        ("store", {"k": 8.5}),
        ("store", {"k": [8]}),
        ("store", {"pu": True}),
        ("store", {"k": True}),
        ("attack", {"seed": True}),
        ("store", {"breach": [0.5, True]}),
        ("store", {"breach": [0.5, "x"]}),
        ("store", {"breach": [[0.5], 0.25]}),
    ], ids=[
        "attack-seed", "store-k", "store-pu", "store-breach",
        "store-k-fraction", "store-k-list", "store-pu-bool", "store-k-bool",
        "attack-seed-bool", "store-breach-list-bool",
        "store-breach-list-word", "store-breach-nested-list",
    ])
    def test_bad_number_in_config_exits_2(
        self, tmp_path, stored_root, capsys, command, config
    ):
        _, infile, root = stored_root
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        if command == "attack":
            flags = ["--root", str(root), "--cloud", "1", "--trials", "10"]
        else:
            settings = {"k": 8, "pu": 1e-6, "breach": "0.5,0.25", **config}
            cfg.write_text(json.dumps(settings))
            flags = ["--in", str(infile), "--root", str(tmp_path / "r"), "--n", "4"]
        code, out, err = run(capsys, command, "--config", str(cfg), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid configuration:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_alpha_nan_exits_2(self, tmp_path, stored_root, capsys):
        _, infile, _ = stored_root
        code, out, err = run(
            capsys, "store", "--in", str(infile), "--root", str(tmp_path / "r"),
            "--d", "2", "--k", "8", "--n", "4", "--mode", "alpha",
            "--alpha", "nan", "--breach", "0.5", "--pu", "0.1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("invalid configuration:")
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["store", "plan"])
    def test_alpha_inf_exits_2(self, tmp_path, stored_root, capsys, command):
        _, infile, _ = stored_root
        root = ["--root", str(tmp_path / "r")] if command == "store" else []
        code, out, err = run(
            capsys, command, "--in", str(infile), *root,
            "--d", "2", "--k", "8", "--n", "4", "--mode", "alpha",
            "--alpha", "inf", "--breach", "0.5", "--pu", "0.1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("invalid configuration:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_list_valued_config_round_trip(self, tmp_path, stored_root, capsys):
        payload, infile, root = stored_root
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d": 2, "k": 8, "mode": "strict", "n": 4,
            "pu": 1e-6, "breach": [0.5, 0.25],
        }))
        listed = tmp_path / "listed"
        code, _, err = run(
            capsys, "store", "--config", str(cfg), "--in", str(infile),
            "--root", str(listed),
        )
        assert code == 0, err
        # the same dataset as the comma-separated flag stores
        assert (listed / "manifest.json").read_text() == (
            root / "manifest.json"
        ).read_text()
        outfile = tmp_path / "listed.bin"
        code, _, _ = run(
            capsys, "fetch", "--root", str(listed), "--out", str(outfile)
        )
        assert code == 0
        assert outfile.read_bytes() == payload

    @pytest.mark.parametrize("text", ["[1, 2]", '"k=8"', "null"],
                             ids=["array", "string", "null"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "optimize", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("invalid configuration:") and "JSON object" in err

    def test_config_of_invalid_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, "optimize", "--config", str(cfg))
        assert code == 2 and err.startswith("invalid configuration:")

    # each config holds one path option that is not a string: an int would
    # name an open file descriptor (4093 is closed, so the parent fails typed
    # rather than reading or writing one); the other paths come as flags
    @pytest.mark.parametrize("command,config", [
        ("store", {"root": 5}),
        ("store", {"root": ["a"]}),
        ("store", {"root": None}),
        ("store", {"infile": 4093}),
        ("store", {"infile": ["input.bin"]}),
        ("plan", {"infile": {"path": "input.bin"}}),
        ("fetch", {"root": 5}),
        ("fetch", {"manifest": ["manifest.json"]}),
        ("fetch", {"outfile": ["out.bin"]}),
    ], ids=[
        "store-root-int", "store-root-list", "store-root-null",
        "store-infile-int", "store-infile-list", "plan-infile-object",
        "fetch-root-int", "fetch-manifest-list", "fetch-outfile-list",
    ])
    def test_path_that_is_not_a_string_exits_2(
        self, tmp_path, stored_root, capsys, command, config
    ):
        _, infile, root = stored_root
        key = next(iter(config))
        if command == "fetch":
            flags = {"root": str(root), "outfile": str(tmp_path / "out.bin")}
            settings = config
        else:
            flags = {"infile": str(infile), "root": str(tmp_path / "r")}
            if command == "plan":
                del flags["root"]
            settings = {"k": 8, "n": 4, "pu": 1e-6, "breach": "0.5,0.25", **config}
        flags.pop(key, None)
        names = {"infile": "--in", "outfile": "--out"}
        argv = [x for k, v in flags.items() for x in (names.get(k, f"--{k}"), v)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run(capsys, command, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid configuration: {key} must be a path string")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "r").exists() and not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("breach", ["0.5,0.25", "0.5,0.25,0.1,0.1"])
    def test_optimize_breach_list_not_of_p_clouds_exits_2(self, capsys, breach):
        code, out, err = run(
            capsys, "optimize", "--m", "1000", "--k", "8", "--p", "3",
            "--breach", breach, "--pu", "1e-6",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("invalid configuration: breach lists")
        assert len(err.splitlines()) == 1

    def test_optimize_breach_list_of_p_clouds(self, tmp_path, capsys):
        # one value per cloud solves as their largest, from a flag or a config
        code, out, _ = run(
            capsys, "optimize", "--m", "1024", "--d", "2", "--k", "8",
            "--p", "3", "--breach", "0.1,0.5,0.25", "--pu", "1e-6",
        )
        assert (code, out.strip()) == (0, "n=2 l=1 f=96")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 1024, "k": 8, "p": 2, "breach": [0.5, 0.25], "pu": 1e-6}))
        code, out, err = run(capsys, "optimize", "--config", str(cfg))
        assert code == 0, err
        code, out, err = run(capsys, "optimize", "--config", str(cfg), "--p", "3")
        assert code == 2 and err.startswith("invalid configuration: breach lists")

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "optimize", "--m", "100")
        assert code == 2
        assert "invalid configuration" in err

    def test_bad_mode(self, tmp_path, capsys):
        infile = tmp_path / "z.bin"
        infile.write_bytes(bytes(16))
        code, _, err = run(
            capsys, "store", "--in", str(infile), "--root", str(tmp_path / "r"),
            "--d", "2", "--k", "8", "--mode", "wild", "--n", "2",
            "--pu", "0.5", "--breach", "0.5",
        )
        assert code == 2

    def test_missing_input_file_is_pipeline_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "store", "--in", str(tmp_path / "absent.bin"),
            "--root", str(tmp_path / "r"),
            "--d", "2", "--k", "8", "--mode", "strict", "--n", "2",
            "--pu", "0.5", "--breach", "0.5",
        )
        assert code == 3

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "result.txt"
        code, out, _ = run(
            capsys, "optimize", "--m", "1024", "--d", "2", "--k", "8",
            "--p", "3", "--breach", "0.5", "--pu", "1e-6",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().strip() == "n=2 l=1 f=96"
