"""Pipeline orchestration, report emission, and the CLI surface."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import varsel
from varsel import GibbsConfig, RunConfig, run_pipeline
from varsel.cli import EXIT_COMPUTATION, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from varsel.pipeline import config_hash, dataset_sha256

SCHEMA_PATH = Path(varsel.__file__).parent / "schema" / "report.schema.json"


def write_fixture(tmp_path, seed=0, n=40, r=3, name="data.csv"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, r))
    y = x @ (np.arange(r) + 1.0) / r + 0.2 * rng.normal(size=n)
    path = tmp_path / name
    header = ",".join(f"f{k}" for k in range(1, r + 1)) + ",y"
    lines = [header]
    for i in range(n):
        lines.append(
            ",".join(repr(float(v)) for v in x[i]) + "," + repr(float(y[i]))
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestPipeline:
    def test_rank_only_produces_six_rankings(self, tmp_path):
        data = write_fixture(tmp_path)
        config = RunConfig(
            dataset_path=str(data),
            target_column="y",
            output_dir=str(tmp_path / "out"),
            stages=("rank",),
        )
        report, written = run_pipeline(config)
        assert len(report["rankings"]) == 6
        names = {w.name for w in written}
        assert {"report.json", "error_curves.csv"} <= names
        curves = (tmp_path / "out" / "error_curves.csv").read_text().splitlines()
        assert curves[0] == "method,M,MAE"
        assert len(curves) == 1 + 6 * 3  # six methods, R=3 prefixes each

    def test_full_run_matches_direct_calls(self, tmp_path):
        data = write_fixture(tmp_path, seed=4, n=50, r=8)
        config = RunConfig(
            dataset_path=str(data),
            target_column="y",
            output_dir=str(tmp_path / "out"),
            m_values=(2,),
            search_runs=30,
            sweeps=300,
            cv_runs=40,
            seed=21,
        )
        report, _ = run_pipeline(config)
        ds = varsel.ingest_csv(data, "y")

        direct_rank = varsel.rank_forward_selection(ds)
        entry = next(
            e for e in report["rankings"] if e["method"] == "rm1-forward"
        )
        assert tuple(entry["order"]) == direct_rank.order
        np.testing.assert_allclose(entry["error_curve"], direct_rank.error_curve)

        direct_search = varsel.multi_restart_search(ds, 2, runs=30, seed=21)
        assert tuple(report["best_subsets"][0]["subset"]) == direct_search.subset.indices
        assert report["best_subsets"][0]["cost"] == direct_search.cost

        gc = GibbsConfig(m=2, sweeps=300, seed=21)
        chain = varsel.gibbs_run(ds, gc)
        profile = varsel.inclusion_frequencies(chain, gc.burn_in)
        np.testing.assert_allclose(
            report["inclusion_profiles"][0]["probabilities"], profile.probabilities
        )

        direct_cv = varsel.monte_carlo_cv(
            ds, direct_search.subset, runs=40, seed=21
        )
        assert report["cv"]["mean_mae"] == direct_cv.mean_mae

        direct_sel = varsel.select_order(ds, direct_rank, varsel.Criterion.BIC)
        entry = next(
            e
            for e in report["order_selection"]
            if e["criterion"] == "bic" and e["ranking_method"] == "rm1-forward"
        )
        assert entry["m_star"] == direct_sel.m_star

        pv = varsel.rank_pvalues(ds)
        direct_stop = varsel.pvalue_stopping(pv)
        entry = next(
            e for e in report["order_selection"] if e["criterion"] == "pvalue"
        )
        assert entry["m_star"] == direct_stop.m_star

        edges = varsel.correlation_graph(ds, 0.95).edges
        assert report["correlation"]["edges"] == [[i, j, r] for i, j, r in edges]

    def test_cost_settings_reach_search_and_gibbs(self, tmp_path):
        data = write_fixture(tmp_path, seed=5, n=50, r=8)
        config = RunConfig(
            dataset_path=str(data),
            target_column="y",
            output_dir=str(tmp_path / "out"),
            stages=("search", "gibbs"),
            m_values=(2, 3),
            p_norm=2.0,
            cost_alpha=2.0,
            search_runs=10,
            sweeps=100,
            seed=8,
        )
        report, _ = run_pipeline(config)
        ds = varsel.ingest_csv(data, "y")
        for entry in report["best_subsets"]:
            subset = varsel.FeatureSubset(tuple(entry["subset"]))
            # the cache may price a subset through the batched kernel, which
            # agrees with subset_cost to rounding
            assert entry["cost"] == pytest.approx(
                varsel.subset_cost(ds, subset, 2.0, 2.0), rel=1e-9)
        for m, entry in zip((2, 3), report["inclusion_profiles"]):
            gc = GibbsConfig(m=m, sweeps=100, seed=8)
            chain = varsel.gibbs_run(ds, gc, cache=varsel.CostCache(ds, 2.0, 2.0))
            profile = varsel.inclusion_frequencies(chain, gc.burn_in)
            assert entry["probabilities"] == profile.probabilities.tolist()

    def test_reports_are_byte_identical_across_output_dirs(self, tmp_path):
        data = write_fixture(tmp_path, seed=6)
        trees = []
        for sub in ("a", "b"):
            config = RunConfig(
                dataset_path=str(data),
                target_column="y",
                output_dir=str(tmp_path / sub),
                m_values=(2,),
                search_runs=10,
                sweeps=100,
                cv_runs=20,
                seed=5,
            )
            run_pipeline(config)
            tree = {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / sub).iterdir())
            }
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], name

    def test_config_hash_tracks_computation_not_location(self, tmp_path):
        data = write_fixture(tmp_path, seed=7)
        digest = dataset_sha256(data)
        base = RunConfig(dataset_path=str(data), target_column="y",
                         stages=("rank",), output_dir="x")
        moved = RunConfig(dataset_path=str(data), target_column="y",
                          stages=("rank",), output_dir="elsewhere")
        reseeded = RunConfig(dataset_path=str(data), target_column="y",
                             stages=("rank",), output_dir="x", seed=99)
        assert config_hash(base, digest) == config_hash(moved, digest)
        assert config_hash(base, digest) != config_hash(reseeded, digest)
        # the report records the dataset path, so the hash covers it too
        copy = tmp_path / "copy.csv"
        copy.write_bytes(data.read_bytes())
        assert dataset_sha256(copy) == digest
        copied = RunConfig(dataset_path=str(copy), target_column="y",
                           stages=("rank",), output_dir="x")
        assert config_hash(base, digest) != config_hash(copied, digest)

    def test_report_validates_against_shipped_schema(self, tmp_path):
        data = write_fixture(tmp_path, seed=8, r=4)
        config = RunConfig(
            dataset_path=str(data),
            target_column="y",
            output_dir=str(tmp_path / "out"),
            m_values=(2,),
            search_runs=5,
            sweeps=50,
            cv_runs=10,
            seed=1,
        )
        report, _ = run_pipeline(config)
        emitted = json.loads((tmp_path / "out" / "report.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(emitted, schema)
        assert emitted == json.loads(varsel.pipeline.canonical_json(report))

    def test_failing_stage_leaves_partial_flagged_output(self, tmp_path):
        data = write_fixture(tmp_path, seed=11, r=4)
        out = tmp_path / "partial"
        config = RunConfig(
            dataset_path=str(data),
            target_column="y",
            output_dir=str(out),
            stages=("rank", "cv"),  # cv has no subset and no search stage
            cv_runs=10,
        )
        with pytest.raises(Exception) as err:
            run_pipeline(config)
        assert getattr(err.value, "stage", None) == "cv"
        partial = json.loads((out / "report.json").read_text())
        assert partial["incomplete"]["failed_stage"] == "cv"
        assert len(partial["rankings"]) == 6  # completed stage kept

    def test_feature_indices_are_one_based_everywhere(self, tmp_path):
        data = write_fixture(tmp_path, seed=9, r=3)
        config = RunConfig(
            dataset_path=str(data), target_column="y",
            output_dir=str(tmp_path / "out"), stages=("rank",),
        )
        report, _ = run_pipeline(config)
        for entry in report["rankings"]:
            assert sorted(entry["order"]) == [1, 2, 3]


class TestCli:
    def test_rank_subcommand_succeeds(self, tmp_path, capsys):
        data = write_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(["rank", "-i", str(data), "--target", "y", "-o", str(out)])
        assert code == EXIT_OK
        assert (out / "report.json").is_file()
        assert str(out / "report.json") in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,y\n1,oops,3\n4,5,6\n7,8,9\n")
        code = main(["rank", "-i", str(bad), "--target", "y",
                     "-o", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        data = write_fixture(tmp_path)
        code = main(["rank", "-i", str(data), "--target", "nope",
                     "-o", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_computation_error_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        base = rng.normal(size=10)
        dup = tmp_path / "dup.csv"
        lines = ["a,b,y"]
        for i in range(10):
            lines.append(
                f"{float(base[i])!r},{float(base[i])!r},{float(rng.normal())!r}"
            )
        dup.write_text("\n".join(lines) + "\n")
        code = main(["rank", "-i", str(dup), "--target", "y",
                     "--methods", "rm1", "-o", str(tmp_path / "o")])
        assert code == EXIT_COMPUTATION

    def test_seed_is_mandatory_for_stochastic_commands(self, tmp_path, capsys):
        data = write_fixture(tmp_path)
        for argv in (
            ["search", "-i", str(data), "--target", "y", "--m", "2"],
            ["gibbs", "-i", str(data), "--target", "y", "--m", "2"],
            ["cv", "-i", str(data), "--target", "y", "--subset", "1,2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_cv_subcommand_runs(self, tmp_path):
        data = write_fixture(tmp_path)
        out = tmp_path / "cvout"
        code = main(["cv", "-i", str(data), "--target", "y", "--subset", "1,3",
                     "--runs", "25", "--seed", "3", "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["cv"]["requested_runs"] == 25
        assert tuple(report["named_model"]["subset"]) == (1, 3)

    def test_normalize_flag_reaches_ingestion(self, tmp_path):
        data = write_fixture(tmp_path, seed=17)
        out = tmp_path / "norm"
        code = main(["rank", "-i", str(data), "--target", "y",
                     "--normalize", "zscore", "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["dataset"]["normalize"] == "zscore"
        assert report["config"]["normalize"] == "zscore"

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        data = write_fixture(tmp_path)
        target = tmp_path / "fromenv"
        monkeypatch.setenv("VARSEL_OUTPUT_DIR", str(target))
        code = main(["corr", "-i", str(data), "--target", "y"])
        assert code == EXIT_OK
        assert (target / "correlation_edges.csv").is_file()

    def test_search_subcommand_runs(self, tmp_path):
        data = write_fixture(tmp_path, seed=14, r=4)
        out = tmp_path / "searchout"
        code = main(["search", "-i", str(data), "--target", "y", "--m", "1,2",
                     "--runs", "10", "--seed", "2", "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [e["m"] for e in report["best_subsets"]] == [1, 2]
        lines = (out / "best_subsets.csv").read_text().splitlines()
        assert lines[0] == "m,cost,subset"

    def test_gibbs_subcommand_runs(self, tmp_path):
        data = write_fixture(tmp_path, seed=15, r=4)
        out = tmp_path / "gibbsout"
        code = main(["gibbs", "-i", str(data), "--target", "y", "--m", "2",
                     "--sweeps", "100", "--seed", "2", "-o", str(out)])
        assert code == EXIT_OK
        profile = (out / "inclusion_m2.csv").read_text().splitlines()
        assert profile[0] == "feature,probability"
        assert len(profile) == 5  # header + R=4 features

    def test_select_subcommand_runs(self, tmp_path):
        data = write_fixture(tmp_path, seed=16, r=4)
        out = tmp_path / "selout"
        code = main(["select", "-i", str(data), "--target", "y",
                     "--criteria", "bic", "--methods", "rm1,pvalue",
                     "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        kinds = {(e["criterion"], e["ranking_method"])
                 for e in report["order_selection"]}
        assert kinds == {("bic", "rm1-forward"), ("pvalue", "pvalue")}

    def test_method_aliases_accepted(self, tmp_path):
        data = write_fixture(tmp_path)
        out = tmp_path / "alias"
        code = main(["rank", "-i", str(data), "--target", "y",
                     "--methods", "rm1,rm5", "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [e["method"] for e in report["rankings"]] == [
            "rm1-forward", "rm5-correlation"
        ]
