"""Pipeline orchestration, report emission, and the CLI surface."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import varsel
from varsel import GibbsConfig, RunConfig, run_pipeline
from varsel.cli import EXIT_COMPUTATION, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from varsel.pipeline import ALL_STAGES, config_hash, dataset_sha256

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
            stages=("rank", "cv"),
            cv_subset=(1, 9),  # R=4: out of range, which only the table shows
            cv_runs=10,
        )
        with pytest.raises(Exception) as err:
            run_pipeline(config)
        assert getattr(err.value, "stage", None) == "cv"
        partial = json.loads((out / "report.json").read_text())
        assert partial["incomplete"]["failed_stage"] == "cv"
        assert len(partial["rankings"]) == 6  # completed stage kept

    def test_ranking_failure_without_rank_stage_is_charged_to_select(self, tmp_path):
        # N = R + 1 rows: every fit is exact, but p-values need N >= M + 2
        data = write_fixture(tmp_path, seed=12, n=5, r=4)
        out = tmp_path / "partial"
        config = RunConfig(dataset_path=str(data), target_column="y",
                           output_dir=str(out), stages=("select",))
        with pytest.raises(varsel.ConfigError, match="p-values need") as err:
            run_pipeline(config)
        assert err.value.stage == "select"
        partial = json.loads((out / "report.json").read_text())
        assert partial["incomplete"]["failed_stage"] == "select"
        assert "rankings" not in partial
        assert "order_selection" not in partial

    def test_failed_stage_keeps_earlier_sections_only(self, tmp_path):
        data = write_fixture(tmp_path, seed=13, r=4)
        out = tmp_path / "partial"
        config = RunConfig(dataset_path=str(data), target_column="y",
                           output_dir=str(out), stages=("rank", "search"),
                           m_values=(2, 7), search_runs=3, seed=1)  # 7 = R + 3
        with pytest.raises(varsel.ConfigError) as err:
            run_pipeline(config)
        assert err.value.stage == "search"
        partial = json.loads((out / "report.json").read_text())
        assert partial["incomplete"]["failed_stage"] == "search"
        assert len(partial["rankings"]) == 6
        assert "best_subsets" not in partial
        names = {p.name for p in out.iterdir()}
        assert names == {"report.json", "error_curves.csv"}

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

    @pytest.mark.parametrize("argv", [
        pytest.param(["rank", "--target", "nope"], id="unknown-target"),
        pytest.param(["search", "--target", "y", "--m", "2,x", "--seed", "1"],
                     id="bad-m"),
        pytest.param(["gibbs", "--target", "y", "--m", "2,2", "--sweeps", "20",
                      "--seed", "1"], id="repeated-m"),
        pytest.param(["rank", "--target", "y", "--methods", "rm1,rm1-forward"],
                     id="repeated-method"),
        pytest.param(["select", "--target", "y", "--criteria", "bic,bic"],
                     id="repeated-criterion"),
        pytest.param(["search", "--target", "y", "--m", "1", "--runs", "2",
                      "--seed", "1", "--p-norm", "0"], id="zero-p-norm"),
        pytest.param(["search", "--target", "y", "--m", "1", "--runs", "2",
                      "--seed", "1", "--cost-alpha", "-1"],
                     id="negative-cost-alpha"),
        pytest.param(["search", "--target", "y", "--m", "1", "--runs", "2",
                      "--seed", "1", "--max-iters", "0"], id="zero-max-iters"),
        pytest.param(["search", "--target", "y", "--m", "1", "--runs", "2",
                      "--seed", "1", "--p-norm", "inf"], id="infinite-p-norm"),
        # numpy's SeedSequence takes no negative seed
        pytest.param(["search", "--target", "y", "--m", "1", "--runs", "2",
                      "--seed", "-1"], id="search-negative-seed"),
        pytest.param(["gibbs", "--target", "y", "--m", "1", "--sweeps", "20",
                      "--seed", "-1"], id="gibbs-negative-seed"),
        pytest.param(["cv", "--target", "y", "--subset", "1,2", "--runs", "5",
                      "--seed", "-1"], id="cv-negative-seed"),
        # csv reads a delimiter of exactly one character
        pytest.param(["rank", "--target", "y", "--delimiter", ""],
                     id="empty-delimiter"),
        pytest.param(["rank", "--target", "y", "--delimiter", ";;"],
                     id="two-character-delimiter"),
        # settings a stage would reject without the table: no stage runs
        *(pytest.param(["report", "--target", "y", "--m", "2", "--seed", "1",
                        "--runs", "2", "--sweeps", "20", "--cv-runs", "5", *bad],
                       id=f"report-{name}") for name, bad in (
            ("train-fraction", ["--train-fraction", "1.5"]),
            ("zero-cv-runs", ["--cv-runs", "0"]),
            ("zero-sweeps", ["--sweeps", "0"]),
            ("negative-eta", ["--eta", "-1"]),
            ("burn-in-not-below-sweeps", ["--burn-in", "20"]),
            ("zero-runs", ["--runs", "0"]),
            ("zero-p-norm", ["--p-norm", "0"]),
            ("zero-m", ["--m", "0"]),
            ("zero-max-iters", ["--max-iters", "0"]),
            ("repeated-subset-index", ["--subset", "2,2"]),
            ("alpha-above-one", ["--alpha", "1.5"]),
            ("negative-threshold", ["--threshold", "-0.5"]),
            ("negative-seed", ["--seed", "-1"]),
            ("infinite-p-norm", ["--p-norm", "inf"]),
            ("nan-cost-alpha", ["--cost-alpha", "nan"]),
            ("nan-eta", ["--eta", "nan"]),
            ("infinite-eta", ["--eta", "inf"]),
        )),
        # thresholds no p-value or |rho| can meet, or every one meets
        pytest.param(["select", "--target", "y", "--methods", "pvalue",
                      "--alpha", "-1"], id="select-negative-alpha"),
        pytest.param(["rank", "--target", "y", "--alpha", "0"], id="rank-zero-alpha"),
        pytest.param(["corr", "--target", "y", "--threshold", "5"],
                     id="corr-threshold-above-one"),
    ])
    def test_validation_error_exit_code(self, tmp_path, capsys, argv):
        data = write_fixture(tmp_path)
        out = tmp_path / "o"
        code = main([*argv, "-i", str(data), "-o", str(out)])
        assert code == EXIT_VALIDATION
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delimiter", ['"', "\n", "\r"],
                             ids=["quote", "newline", "carriage-return"])
    def test_unsplittable_delimiter_is_named(self, tmp_path, capsys, delimiter):
        # csv reads these as a quote or a line break, so the header would
        # come back as one field and the target would seem to be missing
        data = write_fixture(tmp_path)
        out = tmp_path / "o"
        code = main(["rank", "-i", str(data), "--target", "y", "-o", str(out),
                     "--delimiter", delimiter])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"the delimiter {delimiter!r}" in err
        assert "not in header" not in err
        assert not out.exists()

    def test_non_utf8_table_exit_code(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("caf\u00e9,b,y\n1,2,3\n4,5,6\n7,8,10\n".encode("latin-1"))
        out = tmp_path / "o"
        code = main(["rank", "-i", str(data), "--target", "y", "-o", str(out)])
        assert code == EXIT_PARSE
        assert "latin1.csv: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_is_checked_only_for_the_stages_that_draw(self, tmp_path):
        data = str(write_fixture(tmp_path))
        RunConfig(dataset_path=data, target_column="y",
                  stages=("rank", "select", "corr"), seed=-1)
        for stage in ("search", "gibbs", "cv"):
            with pytest.raises(varsel.ConfigError, match="seed must be >= 0"):
                RunConfig(dataset_path=data, target_column="y", stages=(stage,),
                          m_values=(1,), cv_subset=(1,), seed=-1)

    def test_thresholds_are_checked_only_for_the_stages_that_read_them(
            self, tmp_path):
        data = str(write_fixture(tmp_path))
        RunConfig(dataset_path=data, target_column="y", stages=("rank",),
                  methods=("rm1-forward",), alpha_threshold=-1.0,
                  corr_threshold=5.0)
        with pytest.raises(varsel.ConfigError, match="p-value threshold"):
            RunConfig(dataset_path=data, target_column="y", stages=("select",),
                      methods=("pvalue",), alpha_threshold=-1.0)
        with pytest.raises(varsel.ConfigError, match="correlation threshold"):
            RunConfig(dataset_path=data, target_column="y", stages=("corr",),
                      corr_threshold=5.0)

    def test_cv_without_subset_or_search_is_rejected_up_front(self, tmp_path):
        data = write_fixture(tmp_path)
        with pytest.raises(varsel.ConfigError, match="cv stage needs"):
            RunConfig(dataset_path=str(data), target_column="y",
                      stages=("rank", "cv"))

    @pytest.mark.parametrize("argv", [
        pytest.param(["rank", "--m", "2"], id="rank-m-is-not-methods"),
        pytest.param(["report", "--m", "2", "--seed", "1", "--cv", "7"],
                     id="report-cv-is-not-cv-runs"),
    ])
    def test_flag_prefixes_are_not_expanded(self, tmp_path, capsys, argv):
        data = write_fixture(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-i", str(data), "--target", "y",
                  "-o", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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


def test_module_entry_point_prints_version():
    src = Path(varsel.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "varsel", "--version"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"varsel {varsel.__version__}\n"


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes about 0.3 s to import; the p-values need only stdtr
    src = Path(varsel.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, varsel; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def run_fresh_python(code):
    """Standard output of ``code`` run by a new interpreter on this source."""
    src = Path(varsel.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_does_not_load_scipy_special():
    # scipy.special takes about 0.3 s and 24 MiB to import; only the
    # p-value ranking needs it
    assert run_fresh_python(
        "import sys, varsel; print('scipy.special' in sys.modules)") == "False\n"


def test_only_the_pvalue_ranking_loads_scipy_special(tmp_path):
    data = write_fixture(tmp_path, n=40, r=4)
    out = run_fresh_python(f"""
import sys
from varsel import RunConfig, run_pipeline
def loaded(**settings):
    run_pipeline(RunConfig(dataset_path={str(data)!r}, target_column="y",
                           output_dir={str(tmp_path / "out")!r}, **settings))
    return 'scipy.special' in sys.modules
print(loaded(stages=("search", "gibbs", "cv", "corr"), m_values=(2,),
             search_runs=4, sweeps=20, cv_runs=20))
print(loaded(stages=("rank",), methods=("pvalue",)))
""")
    assert out == "False\nTrue\n"


# Each row: flag, its argument, the RunConfig field it sets, the parsed value.
# Every value differs from the field's default, so a flag that fails to land
# in its field shows up as a default.
_COMMON_FLAGS = [
    ("--drop", "f9,f8", "drop_columns", ("f9", "f8")),
    ("--delimiter", ";", "delimiter", ";"),
    ("--normalize", "minmax", "normalize", "minmax"),
    ("--output-dir", "elsewhere", "output_dir", "elsewhere"),
    ("--seed", "11", "seed", 11),
]
_METHODS = ("--methods", "rm2,pvalue", "methods", ("rm2-backward", "pvalue"))
_CRITERIA = ("--criteria", "hqic,aic", "criteria", ("hqic", "aic"))
_ALPHA = ("--alpha", "0.1", "alpha_threshold", 0.1)
_M = ("--m", "3,2", "m_values", (3, 2))
_SEARCH = [("--runs", "9", "search_runs", 9), ("--max-iters", "4", "max_iters", 4)]
_GIBBS = [("--eta", "3", "eta", 3.0), ("--sweeps", "40", "sweeps", 40),
          ("--burn-in", "4", "burn_in", 4)]
_COST = [("--p-norm", "2", "p_norm", 2.0), ("--cost-alpha", "0.5", "cost_alpha", 0.5)]
_SUBSET = ("--subset", "2,1", "cv_subset", (2, 1))
_TRAIN = ("--train-fraction", "0.7", "train_fraction", 0.7)
_THRESHOLD = ("--threshold", "0.5", "corr_threshold", 0.5)
_STAGE_FLAGS = {
    "rank": [_METHODS, _ALPHA],
    "search": [_M, *_SEARCH, *_COST],
    "gibbs": [_M, *_GIBBS, *_COST],
    "select": [_METHODS, _CRITERIA, _ALPHA],
    "cv": [_SUBSET, ("--runs", "25", "cv_runs", 25), _TRAIN],
    "corr": [_THRESHOLD],
    "report": [_METHODS, _CRITERIA, _ALPHA, _M, *_SEARCH, *_GIBBS, *_COST,
               _SUBSET, ("--cv-runs", "25", "cv_runs", 25), _TRAIN, _THRESHOLD],
}
# what a subcommand cannot run without
_REQUIRED = {
    "rank": [], "select": [], "corr": [],
    "search": [("--m", "2", "m_values", (2,)), ("--seed", "0", "seed", 0)],
    "gibbs": [("--m", "2", "m_values", (2,)), ("--seed", "0", "seed", 0)],
    "cv": [("--subset", "1", "cv_subset", (1,)), ("--seed", "0", "seed", 0)],
    "report": [("--m", "2", "m_values", (2,)), ("--seed", "0", "seed", 0)],
}


def _argv(rows):
    return [token for flag, text, _, _ in rows for token in (flag, text)]


def _expected(command, rows):
    stages = ALL_STAGES if command == "report" else (command,)
    return RunConfig(dataset_path="t.csv", target_column="y", stages=stages,
                     **{field: value for _, _, field, value in rows})


class TestFlagMapping:
    @pytest.fixture
    def captured(self, monkeypatch):
        configs = []

        def fake_run_pipeline(config):
            configs.append(config)
            return {}, []

        monkeypatch.setattr("varsel.cli.run_pipeline", fake_run_pipeline)
        monkeypatch.delenv("VARSEL_OUTPUT_DIR", raising=False)
        return configs

    @pytest.mark.parametrize("command", list(_STAGE_FLAGS))
    def test_minimal_argv_gives_runconfig_defaults(self, command, captured):
        rows = _REQUIRED[command]
        argv = [command, "-i", "t.csv", "--target", "y", *_argv(rows)]
        assert main(argv) == EXIT_OK
        assert asdict(captured[0]) == asdict(_expected(command, rows))

    @pytest.mark.parametrize("command", list(_STAGE_FLAGS))
    def test_every_flag_lands_in_its_field(self, command, captured):
        rows = _COMMON_FLAGS + _STAGE_FLAGS[command]
        defaults = {f.name: f.default for f in fields(RunConfig)}
        assert all(value != defaults[field] for _, _, field, value in rows)
        argv = [command, "--input", "t.csv", "--target", "y", *_argv(rows)]
        assert main(argv) == EXIT_OK
        assert asdict(captured[0]) == asdict(_expected(command, rows))

    @pytest.mark.parametrize("command", list(_STAGE_FLAGS))
    def test_each_subcommand_takes_exactly_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*",
                                capsys.readouterr().out))
        rows = _COMMON_FLAGS + _STAGE_FLAGS[command]
        assert listed == {"-h", "--help", "-i", "--input", "--target", "-o",
                          *(flag for flag, _, _, _ in rows)}
