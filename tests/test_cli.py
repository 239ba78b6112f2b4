import importlib
import json
import urllib.error
from fractions import Fraction
import urllib.request

import numpy as np
import pytest

from catcluster import cli, dataset, kmodes, medoids, metric

from conftest import dataset_from_rows


TOY_ROWS = [
    "democrat,y,y,n",
    "democrat,y,y,y",
    "democrat,n,y,n",
    "republican,n,n,y",
    "republican,n,n,y",
    "republican,y,n,y",
    "democrat,n,y,n",
]


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(TOY_ROWS) + "\n")
    return path


@pytest.fixture
def unlabeled_csv(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("\n".join(r.split(",", 1)[1] for r in TOY_ROWS) + "\n")
    return path


@pytest.fixture
def votes_csv(tmp_path):
    """Votes-shaped: 435 rows x 17 columns, two labels in column 0, a few "?" fields."""
    ds = dataset.random_dataset(n=435, m=16, max_categories=3, seed=3, n_labels=2, min_categories=2)
    rows = [[ds.schema.label_domain.categories[label], *ds.decode(v)] for v, label in zip(ds.values, ds.labels)]
    for i in range(6):
        rows[37 * i + 5][1 + 11 * i % 16] = "?"
    path = tmp_path / "votes.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestRun:
    def test_kmodes_json_record(self, capsys, toy_csv):
        record = run_json(
            capsys,
            ["run", "--data", str(toy_csv), "--label-column", "0",
             "--algorithm", "kmodes", "--k", "2"],
        )
        assert record["command"] == "run"
        assert record["config"]["algorithm"] == "kmodes"
        assert "threads" not in record["config"]
        assert record["dataset"]["n"] == 7
        assert record["dataset"]["m"] == 3
        solution = record["solution"]
        assert solution["iterations"] >= 1
        assert len(solution["modes"]) == 2
        assert sum(solution["cluster_weights"]) == 7
        assert record["objectives"]["mode_objective"] >= 0
        assert record["objectives"]["medoid_objective"] is None
        assert record["evaluation"]["confusion"]["labels"] == ["democrat", "republican"]
        assert "timings" not in record

    def test_medoid_algorithms_report_guarantee(self, capsys, toy_csv):
        for algorithm, guarantee in [("exhaustive", 2.0), ("local-search", 10.0)]:
            record = run_json(
                capsys,
                ["run", "--data", str(toy_csv), "--label-column", "0",
                 "--algorithm", algorithm, "--k", "2"],
            )
            assert record["solution"]["guarantee"] == guarantee
            assert len(record["solution"]["medoid_indices"]) == 2
            assert record["objectives"]["medoid_objective"] >= record["objectives"]["mode_objective"]

    def test_guarantee_is_null_when_stopped_on_max_steps(self, capsys, toy_csv):
        record = run_json(
            capsys,
            ["run", "--data", str(toy_csv), "--label-column", "0",
             "--algorithm", "local-search", "--k", "2", "--max-steps", "1"],
        )
        assert record["solution"]["guarantee"] is None

    def test_repeated_runs_are_byte_identical(self, capsys, toy_csv):
        argv = ["run", "--data", str(toy_csv), "--label-column", "0",
                "--algorithm", "kmodes", "--k", "2"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_thread_count_does_not_change_output(self, capsys, toy_csv):
        base = ["run", "--data", str(toy_csv), "--label-column", "0",
                "--algorithm", "exhaustive", "--k", "2"]
        assert cli.main([*base, "--threads", "1"]) == 0
        one = capsys.readouterr().out
        assert cli.main([*base, "--threads", "2"]) == 0
        two = capsys.readouterr().out
        assert one == two

    def test_timings_flag_gates_record_not_stderr(self, capsys, toy_csv):
        argv = ["run", "--data", str(toy_csv), "--label-column", "0",
                "--algorithm", "kmodes", "--k", "2"]
        record = run_json(capsys, [*argv, "--timings"])
        assert set(record["timings"]) == {"load_s", "solve_s", "evaluate_s"}
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert "timings[s]:" in captured.err
        assert "timings" not in json.loads(captured.out)

    def test_unlabeled_run_has_null_evaluation(self, capsys, unlabeled_csv):
        record = run_json(
            capsys,
            ["run", "--data", str(unlabeled_csv), "--algorithm", "kmodes", "--k", "2"],
        )
        assert record["evaluation"] is None
        assert record["dataset"]["label_histogram"] is None
        assert record["objectives"]["mode_objective"] >= 0

    def test_dedupe_flag_merges_records(self, capsys, toy_csv):
        argv = ["run", "--data", str(toy_csv), "--label-column", "0",
                "--algorithm", "kmodes", "--k", "2"]
        raw = run_json(capsys, argv)
        merged = run_json(capsys, [*argv, "--dedupe"])
        assert raw["dataset"]["n_records"] == 7
        assert merged["dataset"]["n_records"] == 5
        assert merged["dataset"]["n"] == 7
        # exactness: merging duplicates must not change the solution quality
        assert merged["objectives"] == raw["objectives"]
        assert merged["evaluation"]["error"] == raw["evaluation"]["error"]

    @pytest.mark.parametrize("dedupe", [[], ["--dedupe"]])
    def test_one_distinct_rows_pass_per_dataset(self, capsys, toy_csv, monkeypatch, dedupe):
        # one grouping pass per run: k-modes init and the report's distinct
        # count share it, and dedupe hands its own to the merged dataset
        calls = []
        real = dataset._group_rows
        monkeypatch.setattr(dataset, "_group_rows",
                            lambda values, *rest: calls.append(values.shape) or real(values, *rest))
        record = run_json(capsys, ["run", "--data", str(toy_csv), "--label-column", "0",
                                   "--algorithm", "kmodes", "--k", "2", *dedupe])
        assert len(calls) == 1
        assert record["dataset"]["distinct_values"] == 5

    @pytest.mark.parametrize("fixture", ["votes_csv", "unlabeled_csv"])
    def test_kmodes_evaluation_builds_no_count_table(self, capsys, request, monkeypatch, fixture):
        # the evaluation reads the table of the run's last assignment: a run
        # builds one table per assignment it counts and none after it
        calls = []
        for module in (kmodes, importlib.import_module("catcluster.evaluate")):
            real = module.cluster_counts
            monkeypatch.setattr(module, "cluster_counts",
                                lambda *args, real=real, name=module.__name__: calls.append(name) or real(*args))
        label = ["--label-column", "0"] if fixture == "votes_csv" else []
        record = run_json(capsys, ["run", "--data", str(request.getfixturevalue(fixture)), *label,
                                   "--algorithm", "kmodes", "--k", "3"])
        solution = record["solution"]
        assert solution["converged"] and not solution["reseeded_iterations"]
        # the initial assignment's table, then one per iteration that changed the assignment
        assert calls == ["catcluster.kmodes"] * solution["iterations"]
        assert solution["objective_history"][-1] == record["objectives"]["mode_objective"]

    def test_records_objective_history(self, capsys, toy_csv):
        record = run_json(
            capsys,
            ["run", "--data", str(toy_csv), "--label-column", "0",
             "--algorithm", "kmodes", "--k", "2"],
        )
        history = record["solution"]["objective_history"]
        assert len(history) == record["solution"]["iterations"]
        assert history == sorted(history, reverse=True)
        assert history[-1] == record["objectives"]["mode_objective"]
        assert record["solution"]["reseeded_iterations"] == []

    def test_tsv_format(self, capsys, toy_csv):
        argv = ["run", "--data", str(toy_csv), "--label-column", "0",
                "--algorithm", "kmodes", "--k", "2", "--format", "tsv"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        lines = dict(line.split("\t", 1) for line in out.splitlines())
        assert lines["config.algorithm"] == "kmodes"
        assert lines["dataset.n"] == "7"
        assert "evaluation.error.display" in lines

    def test_text_format(self, capsys, toy_csv):
        argv = ["run", "--data", str(toy_csv), "--label-column", "0",
                "--algorithm", "kmodes", "--k", "2", "--format", "text"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("catcluster ")
        assert "confusion matrix:" in out

    def test_output_file(self, capsys, toy_csv, tmp_path):
        dest = tmp_path / "report.json"
        argv = ["run", "--data", str(toy_csv), "--label-column", "0",
                "--algorithm", "kmodes", "--k", "2", "--output", str(dest)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == ""
        record = json.loads(dest.read_text())
        assert record["command"] == "run"


class TestRunErrors:
    def test_missing_file(self, capsys, tmp_path):
        code = cli.main(["run", "--data", str(tmp_path / "absent.csv"),
                         "--algorithm", "kmodes", "--k", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_label_column(self, capsys, toy_csv):
        code = cli.main(["run", "--data", str(toy_csv), "--label-column", "party",
                         "--algorithm", "kmodes", "--k", "2"])
        assert code == 2
        assert "label column" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["kmodes", "exhaustive", "local-search"])
    def test_bad_k(self, capsys, tmp_path, algorithm):
        # refused at the parser, before the (absent) file is read, whatever the algorithm
        code = cli.main(["run", "--data", str(tmp_path / "absent.csv"), "--label-column", "0",
                         "--algorithm", algorithm, "--k", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert "argument --k: k must be >= 1, got 0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_an_error(self, capsys, toy_csv, threads):
        code = cli.main(["run", "--data", str(toy_csv), "--label-column", "0",
                         "--algorithm", "exhaustive", "--k", "2", "--threads", threads])
        assert code == 2
        captured = capsys.readouterr()
        assert "workers must be >= 1" in captured.err and captured.out == ""

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", [["run", "--algorithm", "kmodes", "--k", "2"],
                                         ["run", "--algorithm", "local-search", "--k", "2"],
                                         ["reproduce", "--table", "mushroom"]])
    def test_threads_refused_at_the_parser(self, capsys, toy_csv, command, threads):
        code = cli.main([*command, "--data", str(toy_csv), "--threads", threads])
        assert code == 2
        captured = capsys.readouterr()
        assert f"argument --threads: workers must be >= 1, got {threads}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("option", ["--p", "--restarts", "--max-steps", "--max-iterations"])
    @pytest.mark.parametrize("algorithm", ["kmodes", "exhaustive", "local-search"])
    def test_counts_below_one_refused_at_the_parser(self, capsys, toy_csv, algorithm, option, value):
        # whether or not the algorithm reads the option
        code = cli.main(["run", "--data", str(toy_csv), "--label-column", "0",
                         "--algorithm", algorithm, "--k", "2", option, value])
        assert code == 2
        captured = capsys.readouterr()
        assert f"argument {option}: " in captured.err and f" must be >= 1, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "-0.0001"])
    @pytest.mark.parametrize("algorithm", ["kmodes", "exhaustive", "local-search"])
    def test_threshold_refused_at_the_parser(self, capsys, toy_csv, algorithm, value):
        code = cli.main(["run", "--data", str(toy_csv), "--label-column", "0",
                         "--algorithm", algorithm, "--k", "2", "--min-relative-improvement", value])
        assert code == 2
        captured = capsys.readouterr()
        assert "argument --min-relative-improvement: min_relative_improvement must be finite and >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["run", "--algorithm", "kmodes", "--k", "1"],
                                         ["verify", "--suite", "lemma1", "--trials", "5"]])
    def test_over_long_field_is_an_input_error(self, capsys, tmp_path, command):
        # exit 2 like any unreadable input, not a traceback's 1, which verify
        # uses for "violations found"
        path = tmp_path / "long.csv"
        path.write_text("a,b\nc," + "x" * 131_073 + "\n")
        code = cli.main([*command, "--data", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {path}: line 2: field larger than field limit" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", [["run", "--algorithm", "kmodes", "--k", "2"],
                                         ["run", "--algorithm", "exhaustive", "--k", "2"],
                                         ["run", "--algorithm", "local-search", "--k", "2"],
                                         ["reproduce", "--table", "votes"],
                                         ["verify", "--suite", "lemma1"],
                                         ["verify", "--suite", "oracle"]])
    def test_negative_seed_refused_at_the_parser(self, capsys, toy_csv, command):
        data = [] if command[-1] == "oracle" else ["--data", str(toy_csv)]
        code = cli.main([*command, *data, "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "argument --seed: seed must be >= 0, got -1" in captured.err and captured.out == ""

    def test_exhaustive_gate_names_force(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("\n".join(f"v{i % 5},w{i % 7}" for i in range(2001)) + "\n")
        code = cli.main(["run", "--data", str(path), "--algorithm", "exhaustive", "--k", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--force" in err and "2001" in err


class TestVerify:
    def test_metric_suite_on_csv(self, capsys, toy_csv):
        code = cli.main(["verify", "--suite", "metric", "--data", str(toy_csv),
                         "--label-column", "0", "--trials", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify metric: trials=200 violations=0 -> pass" in out

    def test_lemma1_suite_on_csv(self, capsys, toy_csv):
        code = cli.main(["verify", "--suite", "lemma1", "--data", str(toy_csv),
                         "--label-column", "0", "--trials", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max ratio" in out and "pass" in out

    def test_lemma2_suite(self, capsys):
        code = cli.main(["verify", "--suite", "lemma2", "--trials", "5"])
        assert code == 0
        assert "verify lemma2: trials=5 violations=0 -> pass" in capsys.readouterr().out

    def test_oracle_suite(self, capsys):
        code = cli.main(["verify", "--suite", "oracle", "--trials", "2"])
        assert code == 0
        assert "verify oracle: trials=2 violations=0 -> pass" in capsys.readouterr().out

    def test_json_format_reports_violation_list(self, capsys):
        record = run_json(capsys, ["verify", "--suite", "lemma2", "--trials", "3",
                                   "--format", "json"])
        assert record["passed"] is True
        assert record["violations"] == []
        assert record["trials"] == 3

    def test_ingestion_options_reach_the_loader(self, capsys, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("democrat,y,?\nrepublican,n,y\n")
        argv = ["verify", "--suite", "metric", "--data", str(path), "--label-column", "0",
                "--trials", "20", "--missing-policy", "reject"]
        assert cli.main(argv) == 2
        assert "policy=reject" in capsys.readouterr().err
        # with "?" an ordinary token, "y" is the missing one
        assert cli.main([*argv, "--missing-token", "y"]) == 2
        assert cli.main([*argv, "--missing-token", "NA"]) == 0

    def test_named_dataset_honours_missing_options(self, capsys, tmp_path):
        path = tmp_path / "votes.csv"
        rows = [",".join(["democrat"] + ["yn"[(i + j) % 2] for j in range(16)]) for i in range(435)]
        rows[7] = rows[7][:-1] + "?"
        path.write_text("\n".join(rows) + "\n")
        argv = ["verify", "--suite", "metric", "--name", "votes", "--data", str(path), "--trials", "20"]
        assert cli.main(argv) == 0
        assert cli.main([*argv, "--missing-policy", "reject"]) == 2
        assert "policy=reject" in capsys.readouterr().err
        assert cli.main([*argv, "--missing-policy", "reject", "--missing-token", "NA"]) == 0

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("suite", ["metric", "lemma1", "lemma2", "oracle"])
    def test_no_trials_is_an_error(self, capsys, toy_csv, suite, trials):
        data = ["--data", str(toy_csv), "--label-column", "0"] if suite in ("metric", "lemma1") else []
        code = cli.main(["verify", "--suite", suite, *data, "--trials", trials])
        assert code == 2
        captured = capsys.readouterr()
        assert "trials must be >= 1" in captured.err and captured.out == ""
        assert f"argument --trials: trials must be >= 1, got {trials}" in captured.err  # refused at the parser

    @pytest.mark.parametrize("suite", ["lemma2", "oracle"])
    @pytest.mark.parametrize("flag", ["--data", "--name"])
    def test_no_input_suites_refuse_input(self, capsys, toy_csv, suite, flag):
        source = str(toy_csv) if flag == "--data" else "votes"
        code = cli.main(["verify", "--suite", suite, flag, source, "--trials", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"suite {suite!r} reads no input" in captured.err and captured.out == ""

    @pytest.mark.parametrize("suite,keys", [
        ("metric", {"triple", "axiom"}),
        ("lemma1", {"subset_size", "medoid_cost", "mode_cost"}),
    ])
    def test_violations_exit_1(self, capsys, toy_csv, monkeypatch, suite, keys):
        # each suite meets its own fault: a kernel that never reads the last
        # attribute, and best members priced at three times their cost
        hamming, member_costs = metric.hamming, medoids.member_costs
        monkeypatch.setattr(metric, "hamming", lambda a, b: hamming(a[:, :-1], b[:, :-1]))
        monkeypatch.setattr(medoids, "member_costs", lambda *args: 3 * member_costs(*args))
        argv = ["verify", "--suite", suite, "--data", str(toy_csv), "--label-column", "0", "--trials", "50"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"verify {suite}: trials=50 violations=") and "-> FAIL" in out
        assert cli.main([*argv, "--format", "json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["passed"] is False and record["violations"]
        assert all(set(violation) == keys for violation in record["violations"])

    def test_dataset_suites_need_input(self, capsys):
        code = cli.main(["verify", "--suite", "metric"])
        assert code == 2
        assert "--name or --data" in capsys.readouterr().err


class _FakeResponse:
    def __init__(self, payload: bytes):
        self._payload = payload

    def read(self) -> bytes:
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def votes_payload() -> bytes:
    line = ",".join(["democrat"] + ["y"] * 16)
    return ("\n".join([line] * 435) + "\n").encode()


class TestFetch:
    def test_fetch_writes_cache_file(self, capsys, tmp_path, monkeypatch):
        seen = []

        def fake_urlopen(url, timeout=None):
            seen.append(url)
            return _FakeResponse(votes_payload())

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        code = cli.main(["fetch", "--name", "votes", "--data-dir", str(tmp_path)])
        assert code == 0
        assert seen == [cli.NAMED_DATASETS["votes"]["url"]]
        dest = tmp_path / "house-votes-84.data"
        assert dest.exists()
        assert str(dest) in capsys.readouterr().out

    def test_fetch_skips_existing_file(self, capsys, tmp_path, monkeypatch):
        dest = tmp_path / "house-votes-84.data"
        dest.write_bytes(votes_payload())

        def no_network(url, timeout=None):
            raise AssertionError("network must not be touched for a cached file")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        assert cli.main(["fetch", "--name", "votes", "--data-dir", str(tmp_path)]) == 0

    def test_fetch_failure_is_actionable(self, capsys, tmp_path, monkeypatch):
        def fake_urlopen(url, timeout=None):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        code = cli.main(["fetch", "--name", "votes", "--data-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "could not download" in err
        assert str(tmp_path / "house-votes-84.data") in err

    def test_fetch_rejects_wrong_shape(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            urllib.request, "urlopen",
            lambda url, timeout=None: _FakeResponse(b"a,b\nc,d\n"),
        )
        code = cli.main(["fetch", "--name", "votes", "--data-dir", str(tmp_path)])
        assert code == 2
        assert "does not look like the votes dataset" in capsys.readouterr().err
        # the rejected file must not satisfy the next cache lookup
        assert not (tmp_path / "house-votes-84.data").exists()

    def test_sources_config_overrides_url(self, capsys, tmp_path, monkeypatch):
        sources = tmp_path / "sources.json"
        sources.write_text(json.dumps({"votes": "https://mirror.example/votes.data"}))

        def fake_urlopen(url, timeout=None):
            raise urllib.error.URLError("offline")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        code = cli.main(["fetch", "--name", "votes", "--data-dir", str(tmp_path),
                         "--sources", str(sources)])
        assert code == 2
        assert "https://mirror.example/votes.data" in capsys.readouterr().err

    def test_sources_config_rejects_unknown_names(self, capsys, tmp_path):
        sources = tmp_path / "sources.json"
        sources.write_text(json.dumps({"iris": "https://mirror.example/iris.data"}))
        code = cli.main(["fetch", "--name", "votes", "--data-dir", str(tmp_path),
                         "--sources", str(sources)])
        assert code == 2
        assert "iris" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["5", '{"votes": 5}', '["votes"]'])
    def test_sources_config_must_map_names_to_urls(self, capsys, tmp_path, monkeypatch, config):
        sources = tmp_path / "sources.json"
        sources.write_text(config)

        def no_network(url, timeout=None):
            raise AssertionError("a malformed config must fail before any download")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        code = cli.main(["fetch", "--name", "votes", "--data-dir", str(tmp_path), "--sources", str(sources)])
        assert code == 2
        assert f"source config {sources} is not a JSON object" in capsys.readouterr().err


class TestReproduce:
    def test_missing_data_is_actionable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path / "empty-cache"))
        monkeypatch.chdir(tmp_path)
        code = cli.main(["reproduce", "--table", "votes"])
        assert code == 2
        err = capsys.readouterr().err
        assert "catcluster fetch" in err
        assert "house-votes-84.data" in err

    def test_explicit_path_is_shape_checked(self, capsys, toy_csv):
        code = cli.main(["reproduce", "--table", "votes", "--data", str(toy_csv)])
        assert code == 2
        assert "does not look like the votes dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["reproduce", "--table", "votes"],
                                         ["verify", "--suite", "metric", "--name", "votes"]])
    def test_missing_explicit_path_is_named(self, capsys, tmp_path, command):
        absent = tmp_path / "nope.csv"
        assert cli.main([*command, "--data", str(absent)]) == 2
        assert str(absent) in capsys.readouterr().err

    def test_votes_rows_match_run(self, capsys, votes_csv):
        record = run_json(capsys, ["reproduce", "--table", "votes", "--data", str(votes_csv),
                                   "--format", "json"])
        measured = record["measured"]

        def run(algorithm):
            report = run_json(capsys, ["run", "--data", str(votes_csv), "--label-column", "0", "--dedupe",
                                       "--algorithm", algorithm, "--k", "2"])
            return report["objectives"], report["evaluation"]

        objectives, evaluation = run("kmodes")
        assert measured["kmodes_objective"] == objectives["mode_objective"]
        assert Fraction(measured["kmodes_error_exact"]) == Fraction(evaluation["error"]["exact"])
        assert record["kmodes_confusion"] == evaluation["confusion"]["counts"]
        objectives, evaluation = run("exhaustive")
        assert measured["approx_medoid_objective"] == objectives["medoid_objective"]
        assert measured["approx_mode_objective"] == objectives["mode_objective"]
        assert Fraction(measured["approx_error_exact"]) == Fraction(evaluation["error"]["exact"])
        assert record["approx_confusion"] == evaluation["confusion"]["counts"]


class TestSolutionCommon:
    def test_cluster_weights_are_exact_past_float_precision(self):
        # float64 sums 2**53 + 1 to 2**53
        ds = dataset_from_rows([["x"], ["y"], ["x"]], weights=[2**53, 1, 5])
        common = cli._solution_common(ds, np.array([0, 0, 2]))
        assert common["cluster_weights"] == [9007199254740993, 0, 5]

    def test_compaction_drops_empty_clusters(self):
        assignment = np.array([3, 0, 3, 5, 0])
        compact, dropped = cli._compact_assignment(assignment, 6)
        assert (compact.tolist(), dropped) == ([1, 0, 1, 2, 0], [1, 2, 4])
        full = np.array([1, 0, 1])
        assert cli._compact_assignment(full, 2) == (full, [])


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert cli.__version__ in capsys.readouterr().out

    def test_dataset_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert cli.dataset_path("votes") is None
        (tmp_path / "house-votes-84.data").write_bytes(votes_payload())
        assert cli.dataset_path("votes") == tmp_path / "house-votes-84.data"
