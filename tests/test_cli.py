import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import gquad
import gquad.cli
import gquad.groups
import gquad.search
from gquad.cli import RunConfig, emit_class_count_table, resolve_config, run_cli
from gquad.groups import invariant_report, load_group


def _run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Artifacts shared along the build-gq -> payne -> groups pipeline."""
    root = tmp_path_factory.mktemp("cli")
    assert run_cli(["build-gq", "--type", "w3", "--q", "3",
                    "--out", str(root / "w33.gq")]) == 0
    assert run_cli(["build-gq", "--type", "w3", "--q", "4",
                    "--out", str(root / "w34.gq")]) == 0
    assert run_cli(["payne", "--gq", str(root / "w33.gq"),
                    "--out", str(root / "w33x.gq")]) == 0
    assert run_cli(["payne", "--gq", str(root / "w34.gq"),
                    "--out", str(root / "w34x.gq")]) == 0
    return root


def test_build_gq_file_header(workdir):
    first = (workdir / "w33.gq").read_text().splitlines()[0]
    assert first == "GQ 40 40 3 3"


def test_build_gq_rerun_identical(workdir, tmp_path):
    target = tmp_path / "again.gq"
    assert run_cli(["build-gq", "--type", "w3", "--q", "3",
                    "--out", str(target)]) == 0
    assert target.read_bytes() == (workdir / "w33.gq").read_bytes()


def test_verify_subcommand(workdir, capsys):
    code, out, err = _run(capsys, "verify", "--gq", str(workdir / "w33x.gq"))
    assert code == 0
    assert "valid GQ(2,4)" in out


def test_payne_header(workdir):
    first = (workdir / "w34x.gq").read_text().splitlines()[0]
    assert first == "GQ 64 96 3 5"


def test_construct_group_and_check_regular(workdir, capsys):
    grp = workdir / "E4.grp"
    code, out, err = _run(capsys, "construct-group", "--name", "E",
                          "--q", "4", "--gq", str(workdir / "w34x.gq"),
                          "--out", str(grp))
    assert code == 0
    code, out, err = _run(capsys, "check-regular", "--group", str(grp),
                          "--gq", str(workdir / "w34x.gq"))
    assert code == 0
    assert out.strip() == "regular: true"


def test_build_gq_gu513_rejects_q(tmp_path, capsys):
    # gu513 is always Q-(5,8); a --q would only mislabel the file
    code, out, err = _run(capsys, "build-gq", "--type", "gu513", "--q", "5",
                          "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ValueError: ")
    assert "--q" in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", ["gu513", "extraspecial27-exp3",
                                  "extraspecial27-exp9"])
def test_construct_group_rejects_q_for_fixed_groups(tmp_path, capsys, name):
    code, out, err = _run(capsys, "construct-group", "--name", name,
                          "--q", "3", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ValueError: ")
    assert "--q" in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_construct_group_gu513_checks_the_quadrangle_file(workdir, tmp_path,
                                                         capsys):
    grp = tmp_path / "gu513.grp"
    code, out, err = _run(capsys, "construct-group", "--name", "gu513",
                          "--gq", str(workdir / "w33.gq"), "--out", str(grp))
    assert code == 1
    assert err.startswith("error: ValueError: ")
    assert "Q-(5,8)" in err
    assert err.count("\n") == 1
    assert not grp.exists()
    qm = tmp_path / "gu513.gq"
    assert run_cli(["build-gq", "--type", "gu513", "--out", str(qm)]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, "construct-group", "--name", "gu513",
                          "--gq", str(qm), "--out", str(grp))
    assert code == 0
    assert out.strip() == f"wrote {grp}: degree 4617, order 4617"


def test_group_roundtrip_preserves_fingerprint(workdir, capsys):
    grp = workdir / "P3.grp"
    assert run_cli(["construct-group", "--name", "P", "--q", "3",
                    "--out", str(grp)]) == 0
    g = load_group(str(grp))
    assert g.order() == 27
    capsys.readouterr()
    code, out, err = _run(capsys, "invariants", "--group", str(grp))
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 27
    assert payload["exponent"] == 9
    assert payload["fingerprint"] == invariant_report(g)["fingerprint"]


def test_not_regular_on_wrong_quadrangle(workdir, capsys):
    grp = workdir / "Z3.grp"
    assert run_cli(["construct-group", "--name", "Z", "--q", "3",
                    "--out", str(grp)]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, "check-regular", "--group", str(grp),
                          "--gq", str(workdir / "w33x.gq"))
    assert code == 0
    assert out.strip() == "regular: false"


def test_iso_subcommand(workdir, capsys):
    e3 = workdir / "E3.grp"
    x3 = workdir / "x27.grp"
    assert run_cli(["construct-group", "--name", "E", "--q", "3",
                    "--out", str(e3)]) == 0
    assert run_cli(["construct-group", "--name", "extraspecial27-exp3",
                    "--out", str(x3)]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, "iso", "--group-a", str(e3),
                          "--group-b", str(x3))
    assert code == 0
    assert out.strip() == "isomorphic: true"
    p3 = workdir / "P3b.grp"
    assert run_cli(["construct-group", "--name", "P", "--q", "3",
                    "--out", str(p3)]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, "iso", "--group-a", str(e3),
                          "--group-b", str(p3))
    assert code == 0
    assert out.strip() == "isomorphic: false"


# ---------------------------------------------------------------------------
# enumeration through the CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def enum_tables(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("enum")
    assert run_cli(["build-gq", "--type", "w3", "--q", "2",
                    "--out", str(root / "w32.gq")]) == 0
    assert run_cli(["payne", "--gq", str(root / "w32.gq"),
                    "--out", str(root / "w32x.gq")]) == 0
    assert run_cli(["build-gq", "--type", "w3", "--q", "5",
                    "--out", str(root / "w35.gq")]) == 0
    assert run_cli(["payne", "--gq", str(root / "w35.gq"),
                    "--out", str(root / "w35x.gq")]) == 0
    out2 = root / "regular-q2.json"
    out3 = root / "regular-q3.json"
    out5 = root / "regular-q5.json"
    assert run_cli(["enumerate-regular", "--gq", str(root / "w32x.gq"),
                    "--out", str(out2)]) == 0
    assert run_cli(["enumerate-regular", "--gq", str(workdir / "w33x.gq"),
                    "--out", str(out3)]) == 0
    assert run_cli(["enumerate-regular", "--gq", str(root / "w35x.gq"),
                    "--budget", "600", "--out", str(out5)]) == 0
    return root, out2, out3, out5


def test_enumerate_regular_q5_two_classes(enum_tables):
    root, out2, out3, out5 = enum_tables
    payload = json.loads(out5.read_text())
    assert payload["num_classes"] == 2
    assert payload["complete"] is True
    assert payload["metadata"]["q"] == 5
    matches = sorted(m for c in payload["classes"] for m in c["matches"])
    assert matches == ["E", "P"]


def test_enumerate_regular_q2_counts(enum_tables):
    root, out2, out3, out5 = enum_tables
    payload = json.loads(out2.read_text())
    assert payload["num_classes"] == 4
    assert payload["metadata"]["q"] == 2


def test_enumerate_rerun_identical(enum_tables, tmp_path):
    root, out2, out3, out5 = enum_tables
    again = tmp_path / "again.json"
    assert run_cli(["enumerate-regular", "--gq", str(root / "w32x.gq"),
                    "--out", str(again)]) == 0
    assert again.read_bytes() == out2.read_bytes()


def _enum_gq(workdir, enum_tables, q):
    root = enum_tables[0]
    return {2: root / "w32x.gq", 3: workdir / "w33x.gq",
            5: root / "w35x.gq"}[q]


@pytest.mark.parametrize("q, classes", [(2, 4), (5, 2)])
def test_enumerate_reports_invariants_once_per_class(workdir, enum_tables,
                                                     tmp_path, monkeypatch,
                                                     q, classes):
    # classify_classes reuses the report each class carries
    real = gquad.groups.invariant_report
    calls = []

    def counting(group):
        calls.append(group)
        return real(group)

    monkeypatch.setattr(gquad.groups, "invariant_report", counting)
    monkeypatch.setattr(gquad.search, "invariant_report", counting)
    out = tmp_path / "table.json"
    assert run_cli(["enumerate-regular", "--gq",
                    str(_enum_gq(workdir, enum_tables, q)),
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["num_classes"] == classes
    assert len(calls) == classes


@pytest.mark.parametrize("q, iso_classes", [
    (2, [0, 1, 2, 2]), (3, [0, 1]), (5, [0, 0])])
def test_classify_without_reports_keeps_the_table(workdir, enum_tables,
                                                  tmp_path, monkeypatch, q,
                                                  iso_classes):
    # the fingerprinting is_isomorphic_small in place of the bare search
    # gives the same iso_class values and the same bytes
    gq = str(_enum_gq(workdir, enum_tables, q))
    tables = []
    for route in (None, gquad.groups.is_isomorphic_small):
        if route is not None:
            monkeypatch.setattr(gquad.search, "find_isomorphism", route)
        out = tmp_path / f"table-{len(tables)}.json"
        assert run_cli(["enumerate-regular", "--gq", gq,
                        "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    classes = json.loads(tables[0])["classes"]
    assert [c["iso_class"] for c in classes] == iso_classes


def test_enumerate_tables_identical_across_hash_seeds(workdir, enum_tables,
                                                     tmp_path):
    root, out2, out3, out5 = enum_tables
    src = os.path.dirname(os.path.dirname(gquad.__file__))
    tables = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for q, gq in ((3, workdir / "w33x.gq"), (5, root / "w35x.gq")):
            out = tmp_path / f"q{q}-seed{seed}.json"
            done = subprocess.run(
                [sys.executable, "-m", "gquad.cli", "enumerate-regular",
                 "--gq", str(gq), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            tables.setdefault(q, []).append(out.read_bytes())
    for q, (first, second) in tables.items():
        assert first == second, f"q={q} table depends on the hash seed"


def test_report_markdown_and_csv(enum_tables, capsys):
    root, out2, out3, out5 = enum_tables
    code, out, err = _run(capsys, "report", "--tables", str(out2),
                          str(out3), str(out5), "--format", "md")
    assert code == 0
    assert "| 2 | 4 |" in out
    assert "| 3 | 2 |" in out
    assert "| 5 | 2 |" in out
    code, out, err = _run(capsys, "report", "--tables", str(out2),
                          str(out3), str(out5), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,num_classes,comments"
    assert lines[1].startswith("2,4,")
    assert lines[2].startswith("3,2,")
    assert lines[3].startswith("5,2,")


def test_report_refuses_incomplete(tmp_path, capsys):
    partial = {"gq": "toy", "n_points": 8, "num_classes": 1,
               "complete": False, "classes": [],
               "metadata": {"q": 2}}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    code, out, err = _run(capsys, "report", "--tables", str(path))
    assert code == 1
    assert err.startswith("error: ValueError: RefusesIncomplete")
    assert "\n" not in err.strip()
    code, out, err = _run(capsys, "report", "--tables", str(path),
                          "--allow-partial")
    assert code == 0
    assert "(partial)" in out


@pytest.mark.parametrize("drop, field", [
    (lambda t: t.pop("classes"), "'classes'"),
    (lambda t: t.pop("num_classes"), "'num_classes'"),
    (lambda t: t.pop("n_points"), "'n_points'"),
    (lambda t: t.pop("complete"), "'complete'"),
    (lambda t: t["classes"][1].pop("matches"), "class 1 has no 'matches'"),
    (lambda t: t["classes"][0].pop("description"),
     "class 0 has no 'description'"),
])
def test_report_rejects_malformed_table(enum_tables, tmp_path, capsys, drop,
                                        field):
    root, out2, out3, out5 = enum_tables
    table = json.loads(out3.read_text())
    drop(table)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code, out, err = _run(capsys, "report", "--tables", str(out2), str(path))
    assert code == 1
    assert err.startswith(f"error: ValueError: {path}: ")
    assert field in err
    assert err.count("\n") == 1


def test_report_rejects_non_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = _run(capsys, "report", "--tables", str(path))
    assert code == 1
    assert err.startswith(f"error: ValueError: {path}: not JSON")


def test_report_empty_input(capsys):
    code, out, err = _run(capsys, "report", "--tables")
    assert code == 0
    assert out.startswith("| q | classes | comments |")


def test_emit_table_sorts_by_q():
    payloads = [
        {"gq": "b", "n_points": 27, "num_classes": 2, "complete": True,
         "classes": [], "metadata": {"q": 3}},
        {"gq": "a", "n_points": 8, "num_classes": 4, "complete": True,
         "classes": [], "metadata": {"q": 2}},
    ]
    md = emit_class_count_table(payloads, "md")
    assert md.index("| 2 | 4 |") < md.index("| 3 | 2 |")


# ---------------------------------------------------------------------------
# configuration and error plumbing
# ---------------------------------------------------------------------------

def test_config_precedence(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("budget=10\nbound=512\n# comment\n\n")

    import argparse
    args = argparse.Namespace(config=str(cfgfile), budget=None, bound=None,
                              out_dir=None, modulus=None)
    cfg = resolve_config(args, env={})
    assert cfg.budget_seconds == 10.0 and cfg.bound == 512

    cfg = resolve_config(args, env={"GQ_BUDGET": "20"})
    assert cfg.budget_seconds == 20.0 and cfg.bound == 512

    args.budget = 30.0
    args.bound = 64
    cfg = resolve_config(args, env={"GQ_BUDGET": "20"})
    assert cfg.budget_seconds == 30.0 and cfg.bound == 64


@pytest.mark.parametrize("text, line", [
    ("budget=10\nworkers=2\n", 2),              # removed knob
    ("# seed\n\nseed=7\n", 3),                   # removed knob
    ("bound=64\nbudget 10\n", 2),                # no '='
    ("budgte=10\n", 1),                           # unknown key
    ("budget=ten\n", 1),                          # not a number
    ("budget=0\n", 1),                            # out of range
    ("bound=1.5\n", 1),                           # not an integer
    ("formats=md\n", 1),                          # removed knob
    ("modulus=2^2=7,nonsense\n", 1),              # bad modulus
])
def test_config_file_errors_name_the_line(tmp_path, capsys, text, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    code, out, err = _run(capsys, "report", "--tables", "--config",
                          str(cfgfile))
    assert code == 1
    assert f"{cfgfile}, line {line}:" in err


def test_config_invariants():
    with pytest.raises(ValueError):
        RunConfig(budget_seconds=0)


# every setting, as its command-line and config-file text
SETTINGS = {"budget": "5", "bound": "7", "out_dir": "elsewhere",
            "modulus": "2^2=7"}


def test_settings_are_wired_alike(tmp_path):
    # the config-file keys, the flags common to every subcommand and the
    # RunConfig fields name the same settings, and each one reaches its
    # field both ways
    parser = gquad.cli._build_parser()
    commands = parser._subparsers._group_actions[0].choices.values()
    common = set.intersection(*({a.dest for a in sp._actions}
                                for sp in commands))
    assert common - {"help", "config"} == set(SETTINGS)
    assert set(gquad.cli._CONFIG_KEYS) == set(SETTINGS)
    assert ({name for name, _ in gquad.cli._CONFIG_KEYS.values()}
            == {f.name for f in dataclasses.fields(RunConfig)})

    argv = ["report"]
    for key, text in SETTINGS.items():
        argv += ["--" + key.replace("_", "-"), text]
    from_flags = resolve_config(parser.parse_args(argv), env={})
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{k}={v}\n" for k, v in SETTINGS.items()))
    from_file = resolve_config(
        parser.parse_args(["report", "--config", str(cfgfile)]), env={})
    assert from_flags == from_file
    for f in dataclasses.fields(RunConfig):
        assert getattr(from_file, f.name) != getattr(RunConfig(), f.name)


def test_bad_env_is_domain_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("GQ_BUDGET", "0")
    code, out, err = _run(capsys, "report", "--tables")
    assert code == 1
    assert err.startswith("error: ValueError:")


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError, KeyError])
def test_internal_error_exits_3_with_traceback(workdir, capsys, monkeypatch,
                                              exc):
    def broken(*args, **kwargs):
        raise exc("invariant broken")

    monkeypatch.setattr(gquad.cli, "verify_gq", broken)
    code, out, err = _run(capsys, "verify", "--gq", str(workdir / "w33x.gq"))
    assert code == 3
    assert "Traceback (most recent call last)" in err
    # str(KeyError(m)) is m quoted
    assert f"{exc.__name__}: {exc('invariant broken')}" in err
    assert not err.startswith("error: ")


def test_usage_errors(capsys):
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["build-gq"]) == 2
    capsys.readouterr()


def test_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    out = str(tmp_path / "w32.gq")
    assert run_cli(["build-gq", "--type", "w3", "--q", "2",
                    "--out", out]) == 0
    # a usage error after a successful call still exits 2, and argparse
    # writes its usage to whatever stderr is at the time of the call
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(["build-gq", "--q", "2"]) == 2
    assert err.getvalue().startswith("usage: gquad build-gq")
    assert "--type" in err.getvalue()
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    capsys.readouterr()


def test_missing_file_is_single_line_error(capsys):
    code, out, err = _run(capsys, "verify", "--gq", "/nonexistent/x.gq")
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ")


def test_modulus_override(tmp_path, capsys):
    out = tmp_path / "w34.gq"
    code, _, err = _run(capsys, "build-gq", "--type", "w3", "--q", "4",
                        "--modulus", "2^2=7", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[0] == "GQ 85 85 4 4"
    code, _, err = _run(capsys, "build-gq", "--type", "w3", "--q", "4",
                        "--modulus", "nonsense", "--out", str(out))
    assert code == 1
    assert "bad modulus override" in err


# ---------------------------------------------------------------------------
# determinism contract: pinned table bytes
# ---------------------------------------------------------------------------

# sha256 of the enumerate-regular tables of derived W(3, q), recorded at
# commit 44cf032; a change that alters a table's bytes must re-pin them
TABLE_SHA256 = {
    2: "a58dcd142a4192fa31829a791d47c48ba615be7e0cd2006d3572e9bccc4b174e",
    3: "c9a429eb1a812b1064cb6b36d9642ad157fc1f7d8e2cd47c6863e2888eedc48f",
    5: "7b7e4f0694a79911d891efcb08484157c19d12e5ef79cb332330368c27a47e03",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_census_tables_match_pinned_bytes(tmp_path):
    for q, want in TABLE_SHA256.items():
        w3, der = tmp_path / f"w3{q}.gq", tmp_path / f"w3{q}x.gq"
        out = tmp_path / f"regular-q{q}.json"
        assert run_cli(["build-gq", "--type", "w3", "--q", str(q),
                        "--out", str(w3)]) == 0
        assert run_cli(["payne", "--gq", str(w3), "--out", str(der)]) == 0
        assert run_cli(["enumerate-regular", "--gq", str(der),
                        "--out", str(out)]) == 0
        assert _sha256(out) == want, f"q={q} table bytes changed"
    # the same bytes from fresh interpreters with other hash seeds
    src = os.path.dirname(os.path.dirname(gquad.__file__))
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"q3-seed{seed}.json"
        done = subprocess.run(
            [sys.executable, "-m", "gquad.cli", "enumerate-regular",
             "--gq", str(tmp_path / "w33x.gq"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert _sha256(out) == TABLE_SHA256[3], f"hash seed {seed}"
