import csv
import dataclasses
import json

import numpy as np
import pytest

from qpratio import cli, core, generators, hardness, spectral
from qpratio.cli import main
from qpratio.core import QpIntermediateInstance, instance_to_bytes, load_instance, save_instance
from qpratio.generators import gen_star, random_instance


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star.json"
    assert main(["gen", "star", "--leaves", "5", "--out", str(path)]) == 0
    return str(path)


class TestGen:
    def test_star_round_trips(self, star_file):
        inst = load_instance(star_file)
        assert inst.entries == gen_star(5).entries
        assert inst.meta["params"]["leaves"] == 5

    def test_bipartite_gap_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "bipartite-gap", "--n", "16", "--seed", "7", "--out", str(p1)])
        main(["gen", "bipartite-gap", "--n", "16", "--seed", "7", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_planted_shape(self, tmp_path):
        path = tmp_path / "p.json"
        assert main(["gen", "planted", "--n", "100", "--seed", "1", "--out", str(path)]) == 0
        inst = load_instance(path)
        assert len(inst.bipartition[0]) == 100

    def test_unknown_family_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "nosuch", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_builders_look_up_generators_when_called(self, tmp_path, monkeypatch):
        calls = []
        real = generators.gen_star
        monkeypatch.setattr(generators, "gen_star", lambda leaves: calls.append(leaves) or real(leaves))
        assert main(["gen", "star", "--leaves", "3", "--out", str(tmp_path / "s.json")]) == 0
        assert calls == [3]


# one set of keys per family that a bench item takes: its required keys, and
# for apx-gadget (which requires none) a cycle
FAMILY_KEYS = {
    "star": {"leaves": 4},
    "bipartite-gap": {"n": 9},
    "planted": {"n": 12},
    "level-graph": {"eps": 0.5},
    "random": {"n": 7},
    "apx-gadget": {"cycle": 5},
}


@pytest.mark.parametrize("family", sorted(FAMILY_KEYS))
def test_gen_and_bench_build_one_instance(tmp_path, family):
    keys = FAMILY_KEYS[family]
    table, _ = cli.FAMILIES[family]
    assert {k for k, (_, default) in table.items() if default is cli.REQUIRED} <= set(keys)
    path = tmp_path / "inst.json"
    flags = [arg for k, v in keys.items() for arg in (cli._flag(k), str(v))]
    assert main(["gen", family, *flags, "--out", str(path)]) == 0
    params, build = cli._family({"family": family, "id": "x", "seed": 3, **keys}, extra=("id", "seed"))
    if "seed" in table:
        params["seed"] = 0  # the seed gen uses when --seed is not given
    assert instance_to_bytes(build(params)) == path.read_bytes()


def test_every_bench_family_has_agreement_keys():
    assert set(FAMILY_KEYS) == set(cli.FAMILIES) - {"kand"}


class TestSolve:
    def test_general_on_edge(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        main(["gen", "star", "--leaves", "1", "--out", str(path)])
        csv = tmp_path / "rows.csv"
        assert main(["solve", str(path), "--algo", "general", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "general,1," in out
        assert csv.read_text().count("\n") == 2  # header + row

    def test_bipartite_without_bipartition_exits_2(self, star_file):
        assert main(["solve", star_file, "--algo", "bipartite"]) == 2

    def test_trevisan_row(self, star_file, capsys):
        assert main(["solve", star_file, "--algo", "trevisan"]) == 0
        assert ",trevisan," in capsys.readouterr().out

    def test_psd_uses_canonical_completion(self, star_file, capsys):
        assert main(["solve", star_file, "--algo", "psd"]) == 0
        out = capsys.readouterr().out
        assert ",psd," in out and ",ok" in out

    def test_high_opt_row(self, star_file, capsys):
        assert main(["solve", star_file, "--algo", "high-opt", "--eps", "0.5"]) == 0
        assert ",high-opt," in capsys.readouterr().out


class TestExact:
    def test_refusal_exits_2_and_names_cap(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        main(["gen", "random", "--n", "14", "--seed", "1", "--out", str(path)])
        assert main(["exact", str(path)]) == 2
        err = capsys.readouterr().err
        assert "n=14" in err and "cap=12" in err

    def test_overflowing_weights_exit_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "qp_ratio", "n": 3, "entries": [[0, 1, 1e308], [1, 2, -1e308]]}')
        with np.errstate(over="ignore"):
            assert main(["exact", str(path)]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_star_optimum(self, star_file, capsys):
        assert main(["exact", star_file]) == 0
        assert "1.66666666667" in capsys.readouterr().out

    def test_intermediate_grid(self, tmp_path, capsys):
        path = tmp_path / "inter.json"
        save_instance(QpIntermediateInstance(2, ((0, 1, 1.0),), (0.0, 0.0)), path)
        assert main(["exact", str(path), "--grid-eps", "0.5"]) == 0
        assert "optimum 1" in capsys.readouterr().out


class TestRelaxCertify:
    def test_eig_bound(self, star_file, capsys):
        assert main(["relax", star_file, "--method", "eig"]) == 0
        assert "2.2360679" in capsys.readouterr().out

    def test_sdp_gram_certify_round_trip(self, star_file, tmp_path, capsys):
        gram = tmp_path / "gram.json"
        assert main(["relax", star_file, "--method", "sdp", "--gram-out", str(gram)]) == 0
        assert capsys.readouterr().out.startswith("sdp primal value ")
        assert main(["certify", star_file, "--gram", str(gram)]) == 0

    def test_negative_restarts_exits_2(self, star_file, capsys):
        assert main(["relax", star_file, "--method", "sdp", "--restarts", "-1"]) == 2
        assert "restarts" in capsys.readouterr().err

    def test_certify_feasible_gram_at_zero_tol(self, tmp_path):
        (tmp_path / "in.json").write_text(EDGE)
        (tmp_path / "g.json").write_text(FEASIBLE_GRAM)
        assert main(["certify", str(tmp_path / "in.json"), "--gram", str(tmp_path / "g.json"), "--tol", "0"]) == 0

    def test_certify_infeasible_exits_2(self, star_file, tmp_path):
        gram = tmp_path / "bad.json"
        gram.write_text(json.dumps({"vectors": [[1.0]] * 6}))
        assert main(["certify", star_file, "--gram", str(gram)]) == 2


class TestReduce:
    def test_kand_chain(self, tmp_path):
        kand = tmp_path / "kand.json"
        out = tmp_path / "img.json"
        main(["gen", "kand", "--n", "6", "--m", "4", "--k", "3", "--seed", "2", "--out", str(kand)])
        assert main(["reduce", str(kand), "--from", "kand", "--alpha", "0.5", "--out", str(out)]) == 0
        inst = load_instance(out)
        assert inst.n == 2 * 6 + 4
        assert inst.meta["source_file"] == "kand.json"
        assert len(inst.meta["source_sha256_16"]) == 16

    def test_reduction_builds_no_entries_tuple(self, tmp_path, monkeypatch):
        # the entries tuple of a large reduction is what the arrays avoid
        reduced, saved = [], []
        reduce = hardness.kand_to_qpratio

        def keep(*args):
            out = reduce(*args)
            reduced.append(out[0])
            return out

        monkeypatch.setattr(hardness, "kand_to_qpratio", keep)
        monkeypatch.setattr(core, "save_instance", lambda inst, path: saved.append(inst))
        kand = tmp_path / "kand.json"
        main(["gen", "kand", "--n", "6", "--m", "4", "--k", "3", "--seed", "2", "--out", str(kand)])
        assert main(["reduce", str(kand), "--from", "kand", "--alpha", "0.5", "--out", "unused.json"]) == 0
        for inst in reduced + saved:
            assert "_entries_tuple" not in inst.__dict__
        assert saved[0] == dataclasses.replace(reduced[0], meta=saved[0].meta)
        assert saved[0].meta["source_file"] == "kand.json"

    def test_ug_then_intermediate(self, tmp_path):
        ug = tmp_path / "ug.json"
        mid = tmp_path / "mid.json"
        final = tmp_path / "final.json"
        ug.write_text(
            json.dumps({"kind": "ratio_ug", "vertices": 2, "alphabet": 2, "edges": [[0, 1, [0, 1]]]})
        )
        assert main(["reduce", str(ug), "--from", "ug", "--out", str(mid)]) == 0
        inst = load_instance(mid)
        assert isinstance(inst, QpIntermediateInstance)
        assert inst.n == 8
        # the split needs eps comparable to the penalty scale to stay tiny
        assert main(["reduce", str(mid), "--from", "intermediate", "--eps", "2e11", "--out", str(final)]) == 0
        assert load_instance(final).n % 8 == 0


class TestBench:
    def make_config(self, tmp_path):
        cfg = {
            "seed": 1,
            "cap": 10,
            "algos": ["general", "trevisan"],
            "out_csv": str(tmp_path / "bench.csv"),
            "out_svg": str(tmp_path / "bench.svg"),
            "instances": [
                {"family": "star", "leaves": 5},
                {"family": "random", "n": 6, "seed": 1},
            ],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path, tmp_path / "bench.csv", tmp_path / "bench.svg"

    def test_smoke_grid(self, tmp_path):
        cfg, csv, svg = self.make_config(tmp_path)
        assert main(["bench", str(cfg)]) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("instance_id,family,n,seed,algo,value,bound")
        assert len(lines) == 1 + 2 * 2
        assert svg.read_text().startswith("<svg")

    def test_rerun_byte_identical(self, tmp_path):
        cfg, csv, _ = self.make_config(tmp_path)
        main(["bench", str(cfg)])
        first = csv.read_bytes()
        main(["bench", str(cfg)])
        assert csv.read_bytes() == first

    def test_oracle_rows_have_ratio_at_most_one(self, tmp_path):
        cfg, csv, _ = self.make_config(tmp_path)
        main(["bench", str(cfg)])
        header, *rows = csv.read_text().strip().split("\n")
        cols = header.split(",")
        for row in rows:
            rec = dict(zip(cols, row.split(",")))
            if rec["bound_kind"] == "oracle" and rec["ratio"]:
                assert float(rec["ratio"]) <= 1 + 1e-9

    def test_comma_in_id_is_quoted(self, tmp_path):
        cfg, csv_path, svg = self.make_config(tmp_path)
        obj = json.loads(cfg.read_text())
        obj["algos"] = ["general"]
        obj["instances"][0]["id"] = "star,five"
        cfg.write_text(json.dumps(obj))
        assert main(["bench", str(cfg)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["instance_id"] for r in rows] == ["random-n6-seed1", "star,five"]
        assert all(len(r) == 12 and r["status"] == "ok" for r in rows)
        assert svg.read_text().count("<circle") == 2

    def test_convergence_error_is_a_row_status(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise spectral.ConvergenceError("no convergence", 1.0)

        monkeypatch.setattr(spectral, "eigen_max", fail)
        cfg, csv_path, _ = self.make_config(tmp_path)
        assert main(["bench", str(cfg)]) == 0
        with open(csv_path, newline="") as fh:
            statuses = sorted((r["algo"], r["status"]) for r in csv.DictReader(fh))
        assert statuses == [("general", "ok")] * 2 + [("trevisan", "error:ConvergenceError")] * 2

    @pytest.mark.parametrize(
        "item",
        [
            {"family": "random", "n": 6.5, "seed": 1},
            {"family": "star", "leaves": True},
            {"family": "planted", "n": 16, "seed": 1, "r": 2.5},
        ],
        ids=["random-n-fractional", "star-leaves-bool", "planted-r-fractional"],
    )
    def test_non_integer_family_parameter_is_a_row_status(self, tmp_path, item):
        self.assert_bad_item_is_a_row_status(tmp_path, item)

    @pytest.mark.parametrize(
        "item",
        [
            {"family": "random", "n": 6, "seed": 1, "density": True},
            {"family": "random", "n": 6, "seed": 1, "density": "0.3"},
            {"family": "planted", "n": 16, "seed": 1, "delta": False},
            {"family": "planted", "n": 16, "seed": 1, "p": True},
            {"family": "level-graph", "eps": "0.5"},
        ],
        ids=[
            "random-density-bool",
            "random-density-string",
            "planted-delta-bool",
            "planted-p-bool",
            "level-graph-eps-string",
        ],
    )
    def test_non_number_float_parameter_is_a_row_status(self, tmp_path, item):
        self.assert_bad_item_is_a_row_status(tmp_path, item)

    @pytest.mark.parametrize(
        "item",
        [
            {"family": "random", "n": 6, "densty": 0.3, "seed": 2},
            {"family": "star", "leaves": 4, "n": 99},
            {"family": "level-graph", "eps": 0.5, "n": 3},
            {"family": "kand", "n": 6, "m": 4, "k": 3},
            {"family": "planted", "n": 16, "seed": 1, "r": -1},
            {"family": "planted", "n": 16, "seed": 1, "planted_size": -1},
            {"family": "bipartite-gap", "n": -4, "seed": 1},
            {"family": "apx-gadget", "cycle": 0},
            {"family": "apx-gadget", "cycle": False},
            {"family": "apx-gadget", "cycle": 1},
            {"family": "apx-gadget", "cycle": 2},
            {"family": "apx-gadget", "graph": 5},
            {"family": "apx-gadget"},
            {"family": "apx-gadget", "cycle": 5, "graph": "g.json"},
            {"family": 5, "n": 3},
        ],
        ids=[
            "random-misspelled-key",
            "star-with-n",
            "level-graph-with-n",
            "kand-not-a-ratio-family",
            "planted-negative-r",
            "planted-negative-planted-size",
            "bipartite-gap-negative-n",
            "apx-gadget-cycle-zero",
            "apx-gadget-cycle-false",
            "apx-gadget-cycle-one",
            "apx-gadget-cycle-two",
            "apx-gadget-graph-not-string",
            "apx-gadget-neither",
            "apx-gadget-both",
            "family-not-a-string",
        ],
    )
    def test_key_the_family_refuses_is_a_row_status(self, tmp_path, item):
        self.assert_bad_item_is_a_row_status(tmp_path, item)

    def test_seed_and_id_are_taken_by_every_item(self, tmp_path):
        cfg, csv_path, _ = self.make_config(tmp_path)
        obj = json.loads(cfg.read_text())
        obj["instances"] = [
            {"family": "star", "leaves": 5, "seed": 4},
            {"family": "level-graph", "eps": 0.5, "id": "lg"},
        ]
        cfg.write_text(json.dumps(obj))
        assert main(["bench", str(cfg)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["instance_id"], r["seed"], r["status"]) for r in rows] == [
            ("lg", "1", "ok"),
            ("lg", "1", "ok"),
            ("star-leaves5-seed4", "4", "ok"),
            ("star-leaves5-seed4", "4", "ok"),
        ]

    def assert_bad_item_is_a_row_status(self, tmp_path, item):
        cfg, csv_path, _ = self.make_config(tmp_path)
        obj = json.loads(cfg.read_text())
        obj["instances"].append(item)
        cfg.write_text(json.dumps(obj))
        assert main(["bench", str(cfg)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        bad = [r for r in rows if r["n"] == ""]
        assert [r["status"] for r in bad] == ["error:ValidationError"] * 2


def top_normalized_eigenvalue(inst):
    """Top eigenvalue of D^{-1/2} A D^{-1/2} over the vertices of nonzero degree."""
    a = inst.to_dense()
    d = np.sum(np.abs(a), axis=1)
    keep = d > 0
    s = a[np.ix_(keep, keep)] / np.sqrt(np.outer(d[keep], d[keep]))
    return float(np.linalg.eigvalsh(s)[-1])


class TestBoundPastCap:
    """Past the brute-force cap every printed bound is an eigenvalue bound."""

    def test_bench_rows_carry_eig_bounds(self, tmp_path):
        algos = ["general", "trevisan", "psd", "high-opt"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "cap": 4,
                    "algos": algos,
                    "out_csv": str(tmp_path / "bench.csv"),
                    "instances": [{"family": "star", "leaves": 5}, {"family": "random", "n": 6, "seed": 1}],
                }
            )
        )
        assert main(["bench", str(cfg)]) == 0
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(algos)
        insts = {"star-leaves5": gen_star(5), "random-n6-seed1": random_instance(6, 1)}
        for r in rows:
            inst = insts[r["instance_id"]]
            if r["algo"] == "trevisan":
                ref = top_normalized_eigenvalue(inst)
            else:
                ref = float(np.linalg.eigvalsh(inst.to_dense())[-1])
            assert r["status"] == "ok" and r["bound_kind"] == "eig"
            assert float(r["bound"]) == pytest.approx(ref, rel=0, abs=1e-9)
            assert float(r["value"]) <= float(r["bound"]) + 1e-9

    def test_solve_bipartite_on_gap(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        assert main(["gen", "bipartite-gap", "--n", "16", "--seed", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path), "--algo", "bipartite"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        inst = load_instance(path)
        assert len(rows) == 1 and rows[0]["algo"] == "bipartite" and rows[0]["bound_kind"] == "eig"
        assert int(rows[0]["n"]) == inst.n == 20
        lam = float(np.linalg.eigvalsh(inst.to_dense())[-1])
        assert float(rows[0]["bound"]) == pytest.approx(lam, rel=0, abs=1e-9)
        assert 0 < float(rows[0]["value"]) <= float(rows[0]["bound"])

    def test_relax_normalized_eig(self, star_file, capsys):
        assert main(["relax", star_file, "--method", "normalized-eig"]) == 0
        inst = load_instance(star_file)
        assert capsys.readouterr().out == f"normalized eig bound {spectral.weighted_eig_value(inst, core.degrees(inst)):.12g}\n"
        assert spectral.weighted_eig_value(inst, core.degrees(inst)) == pytest.approx(top_normalized_eigenvalue(inst), abs=1e-9)


EDGE = '{"kind": "qp_ratio", "n": 2, "entries": [[0, 1, 1.0]]}'
EMPTY = '{"kind": "qp_ratio", "n": 3, "entries": [], "bipartition": [[0], [1, 2]]}'
SQUARE = (
    '{"kind": "qp_ratio", "n": 4, "entries": [[0, 2, 1.0], [0, 3, -1.0], [1, 2, 0.5], [1, 3, 1.0]],'
    ' "bipartition": [[0, 1], [2, 3]]}'
)
FEASIBLE_GRAM = '{"vectors": [[1.0, 0.0], [0.0, 0.0]]}'
INTERMEDIATE = '{"kind": "qp_intermediate", "n": 2, "entries": [[0, 1, 1.0]], "diag": [0.0, -0.5]}'


class TestBadInput:
    """Malformed files and missing flags are usage errors (exit 2), not internal ones."""

    @pytest.mark.parametrize(
        "argv, files, needle",
        [
            (["exact", "in.json"], {"in.json": '{"kind": "qp_ratio", "n": 2, "entries": [[0, 1, null]]}'}, "entry 0"),
            (["exact", "in.json"], {"in.json": '{"kind": "qp_ratio", "n": 2, "entries": [[0, 1, "x"]]}'}, "entry 0"),
            (["exact", "in.json"], {"in.json": '{"kind": "qp_ratio", "n": 3, "entries": [[true, 2, 1.0]]}'}, "entry 0"),
            (["exact", "in.json"], {"in.json": '{"kind": "qp_ratio", "n": 3, "entries": [[0, 2, true]]}'}, "entry 0"),
            (["exact", "in.json"], {"in.json": '{"kind": "qp_ratio", "n": 3, "entries": [[0.7, 2, 1.0]]}'}, "entry 0"),
            (["exact", "in.json"], {"in.json": '{"kind": "qp_ratio", "n": true, "entries": []}'}, "positive integer"),
            (
                ["exact", "in.json"],
                {"in.json": '{"kind": "qp_intermediate", "n": 2, "entries": [], "diag": [0.0, null]}'},
                "diagonal",
            ),
            (
                ["exact", "in.json"],
                {"in.json": '{"kind": "qp_ratio", "n": 2, "entries": [], "bipartition": [[0], ["a"]]}'},
                "bipartition",
            ),
            (["certify", "in.json", "--gram", "g.json"], {"in.json": EDGE, "g.json": "{nope"}, "invalid JSON"),
            (["certify", "in.json", "--gram", "g.json"], {"in.json": EDGE, "g.json": '{"rows": []}'}, "'vectors'"),
            (
                ["certify", "in.json", "--gram", "g.json"],
                {"in.json": EDGE, "g.json": '{"vectors": [[1.0, 0.0], [1.0]]}'},
                "one length",
            ),
            (
                ["reduce", "k.json", "--from", "kand", "--out", "out.json"],
                {"k.json": '{"kind": "kand", "n": 4, "k": 2}'},
                "'clauses'",
            ),
            (["gen", "star", "--out", "out.json"], {}, "--leaves"),
            (["gen", "random", "--out", "out.json"], {}, "--n"),
            (["bench", "cfg.json"], {"cfg.json": "[]"}, "JSON object"),
            (
                ["solve", "in.json", "--algo", "bipartite"],
                {"in.json": '{"kind": "qp_ratio", "n": 3, "entries": [[0, 1, 1.0]], "bipartition": [[0, 0], [1]]}'},
                "index 0 appears twice",
            ),
            (["bench", "cfg.json"], {"cfg.json": '{"instances": [5]}'}, "instances item 0"),
            (["bench", "cfg.json"], {"cfg.json": '{"cap": "x", "instances": []}'}, "'cap'"),
            (["bench", "cfg.json"], {"cfg.json": '{"seed": "x", "instances": []}'}, "'seed'"),
            (["bench", "cfg.json"], {"cfg.json": '{"algos": "general", "instances": []}'}, "'algos'"),
            (
                ["bench", "cfg.json"],
                {"cfg.json": '{"instances": [{"family": "star", "leaves": 3, "seed": "x"}]}'},
                "item 0 'seed'",
            ),
            (["bench", "cfg.json"], {"cfg.json": '{"out_csv": 7, "instances": []}'}, "'out_csv'"),
            (["bench", "cfg.json"], {"cfg.json": '{"out_svg": ["x"], "instances": []}'}, "'out_svg'"),
            (
                ["reduce", "k.json", "--from", "kand", "--alpha", "nan", "--out", "out.json"],
                {"k.json": '{"kind": "kand", "n": 4, "k": 2, "clauses": [[[0, 1], [2, -1]], [[1, -1], [3, 1]]]}'},
                "alpha must be positive",
            ),
            (
                ["reduce", "i.json", "--from", "intermediate", "--eps", "nan", "--out", "out.json"],
                {"i.json": INTERMEDIATE},
                "eps must be positive",
            ),
            (["exact", "i.json", "--grid-eps", "nan"], {"i.json": INTERMEDIATE}, "accuracy must be positive"),
            (["exact", "i.json", "--normalized"], {"i.json": INTERMEDIATE}, "--normalized"),
            (
                ["bench", "cfg.json"],
                {"cfg.json": '{"instances": [{"family": "random", "n": 6, "seed": 1.5}]}'},
                "item 0 'seed'",
            ),
            (
                ["bench", "cfg.json"],
                {"cfg.json": '{"instances": [{"family": "random", "n": 6, "seed": true}]}'},
                "item 0 'seed'",
            ),
            (["bench", "cfg.json"], {"cfg.json": '{"seed": 2.9, "instances": []}'}, "'seed'"),
            (["bench", "cfg.json"], {"cfg.json": '{"cap": 10.5, "instances": []}'}, "'cap'"),
            (["gen", "kand", "--n", "6", "--m", "0", "--k", "3", "--out", "k.json"], {}, "at least one clause"),
            (
                ["reduce", "k.json", "--from", "kand", "--alpha", "0.5", "--out", "out.json"],
                {"k.json": '{"kind": "kand", "n": 6, "k": 3, "clauses": []}'},
                "at least one clause",
            ),
            (["gen", "star", "--leaves", "3", "--density", "0.3", "--out", "o.json"], {}, "does not take --density"),
            (["gen", "star", "--leaves", "3", "--n", "77", "--out", "o.json"], {}, "does not take --n"),
            (["gen", "star", "--leaves", "3", "--seed", "1", "--out", "o.json"], {}, "does not take --seed"),
            (["gen", "level-graph", "--eps", "0.5", "--density", "0.3", "--out", "o.json"], {}, "--density"),
            (["gen", "planted", "--n", "16", "--r", "-1", "--out", "o.json"], {}, "r and planted_size"),
            (["gen", "planted", "--n", "16", "--planted-size", "-1", "--out", "o.json"], {}, "r and planted_size"),
            (["gen", "bipartite-gap", "--n", "-4", "--out", "o.json"], {}, "perfect square"),
            (["gen", "kand", "--n", "4", "--m", "2", "--k", "-1", "--out", "o.json"], {}, "bad clause shape"),
            (["gen", "kand", "--n", "-1", "--m", "2", "--k", "1", "--out", "o.json"], {}, "bad clause shape"),
            (["gen", "kand", "--n", "2", "--m", "2", "--k", "3", "--out", "o.json"], {}, "bad clause shape"),
            (["gen", "apx-gadget", "--cycle", "0", "--out", "o.json"], {}, "at least 3 vertices"),
            (["gen", "apx-gadget", "--cycle", "2", "--out", "o.json"], {}, "at least 3 vertices"),
            (["gen", "apx-gadget", "--out", "o.json"], {}, "exactly one of --cycle and --graph"),
            (["gen", "apx-gadget", "--cycle", "4", "--graph", "g.json", "--out", "o.json"], {}, "exactly one"),
            (
                ["gen", "apx-gadget", "--graph", "g.json", "--out", "o.json"],
                {"g.json": '{"n": true, "d": 0, "edges": []}'},
                "'n' must be an integer",
            ),
            (
                ["gen", "apx-gadget", "--graph", "g.json", "--out", "o.json"],
                {"g.json": '{"n": 3, "d": 1, "edges": [[0, 1.7]]}'},
                "each edge",
            ),
            (
                ["gen", "apx-gadget", "--graph", "g.json", "--out", "o.json"],
                {"g.json": '{"n": 3, "d": 1, "edges": [[0]]}'},
                "each edge",
            ),
            (
                ["reduce", "k.json", "--from", "kand", "--out", "out.json"],
                {"k.json": '{"kind": "kand", "n": 4, "k": 2, "clauses": [[[0.9, 1], [2, 1]]]}'},
                "each clause",
            ),
            (
                ["reduce", "k.json", "--from", "kand", "--out", "out.json"],
                {"k.json": '{"kind": "kand", "n": 4, "k": 2, "clauses": [[[0, 1], [2, true]]]}'},
                "each clause",
            ),
            (
                ["reduce", "k.json", "--from", "kand", "--out", "out.json"],
                {"k.json": '{"kind": "kand", "n": true, "k": 1, "clauses": [[[0, 1]]]}'},
                "'n' must be an integer",
            ),
            (
                ["reduce", "u.json", "--from", "ug", "--out", "out.json"],
                {"u.json": '{"kind": "ratio_ug", "vertices": 2, "alphabet": 2, "edges": [[0, 1, [0, true]]]}'},
                "each edge",
            ),
            (
                ["reduce", "u.json", "--from", "ug", "--out", "out.json"],
                {"u.json": '{"kind": "ratio_ug", "vertices": 2, "alphabet": 2, "edges": [[0, 1.5, [0, 1]]]}'},
                "each edge",
            ),
            (["bench", "cfg.json"], {"cfg.json": '{"seed": -1, "instances": [{"family": "star", "leaves": 3}]}'}, "'seed'"),
            (
                ["bench", "cfg.json"],
                {"cfg.json": '{"instances": [{"family": "random", "n": 6, "seed": -1}]}'},
                "item 0 'seed'",
            ),
            (["gen", "random", "--n", "6", "--seed", "-1", "--out", "o.json"], {}, "seed"),
            (["relax", "in.json", "--method", "sdp", "--seed", "-1"], {"in.json": EDGE}, "seed"),
            *(
                (["solve", "in.json", "--algo", algo, "--seed", "-1"], {"in.json": SQUARE}, "seed")
                for algo in ("general", "bipartite", "trevisan", "psd", "high-opt")
            ),
            # no entries: no algorithm draws, so only the shared check sees the seed
            *(
                (["solve", "in.json", "--algo", algo, "--seed", "-1"], {"in.json": EMPTY}, "seed must be")
                for algo in ("general", "bipartite", "trevisan", "psd", "high-opt")
            ),
            (["relax", "in.json", "--method", "sdp", "--seed", "-1"], {"in.json": EMPTY}, "seed must be"),
            (["solve", "in.json", "--algo", "bipartite"], {"in.json": EDGE}, "needs an instance with a bipartition"),
            *(
                (["certify", "in.json", "--gram", "g.json", "--tol", tol], {"in.json": EDGE, "g.json": FEASIBLE_GRAM}, "tol")
                for tol in ("nan", "-1", "inf")
            ),
        ],
        ids=[
            "null-weight",
            "string-weight",
            "bool-index",
            "bool-weight",
            "fractional-index",
            "bool-size",
            "null-diagonal",
            "string-bipartition-index",
            "gram-not-json",
            "gram-without-vectors",
            "gram-ragged-rows",
            "kand-without-clauses",
            "star-without-leaves",
            "random-without-n",
            "bench-config-list",
            "repeated-bipartition-index",
            "bench-instance-not-object",
            "bench-cap-not-integer",
            "bench-seed-not-integer",
            "bench-algos-not-list",
            "bench-item-seed-not-integer",
            "bench-out-csv-not-string",
            "bench-out-svg-not-string",
            "reduce-kand-alpha-nan",
            "reduce-intermediate-eps-nan",
            "exact-grid-eps-nan",
            "exact-normalized-intermediate",
            "bench-item-seed-fractional",
            "bench-item-seed-bool",
            "bench-seed-fractional",
            "bench-cap-fractional",
            "gen-kand-zero-clauses",
            "reduce-kand-zero-clauses",
            "gen-star-density",
            "gen-star-n",
            "gen-star-seed",
            "gen-level-graph-density",
            "gen-planted-negative-r",
            "gen-planted-negative-planted-size",
            "gen-bipartite-gap-negative-n",
            "gen-kand-negative-k",
            "gen-kand-negative-n",
            "gen-kand-k-above-n",
            "gen-apx-gadget-cycle-zero",
            "gen-apx-gadget-cycle-two",
            "gen-apx-gadget-neither",
            "gen-apx-gadget-both",
            "gen-apx-gadget-graph-bool-n",
            "gen-apx-gadget-graph-fractional-edge",
            "gen-apx-gadget-graph-short-edge",
            "reduce-kand-fractional-variable",
            "reduce-kand-bool-sign",
            "reduce-kand-bool-n",
            "reduce-ug-bool-permutation",
            "reduce-ug-fractional-vertex",
            "bench-seed-negative",
            "bench-item-seed-negative",
            "gen-random-seed-negative",
            "relax-sdp-seed-negative",
            "solve-general-seed-negative",
            "solve-bipartite-seed-negative",
            "solve-trevisan-seed-negative",
            "solve-psd-seed-negative",
            "solve-high-opt-seed-negative",
            "solve-general-seed-negative-no-entries",
            "solve-bipartite-seed-negative-no-entries",
            "solve-trevisan-seed-negative-no-entries",
            "solve-psd-seed-negative-no-entries",
            "solve-high-opt-seed-negative-no-entries",
            "relax-sdp-seed-negative-no-entries",
            "solve-bipartite-without-bipartition",
            "certify-tol-nan",
            "certify-tol-negative",
            "certify-tol-inf",
        ],
    )
    def test_exits_2(self, tmp_path, monkeypatch, capsys, argv, files, needle):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
