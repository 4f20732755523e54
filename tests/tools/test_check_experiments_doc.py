"""The EXPERIMENTS.md drift lint (tools/check_experiments_doc.py)."""

import importlib.util
import json
import os
import textwrap

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
_TOOL = os.path.join(_ROOT, "tools", "check_experiments_doc.py")
_spec = importlib.util.spec_from_file_location("check_experiments_doc",
                                               _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def setup(tmp_path, doc, rows=None, exp_id="E01", results="results"):
    """Write a doc plus one experiment's artifact; return the paths."""
    out = tmp_path / results
    out.mkdir(parents=True, exist_ok=True)
    if rows is not None:
        (out / (exp_id + ".json")).write_text(json.dumps({"rows": rows}))
    path = tmp_path / "EXPERIMENTS.md"
    path.write_text(textwrap.dedent(doc))
    return str(path), str(tmp_path / "results")


TABLE = """\
    # Experiments

    ## E01 — a table

    | design | p99 | paper |
    |---|---|---|
    | lynx | {cell} | 56us |
    """


class TestCheckDoc:
    def test_cell_matching_at_printed_precision_passes(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="471.9"),
                         rows=[{"p99": 471.94}])
        assert lint.check_doc(doc, res) == []

    def test_drifted_cell_flagged_with_its_line(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="54.4us"),
                         rows=[{"p99": 57.8}])
        findings = lint.check_doc(doc, res)
        assert [lineno for lineno, _ in findings] == [7]
        assert "'54.4us'" in findings[0][1]

    def test_precision_is_the_cells_own(self, tmp_path):
        # 4.1 is 4.12 at one decimal, but "4.10" claims two.
        doc, res = setup(tmp_path, TABLE.format(cell="4.10"),
                         rows=[{"p99": 4.12}])
        assert len(lint.check_doc(doc, res)) == 1

    def test_bold_and_unit_suffix_are_stripped(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="**1.00x**"),
                         rows=[{"p99": 1.0}])
        assert lint.check_doc(doc, res) == []

    def test_titles_and_notes_do_not_count(self, tmp_path):
        # They quote the paper: a measured cell must not match them.
        doc, res = setup(tmp_path, TABLE.format(cell="21%"),
                         rows=[{"p99": 1.21}, "paper: 21%"])
        assert len(lint.check_doc(doc, res)) == 1

    def test_label_and_paper_columns_ignored(self, tmp_path):
        doc, res = setup(tmp_path, """\
            ## E01 — a table

            | 99 | p99 | paper p99 |
            |---|---|---|
            | 20 | 7.5 | 300 |
            """, rows=[{"p99": 7.5}])
        assert lint.check_doc(doc, res) == []

    def test_approximations_ranges_and_prose_skipped(self, tmp_path):
        for cell in ("~229", "1.05-1.12", "383 Ktps @ 185us",
                     "1.96 ms (12.0x)", "—"):
            doc, res = setup(tmp_path, TABLE.format(cell=cell),
                             rows=[{"p99": 0.5}])
            assert lint.check_doc(doc, res) == [], cell

    def test_tables_outside_experiment_sections_skipped(self, tmp_path):
        doc, res = setup(tmp_path, """\
            ## E01 — a table

            | design | p99 |
            |---|---|
            | lynx | 7.5 |

            ## Scorecard

            | verdict | count |
            |---|---|
            | MATCH | 37 |
            """, rows=[{"p99": 7.5}])
        assert lint.check_doc(doc, res) == []

    def test_missing_artifact_flagged(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="7.5"))
        findings = lint.check_doc(doc, res)
        assert len(findings) == 1 and "no E01.json" in findings[0][1]

    def test_results_marker_redirects_one_table(self, tmp_path):
        setup(tmp_path, "", rows=[{"p99": 34.3}], results="full")
        doc, res = setup(tmp_path, """\
            ## E01 — a table

            <!-- results: full -->
            | design | p99 |
            |---|---|
            | lynx | 34.3 |

            | design | p99 |
            |---|---|
            | lynx | 34.3 |
            """, rows=[{"p99": 34.0}])
        findings = lint.check_doc(doc, res)
        # the marked table reads full/, the unmarked one results/
        assert [lineno for lineno, _ in findings] == [10]


class TestMain:
    def test_exit_status(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text(textwrap.dedent(
            README.format(claim="p99", exp="E01", cell="57.8us")))
        doc, res = setup(tmp_path, TABLE.format(cell="54.4"),
                         rows=[{"p99": 57.8}])
        assert lint.main([doc, res]) == 1
        assert "1 measured cell(s)" in capsys.readouterr().out
        doc, res = setup(tmp_path, TABLE.format(cell="57.8"),
                         rows=[{"p99": 57.8}])
        assert lint.main([doc, res]) == 0

    def test_missing_readme_fails(self, tmp_path, capsys):
        doc, res = setup(tmp_path, TABLE.format(cell="57.8"),
                         rows=[{"p99": 57.8}])
        assert lint.main([doc, res]) == 1
        assert "README.md:0: no such file" in capsys.readouterr().out

    def test_repository_doc_matches_committed_results(self):
        doc = os.path.join(_ROOT, "EXPERIMENTS.md")
        results = os.path.join(_ROOT, "benchmarks", "results")
        assert lint.check_doc(doc, results) == []


README = """\
    # Project

    ## Headline reproductions (fast mode, seed 42)

    | Paper claim | Exp | Paper | This repo |
    |---|---|---|---|
    | {claim} | {exp} | 13x | {cell} |

    ## Next section
    """


def readme(tmp_path, cell, exp="E01", claim="p99 inflation", rows=None,
           notes=()):
    """Write a README headline table plus E01's artifact; return the
    paths the README check takes."""
    doc, res = setup(tmp_path, "", rows=rows or [{"ratio": 12.04}])
    if notes:
        blob = {"rows": rows or [{"ratio": 12.04}], "notes": list(notes)}
        (tmp_path / "results" / "E01.json").write_text(json.dumps(blob))
    path = tmp_path / "README.md"
    path.write_text(textwrap.dedent(README.format(claim=claim, exp=exp,
                                                  cell=cell)))
    return str(path), res


class TestCheckReadme:
    def test_every_number_in_the_cell_must_print(self, tmp_path):
        args = readme(tmp_path, "12.0x / 21%",
                      rows=[{"ratio": 12.04, "slowdown": 1.21}])
        assert lint.check_readme(*args) == []
        args = readme(tmp_path, "12.0x / 25%",
                      rows=[{"ratio": 12.04, "slowdown": 1.21}])
        findings = lint.check_readme(*args)
        assert [lineno for lineno, _ in findings] == [7]
        assert "'25%'" in findings[0][1]

    def test_thousands_suffix_matches_both_scales(self, tmp_path):
        for value in (3.51, 3510.0):
            args = readme(tmp_path, "3.51K req/s", rows=[{"rate": value}])
            assert lint.check_readme(*args) == [], value

    def test_note_counts_until_it_names_the_paper(self, tmp_path):
        note = "remote GPU adds 8.0us latency (paper: ~9us)"
        assert lint.check_readme(*readme(tmp_path, "8.0us",
                                         notes=[note])) == []
        assert len(lint.check_readme(*readme(tmp_path, "9us",
                                             notes=[note]))) == 1

    def test_ablation_rows_resolve_like_experiments(self, tmp_path):
        setup(tmp_path, "", rows=[{"cores": 2, "krps": 30.4}],
              exp_id="ABL-DC")
        args = readme(tmp_path, "yes (30.4K at 2)", exp="ABL-DC")
        assert lint.check_readme(*args) == []
        args = readme(tmp_path, "yes (31.0K at 2)", exp="ABL-DC")
        assert len(lint.check_readme(*args)) == 1

    def test_row_without_experiment_flagged(self, tmp_path):
        findings = lint.check_readme(*readme(tmp_path, "12.0x", exp="-"))
        assert findings and "names no experiment" in findings[0][1]

    def test_missing_artifact_flagged(self, tmp_path):
        findings = lint.check_readme(*readme(tmp_path, "12.0x", exp="E02"))
        assert any("E02: no committed artifact" in m for _, m in findings)

    def test_table_needs_exp_column(self, tmp_path):
        path, res = readme(tmp_path, "12.0x")
        text = open(path).read().replace("| Exp ", "| Ref ")
        open(path, "w").write(text)
        findings = lint.check_readme(path, res)
        assert len(findings) == 1 and "'Exp'" in findings[0][1]

    def test_main_checks_the_readme_beside_the_doc(self, tmp_path, capsys):
        path, res = readme(tmp_path, "13.0x")
        doc = str(tmp_path / "EXPERIMENTS.md")
        assert lint.main([doc, res]) == 1
        assert "README.md:7:" in capsys.readouterr().out

    def test_repository_readme_matches_committed_results(self):
        findings = lint.check_readme(
            os.path.join(_ROOT, "README.md"),
            os.path.join(_ROOT, "benchmarks", "results"))
        assert findings == []
