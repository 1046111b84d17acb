"""The README's "Library use" block: it runs, and gives the values its comments state."""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_block_gives_its_commented_values():
    block = _library_use_block()
    namespace, values = {}, {}
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    comments = {code.strip(): comment.strip() for code, _, comment in
                (line.partition("#") for line in block.splitlines()) if comment}
    # the comments state these values; a changed value or comment fails here
    assert comments == {
        "cw.enumerate_cwdd(12)": "14 sorted (depth, dim) pairs",
        "cw.size_ra(12)": "17, from the residue-indexed closed form",
        "cw.contains(cw.NamedSet.RA_D, 12, (3, 4, 7, 7))": "True",
        "lo, hi = cw.sandwich_bounds_cwdd(12)": "Fraction(14), Fraction(95, 6)",
        "cw.ratio_report(600).cwdd_over_nsq": "Fraction close to 1/6",
        "result = cw.realize(10, (4, 4))": "Cohen-Macaulay skeleton",
        "cw.is_cameron_walker(graph)": "True",
        "report.all_pass": "True",
        'cw.check("cwdd parts disjoint", 5)': "None: the check holds",
        "sorted(cw.CHECKS)": "the seven check names",
    }
    pairs = values["cw.enumerate_cwdd(12)"]
    assert len(pairs) == 14 and pairs == sorted(pairs) and {len(p) for p in pairs} == {2}
    assert values["cw.size_ra(12)"] == 17
    assert values["cw.contains(cw.NamedSet.RA_D, 12, (3, 4, 7, 7))"] is True
    assert (namespace["lo"], namespace["hi"]) == (Fraction(14), Fraction(95, 6))
    ratio = values["cw.ratio_report(600).cwdd_over_nsq"]
    assert isinstance(ratio, Fraction) and abs(ratio - Fraction(1, 6)) < Fraction(1, 100)
    assert namespace["result"].kind.value == "CM_diagonal"
    assert values["cw.is_cameron_walker(graph)"] is True
    assert values["cw.matching_number(graph) == cw.induced_matching_number(graph)"] is True
    assert values["report.all_pass"] is True
    assert values['cw.check("cwdd parts disjoint", 5)'] is None
    names = values["sorted(cw.CHECKS)"]
    assert len(names) == 7 and names == sorted(names)
