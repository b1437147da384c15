import ast
import inspect
import types
from pathlib import Path

import kprime

REMOVED = (
    "closure_step",
    "residue",
    "prime_implicates_traced",
    "canonical_key",
    "is_normal",
    "answer_query",
    "clause_entails",
    "default_oracle",
    "is_implicate",
    "default_tableau",
    "local_entails",
    "satisfiable",
)

# the Tableau's node_budget is the only tableau budget, the resolvent depth
# cap is fixed, only the compiler shares clauses, and single_clause converts
# at to_cnf's default budget
REMOVED_PARAMETERS = (
    (kprime.Tableau.satisfiable, "node_budget"),
    (kprime.Tableau.entails, "node_budget"),
    (kprime.EntailmentOracle.clause_entails, "node_budget"),
    (kprime.EntailmentOracle.is_implicate, "node_budget"),
    (kprime.residue_detailed, "node_budget"),
    (kprime.closure_step_traced, "max_depth"),
    (kprime.closure_step_traced, "seen"),
    (kprime.sigma_resolvents, "max_depth"),
    (kprime.gamma_resolvents, "max_depth"),
    (kprime.single_clause, "clause_budget"),
    (kprime.to_cnf, "clause_budget"),
    (kprime.nnf, "negated"),
)


def test_all_lists_each_public_name_once():
    assert len(kprime.__all__) == len(set(kprime.__all__))


def test_every_exported_name_resolves_to_a_non_module():
    for name in kprime.__all__:
        assert not isinstance(getattr(kprime, name), types.ModuleType), name


def test_removed_entry_points_stay_removed():
    for name in REMOVED:
        assert name not in kprime.__all__
        assert not hasattr(kprime, name), name


def test_removed_parameters_stay_removed():
    for fn, name in REMOVED_PARAMETERS:
        assert name not in inspect.signature(fn).parameters, (fn.__qualname__, name)


def test_readme_library_example_runs():
    # the first python block of README.md, run as written; each bare
    # expression's trailing comment, up to a colon, is what it shows
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    lines = block.splitlines()
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].partition("#")[2]
            value = eval(ast.get_source_segment(block, node), namespace)
            shown.append((str(value), comment.split(":")[0].strip()))
    assert shown == [("[][](~p | r)", "[][](~p | r)"), ("False", "False"), ("True", "True")]
