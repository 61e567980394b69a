import copy
import doctest
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gridperms
from gridperms import (
    GridMatrix,
    GriddedPermutation,
    Gridding,
    Permutation,
    SignAssignment,
    cell_graph,
    parse_word,
    row_column_graph,
)


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "gridperms.__version__"
    }
    assert gridperms.__version__ == "0.1.0"


def test_readme_tour_and_module_doctests():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    results = [
        doctest.testfile(str(readme), module_relative=False),
        doctest.testmod(gridperms.perms),
        doctest.testmod(gridperms.codec),
        doctest.testmod(gridperms.enumeration),
        doctest.testmod(gridperms.graphs),
        doctest.testmod(gridperms.gridding),
    ]
    assert [r.failed for r in results] == [0, 0, 0, 0, 0, 0]
    assert all(r.attempted for r in results)


def test_import_loads_no_unused_module():
    # -S -E: no site hooks or environment, so only the package's own imports count
    src = str(Path(gridperms.__file__).resolve().parents[1])
    unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gridperms; "
        f"print(*sorted({unused!r} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == []


ROW = GridMatrix.parse("+ -")

# One fixed instance of each value type, built afresh by each call: its
# field names and the repr the dataclasses these replace printed.
VALUES = {
    "Permutation": (
        lambda: Permutation((2, 1, 3)), ("entries",), "Permutation(entries=(2, 1, 3))",
    ),
    "GridMatrix": (
        lambda: GridMatrix.parse("+ -"), ("columns",), "GridMatrix(columns=((1,), (-1,)))",
    ),
    "RowColumnGraph": (
        lambda: row_column_graph(ROW), ("vertices", "edges"),
        "RowColumnGraph(vertices=(('x', 1), ('x', 2), ('y', 1)), "
        "edges=((('x', 1), ('y', 1), 1), (('x', 2), ('y', 1), -1)))",
    ),
    "CellGraph": (
        lambda: cell_graph(ROW), ("vertices", "labels", "edges"),
        "CellGraph(vertices=((1, 1), (2, 1)), labels=(1, -1), edges=(((1, 1), (2, 1)),))",
    ),
    "SignAssignment": (
        lambda: SignAssignment((1, -1), (1,)), ("col_signs", "row_signs"),
        "SignAssignment(col_signs=(1, -1), row_signs=(1,))",
    ),
    "Gridding": (
        lambda: Gridding((1, 2, 3), (1, 3)), ("cols", "rows"),
        "Gridding(cols=(1, 2, 3), rows=(1, 3))",
    ),
    "GriddedPermutation": (
        lambda: GriddedPermutation(Permutation((1, 2)), ROW, Gridding((1, 2, 3), (1, 3))),
        ("perm", "matrix", "gridding"),
        "GriddedPermutation(perm=Permutation(entries=(1, 2)), "
        "matrix=GridMatrix(columns=((1,), (-1,))), gridding=Gridding(cols=(1, 2, 3), rows=(1, 3)))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    make, fields, text = VALUES[name]
    value, twin = make(), make()
    cls = type(value)
    assert cls.__name__ == name
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin) and len({value, twin}) == 1
    assert repr(value) == text
    assert cls(**{field: getattr(value, field) for field in fields}) == value
    for field in fields:
        held = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, held)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is held
    with pytest.raises(AttributeError):
        value.other = 0
    assert not hasattr(value, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert copy.deepcopy(value) == value and copy.copy(value) == value
    # same fields, another class: never equal, either way round
    other = type("Other", (cls,), {"__slots__": ()})(*(getattr(value, f) for f in fields))
    assert value != other and other != value
    assert value != tuple(getattr(value, f) for f in fields)
    # each field exactly once, by position or keyword; anything else is a TypeError
    held = [getattr(value, f) for f in fields]
    for args, kwargs in [
        (held[:-1], {}),  # one field too few
        (held + held[:1], {}),  # one too many
        (held, {"other": held[0]}),  # an unknown keyword
        (held, {fields[0]: held[0]}),  # a field given twice
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("name", VALUES)
def test_value_signature_lists_the_fields(name):
    make, fields, _ = VALUES[name]
    assert tuple(inspect.signature(type(make())).parameters) == fields


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gridperms import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == gridperms.__all__
    assert not any(inspect.ismodule(value) for value in namespace.values())


def public_objects():
    """(name, object) for each function and class in ``gridperms.__all__``
    and each public method, property and classmethod defined on those
    classes; the type aliases (``Cell``, ``Letter``, ``Word``) are neither."""
    for name in gridperms.__all__:
        value = getattr(gridperms, name)
        if inspect.isfunction(value):
            yield name, value
        elif isinstance(value, type) and value.__module__.startswith("gridperms."):
            yield name, value
            # slot fields are member descriptors, documented by the class
            for attr, member in vars(value).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, (property, classmethod))):
                    yield f"{name}.{attr}", getattr(member, "__func__", member)


def test_every_public_name_has_a_docstring():
    objects = dict(public_objects())
    assert {"format_word", "Gridding.format", "Gridding.parse", "Gridding.t",
            "CellGraph.label", "SignAssignment.verify"} <= set(objects)
    assert [name for name, value in objects.items() if not value.__doc__] == []


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit before 3.10.7")
@pytest.mark.parametrize("parse, text, what", [
    (Permutation.parse, "1 {digits}", "permutation"),
    (Gridding.parse, "cols=1,{digits} rows=1,2", "gridding"),
    (parse_word, "1,{digits}", "letter"),
])
def test_parsers_refuse_fields_past_the_digit_limit(parse, text, what):
    text = text.format(digits="7" * 5000)
    with pytest.raises(ValueError, match=f"^cannot parse {what} from "):
        parse(text)
