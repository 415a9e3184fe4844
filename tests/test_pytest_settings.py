"""The project's own pytest settings, checked from a fresh pytest process.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  A
failing hypothesis property must still report its falsifying example: on
failure hypothesis imports ``libcst``, whose ``mypy_extensions`` dependency
warns at import, and that warning must not end the session in
INTERNALERROR.
"""

from __future__ import annotations

pytest_plugins = ["pytester"]


def test_failing_property_reports_its_example(pytester, pytestconfig):
    filters = "\n".join(
        f"    {entry}" for entry in pytestconfig.getini("filterwarnings")
    )
    assert "error::DeprecationWarning" in filters
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}\n")
    pytester.makepyfile(
        test_failing_property="""
        from hypothesis import Phase, given, settings, strategies as st

        @settings(database=None, phases=[Phase.generate, Phase.shrink])
        @given(st.integers())
        def test_never_holds(value):
            assert value < 0
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "--assert=plain")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1)
