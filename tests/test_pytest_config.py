"""The test session's own configuration: a failing property ends as a test
failure, not as an error that stops the session."""

import os

pytest_plugins = ["pytester"]

_PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_failing_hypothesis_example_does_not_stop_the_session(pytester):
    """On a failure Hypothesis imports libcst, which warns a DeprecationWarning
    that the project's filters turn into errors; unless that one warning is
    ignored, the session ends there and the passing test never runs. The
    inner session runs in a fresh interpreter, so libcst is imported anew."""
    with open(_PYPROJECT) as f:
        pytester.makepyprojecttoml(f.read())
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    # -rN drops the inner summary, so no "FAILED" line of it reaches this session's report
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "-rN", "test_property.py")
    result.assert_outcomes(failed=1, passed=1)
