"""The method registry used by the harness, CLI, and reachability."""

from __future__ import annotations

import pytest

from repro.core.approx import (UNDER_APPROXIMATORS, over_approx,
                               register_approximator)
from repro.core.decomp import DECOMPOSERS, decompose


@pytest.fixture
def registry():
    """The global registry, restored afterwards: the CLI's ``--method``
    choices and the serve daemon read it."""
    saved = dict(UNDER_APPROXIMATORS)
    yield UNDER_APPROXIMATORS
    UNDER_APPROXIMATORS.clear()
    UNDER_APPROXIMATORS.update(saved)


class TestUnderApproximatorRegistry:
    def test_expected_methods_present(self):
        assert {"hb", "sp", "ua", "rua", "c1", "c2"} \
            <= set(UNDER_APPROXIMATORS)

    @pytest.mark.parametrize("name", sorted({"hb", "sp", "ua", "rua",
                                             "c1", "c2"}))
    def test_registry_contract(self, name, random_functions):
        m, funcs = random_functions
        alpha = UNDER_APPROXIMATORS[name]
        for f in funcs[:3]:
            r = alpha(f, threshold=max(1, len(f) // 2))
            assert r <= f, name

    def test_uniform_keyword_signature(self, random_functions):
        m, funcs = random_functions
        f = funcs[0]
        for name, alpha in UNDER_APPROXIMATORS.items():
            with pytest.raises(TypeError):
                alpha(f, 1)  # thresholds must be keyword-only

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_approximator("hb")(lambda f, *, threshold=0: f)

    @pytest.mark.parametrize("fn", [
        pytest.param(lambda f, threshold: f, id="two-positional"),
        pytest.param(lambda f, *args, threshold=0: f, id="star-args"),
        pytest.param(lambda f, *, threshold: f, id="kw-without-default"),
        pytest.param(lambda f=None, *, threshold=0: f,
                     id="defaulted-positional"),
        pytest.param(lambda f, *, threshold=0, **knobs: f,
                     id="star-kwargs"),
    ])
    def test_malformed_signature_rejected(self, fn, registry):
        before = dict(registry)
        with pytest.raises(TypeError, match="approximator 'malformed'"):
            register_approximator("malformed")(fn)
        assert registry == before

    def test_conforming_signature_registers(self, registry):
        def conforming(f, *, threshold=0, quality=1.0):
            return f

        assert register_approximator("conforming")(conforming) \
            is conforming
        assert registry["conforming"] is conforming

    @pytest.mark.parametrize("name", ["hb", "sp", "rua"])
    def test_over_approx_wrapper(self, name, random_functions):
        m, funcs = random_functions
        alpha = UNDER_APPROXIMATORS[name]
        for f in funcs[:3]:
            o = over_approx(alpha, f, threshold=0 if name == "rua"
                            else max(1, len(f) // 2))
            assert f <= o, name


class TestDecomposerRegistry:
    def test_expected_methods(self):
        assert set(DECOMPOSERS) == {"cofactor", "disjoint", "band"}

    def test_unknown_method_rejected(self, random_functions):
        m, funcs = random_functions
        with pytest.raises(ValueError):
            decompose(funcs[0], "nope")

    @pytest.mark.parametrize("method", ["cofactor", "disjoint", "band"])
    def test_dispatch(self, method, random_functions):
        m, funcs = random_functions
        g, h = decompose(funcs[0], method)
        assert (g & h) == funcs[0]
