"""Every registered kernel backend exposes exactly ``SetKernel``'s API.

The cache models program against :class:`SetKernel`; a backend that
renames a parameter or grows a public method of its own splits that API,
and callers written against one backend break on another. The
differential tests prove the backends classify alike; this one pins the
shape they are called through.
"""

import inspect

import pytest

from repro.cache.kernels import _KERNELS, SetKernel


def public_methods(cls):
    return {
        name: inspect.signature(func)
        for name, func in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


BASE = public_methods(SetKernel)


@pytest.mark.parametrize("backend", sorted(_KERNELS))
def test_backend_matches_the_base_interface(backend):
    methods = public_methods(_KERNELS[backend])
    assert sorted(set(methods) - set(BASE)) == [], "public methods SetKernel lacks"
    for name, signature in BASE.items():
        assert methods[name] == signature, f"{backend}.{name}{methods[name]}"
