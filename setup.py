"""Build script for the optional compiled solver core.

The extension is compiled from its hand-written C source,
``src/toursplit/_core.c``, so a C compiler is the only build requirement:

    python setup.py build_ext --inplace

Without a compiler the build warns and the package falls back to the pure
Python kernels at import.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "toursplit._core",
            ["src/toursplit/_core.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
