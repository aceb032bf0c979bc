from setuptools import Extension, setup

# -ffp-contract=off keeps the compiled kernels bit-identical to the pure-Python
# fallback (no fused multiply-add contraction).
setup(
    ext_modules=[
        Extension(
            "contregen._kernels._core",
            ["src/contregen/_kernels/_core.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ],
)
