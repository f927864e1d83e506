"""Setup script for the Finesse reproduction package.

A classic setuptools script (rather than a PEP 517 pyproject build) is used so
that ``pip install -e .`` works in fully offline environments where pip cannot
download build-isolation dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.22.0",
    description=(
        "Finesse reproduction: agile software/hardware co-design framework for "
        "pairing-based cryptography (Python functional model)"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={
        "dev": ["pytest", "pytest-benchmark", "hypothesis"],
        # Optional fast F_p backend (repro.fields.backends); auto-detected at
        # import, selectable via FINESSE_FP_BACKEND=gmpy2.  Never a hard
        # dependency: everything runs (slower) on the pure-Python backend.
        "fast": ["gmpy2>=2.1"],
    },
)
