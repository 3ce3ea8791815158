"""Packaging for the ChangKM14 active/busy-time scheduling reproduction."""

from setuptools import find_packages, setup

setup(
    name="repro-changkm14",
    version="0.2.0",
    description=(
        "Reproduction of Chang-Khuller-Mukherjee (SPAA 2014): active-time "
        "and busy-time scheduling algorithms with a parallel batch engine"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.23",
        "scipy>=1.9",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "networkx"],
        "viz": ["matplotlib"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Mathematics",
    ],
)
