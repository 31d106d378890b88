"""Built-in platforms, regression coefficients and kernel pools.

The platform shapes and idle powers correspond to three published embedded
boards (two i.MX8QuadMax carriers and a Jetson TX2 devkit), as do the
regression coefficients. The kernel pools are synthetic stand-ins shaped
like EEMBC-style benchmarking tables: per-kernel power coefficients plus
iterations-per-second throughput on each cluster, from which relative
speedups follow. Two pools are shipped, one with memory-stressing kernels
(mixed) and one without (cpu).
"""

from __future__ import annotations

import functools
from importlib import resources

from .generator import KernelSpec, load_kernel_pool
from .model import Cluster, Platform
from .power import RegressionCoefficients

PLATFORM_NAMES = ("imx8-mek", "imx8-ixora", "tx2")
KERNEL_POOL_NAMES = ("mixed", "cpu")

_PLATFORMS = {
    "imx8-mek": Platform(
        clusters=(
            Cluster(id=1, core_count=4, label="A53", frequency_mhz=1200),
            Cluster(id=2, core_count=2, label="A72", frequency_mhz=1600),
        ),
        idle_power_watts=5.5,
    ),
    "imx8-ixora": Platform(
        clusters=(
            Cluster(id=1, core_count=4, label="A53", frequency_mhz=1200),
            Cluster(id=2, core_count=2, label="A72", frequency_mhz=1600),
        ),
        idle_power_watts=5.5,
    ),
    "tx2": Platform(
        clusters=(
            Cluster(id=1, core_count=4, label="A57", frequency_mhz=2035),
            Cluster(id=2, core_count=2, label="Denver", frequency_mhz=2035),
        ),
        idle_power_watts=2.6,
    ),
}

_COEFFICIENTS = {
    "imx8-mek": RegressionCoefficients(
        betas=((1.205, 0.270), (0.969, 0.456)), r_squared=0.822
    ),
    "imx8-ixora": RegressionCoefficients(
        betas=((1.227, 0.232), (0.981, 0.420)), r_squared=0.814
    ),
    "tx2": RegressionCoefficients(
        betas=((0.857, 0.648), (0.946, 0.801)), r_squared=0.974
    ),
}


def builtin_platform(name: str) -> Platform:
    try:
        return _PLATFORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {', '.join(PLATFORM_NAMES)}"
        ) from None


def builtin_coefficients(name: str) -> RegressionCoefficients:
    try:
        return _COEFFICIENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown coefficient set {name!r}; available: {', '.join(PLATFORM_NAMES)}"
        ) from None


def kernel_pool_text(name: str) -> str:
    """Raw CSV text of a built-in kernel pool."""
    if name not in KERNEL_POOL_NAMES:
        raise KeyError(
            f"unknown kernel pool {name!r}; available: {', '.join(KERNEL_POOL_NAMES)}"
        )
    return (
        resources.files(__package__).joinpath(f"data/kernels_{name}.csv").read_text()
    )


@functools.cache  # parsed once per process, like the platform and coefficient presets
def builtin_kernel_pool(name: str) -> tuple[KernelSpec, ...]:
    import io

    return load_kernel_pool(io.StringIO(kernel_pool_text(name)))
