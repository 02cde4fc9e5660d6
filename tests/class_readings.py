"""The per-call reading of a system's classes that gradedcenter.center's
_build_system replaces, kept as its differential oracle.  solve_component
ran this loop on every call, over the classes of the system it was served;
_build_system now counts both readings once, when it builds the system,
and keeps them in _System.readings.  The loop is the one it replaced,
unchanged but for the report it fills, here a bare namespace whose
counts are returned in the form of a stored reading."""

from types import SimpleNamespace

from gradedcenter.center import _class_of


def reading(classes: tuple, kills: bool, killed_parity: int) -> tuple:
    """(scalar_dim, power_dim, class_dims items, residual, killed_parity)
    of the classes: every class counted, or, where kills is set, the
    parity-flagged ones dropped; killed_parity is the system's count,
    which only a reading that kills reports."""
    report = SimpleNamespace(scalar_dim=0, power_dim=0, class_dims={})
    residual = False
    for _, parity, tags in classes:
        if parity and kills:
            continue
        tag = _class_of(tags)
        if tag == "scalar":
            report.scalar_dim += 1
        elif tag == "power":
            report.power_dim += 1
        elif tag is None:
            residual = True
        else:
            report.class_dims[tag] = report.class_dims.get(tag, 0) + 1
    return (report.scalar_dim, report.power_dim, tuple(report.class_dims.items()), residual,
            killed_parity if kills else 0)


def readings(classes: tuple, killed_parity: int) -> tuple:
    """_System.readings: every class counted, then the parity-flagged
    ones dropped."""
    return tuple(reading(classes, kills, killed_parity) for kills in (False, True))
