"""Oracles shared by the tests, written independently of the library's
stabilizer chains."""


def closure(group) -> frozenset:
    """The elements of ``group``: the breadth-first closure of its
    generators under composition."""
    seen = {group.identity}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in group.generators:
            q = p * g
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return frozenset(seen)
