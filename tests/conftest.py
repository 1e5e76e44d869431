"""Shared test helpers and the acceptance line reporter."""

import numpy as np

from gradsync.trace import History

acceptance_lines: list[str] = []


def record_acceptance(line: str):
    acceptance_lines.append(line)
    print(line, flush=True)


def history_of(nodes) -> History:
    """A History of hand-made rebase points, node by node: each node a
    one-node History, or its times, values, factors and hardware columns in
    that order, as float64."""
    nodes = [
        (node.times, node.values, node.factors, node.hardware) if isinstance(node, History)
        else tuple(np.asarray(column, dtype=float) for column in node)
        for node in nodes
    ]
    columns = (np.concatenate(column) for column in zip(*nodes))
    sizes = [node[0].size for node in nodes]
    return History(*columns, np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))))


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
