"""``turnover registry``: the cited orbifold registry."""

from ..registry import registry_json
from . import _fmt


def run(args):
    payload = {"registry": registry_json()}
    text = []
    for row in payload["registry"]:
        immersed = ", ".join(
            "(" + ",".join(map(str, s)) + ")" for s in row["known_immersed"]
        )
        text.append(
            f"{row['name']:<11} {row['kind']:<11} volume {_fmt(row['volume'])}"
            f"  immersed: {immersed or '-'}"
        )
    return payload, text
