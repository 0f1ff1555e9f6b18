"""Workspace: a directory bundling a stratification with optional charts,
ring model, leaf representatives and configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from stratval.avector import TotalOrder
from stratval.charts import Atlas, load_atlas
from stratval.errors import SchemaError, read_json
from stratval.poset import StratPoset
from stratval.ringmodel import GradedQuotient
from stratval.smt import Representatives


@dataclass
class Workspace:
    root: str
    ps: StratPoset
    atlas: Atlas | None = None
    ring: GradedQuotient | None = None
    representative_entries: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def order(self) -> TotalOrder:
        ranked = self.config.get("total_order")
        if ranked:
            order = TotalOrder(ranked)
            self.ps.check_total_order(order)
            return order
        return self.ps.default_total_order()

    def require_atlas(self) -> Atlas:
        if not self.atlas:
            raise SchemaError(f"workspace {self.root} has no charts/ directory")
        return self.atlas

    def require_ring(self) -> GradedQuotient:
        if self.ring is None:
            raise SchemaError(f"workspace {self.root} has no ring.json")
        return self.ring

    def representatives(self) -> Representatives:
        if not self.representative_entries:
            raise SchemaError(
                f"workspace {self.root} declares no leaf representatives"
            )
        return Representatives.from_json(
            self.representative_entries, self.require_atlas(), self.ps, self.order
        )


def load_workspace(root: str) -> Workspace:
    strat_path = os.path.join(root, "stratification.json")
    if not os.path.exists(strat_path):
        raise SchemaError(f"{root}: no stratification.json")
    ps = StratPoset.load(strat_path)
    rep = ps.validate()
    atlas = None
    charts_dir = os.path.join(root, "charts")
    if os.path.isdir(charts_dir) and rep.ok:
        atlas = load_atlas(charts_dir, ps)
    ring = None
    rep_entries: list[dict] = []
    ring_path = os.path.join(root, "ring.json")
    if os.path.exists(ring_path):
        doc = read_json(ring_path)
        ring = GradedQuotient.from_json(doc)
        rep_entries = doc.get("representatives", [])
        if not isinstance(rep_entries, list):
            raise SchemaError(f"{ring_path}: representatives must be a list")
    config = {}
    config_path = os.path.join(root, "config.json")
    if os.path.exists(config_path):
        config = read_json(config_path)
        if not isinstance(config, dict):
            raise SchemaError(f"{config_path}: expected a JSON object")
        ranked = config.get("total_order")
        if ranked is not None and not (
            isinstance(ranked, list) and all(isinstance(p, str) for p in ranked)
        ):
            raise SchemaError(f"{config_path}: total_order must be a list of ids")
    return Workspace(root, ps, atlas, ring, rep_entries, config)


def bundled(name: str) -> str:
    """Path of a data set shipped with the package."""
    import stratval

    return os.path.join(os.path.dirname(stratval.__file__), "data", name)
