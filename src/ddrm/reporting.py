"""Gas-cost table and scenario report formatting.

Monetary display follows the published precision: Ether to 6 decimal
places (format_ether, exact), USD to 3, both ROUND_HALF_UP, with the USD
figure computed from the already-rounded Ether value. The gas price is
printed in Gwei exactly, in fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext

from .adversary import ScenarioMetrics
from .config import GasSchedule
from .ledger import (
    OP_ADD_SERVICE,
    OP_ENDORSE_REVIEW,
    OP_REQUEST_SERVICE,
    WEI_PER_GWEI,
    format_ether,
)

# The three operations of the published cost table, in row order.
GAS_TABLE_OPS = (
    (OP_ADD_SERVICE, "Drone Service Provider", "Add Service"),
    (OP_REQUEST_SERVICE, "Consumer", "Request Service"),
    (OP_ENDORSE_REVIEW, "Endorser", "Endorse Review"),
)

_USD_Q = Decimal("0.001")


@dataclass(frozen=True)
class GasReportRow:
    caller: str
    function_name: str
    gas_limit: int
    gas_used: int
    gas_price_gwei: Decimal
    total_ether: Decimal
    total_usd: Decimal


def gas_table_rows(schedule: GasSchedule, usd_per_ether: Decimal) -> list[GasReportRow]:
    schedule.validate()
    whole, frac = divmod(schedule.price_wei, WEI_PER_GWEI)  # exact, in fixed point: 2900000000 Wei is 2.9 Gwei
    price_gwei = Decimal(f"{whole}.{frac:09d}".rstrip("0").rstrip("."))
    rows = []
    for op, caller, name in GAS_TABLE_OPS:
        row = schedule.rows[op]
        wei = row.gas_used * schedule.price_wei
        total_ether = Decimal(format_ether(wei))
        with localcontext() as ctx:
            # Room for every digit of the exact product and for the three
            # places the quantize pads it to: the default 28 digits overflow
            # on a large usd_per_ether.
            ctx.prec = max(
                ctx.prec,
                len(total_ether.as_tuple().digits) + len(usd_per_ether.as_tuple().digits),
                total_ether.adjusted() + usd_per_ether.adjusted() + 5,
            )
            total_usd = (total_ether * usd_per_ether).quantize(_USD_Q, rounding=ROUND_HALF_UP)
        rows.append(
            GasReportRow(
                caller=caller,
                function_name=name,
                gas_limit=row.gas_limit,
                gas_used=row.gas_used,
                gas_price_gwei=price_gwei,
                total_ether=total_ether,
                total_usd=total_usd,
            )
        )
    return rows


def _render_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, with a dashed rule under the header."""
    cells = [headers, *rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_gas_table(rows: list[GasReportRow]) -> str:
    headers = (
        "Function Caller", "Function Name", "Gas Limit (Units)", "Gas Used (Units)",
        "Gas Price (Gwei)", "Total (Ether)", "Total (USD)",
    )
    return _render_table(headers, [tuple(map(str, row.values())) for row in gas_table_json(rows)])


def gas_table_json(rows: list[GasReportRow]) -> list[dict]:
    return [
        {
            "caller": r.caller,
            "function_name": r.function_name,
            "gas_limit": r.gas_limit,
            "gas_used": r.gas_used,
            "gas_price_gwei": f"{r.gas_price_gwei:f}",
            "total_ether": f"{r.total_ether:.6f}",
            "total_usd": f"{r.total_usd:.3f}",
        }
        for r in rows
    ]


def format_metrics_table(named_metrics: list[tuple[str, ScenarioMetrics]]) -> str:
    headers = (
        "Scenario", "BadgeAcc", "Spend (Wei)", "RevAccepted", "RevBranded",
        "Exclusions", "RefundFraud", "DretDelta",
    )
    return _render_table(headers, [
        (name, *(f"{v:.4f}" if isinstance(v, float) else str(v) for v in m.to_dict().values()))
        for name, m in named_metrics
    ])
