#!/usr/bin/env python3
"""Operation cost table and what a simulated run actually charges.

The default schedule prices add-service, request-service, and
endorse-review in gas units at 2.9 Gwei; the table converts to Ether
(6 decimals) and USD (3 decimals, at the configured $/ETH rate).
"""

from decimal import Decimal

from ddrm import ProtocolConfig, Simulation, ether, format_ether, gas_table_rows, text_digest
from ddrm.ledger import GAS_SINK
from ddrm.reporting import format_gas_table


def main():
    config = ProtocolConfig()
    print(format_gas_table(gas_table_rows(config.gas, Decimal("1586.0"))))

    print("\nimplied rate from each row (USD / Ether):")
    for row in gas_table_rows(config.gas, Decimal("1586.0")):
        print(f"  {row.function_name:16s} {row.total_usd} / {row.total_ether} = "
              f"{row.total_usd / row.total_ether:.1f} $/ETH")

    print("\ncharges observed in a live simulation:")
    sim = Simulation(config, seed=7)
    provider = sim.register("card-p", {"ServiceProvider"})
    consumer = sim.register("card-c", {"Consumer"})
    service = sim.add_service(provider, ether("0.5"))
    purchase = sim.buy_service(consumer, service)
    sim.submit_review(consumer, purchase, 5, text_digest("solid"))
    for record in sim.ledger.log:
        if record.kind == "GasCharged":
            p = record.payload
            print(f"  {p['op']:16s} payer {p['payer']}  {format_ether(p['amount_wei'])} ETH")
    print(f"\nreview submission cost the consumer nothing; the service fund paid "
          f"{format_ether(10**16)} ETH into the gas sink")
    print(f"gas sink total: {format_ether(sim.ledger.balance(GAS_SINK))} ETH")


if __name__ == "__main__":
    main()
