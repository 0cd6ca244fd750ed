"""Raw record streams and the multi-vendor adaption layer.

The paper's data layer ingests vendor exports through a "multi-vendor data
adaption module" that normalizes field names/units before ETL loads standard
tables.  The simulator emits clean tables directly; this module converts
them back into *raw record streams* — including two simulated vendor
dialects with renamed fields, different units and occasional malformed rows
— so the ETL layer (:mod:`repro.dataplat.etl`) can be exercised end to end.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..dataplat.etl import ETLJob
from ..dataplat.schema import Schema
from ..dataplat.table import Table
from ..errors import ETLError


def table_records(table: Table) -> Iterator[dict]:
    """Stream a table as plain record dicts (the clean vendor)."""
    names = table.schema.names
    for row in table.rows():
        yield dict(zip(names, row))


#: Vendor-B dialect for the CS KPI export: renamed fields, drop rate in
#: percent instead of fraction, delays in milliseconds instead of seconds.
VENDOR_B_CS_FIELDS = {
    "SUBSCRIBER_ID": "imsi",
    "CALL_SUCC_RATE": "perceived_call_success_rate",
    "CONN_DELAY_MS": "e2e_conn_delay",
    "DROP_RATE_PCT": "perceived_call_drop_rate",
    "MOS_UL": "voice_quality_mos_ul",
    "MOS_DL": "voice_quality_mos_dl",
    "MOS_IP": "voice_quality_ip_mos",
    "ONEWAY_CNT": "oneway_audio_cnt",
    "NOISE_CNT": "noise_cnt",
    "ECHO_CNT": "echo_cnt",
}


def vendor_b_cs_records(
    table: Table,
    rng: np.random.Generator,
    malformed_fraction: float = 0.01,
) -> Iterator[dict]:
    """The CS KPI table as vendor-B would export it.

    Fields are renamed per :data:`VENDOR_B_CS_FIELDS`, the drop rate is in
    percent, delays are in milliseconds, and a small fraction of rows is
    malformed (missing subscriber id) — the realistic dirt the ETL
    counters must surface.
    """
    if not 0 <= malformed_fraction < 1:
        raise ETLError(
            f"malformed_fraction must be in [0, 1), got {malformed_fraction}"
        )
    inverse = {v: k for k, v in VENDOR_B_CS_FIELDS.items()}
    for record in table_records(table):
        out = {}
        for name, value in record.items():
            vendor_name = inverse.get(name)
            if vendor_name is None:
                continue
            if name == "perceived_call_drop_rate":
                value = float(value) * 100.0
            elif name == "e2e_conn_delay":
                value = float(value) * 1000.0
            out[vendor_name] = value
        if rng.random() < malformed_fraction:
            out.pop("SUBSCRIBER_ID", None)
        yield out


def adapt_vendor_b_cs(record: dict) -> dict | None:
    """Multi-vendor adapter: vendor-B CS export → the standard schema.

    Returns None for records that cannot be attributed to a subscriber.
    """
    if "SUBSCRIBER_ID" not in record:
        return None
    out = {}
    for vendor_name, standard_name in VENDOR_B_CS_FIELDS.items():
        if vendor_name not in record:
            return None
        value = record[vendor_name]
        if standard_name == "perceived_call_drop_rate":
            value = float(value) / 100.0
        elif standard_name == "e2e_conn_delay":
            value = float(value) / 1000.0
        out[standard_name] = value
    return out


def cs_kpi_etl_job() -> ETLJob:
    """ETL job loading vendor-B CS exports into the standard ``cs_kpi``."""
    schema = Schema.of(
        imsi="int",
        perceived_call_success_rate="float",
        e2e_conn_delay="float",
        perceived_call_drop_rate="float",
        voice_quality_mos_ul="float",
        voice_quality_mos_dl="float",
        voice_quality_ip_mos="float",
        oneway_audio_cnt="int",
        noise_cnt="int",
        echo_cnt="int",
    )
    return ETLJob(schema, "cs_kpi", transform=adapt_vendor_b_cs)
