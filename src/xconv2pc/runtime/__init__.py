"""Two-party semi-honest inference engine with dealer preprocessing."""

from .material import (
    MaterialStore,
    generate_material,
    load_material,
    verify_material_pair,
    write_material,
)
from .protocol import PartyEngine
from .session import (
    LocalRun,
    connect_with_retry,
    listen_once,
    run_client_party,
    run_model_party,
    secure_infer_local,
)
from .wire import CommLedger, Frame, ledgers_mirror

__all__ = [
    "CommLedger", "Frame", "LocalRun", "MaterialStore", "PartyEngine",
    "connect_with_retry", "generate_material", "ledgers_mirror", "listen_once",
    "load_material", "run_client_party", "run_model_party",
    "secure_infer_local", "verify_material_pair", "write_material",
]
