"""Shared helpers: unit conversion, validation, seeded RNG streams, plotting."""

from repro.utils.units import (
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    normalize_power,
    papr_db,
    rms,
    scale_to_power,
    signal_energy,
    signal_power,
    watt_to_dbm,
)
from repro.utils.validation import (
    as_complex_array,
    as_float_array,
    ensure_in_range,
    ensure_non_negative,
    ensure_odd,
    ensure_positive,
    ensure_power_of_two,
    ensure_probability_vector,
    read_spec_file,
)
from repro.utils.rng import child_rng, derive_seed, make_rng
from repro.utils.ascii_plot import format_table, histogram_bar, line_plot
from repro.utils.recordings import load_cf32, load_recording, save_cf32, save_recording

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watt",
    "watt_to_dbm",
    "signal_power",
    "signal_energy",
    "rms",
    "normalize_power",
    "scale_to_power",
    "papr_db",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in_range",
    "ensure_odd",
    "ensure_power_of_two",
    "ensure_probability_vector",
    "as_complex_array",
    "as_float_array",
    "read_spec_file",
    "make_rng",
    "derive_seed",
    "child_rng",
    "line_plot",
    "format_table",
    "histogram_bar",
    "save_cf32",
    "load_cf32",
    "save_recording",
    "load_recording",
]
