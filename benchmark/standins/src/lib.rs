//! Tests only: see `tests/`.
