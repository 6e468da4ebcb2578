//! Empty stand-in: `lmpi-netmodel` declares `rand` but never names it.
