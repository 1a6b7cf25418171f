//! One module per paper artifact. Every `run(scale, out_dir)` returns the
//! rendered report and writes a CSV next to it.

pub mod ablations;
pub mod datasets;
pub mod fault_recovery;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod ingest;
pub mod staleness;
pub mod table3;
pub mod table4;
