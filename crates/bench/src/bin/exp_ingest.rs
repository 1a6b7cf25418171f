//! Drives the arrival scenarios (drift, bursts, out-of-order) end-to-end
//! through the WAL; see `cdp-bench` docs for flags.

fn main() {
    cdp_bench::run_binary("exp_ingest", |scale, out| {
        cdp_bench::experiments::ingest::run(scale, out)
    });
}
