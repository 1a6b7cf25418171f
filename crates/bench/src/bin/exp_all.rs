//! Regenerates every table and figure of the paper's evaluation, in order.
//!
//! ```sh
//! cargo run --release -p cdp-bench --bin exp_all -- --scale repo
//! ```

fn main() {
    use cdp_bench::experiments as exp;
    cdp_bench::run_binary("exp_all", |scale, out| {
        let sections = [
            exp::datasets::run(scale, out),
            exp::table3::run(scale, out),
            exp::fig4::run(scale, out),
            exp::fig5::run(scale, out),
            exp::fig6::run(scale, out),
            exp::table4::run(scale, out),
            exp::fig7::run(scale, out),
            exp::fig8::run(scale, out),
            exp::fault_recovery::run(scale, out),
            exp::ingest::run(scale, out),
        ];
        sections.join("\n============================================================\n\n")
    });
}
