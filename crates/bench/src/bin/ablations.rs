//! Prints the design-decision ablation report (work stealing, §3.2
//! optimizations); pass `smoke`/`quick`/`full` as the first argument
//! to pick the scale.

fn main() {
    let effort = xstream_bench::Effort::from_env();
    print!("{}", xstream_bench::figs::ablations::report(effort));
}
