//! `cargo bench -p dm-bench --bench paper [-- [--quick] [--scale X] [fig4 … table5]]`:
//! the whole evaluation of the paper through `dm_bench::paper`.

fn main() {
    if let Err(message) = dm_bench::paper::main(std::env::args().skip(1)) {
        eprintln!("paper: {message}");
        std::process::exit(2);
    }
}
