//! `bench <section> [part] [--scale small|medium|full]`; see `bench::cli`.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    bench::cli::main(&argv)
}
