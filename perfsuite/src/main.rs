fn main() {
    // First line: `setup_s` counts from here.
    let process_start = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfsuite::cli::main(&args, process_start));
}
