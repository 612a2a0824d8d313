fn main() -> std::process::ExitCode {
    xstream_e2e_bench::main()
}
