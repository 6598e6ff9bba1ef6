//! Command-line entry point: `--workload W --seed N --seconds S --trace
//! 0|1 [--size paper|tiny]`. Prints the metrics table, then the result
//! line as the last line of standard output. Exits 2 on bad arguments.

use chopper_benchmark::{repo_root, run, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = repo_root().join("benchmark").join("out");
    let report = run(&cfg, Some(&out_dir));
    print!("{}", report.render());
    println!("{}", report.json_line());
}
