//! `eml-benchmark`: run one workload, print the manifest or the
//! catalog, or check that two sets of runs agree. See `README.md`.

use std::process::ExitCode;

use eml_benchmark::agree::agree;
use eml_benchmark::catalog;
use eml_benchmark::run::{run, RunArgs};

const USAGE: &str = "usage: eml-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       eml-benchmark manifest | catalog | agree";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    Ok(RunArgs {
        workload: flag(args, "--workload")
            .ok_or("missing --workload")?
            .to_string(),
        seed: flag(args, "--seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag(args, "--seconds")
            .map_or(Ok(f64::from(catalog::RUN_SECONDS)), str::parse)
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match flag(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalog::manifest_json());
            ExitCode::SUCCESS
        }
        Some("catalog") => {
            print!("{}", catalog::catalog_markdown());
            ExitCode::SUCCESS
        }
        Some("agree") => match agree() {
            Ok((report, ok)) => {
                print!("{report}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("eml-benchmark: the two sets do not agree within the bounds");
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("eml-benchmark: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => {
            let outcome = parse_run(&args).and_then(|a| run(&a).map(|out| (a, out)));
            match outcome {
                Ok((a, out)) => {
                    if let Some(trace) = &out.trace {
                        let dir = std::path::Path::new("benchmark/out");
                        let path = dir.join(format!("trace-{}.json", a.workload));
                        if let Err(e) = std::fs::create_dir_all(dir)
                            .and_then(|()| std::fs::write(&path, trace.to_line()))
                        {
                            eprintln!("eml-benchmark: cannot write {}: {e}", path.display());
                            return ExitCode::from(2);
                        }
                    }
                    println!("run_record {}", out.record.to_line());
                    println!("{}", out.result_line());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("eml-benchmark: {e}\n{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
    }
}
