//! The one command-line front end shared by the `archx` CLI and every
//! experiment binary.
//!
//! Each binary's `main` is a single call to [`run`], so every front end
//! speaks the same dialect: `key=value` arguments, a few GNU-style flags
//! (`--jobs N`, `--threads N`, `--journal PATH`, …) that normalise to
//! `key=value`, a `--telemetry json|pretty|off` switch (also spelled
//! `telemetry=MODE`), and comma-separated method/seed lists. A malformed
//! value is an `error: …` line on stderr and exit code 1, never a panic
//! or a silent default.

use archx_dse::campaign::{Method, ParallelConfig};
use archx_workloads::{spec06_suite, spec17_suite, Workload};
use std::collections::HashMap;
use std::process::ExitCode;

/// Runs one command-line program: extracts the telemetry mode, normalises
/// the GNU flags, disables the global telemetry registry when the mode is
/// `off`, parses the `key=value` arguments and hands the normalised
/// argument list (positionals included) and the key/value map to `body`.
/// Afterwards the telemetry report goes to stderr, and an `Err` from any
/// step becomes an `error: …` line and exit code 1.
pub fn run(
    body: impl FnOnce(&[String], &HashMap<String, String>) -> Result<(), String>,
) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run_with(&raw, body) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_with(
    raw: &[String],
    body: impl FnOnce(&[String], &HashMap<String, String>) -> Result<(), String>,
) -> Result<(), String> {
    let (args, mode) = extract_telemetry(raw)?;
    let args = normalize_flags(&args)?;
    let registry = archx_telemetry::global();
    if mode == TelemetryMode::Off {
        registry.set_enabled(false);
    }
    let result = body(&args, &parse_kv(&args));
    match mode {
        TelemetryMode::Off => {}
        TelemetryMode::Json => eprintln!("{}", registry.report().to_json()),
        TelemetryMode::Pretty => eprint!("{}", registry.report().to_pretty()),
    }
    result
}

/// Collects `key=value` arguments into a map; other arguments are ignored
/// (positional commands are handled by the caller).
fn parse_kv(args: &[String]) -> HashMap<String, String> {
    args.iter()
        .filter_map(|a| {
            a.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// Rewrites GNU-style `--journal PATH`, `--resume PATH`, `--cycle-budget N`,
/// `--retries N`, `--jobs N`, `--threads N`, `--designs N`, `--seed N`,
/// `--window N`, `--report PATH` and `--inject FAULT` (including their
/// `--flag=value` forms) into the CLI's native `key=value` arguments.
fn normalize_flags(args: &[String]) -> Result<Vec<String>, String> {
    const FLAGS: [(&str, &str); 11] = [
        ("--journal", "journal"),
        ("--resume", "resume"),
        ("--cycle-budget", "cycle_budget"),
        ("--retries", "retries"),
        ("--jobs", "jobs"),
        ("--threads", "threads"),
        ("--designs", "designs"),
        ("--seed", "seed"),
        ("--window", "window"),
        ("--report", "report"),
        ("--inject", "inject"),
    ];
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some((flag, key)) = FLAGS.iter().find(|(f, _)| {
            arg == f || (arg.starts_with(f) && arg.as_bytes().get(f.len()) == Some(&b'='))
        }) else {
            out.push(arg.clone());
            continue;
        };
        let value = match arg.split_once('=') {
            Some((_, v)) => v.to_string(),
            None => it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone(),
        };
        out.push(format!("{key}={value}"));
    }
    Ok(out)
}

/// How a front end renders the telemetry report after its command runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelemetryMode {
    /// Collection disabled; nothing printed.
    Off,
    /// Machine-readable JSON on stderr.
    Json,
    /// Aligned human-readable table on stderr.
    Pretty,
}

impl TelemetryMode {
    /// Parses `json`, `pretty` or `off`.
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "off" => Ok(TelemetryMode::Off),
            "json" => Ok(TelemetryMode::Json),
            "pretty" => Ok(TelemetryMode::Pretty),
            other => Err(format!(
                "--telemetry expects json|pretty|off, got `{other}`"
            )),
        }
    }
}

/// Extracts `--telemetry MODE` / `--telemetry=MODE` / `telemetry=MODE`
/// from the argument list, returning the remaining arguments and the mode
/// (default [`TelemetryMode::Off`]).
fn extract_telemetry(args: &[String]) -> Result<(Vec<String>, TelemetryMode), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut mode = TelemetryMode::Off;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--telemetry" {
            let value = it
                .next()
                .ok_or("--telemetry needs a value: json|pretty|off")?;
            mode = TelemetryMode::parse(value)?;
        } else if let Some(value) = arg
            .strip_prefix("--telemetry=")
            .or_else(|| arg.strip_prefix("telemetry="))
        {
            mode = TelemetryMode::parse(value)?;
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, mode))
}

/// Typed `key=value` lookup: `None` when the key is absent, an error
/// naming the key and the value when the value does not parse.
pub fn get_opt<T: std::str::FromStr>(
    kv: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    kv.get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value `{v}` for {key}"))
        })
        .transpose()
}

/// Typed `key=value` lookup with a default for a missing key; a malformed
/// value is an error, never a silent default.
pub fn get<T: std::str::FromStr>(
    kv: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    Ok(get_opt(kv, key)?.unwrap_or(default))
}

/// Campaign parallelism from `jobs=N` (default 1) and `threads=N`
/// (default: enough for the jobs, and at least the default thread count).
pub fn parallel(kv: &HashMap<String, String>) -> Result<ParallelConfig, String> {
    let mut parallel = ParallelConfig::with_jobs(get(kv, "jobs", 1)?);
    parallel.total_threads = get(kv, "threads", parallel.total_threads)?.max(1);
    Ok(parallel)
}

/// Parses one method name (`archexplorer`, `random`, `adaboost`,
/// `archranker`, `boom`/`boom-explorer`, `calipers`).
pub fn parse_method(name: &str) -> Result<Method, String> {
    match name {
        "archexplorer" => Ok(Method::ArchExplorer),
        "random" => Ok(Method::Random),
        "adaboost" => Ok(Method::AdaBoost),
        "archranker" => Ok(Method::ArchRanker),
        "boom" | "boom-explorer" => Ok(Method::BoomExplorer),
        "calipers" => Ok(Method::Calipers),
        other => Err(format!("unknown method `{other}`")),
    }
}

/// Parses a method selection: `all` (every implemented method), `paper`
/// (the Fig. 12 / Table 5 headline set), or a comma-separated list of
/// method names. Rejects selections that name no methods.
pub fn parse_methods(spec: &str) -> Result<Vec<Method>, String> {
    let methods: Vec<Method> = match spec {
        "all" => Method::ALL.to_vec(),
        "paper" => Method::PAPER_SET.to_vec(),
        list => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(parse_method)
            .collect::<Result<_, _>>()?,
    };
    if methods.is_empty() {
        return Err("method list selected no methods".into());
    }
    Ok(methods)
}

/// Parses a bundled suite name (`spec06` or `spec17`) into its workload
/// list.
pub fn parse_suite(name: &str) -> Result<Vec<Workload>, String> {
    match name {
        "spec06" => Ok(spec06_suite()),
        "spec17" => Ok(spec17_suite()),
        other => Err(format!(
            "unknown suite `{other}` (expected spec06 or spec17)"
        )),
    }
}

/// Parses a comma-separated seed list (`1,2,3`). Rejects empty lists and
/// unparsable entries.
pub fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let seeds: Vec<u64> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .collect::<Result<_, _>>()?;
    if seeds.is_empty() {
        return Err("seed list selected no seeds".into());
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn kv_parsing_collects_pairs_and_ignores_positionals() {
        let kv = parse_kv(&strings(&["campaign", "budget=120", "suite=spec17"]));
        assert_eq!(kv.get("budget").map(String::as_str), Some("120"));
        assert_eq!(kv.get("suite").map(String::as_str), Some("spec17"));
        assert!(!kv.contains_key("campaign"));
        assert_eq!(get(&kv, "budget", 0u64), Ok(120));
        assert_eq!(get(&kv, "missing", 7u64), Ok(7));
        let err = get(&kv, "suite", 0u64).expect_err("unparsable is an error");
        assert!(err.contains("suite") && err.contains("spec17"), "{err}");
    }

    #[test]
    fn flags_normalize_in_both_spellings() {
        let out = normalize_flags(&strings(&[
            "--jobs",
            "4",
            "--threads=8",
            "--journal",
            "/tmp/j",
            "budget=10",
        ]))
        .expect("parses");
        assert_eq!(
            out,
            strings(&["jobs=4", "threads=8", "journal=/tmp/j", "budget=10"])
        );
        // A flag prefix that is not the whole flag name passes through.
        let out = normalize_flags(&strings(&["--jobsx=4"])).expect("parses");
        assert_eq!(out, strings(&["--jobsx=4"]));
    }

    #[test]
    fn flag_without_value_is_an_error() {
        let err = normalize_flags(&strings(&["--jobs"])).expect_err("missing value");
        assert!(err.contains("--jobs"));
    }

    #[test]
    fn telemetry_extraction_accepts_all_spellings() {
        for args in [
            vec!["x=1", "--telemetry", "json"],
            vec!["x=1", "--telemetry=json"],
            vec!["x=1", "telemetry=json"],
        ] {
            let (rest, mode) = extract_telemetry(&strings(&args)).expect("parses");
            assert_eq!(mode, TelemetryMode::Json);
            assert_eq!(rest, strings(&["x=1"]));
        }
        let (_, mode) = extract_telemetry(&strings(&["x=1"])).expect("parses");
        assert_eq!(mode, TelemetryMode::Off);
        assert!(extract_telemetry(&strings(&["--telemetry", "loud"])).is_err());
        assert!(extract_telemetry(&strings(&["--telemetry"])).is_err());
    }

    #[test]
    fn method_lists_parse_named_sets_and_csv() {
        assert_eq!(parse_methods("all").unwrap(), Method::ALL.to_vec());
        assert_eq!(parse_methods("paper").unwrap(), Method::PAPER_SET.to_vec());
        assert_eq!(
            parse_methods("random, boom").unwrap(),
            vec![Method::Random, Method::BoomExplorer]
        );
        assert!(parse_methods("archranker,warp-drive").is_err());
        assert!(parse_methods(",").is_err());
    }

    #[test]
    fn seed_lists_parse_csv() {
        assert_eq!(parse_seeds("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(parse_seeds("1,x").is_err());
        assert!(parse_seeds("").is_err());
    }

    #[test]
    fn kv_parsing_handles_degenerate_pairs() {
        // Only the first `=` splits; later ones stay in the value.
        let kv = parse_kv(&strings(&["path=/a=b/c", "eq==", "k="]));
        assert_eq!(kv.get("path").map(String::as_str), Some("/a=b/c"));
        assert_eq!(kv.get("eq").map(String::as_str), Some("="));
        assert_eq!(kv.get("k").map(String::as_str), Some(""));
        // A later duplicate key wins (last-writer collect semantics).
        let kv = parse_kv(&strings(&["seed=1", "seed=2"]));
        assert_eq!(kv.get("seed").map(String::as_str), Some("2"));
    }

    #[test]
    fn verify_flags_normalize_in_both_spellings() {
        let out = normalize_flags(&strings(&[
            "verify",
            "--designs",
            "64",
            "--seed=7",
            "--window",
            "2000",
            "--report=/tmp/r.json",
            "--inject",
            "rob-off-by-one",
        ]))
        .expect("parses");
        assert_eq!(
            out,
            strings(&[
                "verify",
                "designs=64",
                "seed=7",
                "window=2000",
                "report=/tmp/r.json",
                "inject=rob-off-by-one",
            ])
        );
        for flag in ["--designs", "--seed", "--window", "--report", "--inject"] {
            let err = normalize_flags(&strings(&[flag])).expect_err("missing value");
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn method_names_reject_near_misses() {
        assert!(parse_method("ArchExplorer").is_err(), "names are lowercase");
        assert!(parse_method("archexplorer ").is_err(), "no trimming here");
        assert!(parse_method("").is_err());
        // The list parser does trim around commas.
        assert_eq!(
            parse_methods(" archexplorer ").unwrap(),
            vec![Method::ArchExplorer]
        );
    }

    #[test]
    fn numeric_values_reject_malformed_input() {
        let kv = parse_kv(&strings(&["budget=1k", "cycle_budget=5e6", "retries=2"]));
        let err = get(&kv, "budget", 240u64).expect_err("1k is not a number");
        assert!(err.contains("budget") && err.contains("1k"), "{err}");
        let err = get_opt::<u64>(&kv, "cycle_budget").expect_err("5e6 is not an integer");
        assert!(err.contains("cycle_budget") && err.contains("5e6"), "{err}");
        assert_eq!(
            get_opt::<u64>(&kv, "trace_seed"),
            Ok(None),
            "absent is not an error"
        );
        assert_eq!(get_opt::<u32>(&kv, "retries"), Ok(Some(2)));
    }

    #[test]
    fn suite_names_select_a_bundled_suite_or_fail() {
        assert_eq!(parse_suite("spec06").unwrap(), spec06_suite());
        assert_eq!(parse_suite("spec17").unwrap(), spec17_suite());
        let err = parse_suite("spec71").expect_err("unknown suite");
        assert!(err.contains("`spec71`"), "{err}");
        assert!(parse_suite("SPEC06").is_err(), "names are lowercase");
        assert!(
            parse_suite("both").is_err(),
            "front ends expand `both` themselves"
        );
    }

    #[test]
    fn seed_lists_reject_malformed_numbers() {
        assert!(parse_seeds("-1").is_err(), "seeds are unsigned");
        assert!(parse_seeds("1.5").is_err());
        assert!(parse_seeds("0x10").is_err());
        assert!(parse_seeds(",,,").is_err(), "only separators is empty");
        assert!(parse_seeds("18446744073709551616").is_err(), "u64 overflow");
        assert_eq!(parse_seeds("18446744073709551615").unwrap(), vec![u64::MAX]);
    }
}
