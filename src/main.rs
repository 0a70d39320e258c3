//! The `deepeye` command-line tool: automatic visualization for CSV files.
//!
//! ```text
//! deepeye recommend <csv> [k]          top-k charts as terminal sketches
//! deepeye search <csv> <keywords> [k]  keyword-driven chart search
//! deepeye query <csv> <query.vql>     run one visualization-language query
//! deepeye explain <csv>                why each chart ranked where it did
//! deepeye svg <csv> <out-dir> [k]      render top-k charts to SVG files
//! deepeye dashboard <csv> [out.html]   offline HTML dashboard (inline SVG)
//! deepeye inspect <csv>                schema and detected column types
//! ```
//!
//! Pipeline-running commands accept `--metrics-out <file>` (JSON metrics
//! snapshot), `--trace-out <file>` (Chrome trace-event timeline — load in
//! Perfetto or chrome://tracing), `--flame-out <file>` (a self-contained
//! flame SVG when the path ends in `.svg`, folded stacks otherwise),
//! and `--provenance-out <file>` (the per-candidate decision-provenance
//! record). The observability flags also print a per-stage timing report
//! to stderr. Any other `--` argument, or a positional argument beyond
//! what the command takes, is a usage error (exit 2).
//!
//! `explain` runs the full pipeline with provenance collection on and
//! prints the "why" report: the M/Q/W factor breakdown, dominance
//! summary, and rank derivation per top chart, plus the admit/reject
//! accounting. `--top <n>` widens the report; `--query '<vis query>'`
//! explains one specific candidate (including rejected ones).

use deepeye::core::{keyword_search, render_svg, SvgOptions};
use deepeye::prelude::*;
use std::io::{self, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  deepeye recommend <csv> [k]\n  deepeye search <csv> <keywords> [k]\n  \
         deepeye query <csv> <query.vql>\n  \
         deepeye explain <csv> [--top <n>] [--query '<vis query>']\n  \
         deepeye svg <csv> <out-dir> [k]\n  \
         deepeye dashboard <csv> [out.html]\n  deepeye inspect <csv>\n\
         options:\n  --metrics-out <file>     write a JSON metrics snapshot\n  \
         --trace-out <file>       write a Chrome trace (Perfetto-loadable)\n  \
         --flame-out <file>       write a flame view (.svg) or folded stacks\n  \
         --provenance-out <file>  write the decision-provenance JSON"
    );
    ExitCode::from(2)
}

/// Read the CSV at `path` into a typed table, under a `pipeline.ingest`
/// span so traces and the stage report include ingest.
fn load(path: &str, obs: &Observer) -> Result<Table, ExitCode> {
    let _ingest = obs.span("pipeline.ingest");
    table_from_csv_path(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

/// The count `arg` names (`default` when absent). A value that does not
/// parse is a usage error naming `what` and the value.
fn count(what: &str, arg: Option<&String>, default: usize) -> Result<usize, ExitCode> {
    let Some(arg) = arg else {
        return Ok(default);
    };
    arg.parse().map_err(|_| {
        eprintln!("error: {what} wants a number, got `{arg}`");
        usage()
    })
}

/// Strip one `--name <value>` flag from `args` (any position). `Err`
/// means the flag was given without a value.
fn strip_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, ()> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args[i + 1].clone();
    args.drain(i..i + 2);
    Ok(Some(value))
}

/// The most arguments `command` takes, itself included (flags already
/// stripped); `None` for an unknown command.
fn max_args(command: &str) -> Option<usize> {
    Some(match command {
        "explain" | "inspect" => 2,
        "recommend" | "query" | "dashboard" => 3,
        "search" | "svg" => 4,
        _ => return None,
    })
}

/// Observability outputs requested on the command line.
struct ObsFlags {
    metrics_out: Option<String>,
    trace_out: Option<String>,
    flame_out: Option<String>,
    provenance_out: Option<String>,
}

impl ObsFlags {
    /// Strip the export flags from `args` (any position), so positional
    /// parsing below stays index-based. `Err` means a flag was given
    /// without a value.
    fn strip(args: &mut Vec<String>) -> Result<ObsFlags, ()> {
        Ok(ObsFlags {
            metrics_out: strip_flag(args, "--metrics-out")?,
            trace_out: strip_flag(args, "--trace-out")?,
            flame_out: strip_flag(args, "--flame-out")?,
            provenance_out: strip_flag(args, "--provenance-out")?,
        })
    }

    fn wanted(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.flame_out.is_some()
    }

    /// An observer matching the flags: enabled only when an output was
    /// requested, so the default CLI path stays observation-free.
    fn observer(&self) -> Observer {
        if self.wanted() {
            Observer::enabled()
        } else {
            Observer::disabled()
        }
    }

    /// A provenance collector matching the flags: recording when a
    /// provenance export was requested (or `force`d by the `explain`
    /// subcommand), the no-op handle otherwise.
    fn provenance(&self, force: bool) -> Provenance {
        if force || self.provenance_out.is_some() {
            Provenance::enabled()
        } else {
            Provenance::disabled()
        }
    }

    /// Write the requested exports and print the stage report to stderr.
    fn finish(&self, obs: &Observer, prov: &Provenance) -> Result<(), ExitCode> {
        if let Some(path) = &self.provenance_out {
            std::fs::write(path, prov.to_json()).map_err(|e| {
                eprintln!("error: cannot write {path}: {e}");
                ExitCode::FAILURE
            })?;
            eprintln!("wrote decision provenance to {path}");
        }
        if !self.wanted() {
            return Ok(());
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, obs.metrics_json()).map_err(|e| {
                eprintln!("error: cannot write {path}: {e}");
                ExitCode::FAILURE
            })?;
            eprintln!("wrote metrics snapshot to {path}");
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, obs.chrome_trace_json()).map_err(|e| {
                eprintln!("error: cannot write {path}: {e}");
                ExitCode::FAILURE
            })?;
            eprintln!("wrote Chrome trace to {path} (load in Perfetto / chrome://tracing)");
        }
        if let Some(path) = &self.flame_out {
            // `.svg` targets get the self-contained flame view; anything
            // else gets the folded-stack text that external flamegraph
            // tools consume.
            let body = if path.ends_with(".svg") {
                obs.flame_svg()
            } else {
                obs.folded_stacks()
            };
            std::fs::write(path, body).map_err(|e| {
                eprintln!("error: cannot write {path}: {e}");
                ExitCode::FAILURE
            })?;
            eprintln!("wrote flame view to {path}");
        }
        eprint!("{}", obs.stage_report());
        Ok(())
    }
}

fn main() -> ExitCode {
    let mut stdout = io::stdout().lock();
    match run(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        // A reader that stops early (`deepeye recommend t.csv | head -1`)
        // closes the pipe; end quietly, as other Unix filters do.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the command named on the command line, printing its output to
/// `stdout`. `Err` is a failed write to `stdout`.
fn run(stdout: &mut impl Write) -> io::Result<ExitCode> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Ok(flags) = ObsFlags::strip(&mut args) else {
        return Ok(usage());
    };
    let obs = flags.observer();
    let Some(command) = args.first().cloned() else {
        return Ok(usage());
    };
    // `explain`'s own flags go first, so what is left is positional.
    let (top, query_text) = if command == "explain" {
        match (
            strip_flag(&mut args, "--top"),
            strip_flag(&mut args, "--query"),
        ) {
            (Ok(top), Ok(query_text)) => (top, query_text),
            _ => return Ok(usage()),
        }
    } else {
        (None, None)
    };
    let Some(max) = max_args(&command) else {
        return Ok(usage());
    };
    let unknown = args.iter().skip(1).find(|a| a.starts_with("--"));
    if let Some(extra) = unknown.or_else(|| args.get(max)) {
        eprintln!("error: unknown argument `{extra}`");
        return Ok(usage());
    }
    let prov = flags.provenance(command == "explain");
    let eye = DeepEye::new(DeepEyeConfig {
        observer: obs.clone(),
        provenance: prov.clone(),
        ..Default::default()
    });
    match command.as_str() {
        "recommend" => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let table = match load(path, &obs) {
                Ok(t) => t,
                Err(code) => return Ok(code),
            };
            let k = match count("k", args.get(2), 5) {
                Ok(k) => k,
                Err(code) => return Ok(code),
            };
            writeln!(stdout, "{}\n", table.schema_string())?;
            let recs = eye.recommend(&table, k);
            if recs.is_empty() {
                writeln!(stdout, "no meaningful visualizations found")?;
            }
            for rec in recs {
                writeln!(
                    stdout,
                    "#{} (M={:.2} Q={:.2} W={:.2})\n{}",
                    rec.rank,
                    rec.factors.m,
                    rec.factors.q,
                    rec.factors.w,
                    rec.node.data.ascii_sketch(10)
                )?;
            }
            if let Err(code) = flags.finish(&obs, &prov) {
                return Ok(code);
            }
            Ok(ExitCode::SUCCESS)
        }
        "search" => {
            let (Some(path), Some(keywords)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            let table = match load(path, &obs) {
                Ok(t) => t,
                Err(code) => return Ok(code),
            };
            let k = match count("k", args.get(3), 3) {
                Ok(k) => k,
                Err(code) => return Ok(code),
            };
            for rec in keyword_search(&eye, &table, keywords, k) {
                writeln!(stdout, "#{}\n{}", rec.rank, rec.node.data.ascii_sketch(10))?;
            }
            if let Err(code) = flags.finish(&obs, &prov) {
                return Ok(code);
            }
            Ok(ExitCode::SUCCESS)
        }
        "query" => {
            let (Some(path), Some(query_path)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            let table = match load(path, &obs) {
                Ok(t) => t,
                Err(code) => return Ok(code),
            };
            let text = match std::fs::read_to_string(query_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {query_path}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            match parse_query(&text).map(|p| execute(&table, &p.query)) {
                Ok(Ok(chart)) => {
                    writeln!(stdout, "{chart}")?;
                    if let Err(code) = flags.finish(&obs, &prov) {
                        return Ok(code);
                    }
                    Ok(ExitCode::SUCCESS)
                }
                Ok(Err(e)) => {
                    eprintln!("execution error: {e}");
                    Ok(ExitCode::FAILURE)
                }
                Err(e) => {
                    eprintln!("{e}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "explain" => {
            let top = match count("--top", top.as_ref(), 5) {
                Ok(top) => top,
                Err(code) => return Ok(code),
            };
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let table = match load(path, &obs) {
                Ok(t) => t,
                Err(code) => return Ok(code),
            };
            let _ = eye.recommend(&table, top);
            let log = prov.snapshot();
            match query_text {
                Some(text) => {
                    let parsed = match parse_query(&text) {
                        Ok(p) => p,
                        Err(e) => {
                            eprintln!("{e}");
                            return Ok(ExitCode::FAILURE);
                        }
                    };
                    let id = deepeye::core::query_id(&parsed.query);
                    match log.find(&id) {
                        Some(e) => write!(stdout, "{}", e.render())?,
                        None => {
                            eprintln!(
                                "no provenance record for `{}` — the candidate was never \
                                 enumerated (try a GROUP/BIN transform the rules propose)",
                                parsed.query.to_language(table.name())
                            );
                            return Ok(ExitCode::FAILURE);
                        }
                    }
                }
                None => write!(stdout, "{}", log.report(top))?,
            }
            if let Err(code) = flags.finish(&obs, &prov) {
                return Ok(code);
            }
            Ok(ExitCode::SUCCESS)
        }
        "svg" => {
            let (Some(path), Some(out_dir)) = (args.get(1), args.get(2)) else {
                return Ok(usage());
            };
            let table = match load(path, &obs) {
                Ok(t) => t,
                Err(code) => return Ok(code),
            };
            let k = match count("k", args.get(3), 6) {
                Ok(k) => k,
                Err(code) => return Ok(code),
            };
            if let Err(e) = std::fs::create_dir_all(out_dir) {
                eprintln!("error: cannot create {out_dir}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            let opts = SvgOptions::default();
            for rec in eye.recommend(&table, k) {
                let file = format!("{out_dir}/chart{}.svg", rec.rank);
                if let Err(e) = std::fs::write(&file, render_svg(&rec.node, &opts)) {
                    eprintln!("error: cannot write {file}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
                writeln!(stdout, "wrote {file}")?;
            }
            if let Err(code) = flags.finish(&obs, &prov) {
                return Ok(code);
            }
            Ok(ExitCode::SUCCESS)
        }
        "dashboard" => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let table = match load(path, &obs) {
                Ok(t) => t,
                Err(code) => return Ok(code),
            };
            let out = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| "dashboard.html".to_owned());
            let opts = SvgOptions::default();
            let mut html = String::from(
                "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>DeepEye</title>\
                 <style>body{font-family:sans-serif;display:grid;\
                 grid-template-columns:repeat(auto-fill,minmax(500px,1fr));gap:16px;padding:16px}\
                 .card{border:1px solid #ddd;border-radius:8px;padding:8px}</style></head><body>\n",
            );
            for rec in eye.recommend(&table, 8) {
                html.push_str("<div class=\"card\">");
                html.push_str(&render_svg(&rec.node, &opts));
                html.push_str("</div>\n");
            }
            html.push_str("</body></html>\n");
            if let Err(e) = std::fs::write(&out, html) {
                eprintln!("error: cannot write {out}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            writeln!(stdout, "wrote {out} (fully offline, inline SVG)")?;
            if let Err(code) = flags.finish(&obs, &prov) {
                return Ok(code);
            }
            Ok(ExitCode::SUCCESS)
        }
        "inspect" => {
            let Some(path) = args.get(1) else {
                return Ok(usage());
            };
            let table = match load(path, &obs) {
                Ok(t) => t,
                Err(code) => return Ok(code),
            };
            writeln!(stdout, "{}", table.schema_string())?;
            for col in table.columns() {
                let profile = deepeye::data::profile_column(col);
                writeln!(
                    stdout,
                    "  {:<24} nulls={:<5} {}",
                    col.name(),
                    col.null_count(),
                    profile.summary_line(col.data_type()),
                )?;
            }
            if let Err(code) = flags.finish(&obs, &prov) {
                return Ok(code);
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}
