//! `pamdc-lint` — run the repo contracts over the workspace.
//!
//! ```text
//! pamdc-lint --workspace [--root <dir>] [--json <path>] [--quiet]
//! ```
//!
//! Prints one `file:line · rule · message` diagnostic per unsuppressed
//! violation. Exits 0 when clean, 1 on any violation (including unused
//! or malformed `allow` directives), 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut workspace = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => workspace = true,
            "--quiet" => quiet = true,
            "--root" => {
                i += 1;
                root = Some(PathBuf::from(
                    args.get(i).ok_or("--root needs a directory")?,
                ));
            }
            "--json" => {
                i += 1;
                json_out = Some(PathBuf::from(args.get(i).ok_or("--json needs a path")?));
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    if !workspace && root.is_none() {
        return Err(
            "usage: pamdc-lint --workspace [--root <dir>] [--json <path>] [--quiet]".into(),
        );
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            pamdc_lint::find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory")?
        }
    };

    let report = pamdc_lint::run(&root, &pamdc_lint::Profile::repo())?;
    if let Some(path) = &json_out {
        std::fs::write(path, pamdc_lint::to_json(&report))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    for v in &report.violations {
        println!("{}", v.render());
    }
    if !quiet {
        eprintln!(
            "pamdc-lint: {} violation(s), {} suppressed, {} allow directive(s), {} files, \
             {} non-test lines",
            report.violations.len(),
            report.suppressed.len(),
            report.allows.len(),
            report.files_scanned,
            report.non_test_lines
        );
    }
    Ok(report.violations.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pamdc-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
