//! Azure public VM trace — CPU-readings schema.
//!
//! The [Azure public dataset](https://github.com/Azure/AzurePublicDataset)
//! ships VM CPU readings as headerless CSV rows
//!
//! ```text
//! timestamp,vm id,min cpu,max cpu,avg cpu
//! ```
//!
//! with `timestamp` in seconds at a 5-minute cadence and the CPU columns
//! in percent. This parser accepts those rows (an optional header line
//! is skipped), rebases timestamps to the earliest one seen, and keeps
//! `avg cpu` as the utilization signal. Azure publishes no per-VM
//! network columns, so per-request KB fall back to the class means (see
//! the [module docs](crate::import) for the full normalization rules).

use super::{for_each_line, line_err, ImportError, ImportOptions, ServiceInterner, UsageRow};
use std::io::BufRead;

/// Columns of one reading row.
const COLS: usize = 5;

/// Parses Azure CPU-reading rows into normalized usage samples. Lines
/// are read through [`for_each_line`], so CRLF exports parse
/// identically to LF ones.
pub(crate) fn parse_rows<R: BufRead>(
    reader: R,
    opts: &ImportOptions,
) -> Result<Vec<UsageRow>, ImportError> {
    let mut services = ServiceInterner::new(opts.max_services);
    let mut rows = Vec::new();
    let mut saw_content = false;
    for_each_line(reader, |lineno, line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        // Skip the (optional) header row: the first non-comment line,
        // wherever it sits.
        if !saw_content && line.to_ascii_lowercase().starts_with("timestamp") {
            return Ok(());
        }
        saw_content = true;
        pamdc_obs::metrics::add(pamdc_obs::Counter::ImportRowsRead, 1);
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        // Slice pattern instead of indexing: the shape check and the
        // column picks are one infallible step (no-panic contract).
        let [col_ts, col_vm, _min_cpu, _max_cpu, col_avg] = cols.as_slice() else {
            return Err(line_err(
                lineno,
                format!(
                    "expected {COLS} columns (timestamp,vm id,min cpu,max cpu,avg cpu), got {}",
                    cols.len()
                ),
            ));
        };
        let timestamp: u64 = col_ts
            .parse()
            .map_err(|_| line_err(lineno, format!("bad timestamp {col_ts:?}")))?;
        if col_vm.is_empty() {
            return Err(line_err(lineno, "empty vm id"));
        }
        let avg_cpu: f64 = col_avg
            .parse()
            .map_err(|_| line_err(lineno, format!("bad avg cpu {col_avg:?}")))?;
        if !avg_cpu.is_finite() || avg_cpu < 0.0 {
            return Err(line_err(
                lineno,
                format!("avg cpu must be finite and >= 0, got {avg_cpu}"),
            ));
        }
        let Some(service) = services.intern(col_vm) else {
            pamdc_obs::metrics::add(pamdc_obs::Counter::ImportRowsDropped, 1);
            return Ok(()); // beyond max_services
        };
        rows.push(UsageRow {
            timestamp,
            service,
            cpu_pct: avg_cpu,
            net_in_kbps: None,
            net_out_kbps: None,
            mem_util_pct: None,
        });
        Ok(())
    })?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::{import, test_options, TraceFormat};

    fn parse(text: &str) -> Result<Vec<UsageRow>, ImportError> {
        parse_rows(text.as_bytes(), &test_options())
    }

    #[test]
    fn parses_headerless_and_headered_input() {
        let bare = "0,a,1,2,1.5\n300,b,0,9,4.0\n";
        let rows = parse(bare).expect("bare");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].service, 1);
        let headered = format!("timestamp,vm id,min cpu,max cpu,avg cpu\n{bare}");
        assert_eq!(parse(&headered).expect("headered").len(), 2);
    }

    #[test]
    fn malformed_rows_error_with_line_numbers() {
        // Truncated row.
        let err = parse("0,a,1,2,1.5\n300,b,0\n").unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
        assert!(err.0.contains("expected 5 columns"), "{err}");
        // Non-numeric timestamp.
        let err = parse("soon,a,1,2,1.5\n").unwrap_err();
        assert!(err.0.contains("bad timestamp"), "{err}");
        // Non-numeric CPU.
        let err = parse("0,a,1,2,lots\n").unwrap_err();
        assert!(err.0.contains("bad avg cpu"), "{err}");
        // Negative CPU.
        let err = parse("0,a,1,2,-3.0\n").unwrap_err();
        assert!(err.0.contains(">= 0"), "{err}");
        // Empty VM id.
        let err = parse("0,,1,2,1.5\n").unwrap_err();
        assert!(err.0.contains("empty vm id"), "{err}");
    }

    #[test]
    fn unsorted_timestamps_rebase_to_the_minimum() {
        let text = "900,a,0,0,10.0\n300,a,0,0,20.0\n600,a,0,0,30.0\n";
        let t = import(TraceFormat::Azure, text.as_bytes(), &test_options()).expect("import");
        assert_eq!(t.tick_count(), 3, "ticks rebase to the earliest row");
        assert!(t.flows[0][0][0].rps > t.flows[2][0][0].rps);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let rows = parse("# provenance note\n\n0,a,1,2,1.5\n").expect("parse");
        assert_eq!(rows.len(), 1);
        // A header row after leading comments is still recognized...
        let rows = parse("# note\n\ntimestamp,vm id,min cpu,max cpu,avg cpu\n0,a,1,2,1.5\n")
            .expect("parse");
        assert_eq!(rows.len(), 1);
        // ...but a header-looking line after data is a malformed row.
        assert!(parse("0,a,1,2,1.5\ntimestamp,vm id,min cpu,max cpu,avg cpu\n").is_err());
    }
}
