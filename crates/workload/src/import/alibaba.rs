//! Alibaba cluster trace — `container_usage` schema.
//!
//! The [Alibaba cluster trace](https://github.com/alibaba/clusterdata)
//! (v2018) publishes per-container usage as headerless CSV rows
//!
//! ```text
//! container_id,machine_id,time_stamp,cpu_util_percent,mem_util_percent,
//! cpi,mem_gps,mpki,net_in,net_out,disk_io_percent
//! ```
//!
//! with `time_stamp` in seconds (~10 s cadence), `cpu_util_percent` in
//! percent and `net_in`/`net_out` in (normalized) KB/s. The dataset is
//! famously sparse: rows routinely leave `cpi`, `net_*` and other
//! columns empty. This parser therefore
//!
//! * requires only the first 10 columns (the trailing `disk_io_percent`
//!   may be absent) and ignores anything after column 11;
//! * **skips** rows whose `cpu_util_percent` is empty (no utilization
//!   signal to normalize), keeping the import total over real files;
//! * treats empty `net_in`/`net_out` as "column absent" — per-request
//!   KB then fall back to the class means (see the
//!   [module docs](crate::import)).
//!
//! Malformed non-empty values still error with their line number.

use super::{for_each_line, line_err, ImportError, ImportOptions, ServiceInterner, UsageRow};
use std::io::BufRead;

/// Minimum columns a usage row must carry (`..net_out`).
const MIN_COLS: usize = 10;

fn opt_f64(text: &str, lineno: usize, what: &str) -> Result<Option<f64>, ImportError> {
    if text.is_empty() {
        return Ok(None);
    }
    let v: f64 = text
        .parse()
        .map_err(|_| line_err(lineno, format!("bad {what} {text:?}")))?;
    if !v.is_finite() || v < 0.0 {
        return Err(line_err(
            lineno,
            format!("{what} must be finite and >= 0, got {v}"),
        ));
    }
    Ok(Some(v))
}

/// Parses Alibaba `container_usage` rows into normalized usage samples.
/// Lines are read through [`for_each_line`], so CRLF exports parse
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
        if !saw_content && line.to_ascii_lowercase().starts_with("container_id") {
            return Ok(());
        }
        saw_content = true;
        pamdc_obs::metrics::add(pamdc_obs::Counter::ImportRowsRead, 1);
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        // Slice pattern instead of indexing (no-panic contract): the
        // trailing `..` tolerates the dataset's extra columns.
        let [col_cid, _machine, col_ts, col_cpu, col_mem, _, _, _, col_in, col_out, ..] =
            cols.as_slice()
        else {
            return Err(line_err(
                lineno,
                format!(
                    "expected at least {MIN_COLS} columns (container_id,machine_id,time_stamp,\
                     cpu_util_percent,...,net_in,net_out), got {}",
                    cols.len()
                ),
            ));
        };
        if col_cid.is_empty() {
            return Err(line_err(lineno, "empty container_id"));
        }
        let timestamp: u64 = col_ts
            .parse()
            .map_err(|_| line_err(lineno, format!("bad time_stamp {col_ts:?}")))?;
        let Some(cpu_pct) = opt_f64(col_cpu, lineno, "cpu_util_percent")? else {
            pamdc_obs::metrics::add(pamdc_obs::Counter::ImportRowsDropped, 1);
            return Ok(()); // no utilization signal: skip, don't guess
        };
        let mem_util_pct = opt_f64(col_mem, lineno, "mem_util_percent")?;
        let net_in_kbps = opt_f64(col_in, lineno, "net_in")?;
        let net_out_kbps = opt_f64(col_out, lineno, "net_out")?;
        let Some(service) = services.intern(col_cid) else {
            pamdc_obs::metrics::add(pamdc_obs::Counter::ImportRowsDropped, 1);
            return Ok(()); // beyond max_services
        };
        rows.push(UsageRow {
            timestamp,
            service,
            cpu_pct,
            net_in_kbps,
            net_out_kbps,
            mem_util_pct,
        });
        Ok(())
    })?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::{class_kb_out_mean, import, TraceFormat};
    use crate::service::ServiceClass;

    const ROW_A: &str = "c_1,m_1,10,25.0,40.2,1.1,0.4,0.02,120.0,350.0,5.0";
    const ROW_B: &str = "c_2,m_1,10,50.0,60.0,,,,,,";

    fn parse(text: &str) -> Result<Vec<UsageRow>, ImportError> {
        parse_rows(text.as_bytes(), &ImportOptions::default())
    }

    #[test]
    fn parses_full_and_sparse_rows() {
        let rows = parse(&format!("{ROW_A}\n{ROW_B}\n")).expect("parse");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].net_out_kbps, Some(350.0));
        assert_eq!(rows[1].net_out_kbps, None, "empty column = absent");
        assert_eq!(rows[1].service, 1);
    }

    #[test]
    fn empty_cpu_rows_are_skipped_not_fatal() {
        let rows = parse("c_1,m_1,10,,40.0,,,,,,\nc_1,m_1,20,30.0,40.0,,,,,,\n").expect("parse");
        assert_eq!(rows.len(), 1, "the cpu-less row is dropped");
        assert_eq!(rows[0].timestamp, 20);
    }

    #[test]
    fn malformed_rows_error_with_line_numbers() {
        // Truncated row (fewer than 10 columns).
        let err = parse("c_1,m_1,10,25.0\n").unwrap_err();
        assert!(err.0.contains("line 1"), "{err}");
        assert!(err.0.contains("at least 10 columns"), "{err}");
        // Bad timestamp.
        let err = parse("c_1,m_1,later,25.0,,,,,,,\n").unwrap_err();
        assert!(err.0.contains("bad time_stamp"), "{err}");
        // Bad (non-empty) cpu.
        let err = parse("c_1,m_1,10,much,,,,,,,\n").unwrap_err();
        assert!(err.0.contains("bad cpu_util_percent"), "{err}");
        // Bad net column.
        let err = parse(&format!("{ROW_A}\nc_2,m_1,10,25.0,,,,,fast,1.0,\n")).unwrap_err();
        assert!(
            err.0.contains("line 2") && err.0.contains("bad net_in"),
            "{err}"
        );
        // Negative utilization.
        let err = parse("c_1,m_1,10,-1.0,,,,,,,\n").unwrap_err();
        assert!(err.0.contains(">= 0"), "{err}");
    }

    #[test]
    fn net_columns_become_per_request_kb() {
        let t = import(
            TraceFormat::Alibaba,
            format!("{ROW_A}\n{ROW_B}\n").as_bytes(),
            &ImportOptions::default(),
        )
        .expect("import");
        assert_eq!(t.tick, pamdc_simcore::time::SimDuration::from_secs(10));
        // c_1: 25% of a core, file-hosting (3 ms/req) → 83.3 req/s;
        // 350 KB/s out → 4.2 KB/req.
        let f = &t.flows[0][0][0];
        let rps = 250.0 / 3.0;
        assert!((f.rps - rps).abs() < 1e-9);
        assert!((f.kb_out_per_req - 350.0 / rps).abs() < 1e-12);
        assert!((f.kb_in_per_req - 120.0 / rps).abs() < 1e-12);
        // c_2 has no net columns: class means (image-gallery).
        let g = &t.flows[0][1][0];
        assert_eq!(g.kb_in_per_req, ServiceClass::ImageGallery.kb_in_mean());
        assert_eq!(
            g.kb_out_per_req,
            class_kb_out_mean(ServiceClass::ImageGallery)
        );
    }

    #[test]
    fn derived_kb_above_the_demand_ceiling_is_refused() {
        // 1e-6% of a core is 3.3e-6 req/s, so 1e9 KB/s in is 3e14 KB
        // per request.
        let err = import(
            TraceFormat::Alibaba,
            "c_1,m_1,10,1e-6,,,,,1e9,1.0,\n".as_bytes(),
            &ImportOptions::default(),
        )
        .unwrap_err();
        assert!(
            err.0
                .contains("tick 0, service 0: kb_in must be at most the demand ceiling of 1e9"),
            "{err}"
        );
    }

    #[test]
    fn mem_util_percent_becomes_a_per_service_memory_profile() {
        // c_1 (file-hosting, 3 ms/req) at 50% CPU = 166.67 req/s,
        // in-flight = 166.67 x 0.0048 s = 0.8; 8% of 4096 MB = 327.68,
        // minus the 256 MB floor = 71.68 MB excess; 71.68 / 0.8 =
        // 89.6 MB per in-flight request (docs/TRACES.md rules).
        let text = "c_1,m_1,10,50.0,8.0,,,,,,\nc_2,m_1,10,30.0,,,,,,,\n";
        let t = import(
            TraceFormat::Alibaba,
            text.as_bytes(),
            &ImportOptions::default(),
        )
        .unwrap();
        let m = t.mem_mb_per_inflight[0].expect("measured");
        assert!((m - 89.6).abs() < 1e-9, "per-inflight {m}");
        assert_eq!(
            t.mem_mb_per_inflight[1], None,
            "no mem_util_percent sample = unmeasured"
        );
        // The profile survives the trace CSV round-trip bit-for-bit.
        let reparsed = crate::trace::DemandTrace::parse_csv(&t.to_csv()).expect("reparse");
        assert_eq!(t, reparsed);
        // A huge resident set against a tiny rate clamps at the
        // documented ceiling instead of going to infinity.
        let big = "c_1,m_1,10,0.5,90.0,,,,,,\n";
        let t = import(
            TraceFormat::Alibaba,
            big.as_bytes(),
            &ImportOptions::default(),
        )
        .unwrap();
        assert_eq!(t.mem_mb_per_inflight[0], Some(1024.0));
        // Memory below the VM floor measures as no excess -> unmeasured.
        let idle = "c_1,m_1,10,50.0,2.0,,,,,,\n";
        let t = import(
            TraceFormat::Alibaba,
            idle.as_bytes(),
            &ImportOptions::default(),
        )
        .unwrap();
        assert_eq!(t.mem_mb_per_inflight[0], None);
    }

    #[test]
    fn header_row_is_skipped() {
        let header = "container_id,machine_id,time_stamp,cpu_util_percent,mem_util_percent,cpi,\
                      mem_gps,mpki,net_in,net_out,disk_io_percent";
        assert_eq!(
            parse(&format!("{header}\n{ROW_A}\n")).expect("parse").len(),
            1
        );
        // Leading comments don't hide the header.
        assert_eq!(
            parse(&format!("# note\n{header}\n{ROW_A}\n"))
                .expect("parse")
                .len(),
            1
        );
    }
}
