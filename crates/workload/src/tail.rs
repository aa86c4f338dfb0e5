//! Live demand feeds: tail an append-only trace CSV as it grows.
//!
//! A [`TailSource`] streams demand from a file another process is still
//! writing — the same CSV schema [`DemandTrace::to_csv`] emits, minus
//! the foreknowledge: a live writer cannot declare `# ticks` up front,
//! appends rows tick by tick, and may be caught mid-row by a reader.
//!
//! Polling is **incremental**: the file is parsed exactly once, by the
//! same reader [`DemandTrace::parse_csv`] runs. Each
//! [`TailSource::poll`] reads only the bytes appended since the last
//! look (the reader keeps parser state, including a torn final row,
//! across polls), so tailing a multi-gigabyte feed costs the delta, not
//! the history. A torn final row is withheld, not an error. Because
//! consumed bytes are never re-read, the poll also re-verifies the
//! pinned header block byte-for-byte and refuses files that shrink — a
//! writer restarting into the same path is an error, not a silent
//! rewind.
//!
//! A `TailSource` is a poller, not a demand source: a consumer reads
//! the ready prefix through [`TailSource::ready_ticks`] and
//! [`TailSource::trace`] and steps each tick's flows itself (`pamdc
//! serve` does, as `StepDemand::Flows`).

use crate::trace::{DemandTrace, TraceError, TraceTail};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Streams demand from an append-only trace CSV a live writer grows.
#[derive(Debug)]
pub struct TailSource {
    path: PathBuf,
    /// Incremental parser state + the materialized feed prefix.
    tail: TraceTail,
    /// Raw bytes of the header block (through the column-header row),
    /// pinned at open. Re-verified on every poll: a same-length
    /// in-place rewrite of the shape headers would otherwise escape
    /// the offset-based delta read entirely.
    probe: Vec<u8>,
    /// Ticks safe to consume: every tick of a finished feed, or every
    /// tick the writer provably moved past. Without an end marker the
    /// last ingested tick may still be receiving rows, so it is not yet
    /// ready, and neither is the tick a torn final row names.
    ready: usize,
    /// Whether the writer marked the feed finished (`# end`, or a
    /// declared `# ticks` count fully delivered).
    complete: bool,
}

impl TailSource {
    /// Opens a feed. Fails while the writer has not yet flushed the
    /// full header block (callers poll-retry until it appears) or when
    /// the file is malformed beyond a torn final row.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path)
            .map_err(|e| TraceError(format!("cannot read feed {}: {e}", path.display())))?;
        let mut tail = TraceTail::open(&bytes)?;
        let probe = bytes
            .get(..tail.header_end() as usize)
            .unwrap_or_default()
            .to_vec();
        let (ready, complete) = tail.refresh()?;
        Ok(TailSource {
            path,
            tail,
            probe,
            ready,
            complete,
        })
    }

    /// Reads the bytes appended since the last poll and advances the
    /// ready prefix. Returns the new ready-tick count. The feed must
    /// only ever be appended to: a shape change or shrink (writer
    /// restarted into the same path) is an error, not a silent rewind.
    pub fn poll(&mut self) -> Result<usize, TraceError> {
        let io_err = |e: std::io::Error| {
            TraceError(format!("cannot read feed {}: {e}", self.path.display()))
        };
        let mut file = std::fs::File::open(&self.path).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        let fed = self.tail.fed_bytes();
        if len < fed {
            return Err(TraceError(format!(
                "feed {} shrank from {fed} to {len} bytes (writer restarted?)",
                self.path.display()
            )));
        }
        // Consumed bytes are never re-read, so the header block gets a
        // dedicated byte-identity check instead.
        let mut head = vec![0u8; self.probe.len()];
        file.read_exact(&mut head).map_err(io_err)?;
        if head != self.probe {
            return Err(TraceError(format!(
                "feed {} changed shape mid-stream (header block rewritten)",
                self.path.display()
            )));
        }
        file.seek(SeekFrom::Start(fed)).map_err(io_err)?;
        let mut delta = Vec::new();
        file.read_to_end(&mut delta).map_err(io_err)?;
        self.tail.feed(&delta)?;
        let (ready, complete) = self.tail.refresh()?;
        if ready < self.ready {
            return Err(TraceError(format!(
                "feed {} shrank from {} to {ready} ready ticks (writer restarted?)",
                self.path.display(),
                self.ready
            )));
        }
        self.ready = ready;
        self.complete = complete;
        Ok(self.ready)
    }

    /// The tailed file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes ingested so far — the file offset the next poll
    /// resumes reading from. Tracks the feed's on-disk size whenever
    /// the source is up to date.
    pub fn fed_bytes(&self) -> u64 {
        self.tail.fed_bytes()
    }

    /// Ticks currently safe to consume.
    pub fn ready_ticks(&self) -> usize {
        self.ready
    }

    /// Whether the writer marked the feed finished.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The ingested prefix of the feed.
    pub fn trace(&self) -> &DemandTrace {
        self.tail.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::FlowSample;
    use crate::libcn;
    use crate::service::ServiceClass;
    use crate::source::Demand;
    use pamdc_simcore::time::SimDuration;

    fn feed_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pamdc-tail-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    /// A 6-tick recorded CSV split into (header+first ticks, rest).
    fn recorded_halves() -> (String, String) {
        let w = Demand::from(libcn::multi_dc(2, 90.0, 21));
        let trace = DemandTrace::record(&w, SimDuration::from_mins(6), SimDuration::from_mins(1));
        let csv = trace.to_csv();
        // Strip the `# ticks` foreknowledge a live writer lacks.
        let csv: String = csv
            .lines()
            .filter(|l| !l.starts_with("# ticks"))
            .map(|l| format!("{l}\n"))
            .collect();
        let cut = csv.find("\n3,").map(|i| i + 1).expect("tick-3 rows");
        (csv[..cut].to_string(), csv[cut..].to_string())
    }

    #[test]
    fn tailing_a_growing_feed_advances_monotonically() {
        let path = feed_path("grow.csv");
        let (head, rest) = recorded_halves();
        std::fs::write(&path, &head).expect("write head");
        let mut tail = TailSource::open(&path).expect("open");
        // Ticks 0..2 are on disk; tick 2 may still be growing.
        assert_eq!(tail.ready_ticks(), 2);
        assert!(!tail.is_complete());
        let flows = &tail.trace().flows;
        assert!(flows.len() >= 2 && !flows[1][0].is_empty());
        let early = flows[..2].to_vec();
        // The writer catches up and closes the feed: the ready prefix
        // grows without rewriting the ticks already handed out.
        std::fs::write(&path, format!("{head}{rest}# end\n")).expect("append");
        assert_eq!(tail.poll().expect("poll"), 6);
        assert!(tail.is_complete());
        assert_eq!(tail.trace().flows[..2], early[..]);
        assert!(!tail.trace().flows[5][0].is_empty());
    }

    #[test]
    fn a_torn_append_is_withheld_until_flushed() {
        let path = feed_path("torn.csv");
        let (head, rest) = recorded_halves();
        // Catch the writer mid-row in tick 3.
        let torn = format!("{head}{}", &rest[..rest.len().min(9)]);
        assert!(!torn.ends_with('\n'));
        std::fs::write(&path, &torn).expect("write torn");
        let mut tail = TailSource::open(&path).expect("open");
        assert_eq!(tail.ready_ticks(), 3, "ticks 0-2 provably complete");
        std::fs::write(&path, format!("{head}{rest}")).expect("flush");
        assert_eq!(tail.poll().expect("poll"), 5, "tick 5 may still grow");
    }

    #[test]
    fn shrinking_or_reshaping_feeds_are_rejected() {
        let path = feed_path("shrink.csv");
        let (head, rest) = recorded_halves();
        std::fs::write(&path, format!("{head}{rest}")).expect("write");
        let mut tail = TailSource::open(&path).expect("open");
        assert_eq!(tail.ready_ticks(), 5);
        std::fs::write(&path, &head).expect("truncate");
        assert!(tail.poll().is_err(), "feed shrank");
        std::fs::write(&path, head.replace("# regions = 4", "# regions = 7")).expect("reshape");
        let mut tail2 = TailSource::open(&path).expect("reopen");
        std::fs::write(&path, &head).expect("restore");
        assert!(tail2.poll().is_err(), "shape changed mid-stream");
    }

    /// A deterministic dense trace big enough that whole-file re-parses
    /// per poll would dominate: `ticks × services × 4 regions` rows.
    fn big_feed(ticks: usize, services: usize) -> (DemandTrace, String) {
        let mut flows = Vec::with_capacity(ticks);
        for t in 0..ticks {
            flows.push(
                (0..services)
                    .map(|s| {
                        (0..4usize)
                            .map(|r| FlowSample {
                                region: r,
                                rps: 100.0 + (t * 7 + s * 3 + r) as f64 * 0.013,
                                kb_in_per_req: 1.5 + r as f64 * 0.25,
                                kb_out_per_req: 20.0 + s as f64 * 0.125,
                                cpu_ms_per_req: 3.0 + (t % 5) as f64 * 0.0625,
                            })
                            .collect()
                    })
                    .collect(),
            );
        }
        let trace = DemandTrace {
            tick: SimDuration::from_mins(1),
            regions: 4,
            classes: vec![ServiceClass::Blog; services],
            mem_mb_per_inflight: vec![None; services],
            flows,
        };
        // Strip the `# ticks` foreknowledge a live writer lacks.
        let csv: String = trace
            .to_csv()
            .lines()
            .filter(|l| !l.starts_with("# ticks"))
            .map(|l| format!("{l}\n"))
            .collect();
        (trace, csv)
    }

    #[test]
    fn offset_polls_match_whole_file_parses_on_a_multi_mb_feed() {
        let path = feed_path("multimb.csv");
        let (trace, csv) = big_feed(3500, 5);
        let bytes = csv.as_bytes();
        assert!(
            bytes.len() > 2 * 1024 * 1024,
            "feed must be multi-MB, got {} bytes",
            bytes.len()
        );
        // Deliberately non-line-aligned cut points: every append
        // boundary tears a row, so the carry buffer is exercised on
        // open and on every poll.
        let mut cuts: Vec<usize> = (1..8).map(|i| bytes.len() * i / 8 + 13).collect();
        cuts.push(bytes.len());
        std::fs::write(&path, &bytes[..cuts[0]]).expect("write first chunk");
        let mut tail = TailSource::open(&path).expect("open");
        for &cut in &cuts {
            std::fs::write(&path, &bytes[..cut]).expect("append");
            tail.poll().expect("poll");
            // The incremental reader ingested exactly the on-disk bytes
            // (each poll read only the delta past the last offset)...
            assert_eq!(tail.fed_bytes(), cut as u64);
            // ...and its view is indistinguishable from reading the
            // whole file at once.
            let mut whole = TraceTail::open(&bytes[..cut]).expect("whole-file read");
            let (ready, complete) = whole.refresh().expect("whole-file refresh");
            assert_eq!(tail.ready_ticks(), ready);
            assert_eq!(tail.is_complete(), complete);
            assert_eq!(
                tail.trace().flows[..ready],
                whole.trace().flows[..ready],
                "ready prefix diverged at {cut} bytes"
            );
        }
        // Polling an unchanged file is a cheap no-op.
        let before = tail.ready_ticks();
        assert_eq!(tail.poll().expect("idle poll"), before);
        // The writer closes the feed: the store now equals the recorded
        // trace bit-for-bit.
        std::fs::write(&path, format!("{csv}# end\n")).expect("end");
        tail.poll().expect("final poll");
        assert!(tail.is_complete());
        assert_eq!(tail.ready_ticks(), 3500);
        assert_eq!(tail.fed_bytes(), csv.len() as u64 + "# end\n".len() as u64);
        assert_eq!(tail.trace(), &trace);
    }

    #[test]
    fn a_finished_feed_exposes_its_whole_recording() {
        let path = feed_path("finished.csv");
        let (head, rest) = recorded_halves();
        std::fs::write(&path, format!("{head}{rest}# end\n")).expect("write");
        let tail = TailSource::open(&path).expect("open");
        assert!(tail.is_complete());
        assert_eq!(tail.ready_ticks(), 6);
        let w = Demand::from(libcn::multi_dc(2, 90.0, 21));
        let recorded =
            DemandTrace::record(&w, SimDuration::from_mins(6), SimDuration::from_mins(1));
        assert_eq!(tail.trace().service_count(), 2);
        assert_eq!(tail.trace().flows[..tail.ready_ticks()], recorded.flows[..]);
    }
}
