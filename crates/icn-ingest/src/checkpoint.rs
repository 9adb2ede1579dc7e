//! Checkpoint/restore format (`icn-ingest/v1`).
//!
//! A checkpoint captures everything needed to resume ingestion after a
//! crash: the schema, the committed totals, the open (unsealed) buckets,
//! the watermark, the quarantine/retry counters, and the number of records
//! consumed from the source. Restoring a checkpoint and replaying the rest
//! of the stream must reproduce the exact final state of an uninterrupted
//! run — bit for bit. Floats are therefore serialized as the hex of their
//! IEEE-754 bit patterns (`f64::to_bits`), never as decimal text, so a
//! round trip cannot lose a single ulp.
//!
//! The rendered document is plain JSON (via `icn_obs::Json`, insertion
//! ordered, so rendering is deterministic) and carries a schema tag; the
//! golden snapshot `tests/golden/ingest_scale005.json` pins the FNV-1a hash
//! of a rendered checkpoint, so any accidental format drift fails CI
//! loudly instead of silently resuming wrong.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use icn_obs::Json;
use icn_stats::Matrix;

use crate::accumulator::StreamAccumulator;
use crate::pipeline::IngestStats;
use crate::record::{IngestSchema, QuarantineReason};

/// Schema tag of the checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "icn-ingest/v1";

/// A resumable snapshot of an ingest pipeline.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The stream schema the pipeline was validating against.
    pub schema: IngestSchema,
    /// Lateness window of the accumulator, in hours.
    pub lateness: u32,
    /// Records consumed from the source so far (the resume offset).
    pub records_consumed: u64,
    /// Counters at checkpoint time.
    pub stats: IngestStats,
    pub(crate) acc: StreamAccumulator,
}

impl Checkpoint {
    /// Renders the checkpoint as a deterministic JSON document.
    pub fn render(&self) -> String {
        let max_hour = match self.acc.max_hour_seen() {
            Some(h) => Json::num(f64::from(h)),
            None => Json::Null,
        };
        let open: Vec<Json> = self
            .acc
            .open_buckets()
            .map(|(hour, bucket)| {
                let mut cells = String::new();
                for (i, dl, ul) in bucket.iter() {
                    let (a, s) = bucket.key(i);
                    if !cells.is_empty() {
                        cells.push(' ');
                    }
                    let _ = write!(cells, "{a}:{s}:{:016x}:{:016x}", dl.to_bits(), ul.to_bits());
                }
                Json::obj(vec![
                    ("hour", Json::num(f64::from(hour))),
                    ("cells", Json::str(cells)),
                ])
            })
            .collect();
        let quarantined = Json::Obj(
            self.stats
                .quarantined
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                .collect(),
        );
        let doc = Json::obj(vec![
            ("schema", Json::str(CHECKPOINT_SCHEMA)),
            (
                "dims",
                Json::obj(vec![
                    ("antennas", Json::num(f64::from(self.schema.antennas))),
                    ("services", Json::num(f64::from(self.schema.services))),
                    ("hours", Json::num(f64::from(self.schema.hours))),
                    ("lateness", Json::num(f64::from(self.lateness))),
                ]),
            ),
            (
                "progress",
                Json::obj(vec![
                    ("records_consumed", Json::num(self.records_consumed as f64)),
                    ("max_hour_seen", max_hour),
                    (
                        "committed_below",
                        Json::num(f64::from(self.acc.committed_below())),
                    ),
                ]),
            ),
            (
                "stats",
                Json::obj(vec![
                    ("ok", Json::num(self.stats.ok as f64)),
                    ("retried", Json::num(self.stats.retried as f64)),
                    ("chunks", Json::num(self.stats.chunks as f64)),
                    ("quarantined", quarantined),
                ]),
            ),
            (
                "totals_bits",
                Json::str(bits_of(self.acc.committed_totals().as_slice())),
            ),
            (
                "hourly_volume_bits",
                Json::str(bits_of(self.acc.hourly_volume())),
            ),
            (
                "hourly_records",
                Json::str(counts_of(self.acc.hourly_records())),
            ),
            ("open", Json::Arr(open)),
        ]);
        doc.to_pretty()
    }

    /// FNV-1a hash of the rendered document, as a 16-hex-digit string.
    /// This is the value pinned by the ingest golden snapshot.
    pub fn hash(&self) -> String {
        format!("{:016x}", fnv1a(self.render().as_bytes()))
    }

    /// Parses a rendered checkpoint back into a resumable state.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let doc = Json::parse(text)?;
        let tag = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("checkpoint missing schema tag")?;
        if tag != CHECKPOINT_SCHEMA {
            return Err(format!(
                "checkpoint schema `{tag}` is not `{CHECKPOINT_SCHEMA}`"
            ));
        }
        let dims = doc.get("dims").ok_or("checkpoint missing dims")?;
        let schema = IngestSchema {
            antennas: get_u32(dims, "antennas")?,
            services: get_u32(dims, "services")?,
            hours: get_u32(dims, "hours")?,
        };
        let lateness = get_u32(dims, "lateness")?;

        let progress = doc.get("progress").ok_or("checkpoint missing progress")?;
        let records_consumed = get_u64(progress, "records_consumed")?;
        let committed_below = get_u32(progress, "committed_below")?;
        let max_hour_seen = match progress.get("max_hour_seen") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or("max_hour_seen is not a number")
                    .map(|f| f as u32)?,
            ),
        };

        let stats_doc = doc.get("stats").ok_or("checkpoint missing stats")?;
        let mut quarantined = BTreeMap::new();
        if let Some(entries) = stats_doc.get("quarantined").and_then(Json::entries) {
            for (k, v) in entries {
                let n = v.as_f64().ok_or("quarantine count is not a number")?;
                quarantined.insert(k.clone(), n as u64);
            }
        }
        let stats = IngestStats {
            ok: get_u64(stats_doc, "ok")?,
            retried: get_u64(stats_doc, "retried")?,
            chunks: get_u64(stats_doc, "chunks")?,
            quarantined,
        };

        let totals_flat = parse_bits(get_str(&doc, "totals_bits")?)?;
        let (rows, cols) = (schema.antennas as usize, schema.services as usize);
        if totals_flat.len() != rows * cols {
            return Err(format!(
                "totals_bits has {} values, dims say {}",
                totals_flat.len(),
                rows * cols
            ));
        }
        let totals = Matrix::from_vec(rows, cols, totals_flat);
        let hourly_volume = parse_bits(get_str(&doc, "hourly_volume_bits")?)?;
        let hourly_records = parse_counts(get_str(&doc, "hourly_records")?)?;
        if hourly_volume.len() != schema.hours as usize
            || hourly_records.len() != schema.hours as usize
        {
            return Err("hourly arrays do not match schema hours".to_string());
        }

        let mut acc = StreamAccumulator::from_parts(
            schema,
            lateness,
            totals,
            hourly_volume,
            hourly_records,
            max_hour_seen,
            committed_below,
        );
        // Open hours are rendered strictly ascending and always inside the
        // watermark window; anything else cannot come from a real run.
        let mut last_hour = None;
        for entry in doc.get("open").and_then(Json::as_arr).unwrap_or(&[]) {
            let hour = get_u32(entry, "hour")?;
            let in_window = max_hour_seen
                .is_some_and(|max| hour <= max && hour >= max.saturating_sub(lateness));
            if hour >= schema.hours || !in_window {
                return Err(format!(
                    "open hour {hour} is outside the watermark window \
                     (max_hour_seen {max_hour_seen:?}, lateness {lateness}, hours {})",
                    schema.hours
                ));
            }
            if last_hour.is_some_and(|h| hour <= h) {
                return Err(format!("open hour {hour} is repeated or out of order"));
            }
            last_hour = Some(hour);
            let cells = get_str(entry, "cells")?;
            if cells.trim().is_empty() {
                return Err(format!("open hour {hour} has no cells"));
            }
            let bucket = acc.open_hour(hour);
            for cell in cells.split(' ').filter(|c| !c.is_empty()) {
                let mut it = cell.split(':');
                let (Some(a), Some(s), Some(dl), Some(ul), None) =
                    (it.next(), it.next(), it.next(), it.next(), it.next())
                else {
                    return Err(format!("malformed open cell `{cell}`"));
                };
                let a: u32 = a.parse().map_err(|_| format!("bad antenna in `{cell}`"))?;
                let s: u32 = s.parse().map_err(|_| format!("bad service in `{cell}`"))?;
                let dl = f64::from_bits(
                    u64::from_str_radix(dl, 16).map_err(|_| format!("bad dl bits in `{cell}`"))?,
                );
                let ul = f64::from_bits(
                    u64::from_str_radix(ul, 16).map_err(|_| format!("bad ul bits in `{cell}`"))?,
                );
                bucket.insert(a, s, dl, ul).map_err(|reason| match reason {
                    QuarantineReason::DuplicateKey => {
                        format!("open cell `{cell}` is repeated in hour {hour}")
                    }
                    _ => format!(
                        "open cell `{cell}` is outside the {}x{} dims ({reason})",
                        schema.antennas, schema.services
                    ),
                })?;
            }
        }

        Ok(Checkpoint {
            schema,
            lateness,
            records_consumed,
            stats,
            acc,
        })
    }

    /// Writes the rendered checkpoint to a file.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Reads and parses a checkpoint file.
    pub fn read_file(path: &Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        Checkpoint::parse(&text)
            .map_err(|e| format!("cannot parse checkpoint {}: {e}", path.display()))
    }
}

/// FNV-1a over a byte slice (the same construction icn-testkit's canonical
/// hasher uses; duplicated locally because icn-testkit depends on this
/// crate, not the other way round).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bits_of(values: &[f64]) -> String {
    let mut s = String::with_capacity(values.len() * 17);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{:016x}", v.to_bits());
    }
    s
}

fn counts_of(values: &[u64]) -> String {
    let mut s = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{v}");
    }
    s
}

fn parse_bits(text: &str) -> Result<Vec<f64>, String> {
    text.split(' ')
        .filter(|t| !t.is_empty())
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad f64 bits `{t}`"))
        })
        .collect()
}

fn parse_counts(text: &str) -> Result<Vec<u64>, String> {
    text.split(' ')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().map_err(|_| format!("bad count `{t}`")))
        .collect()
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("checkpoint missing string field `{key}`"))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("checkpoint missing numeric field `{key}`"))
}

fn get_u32(doc: &Json, key: &str) -> Result<u32, String> {
    get_u64(doc, key).map(|v| v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HourlyRecord;

    fn sample_checkpoint() -> Checkpoint {
        let schema = IngestSchema {
            antennas: 3,
            services: 2,
            hours: 12,
        };
        let mut acc = StreamAccumulator::new(schema, 2);
        // Values with awkward bit patterns: a ulp-level decimal round trip
        // would corrupt these.
        let vals = [0.1, 1.0 / 3.0, 2e-17, 1e16 + 1.0];
        for (k, &v) in vals.iter().enumerate() {
            let r = HourlyRecord {
                antenna: (k % 3) as u32,
                service: (k % 2) as u32,
                hour: k as u32 * 3,
                bytes_dl: v,
                bytes_ul: v / 7.0,
            };
            acc.insert(&r).unwrap();
        }
        // Two open hours (7 and 9), cells inserted out of key order.
        for (a, s, h) in [(2, 1, 7), (1, 0, 9), (0, 0, 9)] {
            let r = HourlyRecord {
                antenna: a,
                service: s,
                hour: h,
                bytes_dl: 0.7,
                bytes_ul: 0.3,
            };
            acc.insert(&r).unwrap();
        }
        let mut stats = IngestStats {
            ok: 7,
            chunks: 1,
            ..IngestStats::default()
        };
        stats.quarantined.insert("duplicate_key".to_string(), 2);
        Checkpoint {
            schema,
            lateness: 2,
            records_consumed: 9,
            stats,
            acc,
        }
    }

    #[test]
    fn render_parse_round_trip_is_bit_exact() {
        let ck = sample_checkpoint();
        let text = ck.render();
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.schema, ck.schema);
        assert_eq!(back.lateness, ck.lateness);
        assert_eq!(back.records_consumed, ck.records_consumed);
        assert_eq!(back.stats, ck.stats);
        assert_eq!(back.acc.committed_below(), ck.acc.committed_below());
        assert_eq!(back.acc.max_hour_seen(), ck.acc.max_hour_seen());
        let (a, b) = (ck.acc.committed_totals(), back.acc.committed_totals());
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(back.acc.open_records(), ck.acc.open_records());
        // Re-render is byte-identical, so the hash is stable.
        assert_eq!(back.render(), text);
        assert_eq!(back.hash(), ck.hash());
    }

    #[test]
    fn schema_tag_is_enforced() {
        let text = sample_checkpoint()
            .render()
            .replace(CHECKPOINT_SCHEMA, "icn-ingest/v0");
        let err = Checkpoint::parse(&text).unwrap_err();
        assert!(err.contains("icn-ingest/v0"), "{err}");
    }

    #[test]
    fn truncated_totals_are_rejected() {
        let ck = sample_checkpoint();
        let text = ck.render();
        // Corrupt the totals payload: drop one value.
        let needle = "\"totals_bits\": \"";
        let start = text.find(needle).unwrap() + needle.len();
        let end = text[start..].find('"').unwrap() + start;
        let mut bits: Vec<&str> = text[start..end].split(' ').collect();
        bits.pop();
        let corrupted = format!("{}{}{}", &text[..start], bits.join(" "), &text[end..]);
        assert!(Checkpoint::parse(&corrupted).is_err());
    }

    /// Replaces the first occurrence of `from` in the rendered sample.
    fn tampered(from: &str, to: &str) -> Result<Checkpoint, String> {
        let text = sample_checkpoint().render();
        assert!(text.contains(from), "sample lacks `{from}`:\n{text}");
        Checkpoint::parse(&text.replacen(from, to, 1))
    }

    #[test]
    fn open_cells_render_in_ascending_key_order() {
        let text = sample_checkpoint().render();
        let cells: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("\"cells\": \""))
            .collect();
        assert_eq!(cells.len(), 2, "{text}");
        assert!(cells[0].starts_with("2:1:"), "{}", cells[0]);
        let keys: Vec<&str> = cells[1].split(' ').map(|c| &c[..3]).collect();
        assert_eq!(keys, ["0:0", "0:1", "1:0"]);
    }

    #[test]
    fn open_cells_outside_the_dims_are_rejected() {
        // Cell 0:5 of a 3x2 slab would otherwise land on the flat index of
        // cell (2, 1); antenna 9000 would index past the slab.
        for bad in ["0:5:", "9000:0:", "3:0:"] {
            let err = tampered("\"cells\": \"2:1:", &format!("\"cells\": \"{bad}")).unwrap_err();
            assert!(err.contains("outside the 3x2 dims"), "{bad}: {err}");
        }
    }

    #[test]
    fn repeated_open_cells_and_hours_are_rejected() {
        let text = sample_checkpoint().render();
        let start = text.find("\"cells\": \"0:0:").unwrap() + "\"cells\": \"".len();
        let first = &text[start..start + text[start..].find(' ').unwrap()];
        let doubled = text.replacen(first, &format!("{first} {first}"), 1);
        let err = Checkpoint::parse(&doubled).unwrap_err();
        assert!(err.contains("is repeated in hour 9"), "{err}");

        let err = tampered("\"hour\": 9", "\"hour\": 7").unwrap_err();
        assert!(err.contains("repeated or out of order"), "{err}");
    }

    #[test]
    fn open_hours_outside_the_window_are_rejected() {
        // Hour 12 is past the 12-hour window; hour 6 is below the
        // watermark 9 − 2, so a real run would already have sealed it.
        for hour in ["12", "6"] {
            let err = tampered("\"hour\": 7", &format!("\"hour\": {hour}")).unwrap_err();
            assert!(
                err.contains("outside the watermark window"),
                "{hour}: {err}"
            );
        }
        let err = tampered("\"max_hour_seen\": 9", "\"max_hour_seen\": null").unwrap_err();
        assert!(err.contains("outside the watermark window"), "{err}");
    }
}
