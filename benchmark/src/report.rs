//! What one run produced and how it is printed: `name value unit` lines for
//! a reader, a JSON file under `benchmark/out/`, and the one-line JSON
//! result the driver parses from the end of standard output.

use crate::spec::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub struct Outcome {
    /// Values by metric name; every metric of the run's table is present.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Requests issued (warm-ups included) and how many did not verify.
    pub attempted: u64,
    pub failed: u64,
    /// Broken determinism gates and wrong micro-primitive outputs.
    pub errors: Vec<String>,
    /// The canary drifted: the machine changed speed during the run.
    pub noisy: bool,
    /// Extra fields of the JSON file, already encoded.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn value(&self, metric: &Metric) -> f64 {
        let value = *self
            .metrics
            .get(metric.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
        assert!(value.is_finite(), "metric {} is not finite", metric.name);
        value
    }

    /// One `name value unit` line per metric of `table`.
    pub fn lines(&self, table: &[Metric]) -> String {
        let mut out = String::new();
        for m in table {
            let _ = writeln!(out, "{} {} {}", m.name, self.value(m), m.unit);
        }
        out
    }

    fn metrics_json(&self, table: &[Metric], with_exact: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in table.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                if i > 0 { "," } else { "" },
                m.name,
                self.value(m),
                m.unit
            );
            if with_exact {
                let _ = write!(out, ",\"exact\":{}", m.exact);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The driver's result line.
    pub fn result_line(&self, table: &[Metric]) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(table, false)
        )
    }

    /// The JSON file of the run.
    pub fn file_json(&self, table: &[Metric]) -> String {
        let mut out = String::from("{");
        for (key, value) in &self.info {
            let _ = write!(out, "\"{key}\":{value},\n ");
        }
        let errors: Vec<String> = self.errors.iter().map(|e| json_string(e)).collect();
        let _ = write!(
            out,
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"noisy\":{},\"errors\":[{}],\n \"metrics\":{}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            self.noisy,
            errors.join(","),
            self.metrics_json(table, true)
        );
        out
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `benchmark/out/`, beside the manifest this binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes one output file and says so; a run that cannot write its files
/// still reports its result.
pub fn write_out(file: &str, contents: &str) {
    let path = out_dir().join(file);
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
