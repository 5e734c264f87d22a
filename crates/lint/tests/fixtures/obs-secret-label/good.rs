// Fixture: labels named after pipeline stages and public operations are
// fine, as are secret-named bindings on lines that record nothing. Trace
// events and gauge/histogram names are held to the same standard: stage
// paths and public metadata only, and so are scopes and profiler frames.

pub fn record_costs(rec: &Recorder, cost: SpanCost, attempts: u64) {
    rec.record_span("infer.layer[1].ecall", cost);
    rec.record_zero_attempt("recovery.retry");
    rec.incr("recovery.attempts", attempts); // the count is public metadata
}

pub fn record_telemetry(rec: &Recorder, bits: u32, bytes: u64) {
    rec.trace_begin("session.request", &[("api", "infer_batch".to_string())]);
    rec.trace_instant("epc.load", &[("page", 7.to_string())]);
    rec.gauge("noise.budget.layer[3].pre", u64::from(bits)); // bit-count only
    rec.observe("ecall.bytes", bytes);
    rec.trace_end("session.request");
}

pub fn open_scopes(rec: &Recorder, cost: SpanCost) {
    rec.open("infer.layer[1].ecall", &[]).close(cost);
    let _frame = prof::span("session.serve");
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_labels_are_exempt() {
        let rec = Recorder::enabled();
        rec.incr("sk", 1);
        rec.trace_begin("sk", &[]);
    }
}
