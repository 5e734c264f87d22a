// Fixture: secret-bearing identifiers in obs span/counter labels — the
// label literal, a formatted binding, and a registry type name — plus the
// PR-5 exported surfaces: trace-event names/args (Chrome trace JSON) and
// gauge/histogram names (Prometheus label values), the one-call scope
// opener and the profiler frame (collapsed stacks, deterministic profile).

pub fn record_costs(rec: &Recorder, cost: SpanCost) {
    rec.record_span("seal.secret_key", cost);
    rec.record_zero_attempt("SealedBlob.open");
    rec.incr("private_key.uses", 1);
}

pub fn record_telemetry(rec: &Recorder, secret_key: u64) {
    rec.trace_begin("seal.secret_key", &[]);
    rec.trace_instant("epc.load", &[("key", secret_key.to_string())]);
    rec.trace_end("seal.secret_key");
    rec.gauge("private_key.bits", 62);
    rec.observe("SealedBlob.bytes", 4096);
}

pub fn open_scopes(rec: &Recorder, cost: SpanCost) {
    rec.open("unseal.secret_key", &[]).close(cost);
    let _frame = prof::span("SealedBlob.open");
}
