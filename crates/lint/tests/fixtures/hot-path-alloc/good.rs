//! Clean counterpart: buffers are hoisted out of the hot loops and reused;
//! unmarked functions are free to allocate (the marker is an opt-in
//! contract).

// hesgx-lint: hot
fn accumulate_rows(rows: &[Vec<u64>]) -> Vec<u64> {
    let mut out = Vec::with_capacity(rows.len());
    let mut scratch = vec![0u64; 4]; // hoisted: allocated once, outside the loop
    for row in rows {
        scratch[0] = row[0] * 2;
        out.push(scratch[0]);
    }
    out
}

fn setup_tables(rows: &[Vec<u64>]) -> Vec<Vec<u64>> {
    // Unmarked cold path: allocation per iteration is acceptable here.
    let mut tables = Vec::new();
    for row in rows {
        tables.push(row.to_vec());
    }
    tables
}
