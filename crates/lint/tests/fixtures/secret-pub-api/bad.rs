// Fixture: secret key material crossing a public API outside the
// sanctioned modules must be flagged (both signatures and fields).

pub fn export_key(slot: usize) -> SecretKey {
    lookup(slot)
}

pub fn export_rotations(slot: usize) -> GaloisKeys {
    lookup(slot)
}

pub struct Harness {
    pub keys: CrtKeys,
}
