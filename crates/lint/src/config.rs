//! Rule configuration: the secret-type registry and the path scopes that
//! bind each rule to the part of the workspace where its invariant lives.
//!
//! Paths are matched by normalized substring (`/`-separated), so entries
//! work both for workspace files (`crates/tee/src/enclave.rs`) and for the
//! fixture corpus (`crates/lint/tests/fixtures/enclave-panic/bad.rs`).

/// One entry in the secret-bearing type registry.
pub struct SecretType {
    /// The exact type identifier.
    pub name: &'static str,
    /// Whether `#[derive(Debug)]` / `impl Display` on this type is banned
    /// (types whose fields redact via manual `Debug` impls set this false).
    pub no_debug: bool,
    /// Where the type may appear in `pub` signatures / `pub` fields:
    /// `Some(paths)` restricts to files matching one of the substrings;
    /// `None` means the type is unrestricted in public APIs (opaque handles
    /// whose Debug is still sensitive).
    pub pub_sig_allowed: Option<&'static [&'static str]>,
}

/// The registry of secret-bearing types (ISSUE: secret-hygiene rule).
///
/// The `pub_sig_allowed` lists trace the paper's trust boundary: secret key
/// material may cross public APIs only where the enclave wrapper or the
/// user-side key ceremony legitimately handles it.
pub const SECRET_TYPES: &[SecretType] = &[
    SecretType {
        name: "SecretKey",
        no_debug: true,
        pub_sig_allowed: Some(&[
            "crates/bfv/src",
            "crates/tee/src",
            "crates/core/src/sgx_ops.rs",
            "crates/core/src/keydist.rs",
            "crates/henn/src/crt.rs",
        ]),
    },
    SecretType {
        name: "EvaluationKeys",
        no_debug: true,
        // Relinearization keys are evaluation material handed to the HE
        // compute layer by design (they cannot decrypt); hesgx-henn is that
        // layer. They still must not be Debug-dumped.
        pub_sig_allowed: Some(&["crates/bfv/src", "crates/henn/src"]),
    },
    SecretType {
        name: "GaloisKeys",
        // Switching keys from `σ_g(s)` back to `s`: evaluation material of
        // the same class as the relinearization keys, handed to the same
        // layer. The derived Debug prints only the redacting
        // `EvaluationKeys` inside.
        no_debug: false,
        pub_sig_allowed: Some(&["crates/bfv/src", "crates/henn/src"]),
    },
    SecretType {
        name: "KeyGenerator",
        no_debug: true,
        pub_sig_allowed: None,
    },
    SecretType {
        name: "CrtKeys",
        // CrtKeys aggregates SecretKey values whose Debug impls redact, so
        // deriving Debug on the aggregate is safe.
        no_debug: false,
        pub_sig_allowed: Some(&[
            "crates/henn/src/crt.rs",
            "crates/henn/src/lib.rs",
            "crates/core/src/keydist.rs",
            "crates/core/src/sgx_ops.rs",
        ]),
    },
    SecretType {
        name: "KeyCeremonyPublic",
        no_debug: false,
        // The ceremony result is what the *user* receives over the attested
        // channel; the provisioning pipeline and Session API hand it out.
        pub_sig_allowed: Some(&[
            "crates/core/src/keydist.rs",
            "crates/core/src/pipeline.rs",
            "crates/core/src/session.rs",
        ]),
    },
    SecretType {
        name: "IngressKey",
        // Both halves (ChaCha20 + HMAC keys) redact via a manual Debug impl.
        no_debug: true,
        // The transcipher ingress key crosses exactly the paths of the
        // client → enclave upload: derivation, client-side sealing, the
        // ECALL wrapper, and the Session entry point.
        pub_sig_allowed: Some(&[
            "crates/crypto/src/transcipher.rs",
            "crates/core/src/keydist.rs",
            "crates/core/src/sgx_ops.rs",
            "crates/core/src/ingress.rs",
            "crates/core/src/session.rs",
        ]),
    },
    SecretType {
        name: "SigningKey",
        no_debug: true,
        pub_sig_allowed: Some(&["crates/crypto/src/schnorr.rs", "crates/tee/src"]),
    },
    SecretType {
        name: "ChaChaRng",
        no_debug: true,
        pub_sig_allowed: None,
    },
    SecretType {
        name: "Platform",
        no_debug: true,
        pub_sig_allowed: None,
    },
    SecretType {
        name: "QuotingEnclave",
        no_debug: true,
        pub_sig_allowed: None,
    },
    SecretType {
        name: "SealedBlob",
        no_debug: true,
        pub_sig_allowed: None,
    },
];

/// Files holding enclave-resident code, where panics abort the ECALL, and
/// the serve path around it, where a panic takes a broker worker down with
/// a host-shaped request (`enclave-panic` rule).
pub const ENCLAVE_PATHS: &[&str] = &[
    "crates/tee/src",
    "crates/core/src",
    "crates/henn/src/layers.rs",
    "crates/henn/src/image.rs",
    "crates/henn/src/ops.rs",
    "crates/henn/src/par.rs",
    "crates/henn/src/weights.rs",
    "crates/henn/src/crt.rs",
    "fixtures/enclave-panic",
];

/// Files holding cryptographic primitives, where secret-dependent
/// comparisons must be constant-time (`const-time` rule).
pub const CONST_TIME_PATHS: &[&str] = &["crates/crypto/src", "fixtures/const-time"];

/// Files defining the ECALL surface; every `pub fn` must charge the TEE
/// cost model (`ecall-cost` rule).
pub const ECALL_PATHS: &[&str] = &[
    "crates/core/src/sgx_ops.rs",
    "crates/core/src/recovery.rs",
    "crates/core/src/ingress.rs",
    "crates/serve/src/dispatch.rs",
    "fixtures/ecall-cost",
];

/// Identifiers that mark a comparison as secret-dependent for the
/// `const-time` rule (beyond registry type names).
pub const SECRET_VALUE_TOKENS: &[&str] = &["tag", "mac", "digest", "challenge", "secret", "hmac"];

/// Identifier suffixes with the same meaning (`auth_tag`, `expected_mac`…).
pub const SECRET_VALUE_SUFFIXES: &[&str] = &["_tag", "_mac", "_digest"];

/// Identifiers that mark a log/format line as secret-bearing for the
/// `secret-log` rule (beyond registry type names).
pub const SECRET_LOG_TOKENS: &[&str] =
    &["secret", "user_secret", "sk", "secret_key", "private_key"];

/// All rule identifiers (for suppression-marker validation).
pub const RULE_IDS: &[&str] = &[
    "secret-debug",
    "secret-pub-api",
    "secret-log",
    "enclave-panic",
    "const-time",
    "unsafe-safety",
    "forbid-unsafe",
    "ecall-cost",
    "obs-secret-label",
    "wall-clock",
    "unordered-iter",
    "rng-fork",
    "hot-path-alloc",
];

/// Paths where raw wall-clock reads are legitimate (`wall-clock` rule):
/// the single audited accessor module, the wall-only bench crate, and the
/// profiler (`hesgx_obs::prof` sits below `hesgx-tee`, so it cannot route
/// through the `WallTimer` shim without a dependency cycle; its wall
/// numbers are quarantined to non-deterministic exports by design —
/// DESIGN.md §18). The exemption is file-scoped: the rest of `crates/obs`
/// stays banned.
pub const WALL_OK_PATHS: &[&str] = &[
    "crates/bench/src",
    "crates/tee/src/wall.rs",
    "crates/obs/src/prof.rs",
];

/// Unordered hash containers tracked by the dataflow pass
/// (`unordered-iter` rule).
pub const TRACKED_CONTAINER_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that iterate a container in arbitrary order
/// (`unordered-iter` rule). `get`/`insert`/`retain`/`contains_key` are
/// point operations and do not observe ordering.
pub const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Function-name fragments that mark a function as feeding
/// serialized/exported bytes (`unordered-iter` rule).
pub const SINK_NAME_TOKENS: &[&str] = &[
    "json",
    "serialize",
    "render",
    "export",
    "snapshot",
    "digest",
    "hash",
    "report",
    "prometheus",
    "perfetto",
];

/// Body identifiers with the same meaning: a function whose body calls one
/// of these produces ordering-sensitive output.
pub const SINK_BODY_TOKENS: &[&str] = &[
    "serialize",
    "to_json",
    "render_json",
    "push_str",
    "digest",
    "sha256",
    "snapshot",
];

/// Identifier fragments that mark a bare `loop` as a retry loop
/// (`rng-fork` rule). Rejection-sampling loops speak none of these.
pub const RETRY_VOCAB: &[&str] = &["attempt", "retry", "backoff", "reprovision"];

/// ChaCha methods that are deterministic per attempt (`rng-fork` rule):
/// deriving a child stream or copying the base does not advance shared
/// state.
pub const RNG_SAFE_METHODS: &[&str] = &["fork", "clone"];

/// Allocating methods banned inside hot-path loops (`hot-path-alloc`).
pub const HOT_ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "clone", "collect"];

/// Every type name the dataflow pass tracks: the secret registry plus the
/// unordered containers.
pub fn tracked_types() -> Vec<&'static str> {
    SECRET_TYPES
        .iter()
        .map(|t| t.name)
        .chain(TRACKED_CONTAINER_TYPES.iter().copied())
        .collect()
}

/// Whether `path` (normalized, `/`-separated) matches one of `scopes`.
pub fn path_in(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.contains(s))
}
