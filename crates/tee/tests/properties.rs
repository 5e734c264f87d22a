//! Property-based tests for the TEE simulator: sealing integrity, EPC
//! accounting invariants, attestation chain robustness, and cost-model
//! monotonicity.

use hesgx_obs::{counters, Recorder};
use hesgx_tee::attestation::AttestationService;
use hesgx_tee::cost::{CostModel, VirtualClock};
use hesgx_tee::enclave::{EnclaveBuilder, Platform};
use hesgx_tee::epc::{Epc, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn seal_roundtrip_any_payload(code in proptest::collection::vec(any::<u8>(), 1..64),
                                  payload in proptest::collection::vec(any::<u8>(), 0..1000)) {
        let platform = Platform::new(1);
        let enclave = EnclaveBuilder::new("p").add_code(&code).build(platform);
        let (blob, _) = enclave.seal(&payload);
        let (restored, _) = enclave.unseal(&blob);
        prop_assert_eq!(restored.unwrap(), payload);
    }

    #[test]
    fn quote_chain_verifies_for_any_user_data(user_data in proptest::collection::vec(any::<u8>(), 0..500)) {
        let platform = Platform::new(3);
        let enclave = EnclaveBuilder::new("p").add_code(b"c").build(platform.clone());
        let mut service = AttestationService::new();
        service.register_platform(platform.quoting_enclave());
        let report = enclave.create_report(user_data.clone());
        let quote = platform.quoting_enclave().quote(&report).unwrap();
        let verified = service.verify(&quote).unwrap();
        prop_assert_eq!(verified.user_data, user_data);
        prop_assert_eq!(&verified.measurement, enclave.measurement());
    }

    #[test]
    fn epc_resident_never_exceeds_capacity(capacity_pages in 1usize..32,
                                           heap_pages in 1usize..48,
                                           touches in proptest::collection::vec(0usize..64 * PAGE_SIZE, 0..30)) {
        let mut epc = Epc::new(capacity_pages * PAGE_SIZE, heap_pages * PAGE_SIZE);
        let rec = Recorder::enabled();
        epc.set_recorder(rec.clone());
        for &bytes in &touches {
            let before = rec.counter(counters::EPC_PAGE_FAULTS) + rec.counter(counters::EPC_HITS);
            let touched = epc.touch(bytes);
            let after = rec.counter(counters::EPC_PAGE_FAULTS) + rec.counter(counters::EPC_HITS);
            // A prefix past the heap is refused before any page is touched.
            let pages = bytes.div_ceil(PAGE_SIZE);
            prop_assert_eq!(touched.is_ok(), pages <= heap_pages);
            prop_assert_eq!(after - before, if touched.is_ok() { pages as u64 } else { 0 });
            prop_assert!(epc.resident_pages() <= capacity_pages);
        }
        // Conservation: evictions <= faults.
        prop_assert!(rec.counter(counters::EPC_EVICTIONS) <= rec.counter(counters::EPC_PAGE_FAULTS));
    }

    #[test]
    fn a_fitting_prefix_retouches_without_faults(capacity_pages in 1usize..32,
                                                 earlier in proptest::collection::vec(0usize..64 * PAGE_SIZE, 0..8),
                                                 pages in 0usize..32) {
        // Whatever was touched before, a prefix the EPC holds faults at most
        // once: with no fault hook installed, its second touch is all hits.
        let pages = pages.min(capacity_pages);
        let mut epc = Epc::new(capacity_pages * PAGE_SIZE, 64 * PAGE_SIZE);
        for &bytes in &earlier {
            epc.touch(bytes).unwrap();
        }
        prop_assert!(epc.touch(pages * PAGE_SIZE).unwrap() <= pages as u64);
        prop_assert_eq!(epc.touch(pages * PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn virtual_time_monotone_in_each_term(real in 0u64..10_000_000,
                                          transitions in 0u64..16,
                                          bytes in 0u64..1_000_000,
                                          faults in 0u64..256) {
        let model = CostModel {
            jitter_rel_std: 0.0,
            ..CostModel::default()
        };
        let clock = VirtualClock::new(model, 0);
        let base = clock.charge(real, transitions, bytes, faults);
        let more_faults = clock.charge(real, transitions, bytes, faults + 1);
        let more_bytes = clock.charge(real, transitions, bytes + 4096, faults);
        let more_transitions = clock.charge(real, transitions + 2, bytes, faults);
        prop_assert!(more_faults.total_ns() >= base.total_ns());
        prop_assert!(more_bytes.total_ns() >= base.total_ns());
        prop_assert!(more_transitions.total_ns() > base.total_ns());
        // Virtual time never below real time.
        prop_assert!(base.total_ns() >= real);
    }

    #[test]
    fn fake_sgx_is_identity_on_real_time(real in 0u64..100_000_000) {
        let clock = VirtualClock::new(CostModel::fake_sgx(), 0);
        prop_assert_eq!(clock.charge(real, 2, 12345, 17).total_ns(), real);
    }

    #[test]
    fn measurement_collision_free_for_distinct_code(a in proptest::collection::vec(any::<u8>(), 1..64),
                                                    b in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(a != b);
        let platform = Platform::new(4);
        let ea = EnclaveBuilder::new("x").add_code(&a).build(platform.clone());
        let eb = EnclaveBuilder::new("x").add_code(&b).build(platform);
        prop_assert_ne!(ea.measurement(), eb.measurement());
    }
}

// A valid quote with one attested field changed must be refused with an
// error, never accepted: the measurement or the user data (the signature no
// longer covers them), or the platform id (an unknown platform, or the other
// registered one, whose key did not sign it).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quote_with_a_changed_field_never_verifies(user_data in proptest::collection::vec(any::<u8>(), 0..64),
                                                 field in 0u8..3,
                                                 pos in any::<usize>(),
                                                 flip in 1u8..255,
                                                 other_platform in any::<bool>()) {
        let (platform, other) = (Platform::new(5), Platform::new(6));
        let enclave = EnclaveBuilder::new("p").add_code(b"c").build(platform.clone());
        let mut service = AttestationService::new();
        service.register_platform(platform.quoting_enclave());
        service.register_platform(other.quoting_enclave());
        let report = enclave.create_report(user_data);
        let mut quote = platform.quoting_enclave().quote(&report).unwrap();
        prop_assert!(service.verify(&quote).is_ok());
        match field {
            0 => quote.measurement[pos % 32] ^= flip,
            1 if quote.user_data.is_empty() => quote.user_data.push(flip),
            1 => {
                let at = pos % quote.user_data.len();
                quote.user_data[at] ^= flip;
            }
            _ if other_platform => quote.platform_id = other.quoting_enclave().platform_id(),
            _ => quote.platform_id[pos % 32] ^= flip,
        }
        prop_assert!(service.verify(&quote).is_err());
    }
}
