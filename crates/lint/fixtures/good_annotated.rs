// Fixture: one instance of each banned pattern, each suppressed by a
// well-formed `lint:allow(rule, reason)`.  Must scan clean.

impl Broker {
    fn decode_trusted(&self, bytes: &[u8]) -> Vec<u8> {
        let count = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        // lint:allow(unchecked-capacity, count is validated against a signed manifest above)
        let out = Vec::with_capacity(count);
        out
    }

    fn ffi_shim(&self) {
        // lint:allow(std-sync-lock, required by an external callback ABI)
        let gate = std::sync::Mutex::new(());
        drop(gate);
    }

    fn wall_clock_stamp(&self) -> Instant {
        Instant::now() // lint:allow(raw-clock, operator-facing log timestamp only)
    }

    fn scratch_lock(&self) {
        // lint:allow(unclassed-lock, never held across another lock; local scratch)
        let scratch = Mutex::new(0u32);
        drop(scratch);
    }
}
